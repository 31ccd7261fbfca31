"""Shared small presentations used across the test suite."""

import functools
import importlib.util
import os

from coring_lab.exactla import QQ, DenseMatrix, combinations
from coring_lab.algebra import AlgebraPresentation, ModulePresentation


def mult_table(A):
    """The structure constants of A, [i][j][k] the e_k-coefficient of
    e_i e_j, read off its left multiplication operators."""
    return [L.columns() for L in A.lmuls]


def lmul(A, u):
    """Left multiplication by the element of A with coordinates u."""
    return combinations(A.lmuls, DenseMatrix.from_columns(A.field, [u], A.dim))[0]


def rmul(A, u):
    """Right multiplication by the element of A with coordinates u."""
    return combinations(A.rmuls, DenseMatrix.from_columns(A.field, [u], A.dim))[0]


def dual_numbers():
    """Q[t]/(t^2) with basis {1, t}."""
    mult = [[[0, 0], [0, 0]] for _ in range(2)]
    mult[0][0] = [1, 0]
    mult[0][1] = [0, 1]
    mult[1][0] = [0, 1]
    mult[1][1] = [0, 0]
    return AlgebraPresentation(QQ, 2, mult, [1, 0], name="Q[t]/(t^2)")


def group_algebra_z2():
    """Q Z_2 = Q[g]/(g^2 - 1) with basis {1, g}."""
    mult = [[[0, 0], [0, 0]] for _ in range(2)]
    mult[0][0] = [1, 0]
    mult[0][1] = [0, 1]
    mult[1][0] = [0, 1]
    mult[1][1] = [1, 0]
    return AlgebraPresentation(QQ, 2, mult, [1, 0], name="QZ2")


def group_algebra_zn(n, field=QQ):
    """Q Z_n with basis {1, g, ..., g^{n-1}}."""
    mult = [[[1 if k == (i + j) % n else 0 for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = [1 if k == 0 else 0 for k in range(n)]
    return AlgebraPresentation(field, n, mult, unit, name=f"QZ{n}")


def rationals_algebra(field=QQ):
    return AlgebraPresentation(field, 1, [[[1]]], [1], name="k")


def module_with_zero_action(algebra, side="right"):
    """The 1-dim module of Q[t]/(t^2) where t acts as zero."""
    ident = DenseMatrix.identity(algebra.field, 1)
    zero = DenseMatrix.zeros(algebra.field, 1, 1)
    return ModulePresentation(algebra, 1, side, [ident, zero])


def superline_context():
    """Q[x]/(x^2) graded by Z/2, coacting through its grading.

    Separates the normal basis property from cleftness: the grading gives an
    equivariant trivialization but x squares to zero, so no integral is
    convolution-invertible; the comparison map dies on x (x) x as well.
    """
    from coring_lab.exactla import DenseMatrix
    from coring_lab.coalgebra import grouplike_coalgebra
    from coring_lab.entwining import EntwinedContext, doi_koppinen

    H = group_algebra_z2()
    C = grouplike_coalgebra(QQ, 2)
    A = dual_numbers()
    coaction = DenseMatrix.from_rows(QQ, [[1, 0], [0, 0], [0, 0], [0, 1]],
                                     cols=2)
    psi = doi_koppinen(H, C, A, coaction)
    return EntwinedContext(A, C, psi, [1, 0, 0, 0], name="superline")


GENERATE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "generate.py")
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@functools.lru_cache(maxsize=None)
def perfbench_records(workload):
    """The records that the benchmark's generator emits for a workload at
    seed 0, in its order."""
    spec = importlib.util.spec_from_file_location("perfbench_generate", GENERATE)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.WORKLOADS[workload](0, FIXTURE_DIR)


def perfbench_instance(workload, name):
    """The instance JSON that the benchmark's generator emits under this name
    at seed 0."""
    return next(r for r in perfbench_records(workload) if r["name"] == name)["instance"]
