"""Finite-dimensional coalgebras and the convolution algebra Hom(C, A).

Comultiplication is stored as structure constants d[i][j][k], meaning the
coefficient of e_j (x) e_k in Delta(e_i); the matrix of Delta maps C into
C (x) C under the (j, k) -> j*dim+k index convention.  Linear maps C -> A are
held as dim(A) x dim(C) matrices, column j = the image of the j-th basis
element of C.
"""

from __future__ import annotations

from .algebra import AlgebraPresentation
from .exactla import (
    DenseMatrix,
    FieldSpec,
    ShapeError,
    differing_columns,
    flat_blocks,
    hstack,
    json_dim,
    json_get,
    kron,
    kron_mul,
    once,
    parse_array,
    solve_matrix,
)
from .verdict import Verdict


class CoalgebraPresentation:

    def __init__(self, field: FieldSpec, dim: int, comult, counit, name: str = ""):
        self.field = field
        self.dim = dim
        if len(comult) != dim or any(len(row) != dim for row in comult) or any(
                len(cell) != dim for row in comult for cell in row):
            raise ShapeError("comultiplication constants have the wrong shape")
        if len(counit) != dim:
            raise ShapeError("counit vector has the wrong length")
        self.comult = [[[field.normalize(x) for x in cell] for cell in row]
                       for row in comult]
        self.counit = [field.normalize(x) for x in counit]
        self.name = name

    @once
    def comult_matrix(self) -> DenseMatrix:
        """Delta as a (dim^2) x dim matrix, row (j, k) = j*dim + k."""
        m = self.dim
        ent = [0] * (m * m * m)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    x = self.comult[i][j][k]
                    if x:
                        ent[(j * m + k) * m + i] = x
        return DenseMatrix(self.field, m * m, m, ent)

    @once
    def comult_slices(self, leg: str) -> list[DenseMatrix]:
        """Per basis element c, the dim x dim matrix D_c whose entry (c1, k)
        is the coefficient of c1 (x) c (leg "second") or of c (x) c1 (leg
        "first") in Delta(c_k)."""
        m, d, f = self.dim, self.comult, self.field
        if leg == "second":
            return [DenseMatrix(f, m, m, [d[k][c1][c] for c1 in range(m) for k in range(m)])
                    for c in range(m)]
        return [DenseMatrix(f, m, m, [d[k][c][c1] for c1 in range(m) for k in range(m)])
                for c in range(m)]

    def counit_matrix(self) -> DenseMatrix:
        return DenseMatrix.from_rows(self.field, [list(self.counit)], cols=self.dim)

    def to_json(self) -> dict:
        f = self.field
        return {
            "dim": self.dim,
            "comult": [[[f.scalar_to_json(x) for x in cell] for cell in row]
                       for row in self.comult],
            "counit": [f.scalar_to_json(x) for x in self.counit],
        }

    @staticmethod
    def from_json(field: FieldSpec, obj: dict, name: str = "") -> "CoalgebraPresentation":
        dim = json_dim(obj, "dim", "coalgebra")
        comult = parse_array(field, json_get(obj, "comult", "coalgebra"), (dim, dim, dim),
                             "coalgebra comult")
        counit = parse_array(field, json_get(obj, "counit", "coalgebra"), (dim,),
                             "coalgebra counit")
        return CoalgebraPresentation(field, dim, comult, counit, name=name)

    def __repr__(self):
        label = self.name or f"{self.dim}-dim coalgebra"
        return f"CoalgebraPresentation({label} over {self.field.kind})"


def grouplike_coalgebra(field: FieldSpec, n: int, name: str = "") -> CoalgebraPresentation:
    """The coalgebra with n group-like basis elements."""
    comult = [[[1 if (j == i and k == i) else 0 for k in range(n)]
               for j in range(n)] for i in range(n)]
    return CoalgebraPresentation(field, n, comult, [1] * n, name=name)


@once
def verify_coalgebra(C: CoalgebraPresentation) -> Verdict:
    """Coassociativity and the two counit laws as exact matrix identities.

    Memoized with ``once`` on C, which is frozen, as ``verify_algebra`` is
    on its algebra: one verdict serves the bialgebra check at load and
    ``EntwinedContext.verify_axioms``, and it is never mutated."""
    v = Verdict()
    m = C.dim
    f = C.field
    delta = C.comult_matrix()
    eye = DenseMatrix.identity(f, m)
    left = kron_mul(delta, eye, delta)   # (Delta (x) id) Delta
    right = kron_mul(eye, delta, delta)  # (id (x) Delta) Delta
    for i in differing_columns(left, right):
        v.fail("coassociativity", (i,))
    eps = C.counit_matrix()
    for i in differing_columns(kron_mul(eps, eye, delta), eye):
        v.fail("counit-left", (i,))
    for i in differing_columns(kron_mul(eye, eps, delta), eye):
        v.fail("counit-right", (i,))
    return v


# ---------------------------------------------------------------------------
# the convolution algebra Hom(C, A)
# ---------------------------------------------------------------------------


def convolution_unit(C: CoalgebraPresentation, A: AlgebraPresentation) -> DenseMatrix:
    """The unit eta_A . eps_C of the convolution algebra."""
    return kron(A.unit_matrix(), C.counit_matrix())


def convolution(fmap: DenseMatrix, gmap: DenseMatrix, C: CoalgebraPresentation,
                A: AlgebraPresentation) -> DenseMatrix:
    """(f * g)(c) = sum f(c_1) g(c_2), as a dim(A) x dim(C) matrix."""
    if fmap.rows != A.dim or fmap.cols != C.dim or gmap.rows != A.dim or gmap.cols != C.dim:
        raise ShapeError("convolution operands have the wrong shape")
    return A.mult_matrix().mul(kron_mul(fmap, gmap, C.comult_matrix()))


def _conv_operator(fmap: DenseMatrix, C: CoalgebraPresentation,
                   A: AlgebraPresentation, side: str) -> DenseMatrix:
    """h -> f*h (side 'left') or h*f: column (a, c) is rmul(e_a) f D_c, or
    lmul(e_a) f D'_c, read row-major.  All of them come from one product:
    the operators stacked, times f times the D_c side by side, has block
    (a, c) equal to op_a f D_c, which ``flat_blocks`` makes column (a, c)."""
    # D_c and D'_c are comult_slices("second")[c] and comult_slices("first")[c]
    if side == "left":
        ops, slices = A.rmuls, C.comult_slices("second")
    else:
        ops, slices = A.lmuls, C.comult_slices("first")
    nA, nC = A.dim, C.dim
    fD = fmap.mul(hstack(A.field, slices, nC))
    return flat_blocks(DenseMatrix.vstack(*ops).mul(fD), nA, nC)


def convolution_inverse(fmap: DenseMatrix, C: CoalgebraPresentation,
                        A: AlgebraPresentation) -> DenseMatrix | None:
    """Two-sided inverse of f under *, or None.

    Both one-sided identities are stacked into a single linear system, so a
    map with only a one-sided inverse is reported as non-invertible.
    """
    unit = convolution_unit(C, A).reshape(A.dim * C.dim, 1)
    L = _conv_operator(fmap, C, A, "left")
    R = _conv_operator(fmap, C, A, "right")
    sol = solve_matrix(L.vstack(R), unit.vstack(unit))
    return None if sol is None else sol.reshape(A.dim, C.dim)


def is_grouplike_C(C: CoalgebraPresentation, X: DenseMatrix) -> bool:
    """Delta(x) = x (x) x and eps(x) = 1 for x the one column of X, both
    exact."""
    if (X.rows, X.cols) != (C.dim, 1):
        raise ShapeError("candidate is not one column of the coalgebra's dimension")
    return C.counit_matrix().mul(X) == DenseMatrix.identity(C.field, 1) and \
        C.comult_matrix().mul(X) == kron(X, X)
