import random
from fractions import Fraction

from coring_lab.exactla import QQ, DenseMatrix
from coring_lab.coalgebra import (
    CoalgebraPresentation,
    convolution,
    convolution_inverse,
    convolution_unit,
    grouplike_coalgebra,
    is_grouplike_C,
    verify_coalgebra,
)

from helpers import group_algebra_z2, rationals_algebra


def trivial_coalgebra():
    return CoalgebraPresentation(QQ, 1, [[[1]]], [1], name="k")


def test_verify_grouplike_coalgebra():
    assert verify_coalgebra(grouplike_coalgebra(QQ, 2)).valid


def test_verify_trivial():
    assert verify_coalgebra(trivial_coalgebra()).valid


def test_verify_coalgebra_is_computed_once_per_coalgebra():
    C = grouplike_coalgebra(QQ, 2)
    assert verify_coalgebra(C) is verify_coalgebra(C)


def test_counit_failure_named():
    # Delta(e0) = e0 (x) e1 with eps(e1) = 0 breaks the counit at e0
    comult = [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]
    C = CoalgebraPresentation(QQ, 2, comult, [1, 0])
    v = verify_coalgebra(C)
    assert not v.valid
    assert any(f.axiom in ("counit-left", "counit-right") and f.indices == (0,)
               for f in v.failures)


def test_convolution_unit_law_random():
    rng = random.Random(5)
    C = grouplike_coalgebra(QQ, 2)
    A = group_algebra_z2()
    unit = convolution_unit(C, A)
    for _ in range(10):
        fmap = DenseMatrix(QQ, 2, 2, [Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
                                      for _ in range(4)])
        assert convolution(fmap, unit, C, A) == fmap
        assert convolution(unit, fmap, C, A) == fmap


def test_convolution_associative_random():
    rng = random.Random(9)
    C = grouplike_coalgebra(QQ, 2)
    A = group_algebra_z2()
    for _ in range(10):
        f1, f2, f3 = (DenseMatrix(QQ, 2, 2, [rng.randint(-3, 3) for _ in range(4)])
                      for _ in range(3))
        assert convolution(convolution(f1, f2, C, A), f3, C, A) == \
            convolution(f1, convolution(f2, f3, C, A), C, A)


def test_identity_convolved_with_itself():
    # over QZ2 with its group-like coalgebra: (id * id)(g) = g*g = 1
    C = grouplike_coalgebra(QQ, 2)
    A = group_algebra_z2()
    ident = DenseMatrix.identity(QQ, 2)
    sq = convolution(ident, ident, C, A)
    assert sq.col(1) == [1, 0]  # g |-> g*g = 1
    assert sq.col(0) == [1, 0]


def test_convolution_over_trivial_coalgebra_is_multiplication():
    C = trivial_coalgebra()
    A = group_algebra_z2()
    f = DenseMatrix(QQ, 2, 1, [1, 2])   # c0 -> 1 + 2g
    g = DenseMatrix(QQ, 2, 1, [0, 1])   # c0 -> g
    prod = convolution(f, g, C, A)
    assert prod.col(0) == A.mul_vec([1, 2], [0, 1])


def test_convolution_inverse_of_unit():
    C = grouplike_coalgebra(QQ, 2)
    A = group_algebra_z2()
    unit = convolution_unit(C, A)
    assert convolution_inverse(unit, C, A) == unit


def test_convolution_inverse_identity_is_itself():
    # the antipode of QZ2 is the identity map: id * id = unit (verified above)
    C = grouplike_coalgebra(QQ, 2)
    A = group_algebra_z2()
    ident = DenseMatrix.identity(QQ, 2)
    inv = convolution_inverse(ident, C, A)
    assert inv == ident


def test_convolution_inverse_absent():
    # lambda(1) = 0 can never be *-invertible over a group-like coalgebra:
    # (lambda * h)(1) = lambda(1) h(1) = 0 != 1.
    C = grouplike_coalgebra(QQ, 2)
    A = rationals_algebra()
    lam = DenseMatrix(QQ, 1, 2, [0, 1])
    assert convolution_inverse(lam, C, A) is None


def _column(x):
    return DenseMatrix.from_columns(QQ, [x], len(x))


def test_grouplike_detection():
    C = grouplike_coalgebra(QQ, 2)
    assert is_grouplike_C(C, _column([0, 1]))
    assert is_grouplike_C(C, _column([1, 0]))
    assert not is_grouplike_C(C, _column([1, 1]))          # eps = 2
    assert not is_grouplike_C(C, _column([Fraction(1, 2), Fraction(1, 2)]))  # Delta fails


def test_grouplike_stable_under_basis_permutation():
    # swap the two basis elements of C and re-test
    C = grouplike_coalgebra(QQ, 2)
    perm = [1, 0]
    comult = [[[C.comult[perm[i]][perm[j]][perm[k]] for k in range(2)]
               for j in range(2)] for i in range(2)]
    counit = [C.counit[perm[i]] for i in range(2)]
    C2 = CoalgebraPresentation(QQ, 2, comult, counit)
    assert verify_coalgebra(C2).valid
    assert is_grouplike_C(C2, _column([0, 1])) and is_grouplike_C(C2, _column([1, 0]))


def test_coalgebra_json_roundtrip():
    C = grouplike_coalgebra(QQ, 3)
    C2 = CoalgebraPresentation.from_json(QQ, C.to_json())
    assert C2.comult == C.comult and C2.counit == C.counit
