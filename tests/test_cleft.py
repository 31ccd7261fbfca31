import random

import pytest

from coring_lab.exactla import QQ, DenseMatrix, kron, kernel, solve_matrix
from coring_lab.coalgebra import CoalgebraPresentation, convolution, convolution_unit
from coring_lab.entwining import EntwinedContext
from coring_lab.cleft import (
    check_theorem_main,
    check_theorem_xcase,
    cleft_psi_inverse_check,
    find_cleft,
    gamma_M,
    integral_space,
    lemma_coQ_check,
    normal_basis_check,
    search_invertible,
    x_case_grouplike,
)

from crosscheck import induced_comodule
from helpers import lmul
from oracles import is_total
from test_entwining import make_fix_h, make_fix_n, make_fix_t


def test_integrals_fix_h():
    ctx = make_fix_h()
    ints = integral_space(ctx)
    assert ints.dim == 2
    assert ints.space.contains(DenseMatrix.identity(QQ, 2).entries)
    assert ints.total_example is not None
    assert is_total(ctx, ints.total_example.entries)


def test_integrals_fix_n():
    # oracle, by hand: colinearity of lambda over the scalars against the
    # coaction a -> a (x) g forces lambda(1) = 0, and the total ones have
    # lambda(g) = 1
    ctx = make_fix_n()
    ints = integral_space(ctx)
    assert ints.dim == 1
    assert ints.space.basis.row_lists() == [[0, 1]]
    assert ints.total_example.entries == [0, 1]


def test_integrals_fix_t():
    ctx = make_fix_t()
    ints = integral_space(ctx)
    assert ints.dim == 2          # all of Hom(k, A) = A
    assert is_total(ctx, [1, 0])  # lambda(1) = 1
    assert not is_total(ctx, [0, 1])


def test_find_cleft_fix_h_identity_witness():
    res = find_cleft(make_fix_h())
    assert res.status == "found"
    ident = DenseMatrix.identity(QQ, 2)
    assert res.witness.lam == ident
    assert res.witness.lam_bar == ident


def test_find_cleft_fix_n_certified_absent():
    res = find_cleft(make_fix_n())
    assert res.status == "absent"
    assert "grid" in res.certificate or "vanishes" in res.certificate
    assert res.answer is False and res.witness is None


def test_find_cleft_fix_t():
    res = find_cleft(make_fix_t())
    assert res.status == "found"
    assert res.witness.lam.col(0) == [1, 0]


def test_search_invertible_empty_space():
    res = search_invertible(QQ, [])
    assert res.status == "absent"


def test_search_invertible_inconclusive_many_params():
    # a 4-parameter family that is identically singular: with the grid capped
    # at 3 variables the search must admit it cannot decide
    def singular(flat):
        return DenseMatrix(QQ, 2, 2, [flat[0], flat[1], flat[0], flat[1]])  # equal rows

    mats = [singular([1 if t == i else 0 for t in range(4)]) for i in range(4)]
    res = search_invertible(QQ, mats)
    assert res.status == "inconclusive"


def test_search_invertible_skew_symmetric_span_absent_by_grid():
    # every 3 x 3 skew-symmetric matrix is singular (det A = det -A^T = -det A);
    # three parameters are within the grid, so the search proves absence
    def skew(i, j):
        ent = [0] * 9
        ent[i * 3 + j], ent[j * 3 + i] = 1, -1
        return DenseMatrix(QQ, 3, 3, ent)

    res = search_invertible(QQ, [skew(0, 1), skew(0, 2), skew(1, 2)])
    assert res.status == "absent"
    assert res.certificate == "determinant vanishes on a degree-3 grid"


def test_search_invertible_tries_random_rationals_as_integer_vectors():
    """No 0/1 pattern makes diag(t1, t2, t1 - t2) invertible, so the search
    reaches its seeded random rationals.  It tries each as an integer
    multiple and returns the first invertible one as the fractions drawn,
    in the order ``Fraction(randint, randint)`` draws them."""
    from fractions import Fraction
    from coring_lab.exactla import SeededStream, combination_is_invertible

    def diag(xs):
        ent = [0] * 9
        for i, x in enumerate(xs):
            ent[4 * i] = x
        return DenseMatrix(QQ, 3, 3, ent)

    mats = [diag([1, 0, 1]), diag([0, 1, -1])]
    for seed in range(4):
        rng = SeededStream(seed)
        for k in range(64):
            want = [Fraction(rng.randint(-2 ** 16, 2 ** 16), rng.randint(1, 2 ** 16))
                    for _ in mats]
            if combination_is_invertible(QQ, want, mats):
                break
        res = search_invertible(QQ, mats, seed)
        assert res.witness == want and all(type(t) is Fraction for t in res.witness)
        assert res.certificate == f"random candidate {k} (seed {seed})"


def test_lemma_coQ_fix_h():
    ctx = make_fix_h()
    res = find_cleft(ctx)
    out = lemma_coQ_check(ctx, res.witness.lam, res.witness.lam_bar)
    assert out["colinear"] and out["inverse_in_Q"]
    assert out["lam_hat_in_Q"] and out["lam_hat_at_x_is_1"]


def test_lemma_coQ_non_colinear_pair():
    # a *-invertible map that is not colinear must have its inverse outside Q
    ctx = make_fix_h()
    lam = DenseMatrix(QQ, 2, 2, [1, 0, 0, -1])  # 1 -> 1, g -> -g
    from coring_lab.coalgebra import convolution_inverse
    lam_bar = convolution_inverse(lam, ctx.C, ctx.A)
    assert lam_bar is not None
    out = lemma_coQ_check(ctx, lam, lam_bar)
    assert isinstance(out["colinear"], bool)
    assert out["colinear"] == out["inverse_in_Q"]


def test_gamma_M_fix_h():
    ctx = make_fix_h()
    res = find_cleft(ctx)
    g, gi = gamma_M(ctx, res.witness, ctx.comodule_A())
    assert g.rows == 2 and g.cols == 2    # A is free of rank 1 over B (x) C
    coring_com = induced_comodule(ctx, ctx.A.regular_module("right"))
    g2, _ = gamma_M(ctx, res.witness, coring_com)
    assert g2.rows == 4 and g2.cols == 4
    from coring_lab.coring import zero_comodule
    g0, _ = gamma_M(ctx, res.witness, zero_comodule(ctx))
    assert g0.rows == 0


def test_cleft_psi_inverse_on_witnesses():
    for mk in (make_fix_t, make_fix_h):
        ctx = mk()
        res = find_cleft(ctx)
        for w in ctx.default_witnesses():
            assert cleft_psi_inverse_check(ctx, res.witness, w), (ctx.name, w.name)


def test_normal_basis_results():
    assert normal_basis_check(make_fix_h()).status == "found"
    nb = normal_basis_check(make_fix_n())
    assert nb.status == "absent"
    assert "dimension obstruction" in nb.certificate
    assert normal_basis_check(make_fix_t()).status == "found"


def test_normal_basis_witness_is_equivariant_iso():
    ctx = make_fix_h()
    nb = normal_basis_check(ctx)
    theta = nb.witness
    assert kernel(theta).is_zero()
    data = ctx.morita()
    # left B-linearity and colinearity, re-checked directly
    rho_A = ctx.comodule_A().coaction
    rho_BC = kron(DenseMatrix.identity(QQ, data.B.dim), ctx.C.comult_matrix())
    assert kron(theta, DenseMatrix.identity(QQ, 2)).mul(rho_A) == \
        rho_BC.mul(theta)


def test_x_case_detection():
    assert x_case_grouplike(make_fix_h()).entries == [1, 0]
    assert x_case_grouplike(make_fix_n()).entries == [0, 1]
    assert x_case_grouplike(make_fix_t()).entries == [1]


def test_theorem_main_tables():
    assert set(check_theorem_main(make_fix_h())["clauses"].values()) == {True}
    assert set(check_theorem_main(make_fix_n())["clauses"].values()) == {False}
    assert set(check_theorem_main(make_fix_t())["clauses"].values()) == {True}


def test_theorem_xcase_tables():
    assert set(check_theorem_xcase(make_fix_h())["clauses"].values()) == {True}
    assert set(check_theorem_xcase(make_fix_n())["clauses"].values()) == {False}
    assert set(check_theorem_xcase(make_fix_t())["clauses"].values()) == {True}


def _permute_coalgebra_context(ctx, P):
    """Transport the whole context through an invertible change of basis of C."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    Pinv = solve_matrix(P, DenseMatrix.identity(f, nC))
    assert Pinv is not None
    delta_new = kron(Pinv, Pinv).mul(ctx.C.comult_matrix()).mul(P)
    comult = [[[delta_new.get(j * nC + k, i) for k in range(nC)]
               for j in range(nC)] for i in range(nC)]
    counit = ctx.C.counit_matrix().mul(P).row(0)
    C2 = CoalgebraPresentation(f, nC, comult, counit)
    eyeA = DenseMatrix.identity(f, nA)
    psi2 = kron(eyeA, Pinv).mul(ctx.psi).mul(kron(P, eyeA))
    u2 = kron(eyeA, Pinv).apply(ctx.unit_coaction)
    return EntwinedContext(ctx.A, C2, psi2, u2, name=ctx.name + "-perm")


@pytest.mark.parametrize("mk,expected", [(make_fix_h, "found"),
                                         (make_fix_n, "absent")])
def test_cleft_verdict_invariant_under_basis_change(mk, expected):
    rng = random.Random(31)
    ctx = mk()
    nC = ctx.C.dim
    for _ in range(3):
        while True:
            P = DenseMatrix(QQ, nC, nC,
                            [rng.randint(-2, 2) for _ in range(nC * nC)])
            if kernel(P).is_zero():
                break
        moved = _permute_coalgebra_context(ctx, P)
        assert moved.verify_axioms().valid
        res = find_cleft(moved, seed=rng.randint(0, 100))
        assert res.status == expected


def test_witness_identities_exact():
    # lam * lam_bar = unit on both sides, re-verified outside the search
    ctx = make_fix_h()
    res = find_cleft(ctx)
    unit = convolution_unit(ctx.C, ctx.A)
    assert convolution(res.witness.lam, res.witness.lam_bar, ctx.C, ctx.A) == unit
    assert convolution(res.witness.lam_bar, res.witness.lam, ctx.C, ctx.A) == unit


def test_gamma_A_is_left_B_linear():
    # with M = A the trivialization lands in B (x) C and intertwines the left
    # multiplications by coinvariant elements
    for mk in (make_fix_t, make_fix_h):
        ctx = mk()
        res = find_cleft(ctx)
        g, gi = gamma_M(ctx, res.witness, ctx.comodule_A())
        data = ctx.morita()
        eyeC = DenseMatrix.identity(QQ, ctx.C.dim)
        for j in range(data.B.dim):
            b = data.B.embedding.col(j)
            e_j = [1 if t == j else 0 for t in range(data.B.dim)]
            lhs = g.mul(lmul(ctx.A, b))
            rhs = kron(lmul(data.B.algebra, e_j), eyeC).mul(g)
            assert lhs == rhs


def test_superline_separates_normal_basis_from_cleft():
    # a graded line with a nilpotent odd part: the normal basis property
    # holds while the extension is neither cleft nor Galois, and the
    # equivalence tables must stay internally consistent on it
    from helpers import superline_context
    from coring_lab.morita import check_theorem_surj, check_theorem_Cfinite, find_qhat
    from coring_lab.galois import structure_flags, structure_report, beta

    ctx = superline_context()
    assert ctx.verify_axioms().valid
    data = ctx.morita()
    assert (data.B.dim, data.Q.dim) == (1, 2)
    assert find_qhat(data).entries == [1, 0, 0, 0]
    assert not beta(ctx).report.bijective
    assert normal_basis_check(ctx).status == "found"
    res = find_cleft(ctx)
    assert res.status == "absent" and "vanishes" in res.certificate
    assert set(check_theorem_surj(ctx)["clauses"].values()) == {True}
    assert set(check_theorem_Cfinite(ctx)["clauses"].values()) == {False}
    flags = structure_flags(ctx)
    assert not (flags.weak or flags.strong or flags.galois)
    assert set(structure_report(ctx)["fin_gen"]["clauses"].values()) == {False}
    assert set(check_theorem_main(ctx)["clauses"].values()) == {False}
    assert set(check_theorem_xcase(ctx)["clauses"].values()) == {False}
