import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from coring_lab.exactla import QQ, DenseMatrix, hstack
from coring_lab.algebra import AlgebraPresentation, verify_algebra
from coring_lab.coalgebra import CoalgebraPresentation, grouplike_coalgebra
from coring_lab.entwining import (
    EntwinedContext,
    build_coring,
    comodule_algebra_from_unit,
    doi_koppinen,
    flip_entwining,
    instance_from_json,
    verify_bialgebra,
    verify_entwining,
)
from coring_lab.coring import ComoduleInstance, SquareReducer, verify_coring
from coring_lab.verdict import Verdict, VerificationError

from crosscheck import is_grouplike, verify_comodule
from helpers import group_algebra_zn, mult_table, perfbench_instance, rationals_algebra
from instances import context


def make_fix_h():
    H = group_algebra_zn(2)
    C = grouplike_coalgebra(QQ, 2)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    return EntwinedContext(H, C, psi, [1, 0, 0, 0], name="fix-h")


def make_fix_n():
    A = rationals_algebra()
    C = grouplike_coalgebra(QQ, 2)
    return EntwinedContext(A, C, flip_entwining(A, C), [0, 1], name="fix-n")


def make_fix_t():
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    A = AlgebraPresentation(QQ, 2, mult, [1, 0])
    C = CoalgebraPresentation(QQ, 1, [[[1]]], [1])
    return EntwinedContext(A, C, flip_entwining(A, C), [1, 0], name="fix-t")


def test_flip_entwining_over_trivial_coalgebra():
    ctx = make_fix_t()
    assert verify_entwining(ctx.A, ctx.C, ctx.psi).valid


def test_doi_koppinen_psi_by_brute_force():
    # oracle: over the group algebra of Z/2 the map sends g^i (x) g^j to
    # g^j (x) g^(i+j); expand all four axioms on the basis grid directly.
    ctx = make_fix_h()
    psi = ctx.psi

    def psi_pairs(i, j):
        # returns (a_psi index, c^psi index) with coefficient 1
        return (j, (i + j) % 2)

    for i in range(2):       # c = g^i
        for j in range(2):   # a = g^j
            col = psi.col(i * 2 + j)
            aj, ck = psi_pairs(i, j)
            expect = [0] * 4
            expect[aj * 2 + ck] = 1
            assert col == expect
    assert verify_entwining(ctx.A, ctx.C, psi).valid
    # multiplicativity, by hand: psi(c (x) a a') vs the two-step route
    for i, j, k in itertools.product(range(2), repeat=3):
        a_idx, c_idx = psi_pairs(i, (j + k) % 2)
        aj1, c1 = psi_pairs(i, j)
        aj2, c2 = psi_pairs(c1, k)
        assert ((j + k) % 2, (i + j + k) % 2) == (a_idx, c_idx)
        assert (aj2, c2) == (k, (i + j + k) % 2)


def test_zero_psi_fails_unit_axiom():
    ctx = make_fix_h()
    zero = DenseMatrix.zeros(QQ, 4, 4)
    v = verify_entwining(ctx.A, ctx.C, zero)
    assert not v.valid
    assert "entwining-unit" in v.axioms()


def test_doi_koppinen_trivial_bialgebra_gives_flip():
    H = rationals_algebra()
    C = CoalgebraPresentation(QQ, 1, [[[1]]], [1])
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    assert psi == flip_entwining(H, C)


def test_doi_koppinen_rejects_bad_coaction():
    H = group_algebra_zn(2)
    C = grouplike_coalgebra(QQ, 2)
    # a coaction that is not coassociative: send 1 -> 1 (x) g
    bad = DenseMatrix.from_rows(QQ, [[0, 0], [1, 0], [0, 0], [0, 1]], cols=2)
    with pytest.raises(VerificationError) as err:
        doi_koppinen(H, C, H, bad)
    assert any("coaction" in f.axiom for f in err.value.verdict.failures)


def test_doi_koppinen_rejects_broken_bialgebra():
    H = group_algebra_zn(2)
    # counit that is not an algebra map on this multiplication
    C = CoalgebraPresentation(QQ, 2,
                              grouplike_coalgebra(QQ, 2).comult, [1, 0])
    v = verify_bialgebra(H, C)
    assert not v.valid


@pytest.mark.parametrize("n", [2, 3, 4])
def test_doi_koppinen_always_entwines_group_algebras(n):
    H = group_algebra_zn(n)
    C_comult = [[[1 if (j == i and k == i) else 0 for k in range(n)]
                 for j in range(n)] for i in range(n)]
    C = CoalgebraPresentation(QQ, n, C_comult, [1] * n)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    assert verify_entwining(H, C, psi).valid
    # any group-like g^k works as the coaction of 1
    for k in range(n):
        u = [0] * (n * n)
        u[0 * n + k] = 1
        ctx = EntwinedContext(H, C, psi, u, name=f"QZ{n}-x{k}")
        comod, x = comodule_algebra_from_unit(ctx)
        assert is_grouplike(ctx.coring(), x, SquareReducer(ctx.coring()))


def test_build_coring_valid_on_fixtures():
    for ctx in (make_fix_t(), make_fix_h(), make_fix_n()):
        cor = build_coring(ctx)
        assert verify_coring(cor).valid
        assert cor.dim == ctx.A.dim * ctx.C.dim


def test_build_coring_dims():
    assert build_coring(make_fix_t()).dim == 2
    assert build_coring(make_fix_h()).dim == 4
    assert build_coring(make_fix_n()).dim == 2


def test_sharp_ring_trivial_coalgebra_is_A():
    ctx = make_fix_t()
    sharp = ctx.sharp_ring().algebra
    assert verify_algebra(sharp).valid
    assert sharp.dim == 2
    # Hom(k, A) with the entwined product is A itself
    assert mult_table(sharp) == mult_table(ctx.A)


def test_sharp_ring_dual_of_grouplike_coalgebra():
    # oracle: the dual algebra of the group-like coalgebra is the product of
    # two copies of the scalars with pointwise multiplication
    ctx = make_fix_n()
    sharp = ctx.sharp_ring().algebra
    assert verify_algebra(sharp).valid
    assert sharp.dim == 2
    delta_1 = [1, 0]
    delta_g = [0, 1]
    assert mult_table(sharp)[0][0] == delta_1
    assert mult_table(sharp)[1][1] == delta_g
    assert mult_table(sharp)[0][1] == [0, 0]
    assert mult_table(sharp)[1][0] == [0, 0]
    assert sharp.unit == [1, 1]


def test_sharp_ring_fix_h():
    ctx = make_fix_h()
    sharp = ctx.sharp_ring().algebra
    assert sharp.dim == 4
    assert verify_algebra(sharp).valid
    # unit is eta . eps: the matrix with ones in the A-unit row
    assert ctx.sharp_ring().algebra.unit == [1, 1, 0, 0]


def test_comodule_algebra_from_unit_fix_h():
    ctx = make_fix_h()
    comod, x = comodule_algebra_from_unit(ctx)
    assert x == [1, 0, 0, 0]
    # rho_A = Delta on the group algebra
    assert comod.coaction == ctx.C.comult_matrix()


def test_comodule_algebra_from_unit_fix_n():
    ctx = make_fix_n()
    comod, x = comodule_algebra_from_unit(ctx)
    assert x == [0, 1]
    assert verify_comodule(comod).valid


def test_comodule_algebra_other_grouplike_is_valid():
    # 1 (x) g is the coaction attached to the other group-like of C and is a
    # perfectly good structure; the engine accepts it.
    H = group_algebra_zn(2)
    C = grouplike_coalgebra(QQ, 2)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    ctx = EntwinedContext(H, C, psi, [0, 1, 0, 0], name="x=g")
    comod, x = comodule_algebra_from_unit(ctx)
    assert verify_comodule(comod).valid and x == [0, 1, 0, 0]


def test_comodule_algebra_rejects_bad_unit_coaction():
    # g (x) 1 is not of the form 1 (x) group-like; its induced coaction
    # breaks coassociativity/counit and the builder must refuse it.
    H = group_algebra_zn(2)
    C = grouplike_coalgebra(QQ, 2)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    ctx = EntwinedContext(H, C, psi, [0, 0, 1, 0], name="broken")
    with pytest.raises(VerificationError) as err:
        comodule_algebra_from_unit(ctx)
    assert any(f.axiom.startswith("coaction") or f.axiom == "grouplike"
               or f.axiom == "entwined-module-law"
               for f in err.value.verdict.failures)


def test_comodule_algebra_from_unit_refuses_a_psi_that_does_not_entwine():
    """The check at 1 rests on the entwining axioms, so it is refused, and
    the coaction never checked, on a context whose psi fails them."""
    ctx = make_fix_h()
    n = ctx.psi.rows
    bad = EntwinedContext(ctx.A, ctx.C, DenseMatrix.zeros(QQ, n, n), ctx.unit_coaction)
    with pytest.raises(VerificationError) as err:
        comodule_algebra_from_unit(bad)
    names = err.value.verdict.axioms()
    assert names and all(name.startswith("entwining-") for name in names), names


def _unchecked_unit_comodule(ctx):
    """A with the coaction a -> u a, u the declared unit coaction, taken
    through the coring's right action and not checked."""
    cor = ctx.coring()
    u = DenseMatrix.from_columns(ctx.field, [ctx.x], cor.dim)
    rho = hstack(ctx.field, [R.mul(u) for R in cor.right_module.action], cor.dim)
    return ComoduleInstance(ctx, ctx.A.regular_module("right"), rho, name="A")


def _at_one(ctx) -> Verdict:
    """The verdict of ``comodule_algebra_from_unit``'s check at 1."""
    try:
        comodule_algebra_from_unit(ctx)
    except VerificationError as err:
        return err.verdict
    return Verdict()


@pytest.mark.parametrize("u,failures", [
    ([0, 1, 0, 0], []),
    ([0, 0, 0, 0], ["coaction-counit"]),
    ([-1, 2, 0, 0], ["coaction-coassociativity"]),
    ([0, 0, 1, 0], ["coaction-coassociativity", "coaction-counit"]),
])
def test_check_at_one_names_each_failing_law(u, failures):
    """On fix-h each law of the check at 1 fails on its own unit coaction,
    and names it as the check on every column does (that check names each
    failing column)."""
    ctx = make_fix_h()
    ctx = EntwinedContext(ctx.A, ctx.C, ctx.psi, u)
    assert _at_one(ctx).axioms() == failures
    assert sorted(set(verify_comodule(_unchecked_unit_comodule(ctx)).axioms())) == failures


def test_check_at_one_agrees_with_the_full_check_on_every_small_unit_coaction():
    """All 256 unit coactions of fix-h with entries in {-1, 0, 1, 2}: the
    laws at 1 hold iff the comodule laws hold on every column, and the
    entwined-module law never fails, as it is a theorem of the axioms."""
    base = make_fix_h()
    valid = 0
    for u in itertools.product([-1, 0, 1, 2], repeat=4):
        ctx = EntwinedContext(base.A, base.C, base.psi, list(u))
        full = verify_comodule(_unchecked_unit_comodule(ctx))
        assert "entwined-module-law" not in full.axioms()
        assert _at_one(ctx).valid == full.valid, u
        valid += full.valid
    assert valid == 2


@functools.lru_cache(maxsize=None)
def _unit_coaction_base(label):
    if label.startswith("QZ3"):
        obj = dict(perfbench_instance("ladder", "QZ3-x0-Q"))
        if label.endswith("F7"):
            obj["field"] = {"kind": "Fp", "p": 7}
        return instance_from_json(obj)
    return context(label)


UNIT_COACTION_BASES = ["fix-h-Q", "fix-h-F7", "fix-s-Q", "fix-s-F7", "QZ3-Q", "QZ3-F7"]


@given(st.data(), st.sampled_from(UNIT_COACTION_BASES))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_check_at_one_agrees_with_the_full_check(data, label):
    """Random unit coactions on fix-h, fix-s and QZ3 over Q and GF(7),
    entries in {-1, 0, 1, 2} with 0 drawn most often so that some are
    group-like: the check at 1 is valid iff ``verify_comodule``
    is, and that never names the entwined-module law."""
    base = _unit_coaction_base(label)
    n = base.A.dim * base.C.dim
    own = data.draw(st.booleans())
    u = base.x if own else data.draw(
        st.lists(st.sampled_from([0, 0, 0, -1, 1, 2]), min_size=n, max_size=n))
    ctx = EntwinedContext(base.A, base.C, base.psi, u)
    full = verify_comodule(_unchecked_unit_comodule(ctx))
    assert "entwined-module-law" not in full.axioms()
    assert _at_one(ctx).valid == full.valid
    assert full.valid or not own


def test_context_json_roundtrip():
    for ctx in (make_fix_t(), make_fix_n()):
        blob = ctx.to_json()
        back = instance_from_json(blob)
        assert mult_table(back.A) == mult_table(ctx.A)
        assert back.C.comult == ctx.C.comult
        assert back.psi == ctx.psi
        assert back.unit_coaction == ctx.unit_coaction
        assert back.digest() == ctx.digest()


def test_doi_koppinen_json_kind():
    ctx = make_fix_h()
    ctx2 = EntwinedContext(ctx.A, ctx.C, ctx.psi, ctx.unit_coaction,
                           name="fix-h", entwining_kind="doi_koppinen")
    blob = ctx2.to_json()
    assert blob["entwining"] == {"kind": "doi_koppinen"}
    back = instance_from_json(blob)
    assert back.psi == ctx.psi


def test_verify_axioms_tagged_names():
    ctx = make_fix_h()
    assert ctx.verify_axioms().valid
    bad_mult = [row[:] for row in mult_table(ctx.A)]
    bad_mult[1] = [cell[:] for cell in bad_mult[1]]
    bad_mult[1][1] = [0, 1]  # g*g = g breaks the inverse: unit stays fine
    A_bad = AlgebraPresentation(QQ, 2, bad_mult, [1, 0])
    ctx_bad = EntwinedContext(A_bad, ctx.C, ctx.psi, ctx.unit_coaction)
    v = ctx_bad.verify_axioms()
    assert not v.valid
    assert any(name.startswith("algebra-") or name.startswith("entwining")
               for name in v.axioms())
