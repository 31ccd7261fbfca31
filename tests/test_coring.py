import os

import pytest

from coring_lab.exactla import QQ, DenseMatrix, kernel
from coring_lab.algebra import verify_module
from coring_lab.coring import (
    CoringPresentation,
    SquareReducer,
    coinvariants,
    comodule_from_dual_module,
    default_comodule_witnesses,
    direct_sum_comodule,
    dual_action,
    hom_comodule,
    verify_coring,
    x_invariants,
    zero_comodule,
)
from coring_lab.fixtures import fixture
from coring_lab.verdict import VerificationError

from crosscheck import (
    GenericSquareReducer,
    check_dual_identification,
    dual_ring,
    evaluation_at_one,
    generic_square_failures,
    induced_comodule,
    induction_unit_map,
    is_grouplike,
    trivial_coring,
    verify_comodule,
)
from helpers import dual_numbers, mult_table
from test_entwining import make_fix_h, make_fix_n, make_fix_t
from oracles import naive_rank


def test_trivial_coring_valid():
    for A in (dual_numbers(),):
        cor = trivial_coring(A)
        assert verify_coring(cor).valid
        assert cor.dim == A.dim


def test_built_corings_valid():
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        assert verify_coring(mk().coring()).valid


def test_zero_counit_failure_named():
    ctx = make_fix_h()
    cor = ctx.coring()
    broken = CoringPresentation(
        cor.A, cor.dim, list(cor.left_module.action),
        list(cor.right_module.action), cor.delta_lift,
        DenseMatrix.zeros(QQ, cor.A.dim, cor.dim),
        free_left_basis=cor.free_left_basis)
    v = verify_coring(broken)
    assert not v.valid
    assert any(f.axiom.startswith("counit") for f in v.failures)


def test_generic_and_free_reducers_agree():
    # the runtime reducer, through the verified free basis, and the generic
    # quotient must present the same balanced square and the same verdicts
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        cor = mk().coring()
        fast = SquareReducer(cor)
        generic = GenericSquareReducer(cor)
        assert fast.projection.rows == generic.projection.rows
        assert kernel(fast.projection) == kernel(generic.projection)
        assert generic_square_failures(cor) == []
        assert verify_coring(cor).valid


def test_unverified_free_basis_is_a_named_failure():
    cor = make_fix_h().coring()
    n = cor.dim
    for basis in (DenseMatrix.zeros(QQ, n, n // cor.A.dim),   # right shape, no basis
                  DenseMatrix.identity(QQ, n)):               # wrong shape
        bad = CoringPresentation(
            cor.A, n, list(cor.left_module.action), list(cor.right_module.action),
            cor.delta_lift, cor.counit_map, free_left_basis=basis)
        assert verify_coring(bad).axioms() == ["coring-free-basis"]
        # a reducer that fails to build is not cached: the failure repeats
        assert verify_coring(bad).axioms() == ["coring-free-basis"]
        with pytest.raises(VerificationError):
            SquareReducer(bad)


@pytest.mark.parametrize("make", [make_fix_h, lambda: fixture("fix-s").context],
                         ids=["fix-h", "fix-s"])
def test_analysis_builds_no_square_reducer(monkeypatch, make):
    """Nothing the pipeline runs needs the balanced square: the coring laws
    it would check are theorems about the verified entwining."""
    from coring_lab.cli import full_verify, run_analysis
    built = []
    orig = SquareReducer.__init__

    def counting(self, cor):
        built.append(cor)
        orig(self, cor)
    monkeypatch.setattr(SquareReducer, "__init__", counting)
    ctx = make()
    full_verify(ctx)
    run_analysis(ctx, seed=0)
    assert built == []


def test_grouplike_in_coring():
    ctx = make_fix_h()
    cor = ctx.coring()
    red = SquareReducer(cor)
    assert is_grouplike(cor, [1, 0, 0, 0], red)
    assert is_grouplike(cor, [0, 1, 0, 0], red)       # 1 (x) g, the other one
    assert not is_grouplike(cor, [1, 1, 0, 0], red)   # eps = 2
    assert not is_grouplike(cor, [0, 0, 1, 0], red)   # g (x) 1: Delta fails


def test_dual_ring_of_trivial_coring():
    # left-A-linear maps A -> A are the right multiplications; the dual ring
    # of the trivial coring is A itself (oracle: dimension + commutativity of
    # the dual numbers make the structure constants literally equal)
    A = dual_numbers()
    data = dual_ring(trivial_coring(A))
    assert data.algebra.dim == 2
    assert mult_table(data.algebra) == mult_table(A)


def test_dual_ring_matches_sharp_ring():
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        assert check_dual_identification(ctx)


def test_dual_ring_matches_sharp_ring_sweedler():
    from coring_lab.fixtures import fixture
    assert check_dual_identification(fixture("fix-s").context)


def test_dual_ring_unit_embedding():
    ctx = make_fix_h()
    data = dual_ring(ctx.coring())
    one = data.unit_embedding(ctx.A.unit)
    assert one == data.algebra.unit


def test_dual_action_fix_t_is_regular():
    ctx = make_fix_t()
    mod = dual_action(ctx.comodule_A())
    assert verify_module(mod).valid
    # over the trivial coalgebra the dual ring is A and the action is right
    # multiplication
    reg = ctx.A.regular_module("right")
    assert [m for m in mod.action] == [m for m in reg.action]


def test_dual_action_fix_n_through_evaluation_at_g():
    ctx = make_fix_n()
    mod = dual_action(ctx.comodule_A())
    assert verify_module(mod).valid
    # f acts on the scalars by multiplication with f(g): basis delta_1 acts
    # as 0, delta_g as 1
    assert mod.action[0].is_zero()
    assert mod.action[1] == DenseMatrix.identity(QQ, 1)


def test_dual_action_unit_acts_as_identity():
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        mod = dual_action(ctx.comodule_A())
        sharp = ctx.sharp_ring()
        assert mod.act_matrix(sharp.algebra.unit) == \
            DenseMatrix.identity(QQ, mod.dim)
        assert verify_module(mod).valid


def test_coinvariants_by_oracle():
    # FIX-H: solve Delta(b) = b (x) 1 by hand: only multiples of 1
    ctx = make_fix_h()
    B = coinvariants(ctx.comodule_A())
    assert B.dim == 1
    assert B.basis.row_lists() == [[1, 0]]
    # independent oracle: over basis b = alpha + beta g the coaction is
    # alpha (x) 1 + beta g (x) g and b (x) 1 is alpha (x) 1 + beta g (x) 1
    rows = [[0, 0], [0, 0], [0, 0], [0, 1]]  # rho(b) - b (x) 1 coefficients
    assert 2 - naive_rank(rows) == 1


def test_coinvariants_all_of_A():
    assert coinvariants(make_fix_n().comodule_A()).is_full()
    assert coinvariants(make_fix_t().comodule_A()).is_full()


def test_x_invariants_equal_coinvariants():
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        M = ctx.comodule_A()
        assert coinvariants(M) == x_invariants(dual_action(M), ctx)


def test_q_equals_x_invariants_of_dual_ring():
    # the ideal Q agrees with the x-invariants of the dual ring as a right
    # module over itself
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        data = ctx.morita()
        reg = ctx.sharp_ring().algebra.regular_module("right")
        assert data.Q.space == x_invariants(reg, ctx)


def test_hom_comodule_endomorphisms_of_A():
    ctx = make_fix_h()
    A_com = ctx.comodule_A()
    homs = hom_comodule(A_com, A_com)
    assert homs.dim == 1  # isomorphic to B
    omega = evaluation_at_one(ctx, homs, A_com)
    # the evaluation at 1 lands bijectively on the coinvariants
    B = coinvariants(A_com)
    assert kernel(omega).is_zero()
    img_cols = [omega.col(j) for j in range(omega.cols)]
    assert all(B.contains(c) for c in img_cols)


def test_hom_comodule_into_coring_matches_Q():
    ctx = make_fix_n()
    A_com = ctx.comodule_A()
    coring_com = induced_comodule(ctx, ctx.A.regular_module("right"))
    homs = hom_comodule(A_com, coring_com)
    data = ctx.morita()
    assert homs.dim == data.Q.dim == 1


def test_hom_comodule_contains_identity():
    ctx = make_fix_h()
    for w in (ctx.comodule_A(),
              induced_comodule(ctx, ctx.A.regular_module("right"))):
        homs = hom_comodule(w, w)
        assert homs.contains(DenseMatrix.identity(QQ, w.dim).entries)


def test_induced_comodule_coinvariants_isomorphic_to_W():
    ctx = make_fix_h()
    W = ctx.A.regular_module("right")
    ind = induced_comodule(ctx, W)
    assert verify_comodule(ind).valid
    coinv = coinvariants(ind)
    assert coinv.dim == W.dim == 2
    unit_map = induction_unit_map(ctx, W)
    # image of w -> w (x) x inside the coinvariants, bijectively
    assert kernel(unit_map).is_zero()
    for j in range(W.dim):
        assert coinv.contains(unit_map.col(j))
    # the inverse direction: w (x) c -> w eps(c) composed back is the identity
    f = ctx.field
    nC = ctx.C.dim
    eps = ctx.C.counit
    for j in range(W.dim):
        img = unit_map.col(j)
        back = [0] * W.dim
        for t in range(W.dim):
            for k in range(nC):
                coef = img[t * nC + k]
                if coef:
                    back[t] = f.normalize(back[t] + coef * eps[k])
        assert back == [1 if t == j else 0 for t in range(W.dim)]


def test_induced_comodule_of_zero():
    ctx = make_fix_h()
    from coring_lab.algebra import zero_module
    ind = induced_comodule(ctx, zero_module(ctx.A, "right"))
    assert ind.dim == 0


def test_induced_comodule_fix_n_scalars():
    ctx = make_fix_n()
    ind = induced_comodule(ctx, ctx.A.regular_module("right"))
    assert ind.dim == 2
    coinv = coinvariants(ind)
    assert coinv.dim == 1
    assert coinv.basis.row_lists() == [[0, 1]]  # spanned by g


def test_mq_lands_in_coinvariants():
    # for every fixture comodule M and q in Q the element m q is coinvariant
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        data = ctx.morita()
        for M in (ctx.comodule_A(),
                  induced_comodule(ctx, ctx.A.regular_module("right"))):
            coinv = coinvariants(M)
            dual = dual_action(M)
            for i in range(data.Q.dim):
                act = dual.act_matrix(list(data.Q.space.basis.row(i)))
                for m in range(M.dim):
                    assert coinv.contains(act.col(m))


def test_comodule_from_dual_module_verifies():
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        reg = ctx.sharp_ring().algebra.regular_module("right")
        com = comodule_from_dual_module(ctx, reg)
        assert verify_comodule(com).valid
        # its dual action must reproduce the regular module
        back = dual_action(com)
        assert all(a == b for a, b in zip(back.action, reg.action))


def test_direct_sum_and_zero_comodule():
    ctx = make_fix_h()
    a = ctx.comodule_A()
    z = zero_comodule(ctx)
    s = direct_sum_comodule(a, a)
    assert verify_comodule(s).valid
    assert s.dim == 4
    assert z.dim == 0
    assert coinvariants(s).dim == 2 * coinvariants(a).dim


def test_default_witness_family_verifies():
    ctx = make_fix_h()
    for w in default_comodule_witnesses(ctx, seed=0):
        assert verify_comodule(w).valid, w.name


def test_evaluation_at_one_bijective_on_all_witnesses():
    # the map f -> f(1) identifies comodule maps out of A with coinvariants,
    # bijectively, for every witness over every fixture
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        A_com = ctx.comodule_A()
        for w in ctx.default_witnesses():
            homs = hom_comodule(A_com, w)
            omega = evaluation_at_one(ctx, homs, w)
            coinv = coinvariants(w)
            assert kernel(omega).is_zero()
            assert homs.dim == coinv.dim
            for j in range(omega.cols):
                assert coinv.contains(omega.col(j))


def test_comodule_json_roundtrip():
    ctx = make_fix_h()
    from coring_lab.coring import ComoduleInstance
    for w in (ctx.comodule_A(),
              induced_comodule(ctx, ctx.A.regular_module("right"))):
        back = ComoduleInstance.from_json(ctx, w.to_json())
        assert back.coaction == w.coaction
        assert all(a == b for a, b in zip(back.module.action, w.module.action))
        assert verify_comodule(back).valid


def test_analysis_builds_the_coring_right_action_once(monkeypatch):
    """The coring's right A-action is ``induced_action`` of A, built once by
    ``build_coring``: the "coring" witness takes it from the coring, and the
    coinvariants read x e_i from the coaction of A, which holds it."""
    from coring_lab import cli, coring, entwining
    calls = []
    orig = coring.induced_action

    def counting(ctx, W):
        calls.append(W.dim)
        return orig(ctx, W)
    for module in (coring, entwining):
        monkeypatch.setattr(module, "induced_action", counting)
    ctx = cli.load_instance(os.path.join(os.path.dirname(__file__), "..", "fixtures",
                                         "fix-s.json"))
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert calls == [ctx.A.dim]
    witness = next(w for w in ctx.default_witnesses() if w.name == "coring")
    assert witness.module is ctx.coring().right_module
