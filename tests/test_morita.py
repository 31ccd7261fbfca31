import pytest

from coring_lab.exactla import QQ, DenseMatrix, kernel
from coring_lab.algebra import ModulePresentation, verify_algebra, zero_module
from coring_lab.coalgebra import grouplike_coalgebra
from coring_lab.coring import coinvariants, dual_action, x_invariants
from coring_lab.entwining import EntwinedContext, doi_koppinen, flip_entwining
from coring_lab.fixtures import fixture
from coring_lab.morita import (
    MoritaContextData,
    check_theorem_Cfinite,
    check_theorem_surj,
    compute_B,
    compute_Q,
    find_qhat,
    omega_and_lambda,
    psi_tilde_from_F,
    q_left_annihilator,
    xi_M,
)
from coring_lab.verdict import VerificationError

from crosscheck import compute_Q_entwined, trace_map, verify_context_identities
from helpers import group_algebra_zn, rationals_algebra
from test_entwining import make_fix_h, make_fix_n, make_fix_t


def make_fix_n_trivial_coaction():
    """FIX-N with x = 1 instead of g: the symmetric variant."""
    A = rationals_algebra()
    C = grouplike_coalgebra(QQ, 2)
    return EntwinedContext(A, C, flip_entwining(A, C), [1, 0], name="fix-n-x1")


def test_compute_B_dims_and_validity():
    for mk, dim in ((make_fix_t, 2), (make_fix_h, 1), (make_fix_n, 1)):
        ctx = mk()
        B = compute_B(ctx)
        assert B.dim == dim
        assert verify_algebra(B.algebra).valid
        # B agrees with the coinvariants of A as a comodule
        assert B.space == coinvariants(ctx.comodule_A())


def test_compute_Q_dims():
    assert compute_Q(make_fix_t()).dim == 2
    assert compute_Q(make_fix_h()).dim == 2
    assert compute_Q(make_fix_n()).dim == 1


def test_compute_Q_fix_h_shape():
    # oracle (hand solution of the defining condition on the two basis
    # elements): q(1) must be a multiple of 1 and q(g) a multiple of g
    Q = compute_Q(make_fix_h())
    assert Q.space.basis.row_lists() == [[1, 0, 0, 0], [0, 0, 0, 1]]


def test_compute_Q_fix_n_shape():
    # q(1) = 0 forced, q(g) free
    Q = compute_Q(make_fix_n())
    assert Q.space.basis.row_lists() == [[0, 1]]


def test_compute_Q_coring_vs_entwined_condition():
    for mk in (make_fix_t, make_fix_h, make_fix_n, make_fix_n_trivial_coaction):
        ctx = mk()
        assert compute_Q(ctx).space == compute_Q_entwined(ctx)


def test_context_builds_and_pairing_flags():
    ctx = make_fix_t()
    d = ctx.morita()
    assert d.F_report.bijective and d.G_report.bijective
    ctx = make_fix_n()
    d = ctx.morita()
    assert d.G_report.surjective
    assert not d.F_report.surjective
    # image of F is the line through delta_g
    from coring_lab.exactla import image
    assert image(d.F_matrix).basis.row_lists() == [[0, 1]]
    ctx = make_fix_h()
    d = ctx.morita()
    assert d.F_report.surjective and d.G_report.surjective


def test_qhat_values():
    assert find_qhat(make_fix_h().morita()).entries == [1, 0, 0, 0]
    assert find_qhat(make_fix_n().morita()).entries == [0, 1]
    assert find_qhat(make_fix_t().morita()).entries == [1, 0]


def test_xi_on_A():
    ctx = make_fix_h()
    data = ctx.morita()
    mod = dual_action(ctx.comodule_A())
    mat, rep, tensor = xi_M(data, mod)
    assert rep.bijective
    assert tensor.dim == 1  # isomorphic to B
    ctx = make_fix_n()
    data = ctx.morita()
    mat, rep, _ = xi_M(data, dual_action(ctx.comodule_A()))
    assert rep.bijective


def test_xi_on_zero_module():
    ctx = make_fix_h()
    data = ctx.morita()
    zero = zero_module(ctx.sharp_ring().algebra, "right")
    _, rep, _ = xi_M(data, zero)
    assert rep.bijective


def test_trace_map_values():
    ctx = make_fix_h()
    data = ctx.morita()
    tr = trace_map(data, find_qhat(data))
    # tr(1) = 1, tr(g) = 0 in the basis of B = span{1}
    assert tr.col(0) == [1]
    assert tr.col(1) == [0]
    for mk in (make_fix_n, make_fix_t):
        ctx = mk()
        data = ctx.morita()
        tr = trace_map(data, find_qhat(data))
        assert tr.mul(data.B.embedding) == DenseMatrix.identity(QQ, data.B.dim)


def test_omega_lambda_fix_h():
    ctx = make_fix_h()
    rep = omega_and_lambda(ctx.morita())
    assert rep.lambda_iso          # dual ring has dim 4 = End(A) over B = Q
    assert rep.omega_iso
    assert rep.lambda_multiplicative


def test_omega_lambda_fix_n():
    ctx = make_fix_n()
    rep = omega_and_lambda(ctx.morita())
    # Lambda: Q x Q -> End(Q) = Q: surjective, kernel spanned by delta_1
    assert rep.lambda_report.surjective
    assert not rep.lambda_report.injective
    assert kernel(rep.lambda_matrix).basis.row_lists() == [[1, 0]]
    assert rep.lambda_multiplicative
    # Omega: A -> Hom_B(Q, B) is an isomorphism of 1-dim spaces here
    assert rep.omega_iso


def test_omega_lambda_fix_t():
    rep = omega_and_lambda(make_fix_t().morita())
    assert rep.omega_iso and rep.lambda_iso


def test_q_annihilator():
    assert q_left_annihilator(make_fix_h().morita()).is_zero()
    ann = q_left_annihilator(make_fix_n().morita())
    assert ann.dim == 1
    assert ann.basis.row_lists() == [[1, 0]]  # delta_1 kills Q


def test_theorem_surj_tables():
    for mk in (make_fix_t, make_fix_h, make_fix_n, make_fix_n_trivial_coaction):
        res = check_theorem_surj(mk())
        assert res["agreement"]
        assert set(res["clauses"].values()) == {True}


def test_theorem_surj_evaluates_the_dual_ring_once(monkeypatch):
    """The pairing is evaluated once on each distinct nonzero witness that
    is no direct sum, and never on the zero witness, on a sum, whose flags
    are its summands', or on a witness equal to an earlier one, whose flags
    are that one's.  The pairing on the dual ring over itself is the one on
    the dual-ring witness: it costs no call of its own with the default
    witnesses, and one when a witness budget cuts that witness."""
    import coring_lab.morita as morita
    seen = []

    def recording(data, M, runtime=morita.xi_M, **kwargs):
        seen.append(M)
        return runtime(data, M, **kwargs)
    monkeypatch.setattr(morita, "xi_M", recording)
    uncovered = 0
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        for budget in (None, 3):
            ctx = mk()
            rmuls = ctx.sharp_ring().algebra.rmuls
            ws = ctx.default_witnesses()[:budget]
            sums = [w for w in ws if w.summands]
            assert len(sums) == (2 if budget is None else 0)
            distinct = [w for w in ws if w.dim and not w.summands and w.same_as is None]
            assert ws[0].dim == 0 and ws[1] in distinct
            covered = any(dual_action(w).action == rmuls for w in ws if not w.summands)
            assert covered or budget is not None
            uncovered += not covered
            seen.clear()
            check_theorem_surj(ctx, witnesses=ws)
            assert rmuls in [M.action for M in seen]
            assert len(seen) == len(distinct) + (not covered)
            assert not any(M is dual_action(w) for w in ws if w not in distinct for M in seen)
    assert uncovered


def test_theorem_surj_consistency_extras():
    res = check_theorem_surj(make_fix_h())
    assert res["consistency"]["G_bijective"]
    assert res["consistency"]["B_equals_A_x"]


def test_modified_fix_n_trivial_coaction():
    ctx = make_fix_n_trivial_coaction()
    data = ctx.morita()
    assert data.Q.space.basis.row_lists() == [[1, 0]]  # Q = span{delta_1}
    assert find_qhat(data).entries == [1, 0]


def test_theorem_Cfinite_tables():
    assert set(check_theorem_Cfinite(make_fix_t())["clauses"].values()) == {True}
    assert set(check_theorem_Cfinite(make_fix_h())["clauses"].values()) == {True}
    res = check_theorem_Cfinite(make_fix_n())
    assert set(res["clauses"].values()) == {False}
    assert res["agreement"]


def test_theorem_Cfinite_subclauses_fix_n():
    # the composite clauses fail for different reasons: projectivity of Q
    # holds but faithfulness fails, projectivity of A over B holds but the
    # endomorphism map is not injective
    res = check_theorem_Cfinite(make_fix_n())
    sub = res["subclauses"]
    assert sub["2a"] and sub["2b"] and not sub["2c"]
    assert sub["3a"] and not sub["3b"]


def test_psi_tilde_from_F():
    for mk in (make_fix_t, make_fix_h):
        ctx = mk()
        for M in (ctx.comodule_A(), ctx.default_witnesses()[2]):  # A and coring
            psi_mat, inv = psi_tilde_from_F(ctx, M)
            assert psi_mat.mul(inv) == DenseMatrix.identity(QQ, M.dim)
    with pytest.raises(VerificationError):
        psi_tilde_from_F(make_fix_n(), make_fix_n().comodule_A())


def test_first_context_coincides():
    # A^x = B and the x-invariants of the dual ring = Q on every fixture
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        data = ctx.morita()
        assert x_invariants(data.A_right_dual, ctx) == data.B.space
        reg = ctx.sharp_ring().algebra.regular_module("right")
        assert x_invariants(reg, ctx) == data.Q.space


def test_random_doi_koppinen_agreement():
    # seeded random group-algebra instances with a random group-like coaction
    import random
    rng = random.Random(42)
    for _ in range(6):
        n = rng.choice([2, 3])
        k = rng.randrange(n)
        H = group_algebra_zn(n)
        comult = [[[1 if (j == i and kk == i) else 0 for kk in range(n)]
                   for j in range(n)] for i in range(n)]
        from coring_lab.coalgebra import CoalgebraPresentation
        C = CoalgebraPresentation(QQ, n, comult, [1] * n)
        psi = doi_koppinen(H, C, H, C.comult_matrix())
        u = [0] * (n * n)
        u[k] = 1
        ctx = EntwinedContext(H, C, psi, u, name=f"QZ{n}@{k}")
        assert check_theorem_surj(ctx)["agreement"]
        assert check_theorem_Cfinite(ctx)["agreement"]


def test_hom_from_A_to_dual_ring_matches_Q():
    # module maps A -> dual ring over the dual ring form a space of the same
    # dimension as Q whenever the normalized element exists
    from coring_lab.algebra import hom_module
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        data = ctx.morita()
        reg = ctx.sharp_ring().algebra.regular_module("right")
        homs = hom_module(data.A_right_dual, reg)
        assert homs.dim == data.Q.dim


def test_F_is_weak_structure_map_of_dual_ring():
    # the dual ring, seen as a comodule through its free dual basis, has Q as
    # its coinvariants, and the weak-structure map built on it carries the
    # same bijectivity flags as the pairing F
    from coring_lab.coring import comodule_from_dual_module, coinvariants
    from coring_lab.galois import psi_M
    for mk in (make_fix_t, make_fix_h, make_fix_n):
        ctx = mk()
        data = ctx.morita()
        reg = ctx.sharp_ring().algebra.regular_module("right")
        com = comodule_from_dual_module(ctx, reg)
        assert coinvariants(com) == data.Q.space
        _, rep = psi_M(ctx, com)
        assert rep.surjective == data.F_report.surjective
        assert rep.injective == data.F_report.injective


# -- the context identities catch a corrupted module structure -----------------

IDENTITY_LABELS = {"F-left-dual-linearity", "F-right-dual-linearity", "G-left-B-linearity",
                   "G-right-B-linearity", "associativity-FqG", "associativity-GaF"}


def _plus_e00_matrix(a):
    """a + E_00, the matrix unit E_00 added to a."""
    return DenseMatrix(a.field, a.rows, a.cols, [a.entries[0] + 1] + a.entries[1:])


def _plus_e00(M):
    """M with E_00 added to every action matrix."""
    return ModulePresentation(M.algebra, M.dim, M.side, [_plus_e00_matrix(a) for a in M.action])


def _replaced(data, name, value):
    """A fresh MoritaContextData equal to ``data`` except that ``name`` is
    ``value``; memoized results of ``data`` are not carried over."""
    fields = ("ctx", "B", "Q", "A_left_B", "A_right_dual", "Q_left_dual", "Q_right_B",
              "QA", "AQ", "F_matrix", "G_plain", "G_matrix", "F_report", "G_report")
    return MoritaContextData(**{f: value if f == name else getattr(data, f) for f in fields})


def _corrupted(data, name):
    return _replaced(data, name, _plus_e00(getattr(data, name)))


def test_context_identities_fire_on_corrupted_modules():
    fired = set()
    for label, ctx in (("fix-t", make_fix_t()), ("fix-h", make_fix_h()),
                       ("fix-s", fixture("fix-s").context)):
        data = ctx.morita()
        for name in ("A_right_dual", "Q_left_dual", "Q_right_B"):
            with pytest.raises(VerificationError) as exc:
                verify_context_identities(ctx, _corrupted(data, name))
            failures = exc.value.verdict.failures
            labels = {fail.axiom for fail in failures}
            assert labels <= IDENTITY_LABELS
            # each failure names one acting basis element
            assert all(len(fail.indices) == 1 for fail in failures)
            if (label, name) == ("fix-t", "A_right_dual"):
                assert labels == IDENTITY_LABELS
            fired |= labels
    assert fired == IDENTITY_LABELS


def test_lambda_not_multiplicative_on_corrupted_action():
    ctx = make_fix_h()
    data = ctx.morita()
    assert omega_and_lambda(data).lambda_multiplicative
    assert not omega_and_lambda(_corrupted(data, "A_right_dual")).lambda_multiplicative
    # E_00 on one basis element outside the unit's support: 1 still acts as
    # the identity, so only the module law can fail
    Ad = data.A_right_dual
    t = next(t for t, u in enumerate(ctx.sharp_ring().algebra.unit) if not u)
    action = list(Ad.action)
    action[t] = _plus_e00_matrix(action[t])
    one_off = ModulePresentation(Ad.algebra, Ad.dim, Ad.side, action)
    assert not omega_and_lambda(_replaced(data, "A_right_dual", one_off)).lambda_multiplicative
