"""Every operator on Hom(C, A) the package builds in closed form, every
map and module structure of the Morita context it builds as a matrix
product, every structure map it builds from the structure matrices, and
every relation span it takes over the generators of an algebra and every
comodule hom space it takes through a coring adjunction, checked entry for
entry against its construction one elementary map, basis vector,
basis element or entry at a time in ``crosscheck.py``, over Q
and a prime field, on the fixtures, on a dense change of basis with
non-integer entries and on the non-commutative ``fix-s``, also with a
group-like x whose C-components are not multiples of the unit of A, and on
the algebra of ``fix-s`` over the trivial coalgebra, where B = A is not
commutative and so left and right multiplication by B differ.

On every distinct instance of ``instances.DISTINCT`` the evaluations that
the witness family skips (the zero witness, a witness repeating an
earlier one, the seeded kernel built from A's matrices) and the closed
forms of xi on the dual ring and on A are checked against the evaluation
they replace."""

import random

import pytest

from coring_lab import algebra, cli, coring, exactla, galois, morita
from coring_lab.algebra import AlgebraPresentation
from coring_lab.cleft import (
    _integral_condition,
    _normal_basis_condition,
    cleft_psi_inverse,
    find_cleft,
)
from coring_lab.coalgebra import CoalgebraPresentation, _conv_operator
from coring_lab.coring import _tensor_x, dual_action, induced_action, restrict_comodule
from coring_lab.entwining import doi_koppinen, instance_from_json
from coring_lab.exactla import DenseMatrix, kernel, stack_slices
from coring_lab.galois import weak_map_flags
from coring_lab.morita import (
    _q_condition,
    _times_Q,
    omega_and_lambda,
    pairing_flags,
    psi_tilde_from_F,
    q_left_annihilator,
    xi_M,
)

from crosscheck import (
    G_plain_by_evaluation,
    Q_left_by_evaluation,
    Q_right_by_evaluation,
    at_x_by_evaluation,
    balanced_tensor_over_basis,
    cleft_psi_inverse_by_entries,
    conv_operator_by_evaluation,
    coring_lift_by_entries,
    coring_right_action_by_psi,
    doi_koppinen_by_entries,
    dual_action_by_evaluation,
    hom_from_A_over_basis,
    hom_into_induced_over_basis,
    hom_module_over_basis,
    induced_action_by_entries,
    induction_unit_map,
    integral_condition_by_evaluation,
    normal_basis_condition_by_evaluation,
    omega_by_evaluation,
    psi_tilde_inverse_by_entries,
    q_condition_by_evaluation,
    pairing_flags_on,
    q_left_annihilator_by_evaluation,
    seeded_kernel,
    sharp_constants_by_evaluation,
    weak_map_flags_on,
    xi_over_balanced_tensor,
)
from helpers import mult_table
from instances import DISTINCT, INSTANCES, context
from oracles import generators_by_row_scan, plain_row_reduce, random_scalar, relation_rows


def _random_map(ctx):
    rng = random.Random(5)
    n = ctx.A.dim * ctx.C.dim
    return DenseMatrix(ctx.field, ctx.A.dim, ctx.C.dim,
                       [random_scalar(ctx.field, rng) for _ in range(n)])


def _trivial_bialgebra_psi(A):
    """(closed form, entries) of the Doi-Koppinen entwining of A over the
    one-dimensional bialgebra k, A coacting by a -> a (x) 1."""
    f = A.field
    H = AlgebraPresentation(f, 1, [[[1]]], [1])
    K = CoalgebraPresentation(f, 1, [[[1]]], [1])
    coaction = DenseMatrix.identity(f, A.dim)
    return doi_koppinen(H, K, A, coaction), doi_koppinen_by_entries(H, A, coaction)


def _pairs(ctx, construction):
    """(closed form, construction by evaluation) pairs for one instance."""
    if construction == "induced_action":
        reg = ctx.A.regular_module("right")
        return [(induced_action(ctx, W), induced_action_by_entries(ctx, W))
                for W in (reg, reg.direct_sum(reg))]
    if construction == "coring_right_action":
        action = ctx.coring().right_module.action
        return [(action, coring_right_action_by_psi(ctx)),
                (action, induced_action_by_entries(ctx, ctx.A.regular_module("right")))]
    if construction == "coring_lift":
        cor = ctx.coring()
        return [((cor.delta_lift, cor.free_left_basis), coring_lift_by_entries(ctx))]
    if construction == "doi_koppinen":
        pairs = [_trivial_bialgebra_psi(ctx.A)]
        if ctx.entwining_kind == "doi_koppinen":
            delta = ctx.C.comult_matrix()
            pairs.append((doi_koppinen(ctx.A, ctx.C, ctx.A, delta),
                          doi_koppinen_by_entries(ctx.A, ctx.A, delta)))
        return pairs
    if construction == "tensor_x":
        return [(_tensor_x(ctx, w.module), induction_unit_map(ctx, w.module))
                for w in ctx.default_witnesses()]
    if construction == "psi_tilde_inverse":
        if not ctx.morita().F_report.surjective:
            return []
        return [(psi_tilde_from_F(ctx, w)[1], psi_tilde_inverse_by_entries(ctx, w))
                for w in ctx.default_witnesses()]
    if construction == "cleft_inverse":
        witness = find_cleft(ctx).witness
        if witness is None:
            return []
        return [(cleft_psi_inverse(ctx, witness, w), cleft_psi_inverse_by_entries(ctx, witness, w))
                for w in ctx.default_witnesses()]
    if construction == "dual_action":
        return [(dual_action(w).action, dual_action_by_evaluation(w))
                for w in ctx.default_witnesses()]
    if construction in ("conv_left", "conv_right"):
        side = construction[5:]
        fmap = _random_map(ctx)
        return [(_conv_operator(fmap, ctx.C, ctx.A, side),
                 conv_operator_by_evaluation(fmap, ctx.C, ctx.A, side))]
    if construction == "integral":
        return [(_integral_condition(ctx), integral_condition_by_evaluation(ctx))]
    if construction == "normal_basis":
        B = ctx.morita().B
        return [(_normal_basis_condition(ctx, B), normal_basis_condition_by_evaluation(ctx, B))]
    if construction == "at_x":
        return [(ctx.sharp_ring().at_x(), at_x_by_evaluation(ctx))]
    if construction == "q_condition":
        return [(_q_condition(ctx), q_condition_by_evaluation(ctx, ctx.coring().free_left_basis))]
    if construction == "sharp_constants":
        return [(mult_table(ctx.sharp_ring().algebra), sharp_constants_by_evaluation(ctx))]
    data = ctx.morita()
    if construction == "hook":
        return [(_times_Q(data.A_right_dual, data.Q), G_plain_by_evaluation(data))]
    if construction == "Q_left":
        return [(data.Q_left_dual.action, Q_left_by_evaluation(data))]
    if construction == "Q_right":
        return [(data.Q_right_B.action, Q_right_by_evaluation(data))]
    if construction == "omega":
        return [(omega_and_lambda(data).omega_matrix, omega_by_evaluation(data))]
    assert construction == "q_annihilator"
    return [(q_left_annihilator(data), q_left_annihilator_by_evaluation(data))]


@pytest.mark.parametrize("construction", [
    "dual_action", "conv_left", "conv_right", "integral", "normal_basis", "at_x",
    "q_condition", "sharp_constants", "hook", "Q_left", "Q_right", "omega", "q_annihilator",
    "induced_action", "coring_right_action", "coring_lift", "doi_koppinen", "tensor_x",
    "psi_tilde_inverse", "cleft_inverse"])
@pytest.mark.parametrize("label", INSTANCES)
def test_closed_form_matches_evaluation(label, construction):
    ctx = context(label)
    for closed, evaluated in _pairs(ctx, construction):
        assert closed == evaluated


def test_explicit_inverses_are_compared_somewhere():
    """The weak-structure inverses exist on some instances, so their
    comparisons above are not vacuous."""
    assert any(_pairs(context(label), "psi_tilde_inverse") for label in INSTANCES)
    assert any(_pairs(context(label), "cleft_inverse") for label in INSTANCES)


@pytest.mark.parametrize("label", INSTANCES)
def test_stack_slices_inverts_slices(label):
    for w in context(label).default_witnesses():
        assert stack_slices(w.field, w.slices()) == w.coaction


RELATION_SPANS = {  # name -> (the modules that call it, its whole-basis reference)
    "balanced_tensor": ((algebra, galois, morita), balanced_tensor_over_basis),
    "hom_module": ((algebra, coring, galois, morita), hom_module_over_basis),
    "hom_from_A": ((coring, galois), hom_from_A_over_basis),
    "hom_into_induced": ((coring,), hom_into_induced_over_basis),
}


@pytest.mark.parametrize("label", INSTANCES)
def test_relation_spans_over_generators_match_whole_basis(label, monkeypatch):
    """Every balanced tensor product and hom space that one analysis builds,
    with relations over the algebra's generators or, for comodule maps,
    through a coring adjunction, equals the one built with relations over
    the whole basis: the same subspace, and the same projection and section
    of the quotient."""
    calls = []
    for name, (modules, _) in RELATION_SPANS.items():
        def recording(*args, runtime=getattr(modules[0], name), name=name):
            out = runtime(*args)
            calls.append((name, args, out))
            return out
        for module in modules:
            monkeypatch.setattr(module, name, recording)
    ctx = context.__wrapped__(label)  # a fresh context, with nothing memoized
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert {name for name, *_ in calls} == set(RELATION_SPANS)
    for name, args, out in calls:
        assert out == RELATION_SPANS[name][1](*args), (name, args)


DISTINCT_IDS = [label for label, _ in DISTINCT.values()]
DISTINCT_CONTEXTS = [ctx for _, ctx in DISTINCT.values()]


def _plain_relation_span(field, dR, dC, pairs, b_transposed=False):
    """The relation span with every row of ``oracles.relation_rows``
    inserted into one builder, as before the short-row presolve."""
    rows = [row for a, b in pairs
            for row in relation_rows(a.row_lists(),
                                     (b.transpose() if b_transposed else b).row_lists(), field.p)]
    return plain_row_reduce(field, dR * dC, rows)


@pytest.mark.parametrize("ctx", DISTINCT_CONTEXTS, ids=DISTINCT_IDS)
def test_presolved_relation_spans_match_the_plain_builder(ctx, monkeypatch):
    """Every relation span of one verify + analysis, its one- and two-term
    rows solved by the union-find of ``presolved_span``, holds exactly the
    rows that inserting each relation row into one builder leaves, and its
    held columns cover every column of those rows."""
    calls = [0]
    runtime = algebra._relation_span

    def checked(field, dR, dC, pairs, b_transposed=False):
        pairs = list(pairs)
        span = runtime(field, dR, dC, pairs, b_transposed)
        assert span._rows == _plain_relation_span(field, dR, dC, pairs, b_transposed)._rows
        assert all(row.keys() <= span._held for row in span._rows.values())
        calls[0] += 1
        return span
    monkeypatch.setattr(algebra, "_relation_span", checked)
    fresh = instance_from_json(ctx.to_json())   # nothing memoized
    cli.full_verify(fresh)
    cli.run_analysis(fresh, seed=0)
    assert calls[0]


@pytest.mark.parametrize("ctx", DISTINCT_CONTEXTS, ids=DISTINCT_IDS)
def test_every_reduction_matches_the_plain_builder(ctx, monkeypatch):
    """Every call of ``row_reduce`` in one verify + analysis (the kernels,
    ranks, solutions, spans and relation spans), its one- and two-term
    rows solved by the union-find, leaves exactly the rows that inserting
    each of its rows into one builder leaves, and its held columns cover
    every column of them."""
    calls = [0]
    runtime = exactla.row_reduce

    def checked(field, n, rows):
        rows = [dict(r) if isinstance(r, dict) else list(r) for r in rows]
        plain = plain_row_reduce(field, n, rows)
        span = runtime(field, n, [dict(r) if isinstance(r, dict) else r for r in rows])
        assert span._rows == plain._rows
        assert all(row.keys() <= span._held for row in span._rows.values())
        calls[0] += 1
        return span
    for module in (exactla, algebra):
        monkeypatch.setattr(module, "row_reduce", checked)
    fresh = instance_from_json(ctx.to_json())   # nothing memoized
    cli.full_verify(fresh)
    cli.run_analysis(fresh, seed=0)
    assert calls[0]


@pytest.mark.parametrize("ctx", DISTINCT_CONTEXTS, ids=DISTINCT_IDS)
def test_generator_closure_by_columns_matches_the_row_scan(ctx):
    """The generators picked by the closure that reads each generator's
    columns at a vector's support are those the closure scanning every row
    of the operator picks, on A, on the coinvariants B and on the dual
    ring."""
    for S in (ctx.A, morita.compute_B(ctx).algebra, ctx.sharp_ring().algebra):
        assert S.generators() == generators_by_row_scan(S)


@pytest.mark.parametrize("ctx", DISTINCT_CONTEXTS, ids=DISTINCT_IDS)
def test_skipped_witness_evaluations_match_the_witness_itself(ctx):
    """The zero witness, each witness equal to an earlier one and the
    seeded kernel have the flags the maps have on the witness itself,
    though ``additive`` evaluates none of the first two."""
    ws = ctx.default_witnesses()
    assert ws[0].dim == 0
    skipped = [w for w in ws if not w.dim or w.same_as is not None]
    for k, w in enumerate(ws):
        if w.same_as is not None:
            assert w.same_as in ws[:k] and w.same_as.same_as is None
            assert not w.summands and not w.same_as.summands
            assert w.module.action == w.same_as.module.action
            assert w.coaction == w.same_as.coaction
    for w in skipped + [w for w in ws if w.name == "random-kernel"]:
        assert weak_map_flags(ctx, w) == weak_map_flags_on(ctx, w), w.name
        assert pairing_flags(ctx, w) == pairing_flags_on(ctx, w), w.name


@pytest.mark.parametrize("ctx", DISTINCT_CONTEXTS, ids=DISTINCT_IDS)
def test_seeded_kernel_witness_is_the_restricted_comodule(ctx):
    """The kernel witness, built from A's own matrices when its echelon
    basis has its pivots on A's coordinates, equals ``restrict_comodule``
    of the big witness to the kernel, matrix for matrix."""
    ker = seeded_kernel(ctx)
    ws = ctx.default_witnesses()
    kernels = [w for w in ws if w.name == "random-kernel"]
    if ker is None or not 0 < ker.dim < ws[3].dim:
        assert not kernels
        return
    (w,) = kernels
    restricted = restrict_comodule(ws[3], ker)
    assert w.module.action == restricted.module.action
    assert w.coaction == restricted.coaction


def test_both_kernel_witness_constructions_are_compared():
    """The comparison above meets the graph-built kernel on a QZ instance
    and the restricted kernel on a scalar group-like (SG) instance."""
    graph, restricted = [], []
    for label, ctx in DISTINCT.values():
        ker = seeded_kernel(ctx)
        if ker is not None and 0 < ker.dim:
            (graph if ker.pivots == list(range(ctx.A.dim)) else restricted).append(label)
    assert any("-QZ" in label for label in graph)
    assert any("-SG" in label for label in restricted)


@pytest.mark.parametrize("ctx", DISTINCT_CONTEXTS, ids=DISTINCT_IDS)
def test_xi_closed_forms_match_balanced_tensor(ctx):
    """xi on the dual ring over itself and on A, which ``xi_M`` takes in
    closed form, agrees with xi through ``balanced_tensor``: the same
    flags, and the same map on the plain tensor M (x) Q, which is the
    product m (x) q -> m q; the closed quotient is one, with the relation
    span as the kernel of its projection.  On A, unless A is the dual ring
    over itself, it is the same quotient."""
    data = ctx.morita()
    S = ctx.sharp_ring().algebra
    dual_ring = next(w for w in ctx.default_witnesses() if w.name == "dual-ring")
    for M in (S.regular_module("right"), dual_action(dual_ring), data.A_right_dual):
        mat, rep, tensor = xi_M(data, M)
        ref_mat, ref_rep, ref_tensor = xi_over_balanced_tensor(data, M)
        assert (rep.injective, rep.surjective) == (ref_rep.injective, ref_rep.surjective)
        plain = _times_Q(M, data.Q)
        assert mat.mul(tensor.projection) == ref_mat.mul(ref_tensor.projection) == plain
        assert tensor.projection.mul(tensor.section) == DenseMatrix.identity(ctx.field, tensor.dim)
        assert kernel(tensor.projection) == kernel(ref_tensor.projection)
    if data.A_right_dual.action != S.rmuls:   # else A is the dual ring over itself
        mat, _, tensor = xi_M(data, data.A_right_dual)
        ref_mat, _, ref_tensor = xi_over_balanced_tensor(data, data.A_right_dual)
        assert tensor is data.AQ and tensor == ref_tensor and mat == ref_mat
