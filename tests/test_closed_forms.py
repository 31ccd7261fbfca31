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
commutative and so left and right multiplication by B differ."""

import functools
import random

import pytest

from coring_lab import algebra, cli, coring, galois, morita
from coring_lab.algebra import AlgebraPresentation
from coring_lab.cleft import (
    _integral_condition,
    _normal_basis_condition,
    cleft_psi_inverse,
    find_cleft,
)
from coring_lab.coalgebra import CoalgebraPresentation, _conv_operator, grouplike_coalgebra
from coring_lab.coring import _tensor_x, dual_action, induced_action
from coring_lab.entwining import (
    EntwinedContext,
    doi_koppinen,
    flip_entwining,
    instance_from_json,
)
from coring_lab.exactla import DenseMatrix, solve, stack_slices
from coring_lab.fixtures import FIXTURE_NAMES, fixture
from coring_lab.morita import (
    _q_condition,
    _times_Q,
    omega_and_lambda,
    psi_tilde_from_F,
    q_left_annihilator,
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
    q_left_annihilator_by_evaluation,
    sharp_constants_by_evaluation,
)
from helpers import lmul, mult_table, perfbench_instance
from oracles import random_scalar

INSTANCES = [f"{name}-{field}" for name in FIXTURE_NAMES for field in ("Q", "F7")] + \
    ["dense-QZ3", "fix-s-conj", "fix-s-over-k"]


@functools.lru_cache(maxsize=None)
def _context(label):
    if label == "dense-QZ3":
        return instance_from_json(perfbench_instance("dense", label))
    if label == "fix-s-conj":
        # u x u^-1 is a group-like of the coring for every unit u of A
        ctx = fixture("fix-s").context
        u = [2, 0, 1, 1]
        cor = ctx.coring()
        u_inv = solve(lmul(ctx.A, u), ctx.A.unit)
        x = cor.left_module.act_matrix(u).apply(cor.right_module.act_matrix(u_inv).apply(ctx.x))
        return EntwinedContext(ctx.A, ctx.C, ctx.psi, x, name=label)
    if label == "fix-s-over-k":
        # over the trivial coalgebra B is all of A, and this A is not commutative
        A = fixture("fix-s").context.A
        C = grouplike_coalgebra(A.field, 1)
        return EntwinedContext(A, C, flip_entwining(A, C), A.unit, name=label)
    name, field = label.rsplit("-", 1)
    obj = fixture(name).instance_json()
    if field == "F7":
        obj["field"] = {"kind": "Fp", "p": 7}
    return instance_from_json(obj)


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
    ctx = _context(label)
    for closed, evaluated in _pairs(ctx, construction):
        assert closed == evaluated


def test_explicit_inverses_are_compared_somewhere():
    """The weak-structure inverses exist on some instances, so their
    comparisons above are not vacuous."""
    assert any(_pairs(_context(label), "psi_tilde_inverse") for label in INSTANCES)
    assert any(_pairs(_context(label), "cleft_inverse") for label in INSTANCES)


@pytest.mark.parametrize("label", INSTANCES)
def test_stack_slices_inverts_slices(label):
    for w in _context(label).default_witnesses():
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
    ctx = _context.__wrapped__(label)  # a fresh context, with nothing memoized
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert {name for name, *_ in calls} == set(RELATION_SPANS)
    for name, args, out in calls:
        assert out == RELATION_SPANS[name][1](*args), (name, args)
