"""Every operator on Hom(C, A) the package builds in closed form, every
map and module structure of the Morita context it builds as a matrix
product, and every relation span it takes over the generators of an
algebra, checked entry for entry against its construction one elementary
map, basis vector or basis element at a time in ``crosscheck.py``, over Q
and a prime field, on the fixtures, on a dense change of basis with
non-integer entries and on the non-commutative ``fix-s``, also with a
group-like x whose C-components are not multiples of the unit of A, and on
the algebra of ``fix-s`` over the trivial coalgebra, where B = A is not
commutative and so left and right multiplication by B differ."""

import functools
import random

import pytest

from coring_lab import algebra, cli, coring, galois, morita
from coring_lab.cleft import _integral_condition, _normal_basis_condition
from coring_lab.coalgebra import _conv_operator, grouplike_coalgebra
from coring_lab.coring import dual_action
from coring_lab.entwining import EntwinedContext, flip_entwining, instance_from_json
from coring_lab.exactla import DenseMatrix, solve
from coring_lab.fixtures import FIXTURE_NAMES, fixture
from coring_lab.morita import _q_condition, _times_Q, omega_and_lambda, q_left_annihilator

from crosscheck import (
    G_plain_by_evaluation,
    Q_left_by_evaluation,
    Q_right_by_evaluation,
    at_x_by_evaluation,
    balanced_tensor_over_basis,
    conv_operator_by_evaluation,
    dual_action_by_evaluation,
    hom_comodule_over_basis,
    hom_module_over_basis,
    integral_condition_by_evaluation,
    normal_basis_condition_by_evaluation,
    omega_by_evaluation,
    q_condition_by_evaluation,
    q_left_annihilator_by_evaluation,
    sharp_constants_by_evaluation,
)
from helpers import perfbench_instance
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
        x = cor.left_act(u).apply(cor.right_act(solve(ctx.A.lmul_matrix(u), ctx.A.unit))
                                  .apply(ctx.x))
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


def _pairs(ctx, construction):
    """(closed form, construction by evaluation) pairs for one instance."""
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
        return [(_q_condition(ctx), q_condition_by_evaluation(ctx))]
    if construction == "sharp_constants":
        return [(ctx.sharp_ring().algebra.mult, sharp_constants_by_evaluation(ctx))]
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
    "q_condition", "sharp_constants", "hook", "Q_left", "Q_right", "omega", "q_annihilator"])
@pytest.mark.parametrize("label", INSTANCES)
def test_closed_form_matches_evaluation(label, construction):
    ctx = _context(label)
    for closed, evaluated in _pairs(ctx, construction):
        assert closed == evaluated


RELATION_SPANS = {  # name -> (the modules that call it, its whole-basis reference)
    "balanced_tensor": ((algebra, galois, morita), balanced_tensor_over_basis),
    "hom_module": ((algebra, galois, morita), hom_module_over_basis),
    "hom_comodule": ((coring, galois), hom_comodule_over_basis),
}


@pytest.mark.parametrize("label", INSTANCES)
def test_relation_spans_over_generators_match_whole_basis(label, monkeypatch):
    """Every balanced tensor product and hom space that one analysis builds,
    with relations over the algebra's generators, equals the one built with
    relations over its whole basis: the same subspace, and the same
    projection and section of the quotient."""
    calls = []
    for name, (modules, _) in RELATION_SPANS.items():
        def recording(M, N, runtime=getattr(modules[0], name), name=name):
            out = runtime(M, N)
            calls.append((name, M, N, out))
            return out
        for module in modules:
            monkeypatch.setattr(module, name, recording)
    ctx = _context.__wrapped__(label)  # a fresh context, with nothing memoized
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert {name for name, *_ in calls} == set(RELATION_SPANS)
    for name, M, N, out in calls:
        assert out == RELATION_SPANS[name][1](M, N), (name, M, N)
