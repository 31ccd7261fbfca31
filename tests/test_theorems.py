"""The theorems about verified input that the pipeline does not re-prove,
checked on every fixture, on the instances of ``test_closed_forms`` and on
the 47 instances the benchmark generates at seed 0:

* A (x) C is a coring, and the unit coaction's x = rho_A(1) is group-like
  in it, when psi is an entwining map (Brzezinski 2002, Prop. 2.2);
* Hom(C, A) with the entwined product is an algebra;
* the canonical map A (x)_B A -> A (x) C is a coring morphism (Brzezinski
  2002, section 5);
* (B, dual ring, A, Q, F, G) is a Morita context (Doi 1994), its trace
  splits B off A, and m q is x-invariant for q in Q.
"""

import pytest

from coring_lab.algebra import verify_algebra
from coring_lab.coring import SquareReducer, dual_action, is_grouplike, verify_coring, x_invariants
from coring_lab.entwining import instance_from_json
from coring_lab.exactla import DenseMatrix
from coring_lab.fixtures import FIXTURE_NAMES, fixture
from coring_lab.galois import beta
from coring_lab.morita import find_qhat, xi_M
from coring_lab.verdict import VerificationError

from crosscheck import trace_map, verify_beta_coring_morphism, verify_context_identities
from helpers import perfbench_records
from test_closed_forms import INSTANCES, _context

WORKLOADS = ("ladder", "dense", "small")


def _labelled_contexts():
    """(label, context) for every fixture, every instance of
    ``test_closed_forms`` and every instance the benchmark generates."""
    out = [(f"fixture-{name}", fixture(name).context) for name in FIXTURE_NAMES]
    out += [(f"closed-forms-{label}", _context(label)) for label in INSTANCES]
    for w in WORKLOADS:
        out += [(f"{w}-{i:02d}-{rec['name']}", instance_from_json(rec["instance"]))
                for i, rec in enumerate(perfbench_records(w))]
    return out


LABELLED = _labelled_contexts()
# the sets overlap (the fixtures appear in all three, and ``small`` repeats
# some instances), so each distinct instance is checked once, under its
# first label
DISTINCT = {}
for _label, _ctx in LABELLED:
    DISTINCT.setdefault(_ctx.digest(), (_label, _ctx))


def test_every_generated_instance_is_covered():
    assert sum(label.startswith(WORKLOADS) for label, _ in LABELLED) == 47


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_constructions_satisfy_their_theorems(ctx):
    assert ctx.verify_axioms().valid
    cor = ctx.coring()
    assert verify_coring(cor).valid
    x = ctx.comodule_A().coaction.apply(ctx.A.unit)
    assert x == ctx.x
    assert is_grouplike(cor, x, SquareReducer(cor))
    assert verify_algebra(ctx.sharp_ring().algebra).valid
    verify_beta_coring_morphism(ctx)
    data = ctx.morita()
    verify_context_identities(ctx, data)
    qhat = find_qhat(data)
    if qhat is not None:
        trace_map(data, qhat)
    for w in ctx.default_witnesses():
        mod = dual_action(w)
        assert x_invariants(mod, ctx).contains_columns(xi_M(data, mod)[0])


def test_beta_check_fires_on_a_perturbed_column():
    for name in FIXTURE_NAMES:
        ctx = fixture(name).context
        plain = beta(ctx).plain_matrix
        ent = list(plain.entries)
        ent[0] += 1   # entry 0 of the column of e_0 (x) e_0
        with pytest.raises(VerificationError) as exc:
            verify_beta_coring_morphism(ctx, DenseMatrix(ctx.field, plain.rows, plain.cols, ent))
        assert {"beta-counit", "beta-comultiplication"} & set(exc.value.verdict.axioms())


def test_trace_check_fires_on_a_doubled_qhat():
    """2 q-hat lies in Q but sends x to 2, so its trace doubles B."""
    fired = 0
    for name in FIXTURE_NAMES:
        data = fixture(name).context.morita()
        qhat = find_qhat(data)
        if qhat is None:
            continue
        with pytest.raises(VerificationError) as exc:
            trace_map(data, [2 * q for q in qhat])
        assert "trace-not-identity-on-B" in exc.value.verdict.axioms()
        fired += 1
    assert fired
