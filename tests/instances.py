"""The instance sets the tests share.

``INSTANCES`` are the extra instances of ``test_closed_forms``: every
fixture over Q and over GF(7), a dense change of basis of ``QZ3``, ``fix-s``
with a conjugated group-like, and the algebra of ``fix-s`` over the trivial
coalgebra; ``context`` builds one, memoized.  ``DISTINCT`` holds every
fixture, every one of ``INSTANCES`` and the 47 instances the benchmark
generates at seed 0, each distinct instance once under its first label.
"""

import functools

from coring_lab.coalgebra import grouplike_coalgebra
from coring_lab.entwining import EntwinedContext, flip_entwining, instance_from_json
from coring_lab.fixtures import FIXTURE_NAMES, fixture

from crosscheck import solve
from helpers import lmul, perfbench_instance, perfbench_records

INSTANCES = [f"{name}-{field}" for name in FIXTURE_NAMES for field in ("Q", "F7")] + \
    ["dense-QZ3", "fix-s-conj", "fix-s-over-k"]


@functools.lru_cache(maxsize=None)
def context(label):
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


WORKLOADS = ("ladder", "dense", "small")


def _labelled_contexts():
    """(label, context) for every fixture, every instance of
    ``test_closed_forms`` and every instance the benchmark generates."""
    out = [(f"fixture-{name}", fixture(name).context) for name in FIXTURE_NAMES]
    out += [(f"closed-forms-{label}", context(label)) for label in INSTANCES]
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
