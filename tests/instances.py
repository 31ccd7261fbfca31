"""The instance sets the tests share.

``INSTANCES`` are the extra instances of ``test_closed_forms``: every
fixture over Q and over GF(7), a dense change of basis of ``QZ3``, ``fix-s``
with a conjugated group-like, the algebra of ``fix-s`` over the trivial
coalgebra, and the group algebra of S3 over its own group-like coalgebra;
``context`` builds one, memoized.  ``DISTINCT`` holds every
fixture, every one of ``INSTANCES`` and the 47 instances the benchmark
generates at seed 0, each distinct instance once under its first label.
"""

import functools
from itertools import permutations

from coring_lab.algebra import AlgebraPresentation
from coring_lab.coalgebra import CoalgebraPresentation, grouplike_coalgebra
from coring_lab.entwining import EntwinedContext, doi_koppinen, flip_entwining, instance_from_json
from coring_lab.exactla import QQ
from coring_lab.fixtures import FIXTURE_NAMES, fixture

from crosscheck import solve
from helpers import lmul, perfbench_instance, perfbench_records

INSTANCES = [f"{name}-{field}" for name in FIXTURE_NAMES for field in ("Q", "F7")] + \
    ["dense-QZ3", "fix-s-conj", "fix-s-over-k", "kS3"]


def group_algebra_s3():
    """k[S3] entwined with its own group-like coalgebra (Doi-Koppinen), unit
    coaction 1 (x) g_e, built as the CI job builds it: a non-commutative A
    whose dual ring is 36-dimensional.  A group algebra over a field is a
    Hopf-Galois extension of k with a normal basis, hence cleft (Blattner,
    Cohen and Montgomery 1986), with coinvariants B = k."""
    G = sorted(permutations(range(3)))   # the identity first
    n = len(G)
    index = {g: i for i, g in enumerate(G)}
    prod = [[index[tuple(g[h[t]] for t in range(3))] for h in G] for g in G]
    mult = [[[int(c == prod[i][j]) for c in range(n)] for j in range(n)] for i in range(n)]
    H = AlgebraPresentation(QQ, n, mult, [1] + [0] * (n - 1))
    comult = [[[int(j == i and k == i) for k in range(n)] for j in range(n)] for i in range(n)]
    C = CoalgebraPresentation(QQ, n, comult, [1] * n)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    u = [1] + [0] * (n * n - 1)
    return EntwinedContext(H, C, psi, u, name="kS3-xe-Q", entwining_kind="doi_koppinen")


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
    if label == "kS3":
        return group_algebra_s3()
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
