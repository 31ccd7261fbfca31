"""Seeded instance generators for the three benchmark workloads.

Every instance is built through the package's public construction API and
written as instance JSON; the program under test only ever sees those files,
through ``load_instance`` in a child process.

* ``ladder``: the four shipped fixtures and ``QZn`` (n = 2..6) over Q.  The
  ladder itself is fixed; the seed only sets the order it runs in.
* ``dense``: ``fix-t``, ``fix-h``, ``fix-n`` and ``QZ3`` under a random
  change of basis with entries a/b, |a| <= 3, 1 <= b <= 3.  The bases come
  from the fixed ``BASIS_SEED``: the cost of dense ``QZ3`` swings by about
  a factor of two from one random basis to the next, which would swamp any
  change a benchmark run is meant to see.  The seed sets the order.
* ``small``: 25 random ``QZn`` (n in {2, 3, 4}, unit coaction 1 (x) g_k)
  alternating between Q and GF(2147483647), plus the non-Galois
  scalar-grouplike family (n = 2..6, k in {1, n - 1}).

Each generated instance carries a ``source`` record (``family``, ``n``,
``k``, ``field``) that names the reference verdict it is checked against.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from coring_lab import (
    GF,
    QQ,
    AlgebraPresentation,
    CoalgebraPresentation,
    DenseMatrix,
    EntwinedContext,
    doi_koppinen,
    fixture,
    kron,
)
from coring_lab.entwining import flip_entwining
from coring_lab.exactla import solve_matrix

BIG_PRIME = 2147483647
FIXTURES = ("fix-t", "fix-h", "fix-n", "fix-s")
LADDER_N = (2, 3, 4, 5, 6)
DENSE_SOURCES = ("fix-t", "fix-h", "fix-n", "QZ3")
SMALL_RANDOM = 25
SMALL_N = (2, 3, 4)
SCALAR_N = (2, 3, 4, 5, 6)
ENTRY_NUM, ENTRY_DEN = 3, 3
BASIS_SEED = 0


def field_of(tag: str):
    return QQ if tag == "Q" else GF(BIG_PRIME)


def field_tag(field) -> str:
    return "Q" if field.kind == "Q" else "Fp"


def grouplike_comult(n: int) -> list:
    return [[[1 if j == i and k == i else 0 for k in range(n)]
             for j in range(n)] for i in range(n)]


def group_algebra_dk(n: int, k: int, field=QQ) -> EntwinedContext:
    """The group algebra of Z/n entwined with its own group-like coalgebra
    (Doi-Koppinen), unit coaction 1 (x) g_k."""
    mult = [[[1 if c == (i + j) % n else 0 for c in range(n)]
             for j in range(n)] for i in range(n)]
    H = AlgebraPresentation(field, n, mult, [1] + [0] * (n - 1))
    C = CoalgebraPresentation(field, n, grouplike_comult(n), [1] * n)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    u = [0] * (n * n)
    u[k] = 1
    return EntwinedContext(H, C, psi, u, name=f"QZ{n}-x{k}-{field_tag(field)}",
                           entwining_kind="doi_koppinen")


def scalar_grouplike(n: int, k: int, field=QQ) -> EntwinedContext:
    """Scalars coacting through g_k of the n group-likes under the flip
    entwining; fix-n is the case n = 2, k = 1."""
    A = AlgebraPresentation(field, 1, [[[1]]], [1])
    C = CoalgebraPresentation(field, n, grouplike_comult(n), [1] * n)
    u = [0] * n
    u[k] = 1
    return EntwinedContext(A, C, flip_entwining(A, C), u,
                           name=f"SG{n}-x{k}-{field_tag(field)}")


def source_context(name: str) -> EntwinedContext:
    if name.startswith("QZ"):
        return group_algebra_dk(int(name[2:]), 0)
    return fixture(name).context


def _random_invertible(rng: random.Random, n: int):
    """A dense matrix with entries a/b (|a| <= 3, 1 <= b <= 3), with its
    inverse; invertibility is decided exactly."""
    ident = DenseMatrix.identity(QQ, n)
    while True:
        ent = [Fraction(rng.randint(-ENTRY_NUM, ENTRY_NUM), rng.randint(1, ENTRY_DEN))
               for _ in range(n * n)]
        T = DenseMatrix(QQ, n, n, ent)
        inv = solve_matrix(T, ident)
        if inv is not None:
            return T, inv


def change_basis(ctx: EntwinedContext, rng: random.Random, name: str) -> EntwinedContext:
    """The same entwined structure written in random bases: T for A, S for C.

    New structure constants are T^-1 m(T e_i, T e_j), (S^-1 (x) S^-1) Delta S,
    counit * S, and psi' = (T^-1 (x) S^-1) psi (S (x) T).
    """
    A, C = ctx.A, ctx.C
    nA, nC = A.dim, C.dim
    T, Ti = _random_invertible(rng, nA)
    S, Si = _random_invertible(rng, nC)
    cols = [T.col(i) for i in range(nA)]
    mult = [[Ti.apply(A.mul_vec(cols[i], cols[j])) for j in range(nA)]
            for i in range(nA)]
    A2 = AlgebraPresentation(QQ, nA, mult, Ti.apply(A.unit))
    delta = kron(Si, Si).mul(C.comult_matrix()).mul(S)
    comult = [[[delta.get(j * nC + k, i) for k in range(nC)] for j in range(nC)]
              for i in range(nC)]
    C2 = CoalgebraPresentation(QQ, nC, comult, C.counit_matrix().mul(S).row(0))
    out = kron(Ti, Si)
    psi = out.mul(ctx.psi).mul(kron(S, T))
    return EntwinedContext(A2, C2, psi, out.apply(ctx.unit_coaction), name=name)


def _record(ctx: EntwinedContext, source: dict) -> dict:
    data = ctx.to_json()
    return {"name": ctx.name, "source": source, "instance": data}


def ladder(seed: int, fixture_dir: str) -> list:
    out = []
    for name in FIXTURES:
        with open(os.path.join(fixture_dir, f"{name}.json")) as fh:
            data = json.load(fh)
        out.append({"name": name, "source": {"family": name}, "instance": data})
    for n in LADDER_N:
        ctx = group_algebra_dk(n, 0)
        out.append(_record(ctx, {"family": "QZ", "n": n, "k": 0, "field": "Q"}))
    random.Random(seed).shuffle(out)
    return out


def dense(seed: int, fixture_dir: str) -> list:
    rng = random.Random(BASIS_SEED)
    out = []
    for src in DENSE_SOURCES:
        ctx = change_basis(source_context(src), rng, f"dense-{src}")
        family = ({"family": "QZ", "n": int(src[2:]), "k": 0, "field": "Q"}
                  if src.startswith("QZ") else {"family": src})
        out.append(_record(ctx, family))
    random.Random(seed).shuffle(out)
    return out


def small(seed: int, fixture_dir: str) -> list:
    """Sizes and fields follow a fixed pattern (n cycles through SMALL_N, the
    field alternates), so every seed carries the same mix of sizes over each
    field; the seed picks each k and the order."""
    rng = random.Random(seed)
    out = []
    for i in range(SMALL_RANDOM):
        n, tag = SMALL_N[i % len(SMALL_N)], ("Q", "Fp")[i % 2]
        k = rng.randrange(n)
        ctx = group_algebra_dk(n, k, field_of(tag))
        out.append(_record(ctx, {"family": "QZ", "n": n, "k": k, "field": tag}))
    pairs = sorted({(n, k) for n in SCALAR_N for k in (1, n - 1)})
    for i, (n, k) in enumerate(pairs):
        tag = ("Q", "Fp")[i % 2]
        ctx = scalar_grouplike(n, k, field_of(tag))
        out.append(_record(ctx, {"family": "SG", "n": n, "k": k, "field": tag}))
    rng.shuffle(out)
    return out


WORKLOADS = {"ladder": ladder, "dense": dense, "small": small}


def write_workload(workload: str, seed: int, fixture_dir: str, out_dir: str) -> list:
    """Write one JSON file per instance; returns [(path, record)] in run order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for i, rec in enumerate(WORKLOADS[workload](seed, fixture_dir)):
        path = os.path.join(out_dir, f"{i:02d}-{rec['name']}.json")
        with open(path, "w") as fh:
            json.dump(rec["instance"], fh)
        written.append((path, rec))
    return written
