"""The acceptance gate: every criterion exact (tolerance zero), one printed
pass/fail line per criterion, with the stated runtime budgets enforced."""

import random
import time

import pytest

from coring_lab.exactla import (
    QQ,
    GF,
    DenseMatrix,
    Subspace,
    SubspaceBuilder,
    image,
    kernel,
    quotient,
)
from coring_lab.algebra import verify_algebra
from coring_lab.coalgebra import CoalgebraPresentation, verify_coalgebra
from coring_lab.coring import verify_coring
from coring_lab.entwining import (
    EntwinedContext,
    doi_koppinen,
    verify_entwining,
)
from coring_lab.morita import (
    check_theorem_Cfinite,
    check_theorem_surj,
    find_qhat,
)
from coring_lab.cleft import cleft_psi_inverse_check, find_cleft, integral_space, lemma_coQ_check, normal_basis_check
from coring_lab.cli import run_analysis
from coring_lab.fixtures import FIXTURE_NAMES, fixture

from crosscheck import verify_context_identities
from helpers import group_algebra_zn, int_row, mult_table
from oracles import random_scalar


def _report(num, ok, text, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {text} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def fixture_contexts():
    return {name: fixture(name).context for name in FIXTURE_NAMES}


@pytest.fixture(scope="module")
def random_dk_instances():
    """25 seeded random group-algebra instances over Z/n, n in {2, 3, 4}."""
    rng = random.Random(20240901)
    out = []
    for i in range(25):
        n = rng.choice([2, 3, 4])
        k = rng.randrange(n)
        H = group_algebra_zn(n)
        comult = [[[1 if (j == idx and kk == idx) else 0 for kk in range(n)]
                   for j in range(n)] for idx in range(n)]
        C = CoalgebraPresentation(QQ, n, comult, [1] * n)
        psi = doi_koppinen(H, C, H, C.comult_matrix())
        u = [0] * (n * n)
        u[k] = 1
        out.append(EntwinedContext(H, C, psi, u, name=f"rand-QZ{n}-x{k}-{i}"))
    return out


# -- criterion 1: axiom suites with mutation-injected corruptions -------------


def _mutate_entry(entries, rng):
    idx = rng.randrange(len(entries))
    entries[idx] = entries[idx] + 1
    return entries


def test_acceptance_1_axiom_suites(fixture_contexts):
    t0 = time.perf_counter()
    ok = True
    for name, ctx in fixture_contexts.items():
        assert verify_algebra(ctx.A).valid
        assert verify_coalgebra(ctx.C).valid
        assert verify_entwining(ctx.A, ctx.C, ctx.psi).valid
        assert verify_coring(ctx.coring()).valid
    kinds = ("algebra", "coalgebra", "entwining", "coring-delta", "coring-counit")
    for name, ctx in fixture_contexts.items():
        rng = random.Random(hash(name) & 0xFFFF)
        for m in range(10):
            kind = kinds[m % len(kinds)]
            for attempt in range(20):
                if kind == "algebra":
                    mult = [[list(cell) for cell in row] for row in mult_table(ctx.A)]
                    i, j, k = (rng.randrange(ctx.A.dim) for _ in range(3))
                    mult[i][j][k] = mult[i][j][k] + 1
                    from coring_lab.algebra import AlgebraPresentation
                    bad = AlgebraPresentation(QQ, ctx.A.dim, mult, ctx.A.unit)
                    verdict = verify_algebra(bad)
                    names = set(verdict.axioms())
                    wanted = {"associativity", "unit-left", "unit-right"}
                elif kind == "coalgebra":
                    com = [[list(cell) for cell in row] for row in ctx.C.comult]
                    i, j, k = (rng.randrange(ctx.C.dim) for _ in range(3))
                    com[i][j][k] = com[i][j][k] + 1
                    bad = CoalgebraPresentation(QQ, ctx.C.dim, com, ctx.C.counit)
                    verdict = verify_coalgebra(bad)
                    names = set(verdict.axioms())
                    wanted = {"coassociativity", "counit-left", "counit-right"}
                elif kind == "entwining":
                    ent = list(ctx.psi.entries)
                    _mutate_entry(ent, rng)
                    bad_psi = DenseMatrix(QQ, ctx.psi.rows, ctx.psi.cols, ent)
                    verdict = verify_entwining(ctx.A, ctx.C, bad_psi)
                    names = set(verdict.axioms())
                    wanted = {"entwining-multiplicativity", "entwining-unit",
                              "entwining-comultiplicativity", "entwining-counit"}
                else:
                    cor = ctx.coring()
                    from coring_lab.coring import CoringPresentation
                    if kind == "coring-delta":
                        ent = list(cor.delta_lift.entries)
                        _mutate_entry(ent, rng)
                        bad = CoringPresentation(
                            cor.A, cor.dim, list(cor.left_module.action),
                            list(cor.right_module.action),
                            DenseMatrix(QQ, cor.dim * cor.dim, cor.dim, ent),
                            cor.counit_map, free_left_basis=cor.free_left_basis)
                    else:
                        ent = list(cor.counit_map.entries)
                        _mutate_entry(ent, rng)
                        bad = CoringPresentation(
                            cor.A, cor.dim, list(cor.left_module.action),
                            list(cor.right_module.action), cor.delta_lift,
                            DenseMatrix(QQ, cor.A.dim, cor.dim, ent),
                            free_left_basis=cor.free_left_basis)
                    verdict = verify_coring(bad)
                    names = set(verdict.axioms())
                    wanted = {"counit-law-left", "counit-law-right",
                              "coassociativity", "counit-left-linearity",
                              "counit-right-linearity",
                              "comultiplication-left-linearity",
                              "comultiplication-right-linearity"}
                if not verdict.valid:
                    break
            else:
                ok = False
                break
            if not names & wanted:
                ok = False
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0,
            "axiom suites pass and mutations are named on all fixtures "
            f"(runtime {elapsed:.2f}s < 1s)", elapsed)


# -- criterion 2: Morita context integrity -------------------------------------


def test_acceptance_2_morita_integrity(fixture_contexts):
    t0 = time.perf_counter()
    ok = True
    for name, ctx in fixture_contexts.items():
        data = ctx.morita()
        verify_context_identities(ctx, data)  # raises on any broken identity
    _report(2, ok, "bilinearity and associativity identities exact on all "
            "basis triples of every fixture", time.perf_counter() - t0)


# -- criteria 3 and 4: the two equivalence tables -------------------------------


def test_acceptance_3_surj_agreement(fixture_contexts, random_dk_instances):
    t0 = time.perf_counter()
    ok = True
    for ctx in list(fixture_contexts.values()) + random_dk_instances:
        res = check_theorem_surj(ctx)  # raises ClauseDisagreement on mismatch
        ok = ok and res["agreement"]
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 10.0,
            f"clause agreement on 4 fixtures + 25 random instances "
            f"(runtime {elapsed:.2f}s < 10s)", elapsed)


def test_acceptance_4_Cfinite_agreement(fixture_contexts, random_dk_instances):
    t0 = time.perf_counter()
    ok = True
    for ctx in list(fixture_contexts.values()) + random_dk_instances:
        res = check_theorem_Cfinite(ctx)
        ok = ok and res["agreement"]
    _report(4, ok, "clause agreement on the same instance set",
            time.perf_counter() - t0)


# -- criteria 5 and 6: fixture headline values ----------------------------------


def test_acceptance_5_fix_h_headline(fixture_contexts):
    t0 = time.perf_counter()
    ctx = fixture_contexts["fix-h"]
    data = ctx.morita()
    from coring_lab.galois import beta
    from coring_lab.cleft import check_theorem_main, check_theorem_xcase
    ok = data.B.dim == 1
    ok = ok and data.Q.dim == 2
    ok = ok and beta(ctx).report.bijective
    ok = ok and find_qhat(data).entries == [1, 0, 0, 0]
    res = find_cleft(ctx)
    ident = DenseMatrix.identity(QQ, 2)
    ok = ok and res.status == "found" and res.witness.lam == ident \
        and res.witness.lam_bar == ident
    ok = ok and normal_basis_check(ctx).status == "found"
    ok = ok and set(check_theorem_main(ctx)["clauses"].values()) == {True}
    ok = ok and set(check_theorem_xcase(ctx)["clauses"].values()) == {True}
    _report(5, ok, "fix-h: dim B = 1, dim Q = 2, Galois, q-hat = (1->1, g->0), "
            "cleft with identity witness, normal basis", time.perf_counter() - t0)


def test_acceptance_6_fix_n_headline(fixture_contexts):
    t0 = time.perf_counter()
    ctx = fixture_contexts["fix-n"]
    data = ctx.morita()
    from coring_lab.galois import beta
    from coring_lab.cleft import check_theorem_main
    ok = not beta(ctx).report.surjective
    ok = ok and not data.F_report.surjective
    ok = ok and find_qhat(data).entries == [0, 1]
    ints = integral_space(ctx)
    ok = ok and ints.total_example is not None
    res = find_cleft(ctx)
    ok = ok and res.status == "absent" and "vanishes" in res.certificate
    nb = normal_basis_check(ctx)
    ok = ok and nb.status == "absent" and "dimension" in nb.certificate
    ok = ok and set(check_theorem_main(ctx)["clauses"].values()) == {False}
    ok = ok and set(check_theorem_surj(ctx)["clauses"].values()) == {True}
    _report(6, ok, "fix-n: not Galois, F not surjective, q-hat = delta_g, "
            "total integral exists yet not cleft (certified), no normal basis",
            time.perf_counter() - t0)


# -- criterion 7: co-Q biconditional and the explicit inverse --------------------


def test_acceptance_7_coQ_and_explicit_inverse(fixture_contexts):
    t0 = time.perf_counter()
    ok = True
    for name in ("fix-t", "fix-h", "fix-s"):
        ctx = fixture_contexts[name]
        res = find_cleft(ctx)
        ok = ok and res.status == "found"
        out = lemma_coQ_check(ctx, res.witness.lam, res.witness.lam_bar)
        ok = ok and out["colinear"] and out["inverse_in_Q"]
        for w in (ctx.comodule_A(), ctx.default_witnesses()[2]):
            ok = ok and cleft_psi_inverse_check(ctx, res.witness, w)
    _report(7, ok, "co-Q biconditional and the explicit weak-structure "
            "inverse hold exactly on every cleft fixture",
            time.perf_counter() - t0)


# -- criterion 8: exact linear algebra on random matrices ------------------------


def test_acceptance_8_random_linear_algebra():
    t0 = time.perf_counter()
    ok = True
    for field, label in ((QQ, "Q"), (GF(5), "F5")):
        rng = random.Random(5 if label == "Q" else 55)
        for _ in range(1000):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            ent = [random_scalar(field, rng) if rng.random() < 0.75 else 0
                   for _ in range(rows * cols)]
            M = DenseMatrix(field, rows, cols, ent)
            k = kernel(M)
            im = image(M)
            if k.dim + im.dim != cols:
                ok = False
            # canonical uniqueness: respan the kernel by random combinations
            if k.dim:
                mixed = []
                for _ in range(k.dim + 1):
                    v = [0] * cols
                    for r in range(k.dim):
                        c = random_scalar(field, rng)
                        row = k.basis.row(r)
                        v = [field.normalize(a + c * b) for a, b in zip(v, row)]
                    mixed.append(v)
                s2 = Subspace.from_spanning(field, cols, mixed)
                if s2.dim == k.dim and s2 != k:
                    ok = False
            span = SubspaceBuilder(field, cols)
            for r in range(k.dim):
                span.insert(int_row(k.basis.row(r)))
            q = quotient(span)
            if q.projection.mul(q.section) != DenseMatrix.identity(field, q.dim):
                ok = False
            resid = q.section.mul(q.projection).sub(DenseMatrix.identity(field, cols))
            for j in range(cols):
                if not k.contains(resid.col(j)):
                    ok = False
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 5.0,
            f"rank-nullity, canonical uniqueness and quotient identities on "
            f"1000 random matrices per field (runtime {elapsed:.2f}s < 5s)",
            elapsed)


# -- criterion 9: determinism ----------------------------------------------------


def test_acceptance_9_determinism(fixture_contexts):
    t0 = time.perf_counter()
    ok = True
    for name in FIXTURE_NAMES:
        blobs = []
        for _ in range(2):
            ctx = fixture(name).context  # fresh context: no shared caches
            blobs.append(run_analysis(ctx, seed=11).to_json())
        if blobs[0] != blobs[1]:
            ok = False
    _report(9, ok, "same-seed analyze runs are byte-identical on all fixtures",
            time.perf_counter() - t0)
