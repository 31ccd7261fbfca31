"""End-to-end runs over a prime field: the whole pipeline must work over F_p
exactly as over Q, including the exhaustive branch of the cleft search."""

import json

from coring_lab.exactla import GF
from coring_lab.algebra import AlgebraPresentation, verify_algebra
from coring_lab.coalgebra import grouplike_coalgebra, verify_coalgebra
from coring_lab.coring import verify_coring
from coring_lab.entwining import (
    EntwinedContext,
    doi_koppinen,
    flip_entwining,
    instance_from_json,
)
from coring_lab.morita import check_theorem_Cfinite, check_theorem_surj, find_qhat
from coring_lab.galois import structure_flags, structure_report
from coring_lab.cleft import find_cleft, normal_basis_check, check_theorem_main
from coring_lab.cli import run_analysis

F5 = GF(5)


def group_algebra_z2_f5():
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return AlgebraPresentation(F5, 2, mult, [1, 0], name="F5Z2")


def make_fp_galois():
    H = group_algebra_z2_f5()
    C = grouplike_coalgebra(F5, 2)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    return EntwinedContext(H, C, psi, [1, 0, 0, 0], name="f5-h")


def make_fp_non_galois():
    A = AlgebraPresentation(F5, 1, [[[1]]], [1], name="F5")
    C = grouplike_coalgebra(F5, 2)
    return EntwinedContext(A, C, flip_entwining(A, C), [0, 1], name="f5-n")


def test_axioms_over_f5():
    ctx = make_fp_galois()
    assert verify_algebra(ctx.A).valid
    assert verify_coalgebra(ctx.C).valid
    assert verify_coring(ctx.coring()).valid


def test_full_pipeline_galois_over_f5():
    ctx = make_fp_galois()
    data = ctx.morita()
    assert data.B.dim == 1 and data.Q.dim == 2
    assert find_qhat(data).entries == [1, 0, 0, 0]
    assert set(check_theorem_surj(ctx)["clauses"].values()) == {True}
    assert set(check_theorem_Cfinite(ctx)["clauses"].values()) == {True}
    flags = structure_flags(ctx)
    assert flags.galois and flags.weak and flags.strong
    assert set(structure_report(ctx)["fin_prog"]["clauses"].values()) == {True}
    res = find_cleft(ctx)
    assert res.status == "found"
    assert normal_basis_check(ctx).status == "found"
    assert set(check_theorem_main(ctx)["clauses"].values()) == {True}


def test_full_pipeline_non_galois_over_f5():
    ctx = make_fp_non_galois()
    data = ctx.morita()
    assert data.Q.dim == 1
    res = find_cleft(ctx)
    # one parameter over F_5: the search exhausts all five candidates
    assert res.status == "absent"
    assert "exhausted" in res.certificate or "vanishes" in res.certificate
    assert set(check_theorem_surj(ctx)["clauses"].values()) == {True}
    assert set(check_theorem_Cfinite(ctx)["clauses"].values()) == {False}


def test_f5_instance_json_roundtrip_and_analysis():
    ctx = make_fp_galois()
    blob = json.loads(json.dumps(ctx.to_json()))
    back = instance_from_json(blob)
    assert back.field == F5
    report = run_analysis(back, seed=0).payload
    assert report["flags"]["galois"] is True
    assert report["flags"]["cleft"] is True
    assert report["instance"]["field"] == {"kind": "Fp", "p": 5}


def test_f2_scalars_pipeline():
    # the smallest field: same group-algebra instance over F_2; over F_2 the
    # group algebra of Z/2 is the dual numbers, with different structure
    F2 = GF(2)
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    H = AlgebraPresentation(F2, 2, mult, [1, 0], name="F2Z2")
    C = grouplike_coalgebra(F2, 2)
    psi = doi_koppinen(H, C, H, C.comult_matrix())
    ctx = EntwinedContext(H, C, psi, [1, 0, 0, 0], name="f2-h")
    assert ctx.verify_axioms().valid
    data = ctx.morita()
    # over F_2 the coinvariants are bigger: (a + bg) coinvariant iff Delta
    # fixes it, i.e. b(g (x) g - g (x) 1) = 0 still forces b = 0
    assert data.B.dim == 1
    res = check_theorem_surj(ctx)
    assert res["agreement"]
    cf = check_theorem_Cfinite(ctx)
    assert cf["agreement"]
    tables = structure_report(ctx)
    # the clause machinery stays internally consistent whatever the verdicts
    assert set(tables["fin_gen"]["clauses"].values()) in ({True}, {False})
