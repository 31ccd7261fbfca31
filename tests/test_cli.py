import gc
import json
import os
import subprocess
import sys

import pytest

from coring_lab import cli
from coring_lab.cli import main, run_analysis, check_assertion
from coring_lab.exactla import ShapeError
from coring_lab.fixtures import fixture
from coring_lab.verdict import VerificationError

from helpers import perfbench_instance

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXDIR, f"{name}.json")


def run_cli(args):
    """Invoke the CLI in-process, capturing exit code and stdout."""
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_verify_fixture_ok():
    for name in ("fix-t", "fix-h", "fix-n", "fix-s"):
        code, out, err = run_cli(["verify", fx(name)])
        assert code == 0, err


def test_verify_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(["verify", str(bad)])
    assert code == 1


def test_verify_wrong_shape(tmp_path):
    blob = json.load(open(fx("fix-h")))
    blob["unit_coaction"] = [1, 0]
    p = tmp_path / "shape.json"
    p.write_text(json.dumps(blob))
    code, out, err = run_cli(["verify", str(p)])
    assert code == 1


def test_verify_broken_entwining_names_axiom(tmp_path):
    blob = json.load(open(fx("fix-n")))
    blob["entwining"] = {"kind": "matrix",
                         "psi": [[0, 0], [0, 0]]}
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(blob))
    code, out, err = run_cli(["verify", str(p)])
    assert code == 2
    assert "entwining-unit" in err


@pytest.mark.parametrize("u,axiom", [([0, 0, 0, 0], "coaction-counit"),
                                     ([-1, 2, 0, 0], "coaction-coassociativity")])
def test_verify_unit_coaction_not_grouplike_names_axiom(tmp_path, u, axiom):
    """fix-h with a unit coaction that is not group-like: its comodule law
    fails at 1, an axiom failure of the input."""
    blob = json.load(open(fx("fix-h")))
    blob["unit_coaction"] = u
    p = tmp_path / "not-grouplike.json"
    p.write_text(json.dumps(blob))
    for command in ("verify", "analyze"):
        code, out, err = run_cli([command, str(p)])
        assert (code, out) == (2, "")
        assert axiom in err


def test_analyze_asserts_pass():
    code, out, err = run_cli(["analyze", fx("fix-h"),
                              "--assert", "galois=true",
                              "--assert", "cleft=true"])
    assert code == 0


def test_analyze_assert_fix_n():
    code, out, err = run_cli(["analyze", fx("fix-n"),
                              "--assert", "galois=false"])
    assert code == 0
    code, out, err = run_cli(["analyze", fx("fix-n"),
                              "--assert", "cleft=true"])
    assert code == 3
    assert "assertion failed" in err


def test_analyze_assert_dotted_paths():
    code, out, err = run_cli(["analyze", fx("fix-n"),
                              "--assert", "dims.B=1",
                              "--assert", "theorems.surj.clauses.1=true"])
    assert code == 0


def test_analyze_json_roundtrip():
    code, out, err = run_cli(["analyze", fx("fix-h"), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    # round-trip: parse(serialize(report)) = report
    from coring_lab.exactla import dumps_canonical
    assert json.loads(dumps_canonical(payload)) == payload
    assert payload["flags"]["galois"] is True


def test_analyze_deterministic_across_runs():
    blobs = []
    for _ in range(2):
        code, out, err = run_cli(["analyze", fx("fix-h"), "--format", "json",
                                  "--seed", "7"])
        assert code == 0
        blobs.append(out)
    assert blobs[0] == blobs[1]


def test_derived_objects_are_computed_once_per_context():
    from coring_lab.cleft import find_cleft
    from coring_lab.cli import full_verify, load_instance
    from coring_lab.coring import x_invariants
    from coring_lab.galois import psi_M
    from coring_lab.morita import omega_and_lambda

    ctx = load_instance(fx("fix-s"))
    full_verify(ctx)
    run_analysis(ctx, seed=0)
    data = ctx.morita()
    witnesses = ctx.default_witnesses(0)
    assert omega_and_lambda(data) is omega_and_lambda(data)
    for w in witnesses:
        assert psi_M(ctx, w) is psi_M(ctx, w)
    assert find_cleft(ctx, 0) is find_cleft(ctx, 0)
    assert find_cleft(ctx, 0) is not find_cleft(ctx, 1)
    assert x_invariants(data.A_right_dual, ctx) is x_invariants(data.A_right_dual, ctx)
    # a second context from the same file shares nothing with the first
    other = load_instance(fx("fix-s"))
    assert other.morita() is not data
    assert omega_and_lambda(other.morita()) is not omega_and_lambda(data)
    assert other.default_witnesses(0) is not witnesses
    assert psi_M(other, other.default_witnesses(0)[1]) is not psi_M(ctx, witnesses[1])
    assert find_cleft(other, 0) is not find_cleft(ctx, 0)


def test_analyze_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("CORING_LAB_SEED", "3")
    code, out, err = run_cli(["analyze", fx("fix-t"), "--format", "json"])
    assert code == 0


def test_analyze_witness_budget():
    code, out, err = run_cli(["analyze", fx("fix-h"), "--format", "json",
                              "--witnesses", "3"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["witnesses"]) == 3


def test_report_over_fixtures():
    paths = [fx(n) for n in ("fix-t", "fix-h", "fix-n", "fix-s")]
    code, out, err = run_cli(["report"] + paths)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    body = lines[1:]
    assert [l.split("\t")[0] for l in body] == sorted(paths)
    false_rows = [l for l in body if "\tfalse" in l]
    assert len(false_rows) == 1 and "fix-n" in false_rows[0]


def test_report_empty():
    code, out, err = run_cli(["report"])
    assert code == 0
    assert out.strip().splitlines()[0].startswith("instance")


def test_report_unreadable_path(tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(["report", fx("fix-t"), missing])
    assert code == 1
    assert "error" in out


def test_check_assertion_helper():
    report = run_analysis(fixture("fix-n").context).payload
    assert check_assertion(report, "galois=false") is None
    assert check_assertion(report, "galois=true") is not None
    assert check_assertion(report, "nonsense-key=1") is not None
    assert check_assertion(report, "no-equals") is not None
    assert check_assertion(report, "=true") is not None
    assert check_assertion(report, "galois==false").startswith("malformed assertion")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coring_lab.cli", "verify", fx("fix-t")],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_exit_code_for_clause_disagreement(monkeypatch):
    import coring_lab.cli as cli
    from coring_lab.morita import ClauseDisagreement

    def boom(ctx, seed=0, witness_budget=None):
        raise ClauseDisagreement("synthetic", {"1": True, "2": False})

    monkeypatch.setattr(cli, "run_analysis", boom)
    code, out, err = run_cli(["analyze", fx("fix-t")])
    assert code == 4
    assert "clause disagreement" in err


def test_exit_code_for_inconclusive_search(monkeypatch):
    import coring_lab.cli as cli
    from coring_lab.cleft import InconclusiveSearch

    def boom(ctx, seed=0, witness_budget=None):
        raise InconclusiveSearch("budget exhausted")

    monkeypatch.setattr(cli, "run_analysis", boom)
    code, out, err = run_cli(["analyze", fx("fix-t")])
    assert code == 5
    assert "inconclusive" in err


# -- the collector pause around load, verify and analysis ---------------------


@pytest.fixture
def collector_enabled():
    """The cyclic collector enabled for the test, and its state restored."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _not_grouplike(tmp_path):
    """fix-h with unit coaction [0, 0, 1, 0], an axiom failure of the input."""
    blob = json.load(open(fx("fix-h")))
    blob["unit_coaction"] = [0, 0, 1, 0]
    p = tmp_path / "not-grouplike.json"
    p.write_text(json.dumps(blob))
    return str(p)


def test_collector_resumes_after_each_paused_call(collector_enabled):
    ctx = cli.load_instance(fx("fix-h"))
    assert gc.isenabled() and gc.get_freeze_count() == 0
    cli.full_verify(ctx)
    assert gc.isenabled() and gc.get_freeze_count() == 0
    cli.run_analysis(ctx, seed=0)
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_collector_resumes_when_the_call_raises(tmp_path, collector_enabled):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ShapeError):
        cli.load_instance(str(bad))
    assert gc.isenabled() and gc.get_freeze_count() == 0
    ctx = cli.load_instance(_not_grouplike(tmp_path))
    with pytest.raises(VerificationError):
        cli.full_verify(ctx)
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_collector_left_off_when_off_on_entry():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = cli.load_instance(fx("fix-h"))
        cli.full_verify(ctx)
        cli.run_analysis(ctx, seed=0)
        assert not gc.isenabled() and gc.get_freeze_count() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_collector_keeps_a_callers_frozen_objects(collector_enabled):
    """The resume promotes survivors by freeze/unfreeze only when no caller
    holds objects frozen: it never releases them."""
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        ctx = cli.load_instance(fx("fix-h"))
        cli.full_verify(ctx)
        assert gc.isenabled() and gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def _write_qz6(tmp_path):
    p = tmp_path / "QZ6.json"
    p.write_text(json.dumps(perfbench_instance("ladder", "QZ6-x0-Q")))
    return str(p)


def test_qz6_analysis_runs_no_collection(tmp_path, collector_enabled, monkeypatch):
    """Load, verify and analysis of QZ6 run no collection of any
    generation: inside the pause none runs, and the resume leaves the
    survivors in the oldest generation with the young count at zero."""
    p = _write_qz6(tmp_path)
    monkeypatch.setattr(cli, "_promoted", 0)   # no full collection is due
    gc.collect()
    before = [g["collections"] for g in gc.get_stats()]
    ctx = cli.load_instance(p)
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert [g["collections"] for g in gc.get_stats()] == before


def test_dropped_contexts_are_collected(tmp_path, collector_enabled, monkeypatch):
    """A dropped context is cyclic garbage (its memo caches point back at
    it), and the resume's promotion hides it from the collector's own count
    for a full collection; past the promotion limit the next paused call
    runs one.  Without it, eight analyses of QZ6, each context dropped,
    leave over 100,000 unreachable objects."""
    p = _write_qz6(tmp_path)
    limit = 20_000
    monkeypatch.setattr(cli, "_PROMOTED_LIMIT", limit)
    monkeypatch.setattr(cli, "_promoted", 0)
    gc.collect()
    for _ in range(8):
        ctx = cli.load_instance(p)
        cli.full_verify(ctx)
        cli.run_analysis(ctx, seed=0)
        del ctx
    assert gc.collect() <= 2 * limit


# -- the parsing boundary: every malformed input is exit 1, one line ----------

MALFORMED = {  # case -> edits (path into fix-h's JSON, new value)
    "coaction-text": [(("unit_coaction", 0), "abc")],
    "coaction-zero-denominator": [(("unit_coaction", 0), "1/0")],
    "coaction-null": [(("unit_coaction", 0), None)],
    "coaction-bool": [(("unit_coaction", 0), True)],
    "coaction-float": [(("unit_coaction", 0), 1.5)],
    "coaction-exponent": [(("unit_coaction", 0), "1e999999999")],
    "coaction-string-as-list": [(("unit_coaction",), "1000")],
    "counit-zero-denominator": [(("coalgebra", "counit", 0), "1/0")],
    "mult-bool": [(("algebra", "mult", 0, 0, 0), False)],
    "algebra-zero-dim": [(("algebra",), {"dim": 0, "mult": [], "unit": []})],
    "dim-string": [(("algebra", "dim"), "2")],
    "p-string": [(("field",), {"kind": "Fp", "p": "7"})],
    "p-bool": [(("field",), {"kind": "Fp", "p": True})],
    "p-missing": [(("field",), {"kind": "Fp"})],
    "p-beyond-bound": [(("field",), {"kind": "Fp", "p": 2 ** 89 - 1})],
    "denominator-divisible-by-p": [(("field",), {"kind": "Fp", "p": 2}),
                                   (("unit_coaction", 0), "1/2")],
    "name-not-string": [(("name",), ["fix-h"])],
    # strings ``Fraction`` takes but the scalar grammar ("a" or "a/b" in
    # ASCII digits, a leading "-" allowed) does not
    "scalar-underscore": [(("coalgebra", "counit", 0), "1_0")],
    "scalar-leading-space": [(("unit_coaction", 0), " 1")],
    "scalar-arabic-indic-digit": [(("unit_coaction", 0), "\u0663")],
    "scalar-fullwidth-digit": [(("unit_coaction", 0), "\uff11")],
    "scalar-leading-point": [(("unit_coaction", 0), ".5")],
    "scalar-trailing-point": [(("unit_coaction", 0), "1.")],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1(tmp_path, case):
    blob = json.load(open(fx("fix-h")))
    for (*keys, last), value in MALFORMED[case]:
        target = blob
        for k in keys:
            target = target[k]
        target[last] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(blob))
    for command in ("verify", "analyze"):
        code, out, err = run_cli([command, str(p)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("text", [
    '{"unit_coaction": [' + "1" * 5000 + "]}",
    "[" * 100000 + "]" * 100000,
], ids=["overlong-integer", "deep-nesting"])
def test_bad_json_text_exits_1(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run_cli(["verify", str(p)])
    assert code == 1 and len(err.splitlines()) == 1


def test_bad_seed_environment_exits_1(monkeypatch):
    monkeypatch.setenv("CORING_LAB_SEED", "abc")
    code, out, err = run_cli(["verify", fx("fix-t")])
    assert code == 1
    assert err.strip() == "error: CORING_LAB_SEED must be an integer, got 'abc'"


@pytest.mark.parametrize("argv", [
    ["analyze", "FIX", "--bogus"],
    ["analyze", "FIX", "--seed", "x"],
    ["report", "FIX", "--seed", "x"],
    ["analyze", "FIX", "--witnesses", "x"],
    ["analyze", "FIX", "--witnesses", "-3"],
    ["analyze", "FIX", "--format", "yaml"],
    ["analyze", "FIX", "--assert", "galois"],
    ["analyze", "FIX", "--assert", "=true"],
    ["analyze", "FIX", "--assert", " =true"],
    ["analyze", "FIX", "--assert", "galois==true"],
    ["analyze", "FIX", "--assert", "galois=true", "--assert", "cleft"],
    [],
], ids=["unknown-flag", "seed-not-int", "report-seed-not-int", "witnesses-not-int",
        "witnesses-negative", "format-yaml", "assert-without-value", "assert-empty-key",
        "assert-blank-key", "assert-double-equals", "assert-second-malformed",
        "no-subcommand"])
def test_malformed_flags_exit_1(argv, monkeypatch):
    import coring_lab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a malformed command line must exit before any work")

    monkeypatch.setattr(cli, "_process", no_work)
    code, out, err = run_cli([fx("fix-t") if a == "FIX" else a for a in argv])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--witnesses" in capsys.readouterr().out


# -- report exits with the most severe class it met -----------------------------

@pytest.mark.parametrize("names,want", [
    (("fix-h", "missing"), 5),
    (("fix-h", "broken", "missing"), 2),
    (("fix-t", "broken", "fix-h", "missing"), 4),
    (("fix-n", "missing"), 1),
])
def test_report_exit_is_most_severe_class(monkeypatch, tmp_path, names, want):
    import coring_lab.cli as cli
    from coring_lab.cleft import InconclusiveSearch
    from coring_lab.morita import ClauseDisagreement

    real = cli.run_analysis

    def staged(ctx, seed=0, witness_budget=None):
        if ctx.name == "fix-t":
            raise ClauseDisagreement("synthetic", {"1": True, "2": False})
        if ctx.name == "fix-h":
            raise InconclusiveSearch("budget exhausted")
        return real(ctx, seed=seed, witness_budget=witness_budget)

    blob = json.load(open(fx("fix-n")))
    blob["entwining"] = {"kind": "matrix", "psi": [[0, 0], [0, 0]]}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(blob))
    paths = {"broken": str(broken), "missing": str(tmp_path / "missing.json")}
    monkeypatch.setattr(cli, "run_analysis", staged)
    code, out, err = run_cli(["report"] + [paths.get(n) or fx(n) for n in names])
    assert code == want
    assert len(out.strip().splitlines()) == 1 + len(names)


# -- a self-paired Doi-Koppinen input is checked as a bialgebra -------------------

# fix-h's coalgebra with Delta broken: Delta(g) = g (x) g + 1 (x) g is not
# coassociative; Delta(g) = 1 (x) g + g (x) 1 is coassociative but not
# multiplicative; Delta(1) = 0 breaks Delta(1) = 1 (x) 1
BROKEN_DELTA = {
    "bialgebra-coassociativity": [[[1, 0], [0, 0]], [[0, 1], [0, 1]]],
    "comultiplication-not-algebra-map": [[[1, 0], [0, 0]], [[0, 1], [1, 0]]],
    "comultiplication-of-unit": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]],
}


@pytest.mark.parametrize("axiom", sorted(BROKEN_DELTA))
def test_self_paired_doi_koppinen_with_broken_delta_exits_2(tmp_path, axiom):
    from coring_lab.cli import load_instance
    from coring_lab.verdict import VerificationError

    blob = json.load(open(fx("fix-h")))
    assert blob["entwining"] == {"kind": "doi_koppinen"}
    blob["coalgebra"]["comult"] = BROKEN_DELTA[axiom]
    if axiom == "comultiplication-not-algebra-map":
        blob["coalgebra"]["counit"] = [1, 0]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(blob))
    with pytest.raises(VerificationError) as exc:
        load_instance(str(p))
    assert axiom in exc.value.verdict.axioms()
    for command in ("verify", "analyze"):
        code, out, err = run_cli([command, str(p)])
        assert (code, out) == (2, "")
        assert axiom in err


def test_non_self_paired_doi_koppinen_with_broken_coaction_is_named():
    """superline's A = Q[x]/(x^2) graded by Z/2, but with odd part spanned by
    1 + x: a counital coassociative coaction, and no algebra map since
    (1 + x)^2 = 1 + 2x is not even."""
    from coring_lab.coalgebra import grouplike_coalgebra
    from coring_lab.entwining import doi_koppinen
    from coring_lab.exactla import QQ, DenseMatrix
    from coring_lab.verdict import VerificationError
    from helpers import dual_numbers, group_algebra_z2

    coaction = DenseMatrix.from_rows(QQ, [[1, -1], [0, 1], [0, 0], [0, 1]], cols=2)
    with pytest.raises(VerificationError) as exc:
        doi_koppinen(group_algebra_z2(), grouplike_coalgebra(QQ, 2), dual_numbers(), coaction)
    assert exc.value.verdict.axioms() == ["coaction-not-algebra-map"]
