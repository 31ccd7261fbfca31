import json
import os

import pytest

from coring_lab.cli import run_analysis
from coring_lab.entwining import instance_from_json
from coring_lab.exactla import ShapeError
from coring_lab.fixtures import FIXTURE_NAMES, all_fixtures, fixture, write_fixture_files

REPO_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_unknown_fixture_rejected():
    with pytest.raises(ShapeError):
        fixture("fix-z")


def test_fixture_instances_verify():
    for fx in all_fixtures():
        assert fx.context.verify_axioms().valid


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pipeline_reproduces_expected_values(name):
    fx = fixture(name)
    report = run_analysis(fx.context, seed=0).payload
    exp = fx.expected
    dims = report["dims"]
    for key, want in exp["dims"].items():
        assert dims[key] == want, (name, key)
    flags = report["flags"]
    for key in ("qhat_exists", "F_surjective", "G_surjective", "galois",
                "weak", "strong", "cleft", "normal_basis",
                "total_integral_exists", "x_case_applies"):
        assert flags[key] == exp[key], (name, key)
    if "qhat" in exp:
        assert report["qhat"] == [[str(x) for x in row] for row in exp["qhat"]] \
            or report["qhat"] == _as_mixed(exp["qhat"])
    if "lambda" in exp:
        got = report["cleft_witness"]["lambda"]["entries"]
        assert got == _as_mixed(exp["lambda"])
        got_bar = report["cleft_witness"]["lambda_bar"]["entries"]
        assert got_bar == _as_mixed(exp["lambda_bar"])
    assert report["theorems"]["surj"]["clauses"] == exp["theorem_surj"]
    assert report["theorems"]["C_finite"]["clauses"] == exp["theorem_C_finite"]
    assert report["theorems"]["main"]["clauses"] == exp["theorem_main"]
    if exp["x_case_applies"]:
        assert report["theorems"]["x_case"]["clauses"] == exp["theorem_x_case"]


def _as_mixed(rows):
    """Expected-file matrices carry strings; reports emit ints when integral."""
    out = []
    for row in rows:
        cur = []
        for x in row:
            try:
                cur.append(int(x))
            except ValueError:
                cur.append(x)
        out.append(cur)
    return out


def test_fixture_files_match_generated():
    for name in FIXTURE_NAMES:
        fx = fixture(name)
        path = os.path.join(REPO_FIXTURE_DIR, f"{name}.json")
        with open(path) as fh:
            on_disk = json.load(fh)
        assert on_disk == fx.instance_json(), name
        with open(os.path.join(REPO_FIXTURE_DIR, f"{name}.expected.json")) as fh:
            assert json.load(fh) == fx.expected, name


def test_fixture_files_parse_back():
    for name in FIXTURE_NAMES:
        path = os.path.join(REPO_FIXTURE_DIR, f"{name}.json")
        with open(path) as fh:
            ctx = instance_from_json(json.load(fh))
        assert ctx.verify_axioms().valid


def test_writer_reproduces_shipped_files(tmp_path):
    write_fixture_files(str(tmp_path))
    for name in FIXTURE_NAMES:
        for suffix in (".json", ".expected.json"):
            shipped = os.path.join(REPO_FIXTURE_DIR, name + suffix)
            with open(shipped, "rb") as want, open(tmp_path / (name + suffix), "rb") as got:
                assert got.read() == want.read(), name + suffix
