"""Output checker for the benchmark's instances.

* Shipped fixtures are checked against ``fixtures/<name>.expected.json``
  (as ``tests/test_fixtures.py`` does) and against the frozen reference.
* Every instance is checked against the reference verdict of its source in
  ``reference.json``: dims, every flag, and each theorem's clause table and
  agreement bit.  A change of basis leaves all of these unchanged; q-hat and
  cleft-witness coordinates may differ and are not part of the verdict.

``reference.json`` is written by ``freeze.py``.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
EXPECTED_FLAGS = ("qhat_exists", "F_surjective", "G_surjective", "galois",
                  "weak", "strong", "cleft", "normal_basis",
                  "total_integral_exists", "x_case_applies")


def source_key(source: dict) -> str:
    """Reference key of a generated instance's source record."""
    if source["family"] in ("QZ", "SG"):
        return f"{source['family']}:{source['n']}:{source['k']}:{source['field']}"
    return source["family"]


def verdict(report: dict) -> dict:
    """The basis-independent part of an analyze report."""
    theorems = {}
    for name, tab in report["theorems"].items():
        theorems[name] = None if tab is None else {
            "clauses": tab["clauses"], "agreement": tab["agreement"]}
    return {"dims": report["dims"], "flags": report["flags"], "theorems": theorems}


def _mixed(rows):
    """Expected files hold strings; reports emit ints when integral."""
    return [[int(x) if isinstance(x, str) and x.lstrip("-").isdigit() else x
             for x in row] for row in rows]


def fixture_mismatches(report: dict, expected: dict) -> list:
    out = []
    for key, want in expected["dims"].items():
        if report["dims"].get(key) != want:
            out.append(f"dims.{key}")
    for key in EXPECTED_FLAGS:
        if report["flags"].get(key) != expected[key]:
            out.append(f"flags.{key}")
    if "qhat" in expected and report["qhat"] != _mixed(expected["qhat"]):
        out.append("qhat")
    if "lambda" in expected:
        wit = report["cleft_witness"] or {}
        if wit.get("lambda", {}).get("entries") != _mixed(expected["lambda"]):
            out.append("cleft_witness.lambda")
        if wit.get("lambda_bar", {}).get("entries") != _mixed(expected["lambda_bar"]):
            out.append("cleft_witness.lambda_bar")
    tables = [("surj", "theorem_surj"), ("C_finite", "theorem_C_finite"),
              ("main", "theorem_main")]
    if expected["x_case_applies"]:
        tables.append(("x_case", "theorem_x_case"))
    for name, key in tables:
        if report["theorems"][name]["clauses"] != expected[key]:
            out.append(f"theorems.{name}")
    return out


def verdict_mismatches(got: dict, want: dict) -> list:
    out = []
    for part in ("dims", "flags", "theorems"):
        for key in sorted(set(got[part]) | set(want[part])):
            if got[part].get(key) != want[part].get(key):
                out.append(f"{part}.{key}")
    return out


class Checker:
    def __init__(self, fixture_dir: str):
        with open(REFERENCE_FILE) as fh:
            self.reference = json.load(fh)
        self.fixture_dir = fixture_dir

    def mismatches(self, record: dict, report: dict) -> list:
        """Names of the report fields that disagree with the references."""
        source = record["source"]
        out = verdict_mismatches(verdict(report), self.reference[source_key(source)])
        if record["name"] == source["family"]:   # an untransformed fixture
            path = os.path.join(self.fixture_dir, f"{record['name']}.expected.json")
            with open(path) as fh:
                out += fixture_mismatches(report, json.load(fh))
        return out
