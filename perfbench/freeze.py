"""Freeze the reference verdicts the benchmark checks its outputs against.

    PYTHONPATH=src python3 perfbench/freeze.py

Runs the pipeline in-process on every source the generators can emit and
writes ``reference.json`` next to this file.  Before writing, each verdict
is cross-checked against known mathematics: the fixtures must match their
``fixtures/*.expected.json``; every ``QZn`` is Galois and cleft, has a normal
basis and dim B = 1; every scalar-grouplike instance is neither Galois nor
cleft and has a normalized element (q-hat).
"""

from __future__ import annotations

import json
import os
import sys

from coring_lab.cli import full_verify, run_analysis

import check
import generate

FIXTURE_DIR = os.path.join(os.path.dirname(check.HERE), "fixtures")


def _analyze(ctx) -> dict:
    full_verify(ctx)
    return json.loads(run_analysis(ctx, seed=0).to_json())


def _sources():
    for name in generate.FIXTURES:
        yield name, generate.source_context(name)
    keys = {(n, 0, "Q") for n in generate.LADDER_N}
    keys |= {(n, k, tag) for n in generate.SMALL_N for k in range(n)
             for tag in ("Q", "Fp")}
    for n, k, tag in sorted(keys):
        yield f"QZ:{n}:{k}:{tag}", generate.group_algebra_dk(n, k, generate.field_of(tag))
    for n in generate.SCALAR_N:
        for k in sorted({1, n - 1}):
            for tag in ("Q", "Fp"):
                yield f"SG:{n}:{k}:{tag}", generate.scalar_grouplike(
                    n, k, generate.field_of(tag))


def _math_faults(key: str, report: dict) -> list:
    flags = report["flags"]
    if key.startswith("QZ:"):
        want = {"galois": True, "cleft": True, "normal_basis": True}
        faults = [k for k, v in want.items() if flags[k] != v]
        return faults + ([] if report["dims"]["B"] == 1 else ["dims.B"])
    if key.startswith("SG:"):
        want = {"galois": False, "cleft": False, "qhat_exists": True}
        return [k for k, v in want.items() if flags[k] != v]
    path = os.path.join(FIXTURE_DIR, f"{key}.expected.json")
    with open(path) as fh:
        return check.fixture_mismatches(report, json.load(fh))


def main() -> int:
    reference, faults = {}, []
    for key, ctx in _sources():
        report = _analyze(ctx)
        bad = _math_faults(key, report)
        if bad:
            faults.append(f"{key}: {', '.join(bad)}")
        reference[key] = check.verdict(report)
        print(key, "ok" if not bad else "FAULT", file=sys.stderr)
    if faults:
        print("reference not written:", *faults, sep="\n  ", file=sys.stderr)
        return 1
    with open(check.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
