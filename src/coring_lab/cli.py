"""Command-line front end: verify, analyze, report.

Exit codes: 0 success, 1 parse/shape error, 2 axiom failure, 3 a requested
assertion failed, 4 internal clause disagreement (equivalent theorem clauses
evaluated differently, which means a bug), 5 the randomized cleft or normal
basis search was inconclusive.

Reports are deterministic: with a fixed --seed the JSON output is
byte-identical across runs, so timings go to stderr, never into the report.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time

from .cleft import (
    InconclusiveSearch,
    check_theorem_main,
    check_theorem_xcase,
    find_cleft,
    integral_space,
    normal_basis_check,
    x_case_grouplike,
)
from .entwining import EntwinedContext, instance_from_json
from .exactla import ShapeError, dumps_canonical
from .galois import structure_flags, structure_report
from .morita import check_theorem_Cfinite, check_theorem_surj, find_qhat
from .verdict import ClauseDisagreement, VerificationError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_AXIOM = 2
EXIT_ASSERT = 3
EXIT_DISAGREEMENT = 4
EXIT_INCONCLUSIVE = 5


class AnalysisReport:
    """The full structural verdict for one instance; serializes sorted."""

    def __init__(self, payload: dict[str, object], timing_ms: float = 0.0):
        self.payload = payload
        self.timing_ms = timing_ms

    def to_json(self) -> str:
        return dumps_canonical(self.payload)

    def to_text(self) -> str:
        lines = []
        inst = self.payload.get("instance", {})
        lines.append(f"instance: {inst.get('name') or '(unnamed)'}")
        lines.append(f"digest: {inst.get('digest')}")
        lines.append(f"field: {json.dumps(inst.get('field'), sort_keys=True)}")
        dims = self.payload.get("dims", {})
        lines.append("dims: " + ", ".join(f"{k}={v}" for k, v in sorted(dims.items())))
        flags = self.payload.get("flags", {})
        lines.append("flags:")
        for k in sorted(flags):
            lines.append(f"  {k}: {_fmt(flags[k])}")
        if self.payload.get("qhat") is not None:
            lines.append(f"qhat: {json.dumps(self.payload['qhat'])}")
        if self.payload.get("cleft_witness"):
            cw = self.payload["cleft_witness"]
            lines.append(f"cleft lambda: {json.dumps(cw['lambda']['entries'])}")
            lines.append(f"cleft lambda_bar: {json.dumps(cw['lambda_bar']['entries'])}")
        theorems = self.payload.get("theorems", {})
        for name in sorted(theorems):
            tab = theorems[name]
            if tab is None:
                lines.append(f"theorem {name}: not applicable")
                continue
            clause_bits = ", ".join(f"{k}={_fmt(v)}"
                                    for k, v in sorted(tab["clauses"].items()))
            lines.append(f"theorem {name}: agreement={_fmt(tab['agreement'])} "
                         f"[{clause_bits}]")
        wit = self.payload.get("witnesses")
        if wit:
            lines.append("witnesses: " + ", ".join(wit))
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


# Past this many objects promoted by the resumes of ``_collector_paused``,
# the next paused call first runs a full collection; see there.
_PROMOTED_LIMIT = 100_000
_promoted = 0


def _collector_paused(fn):
    """Run fn with the cyclic garbage collector paused.

    An analysis builds tens of thousands of small dicts, lists and tuples.
    Reference counting frees the dead ones, and the live ones are memoized
    results that last as long as the context, so the collector's young
    passes walk survivors and find nothing.  If the collector is enabled on
    entry it is disabled for the call and enabled again on the way out,
    also when fn raises; if it is already off, a caller's choice or an
    enclosing paused call, nothing is touched.  The pause is
    process-global, which suits this single-process, single-threaded
    engine.

    On resume, ``gc.freeze()`` then ``gc.unfreeze()`` moves every tracked
    object into the oldest generation in O(1) and zeroes the young count.
    A plain ``gc.enable()`` would leave the survivors young, and the next
    allocation would walk them all in one young pass outside the call:
    the cost would be moved, not removed.  The promotion is skipped when a
    caller holds objects frozen, since ``gc.unfreeze()`` would release
    them too.

    Cyclic garbage waits for a full collection, and a dropped context is
    cyclic: its memo caches hold results that point back at it.  The
    promoted objects never reach the collector's own count for a full
    collection, so a process that analyzes one file after another (the
    ``report`` command, a test session) would hold every dropped context.
    So the resumes count the objects they promote (the young count), and
    past ``_PROMOTED_LIMIT`` the next paused call first runs
    ``gc.collect()``.  A single analysis of the benchmark's instances
    promotes far fewer and never pays for it.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        global _promoted
        if not gc.isenabled():
            return fn(*args, **kwargs)
        if _promoted > _PROMOTED_LIMIT:
            _promoted = 0
            gc.collect()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if not gc.get_freeze_count():
                _promoted += gc.get_count()[0]
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    return paused


@_collector_paused
def load_instance(path: str) -> EntwinedContext:
    """Parse an instance file into a context; a file that is not valid
    JSON is a ShapeError.  Runs with the cyclic collector paused."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bad UTF-8, over-long integers, too deep a nesting
            raise ShapeError(f"{path} is not valid JSON: {exc}") from None
    return instance_from_json(data)


@_collector_paused
def full_verify(ctx: EntwinedContext):
    """The input checks: the axioms of A, C and psi, then the unit
    coaction u's comodule laws at 1 (Delta(u) = u (x)_A u, eps(u) = 1);
    raises VerificationError on the first failure.  Given the axioms, the
    laws at 1 are the comodule laws of A, and the entwined-module law of
    A's coaction is a theorem.  What they imply (a coring on A (x) C with
    group-like x, a Morita context) is a theorem, checked on every tested
    instance by the test suite, not here.  Runs with the cyclic collector
    paused."""
    verdict = ctx.verify_axioms()
    if not verdict.valid:
        raise VerificationError("axioms", verdict)
    ctx.comodule_A()


@_collector_paused
def run_analysis(ctx: EntwinedContext, seed: int = 0,
                 witness_budget: int | None = None) -> AnalysisReport:
    """Run the whole pipeline and assemble the structured report.  Runs
    with the cyclic collector paused."""
    t0 = time.perf_counter()
    witnesses = ctx.default_witnesses(seed=seed)
    if witness_budget is not None and witness_budget < len(witnesses):
        witnesses = witnesses[:max(3, witness_budget)]
    data = ctx.morita()
    tables = structure_report(ctx, witnesses=witnesses, seed=seed)
    flags = structure_flags(ctx)
    surj = check_theorem_surj(ctx, witnesses=witnesses, seed=seed)
    cfin = check_theorem_Cfinite(ctx, witnesses=witnesses, seed=seed)
    cleft_res = find_cleft(ctx, seed)
    nb_res = normal_basis_check(ctx, seed)
    main = check_theorem_main(ctx, seed)
    xcase = check_theorem_xcase(ctx, seed)
    integrals = integral_space(ctx)
    qhat = find_qhat(data)
    f = ctx.field
    payload: dict[str, object] = {
        "instance": {
            "name": ctx.name,
            "digest": ctx.digest(),
            "field": f.to_json(),
        },
        "dims": {
            "A": ctx.A.dim,
            "C": ctx.C.dim,
            "coring": ctx.coring().dim,
            "dual_ring": ctx.sharp_ring().algebra.dim,
            "B": data.B.dim,
            "Q": data.Q.dim,
            "integrals": integrals.dim,
        },
        "axioms": {"valid": True},
        "flags": {
            "qhat_exists": qhat is not None,
            "F_surjective": data.F_report.surjective,
            "F_bijective": data.F_report.bijective,
            "G_surjective": data.G_report.surjective,
            "G_bijective": data.G_report.bijective,
            "galois": flags.galois,
            "weak": flags.weak,
            "strong": flags.strong,
            "flat_BA": flags.flat_BA,
            "faithfully_flat_BA": flags.flat_BA and flags.gen_BA,
            "cleft": cleft_res.answer,
            "normal_basis": nb_res.answer,
            "total_integral_exists": integrals.total_example is not None,
            "x_case_applies": x_case_grouplike(ctx) is not None,
        },
        "qhat": None if qhat is None else
        qhat.reshape(ctx.A.dim, ctx.C.dim).to_json()["entries"],
        "cleft_witness": None if cleft_res.witness is None else cleft_res.witness.to_json(),
        "cleft_certificate": cleft_res.certificate,
        "notes": {
            "alpha_condition": "holds (finite-dimensional)",
            "flat_means": "flat (=projective at this scale)",
            "quasiprogenerator_clauses": "not evaluated",
        },
        "theorems": {
            "surj": surj,
            "C_finite": {k: v for k, v in cfin.items() if k != "subclauses"},
            "fin_gen": tables["fin_gen"],
            "fin_prog": tables["fin_prog"],
            "main": main,
            "x_case": xcase,
        },
        "witnesses": [w.name or "?" for w in witnesses],
    }
    return AnalysisReport(payload, timing_ms=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# assertion mini-language
# ---------------------------------------------------------------------------


def _lookup(payload: dict, dotted: str):
    cur: object = payload
    for part in dotted.split("."):
        if isinstance(cur, dict) and part in cur:
            cur = cur[part]
        else:
            return None, False
    return cur, True


def _parse_value(text: str):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        return text


def _split_assertion(expr: str) -> tuple[str, str] | None:
    """(key, value) of key=value, each stripped, or None when the key is
    empty or the value starts with a second '='."""
    key, eq, raw = expr.partition("=")
    key, raw = key.strip(), raw.strip()
    if not eq or not key or raw.startswith("="):
        return None
    return key, raw


def check_assertion(payload: dict, expr: str) -> str | None:
    """Evaluate key=value; the key is a dotted path, with the top-level flag
    names usable bare.  Returns an error message or None."""
    parts = _split_assertion(expr)
    if parts is None:
        return f"malformed assertion {expr!r} (want key=value)"
    key, raw = parts
    want = _parse_value(raw)
    got, found = _lookup(payload, key)
    if not found:
        got, found = _lookup(payload.get("flags", {}), key)
    if not found:
        got, found = _lookup(payload.get("dims", {}), key)
    if not found:
        return f"assertion key {key!r} not present in the report"
    if got != want:
        return f"assertion failed: {key} = {_fmt(got)} (wanted {_fmt(want)})"
    return None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _process(path: str, seed: int = 0, witness_budget: int | None = None,
             analyze: bool = True) -> tuple[int, str, AnalysisReport | None]:
    """Load, verify and, when asked, analyze one instance file.

    Returns (exit code, one-line message, report).  This is the one mapping
    from exceptions to exit classes that every command uses.  A
    VerificationError is an axiom failure (2) until the instance has
    verified, and an internal inconsistency (4) after that.
    """
    verified = False
    try:
        ctx = load_instance(path)
        full_verify(ctx)
        verified = True
        report = run_analysis(ctx, seed=seed, witness_budget=witness_budget) if analyze else None
    except (OSError, ShapeError) as exc:
        return EXIT_PARSE, f"error: {exc}", None
    except ClauseDisagreement as exc:
        return EXIT_DISAGREEMENT, f"clause disagreement: {exc}", None
    except InconclusiveSearch as exc:
        return EXIT_INCONCLUSIVE, f"inconclusive: {exc}", None
    except VerificationError as exc:
        if verified:
            return EXIT_DISAGREEMENT, f"internal verification failure: {exc}", None
        return EXIT_AXIOM, f"axiom failure: {exc}", None
    return EXIT_OK, "", report


def cmd_verify(args) -> int:
    code, message, _ = _process(args.path, analyze=False)
    if code != EXIT_OK:
        print(message, file=sys.stderr)
        return code
    print(f"ok: {args.path} satisfies all axioms")
    return EXIT_OK


def cmd_analyze(args) -> int:
    code, message, report = _process(args.path, args.seed, args.witnesses)
    if code != EXIT_OK:
        print(message, file=sys.stderr)
        return code
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text())
    print(f"analyze took {report.timing_ms:.1f} ms", file=sys.stderr)
    failures = []
    for expr in args.asserts or []:
        msg = check_assertion(report.payload, expr)
        if msg:
            failures.append(msg)
    if failures:
        for msg in failures:
            print(msg, file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


HEADLINE = ("galois", "cleft", "weak", "strong", "normal_basis", "qhat_exists")
# report exits with the most severe class met across its files
SEVERITY = (EXIT_DISAGREEMENT, EXIT_AXIOM, EXIT_INCONCLUSIVE, EXIT_PARSE)


def cmd_report(args) -> int:
    rows = []
    codes = set()
    for path in sorted(args.paths):
        code, message, rep = _process(path, args.seed)
        if code == EXIT_OK:
            flags = rep.payload["flags"]
            rows.append((path, [str(_fmt(flags[k])) for k in HEADLINE]))
        else:
            rows.append((path, [message[:80]]))
            codes.add(code)
    print("\t".join(["instance"] + list(HEADLINE)))
    for path, cells in rows:
        print("\t".join([path] + cells))
    return next((c for c in SEVERITY if c in codes), EXIT_OK)


def _env_seed() -> int:
    raw = os.environ.get("CORING_LAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ShapeError(f"CORING_LAB_SEED must be an integer, got {raw!r}") from None


def _witness_count(raw: str) -> int:
    import argparse
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")
    return n


def _assertion(raw: str) -> str:
    """An --assert argument, checked before any work is done."""
    import argparse
    if _split_assertion(raw) is None:
        raise argparse.ArgumentTypeError(f"malformed assertion {raw!r} (want KEY=VALUE)")
    return raw


def build_parser() -> argparse.ArgumentParser:
    # argparse is imported here, not at module level: only ``main`` parses a
    # command line, and the analysis entry points never pay for the import
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a malformed command line as a ShapeError, so it exits 1 with
        one line like any other malformed input; subparsers inherit the class."""

        def error(self, message):
            raise ShapeError(message)

    parser = _Parser(
        prog="coring-lab",
        description="Exact analysis of corings built from entwining structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check every axiom of an instance")
    p_verify.add_argument("path")
    p_verify.set_defaults(func=cmd_verify)

    default_seed = _env_seed()

    p_analyze = sub.add_parser("analyze", help="full structural analysis")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--witnesses", type=_witness_count, default=None,
                           help="cap the witness family size")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.add_argument("--assert", dest="asserts", action="append",
                           metavar="KEY=VALUE", type=_assertion,
                           help="fail (exit 3) unless the report field matches")
    p_analyze.add_argument("--seed", type=int, default=default_seed)
    p_analyze.set_defaults(func=cmd_analyze)

    p_report = sub.add_parser("report", help="one headline row per instance")
    p_report.add_argument("paths", nargs="*")
    p_report.add_argument("--seed", type=int, default=default_seed)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
