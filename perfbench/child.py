"""Run one instance the way ``coring-lab analyze`` does and time each step.

    python3 perfbench/child.py INSTANCE.json [--setup-only] [--trace]
        [--host RECORD_FILE]

Makes the calls ``cmd_analyze`` makes (load_instance -> full_verify ->
run_analysis -> to_json, seed 0) and prints one JSON line: wall and CPU
seconds per step, the child's peak RSS, the exit class ``cmd_analyze`` would
return, and the report.  ``--setup-only`` stops after load_instance;
``--trace`` wraps the package with the outside-in tracer after import.
``--host`` names the calibration record (``hostspeed.py``); the child then
snapshots it at the start and after every step.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXIT_CLASSES = {"ok": 0, "parse": 1, "axiom": 2, "disagreement": 4, "inconclusive": 5}


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss would not do: Linux
    carries the parent's RSS at fork time across exec into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    path = argv[0]
    setup_only = "--setup-only" in argv
    trace = "--trace" in argv
    host, record = {}, None
    if "--host" in argv:
        import hostspeed
        record = hostspeed.open_record(argv[argv.index("--host") + 1])
        host["start"] = hostspeed.read(record)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from coring_lab import cli
    from coring_lab.cleft import InconclusiveSearch
    from coring_lab.exactla import ShapeError
    from coring_lab.morita import ClauseDisagreement
    from coring_lab.verdict import VerificationError

    wall, cpu = {}, {}
    marks = [(_T0, _C0)]

    def mark(step):
        now = (time.perf_counter(), time.process_time())
        wall[step] = now[0] - marks[-1][0]
        cpu[step] = now[1] - marks[-1][1]
        marks.append(now)
        if record is not None:
            host[step] = hostspeed.read(record)

    mark("import")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        marks[-1] = (time.perf_counter(), time.process_time())

    status, report = "ok", None
    try:
        ctx = cli.load_instance(path)
        mark("load")
        if not setup_only:
            cli.full_verify(ctx)
            mark("verify")
            result = cli.run_analysis(ctx, seed=0)
            mark("analyze")
            text = result.to_json()
            mark("serialize")
            report = json.loads(text)
    except (OSError, json.JSONDecodeError, ShapeError):
        status = "parse"
    except ClauseDisagreement:
        status = "disagreement"
    except InconclusiveSearch:
        status = "inconclusive"
    except VerificationError:
        # an axiom failure up to full_verify, an internal one after it
        status = "disagreement" if "verify" in wall else "axiom"

    out = {
        "status": status,
        "wall": wall,
        "cpu": cpu,
        "maxrss_kb": peak_rss_kb(),
        "host": host,
        "report": report,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")
    return EXIT_CLASSES[status]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
