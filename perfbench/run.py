"""coring-lab benchmark: seeded workloads timed end to end and per module.

    python3 perfbench/run.py --workload ladder|dense|small|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Instances are generated from the seed
(``generate.py``), written as instance JSON and run one at a time, each in
its own child process (``child.py``), never in a pool.  Every report is
checked against its reference verdict (``check.py``).

With ``--trace 0`` every instance runs once, and then again, round after
round, while its last run still fits in ``--seconds``; each instance's time
is the median of its runs.  ``setup_s`` takes at least three samples per
instance, topped up with set-up-only runs after the rounds.  These
runs are pinned to one CPU beside the calibration process of
``hostspeed.py``, and every time is given in reference seconds: the child's
CPU time over a window of its steps, scaled by the host's speed over the
same window.  With ``--trace 1`` one untraced and one traced pass are run,
unpinned and unscaled, and the per-layer counters and self times of the
traced pass are reported, together with the tracing overhead (traced minus
untraced wall seconds).  Per-instance times (reference, wall and CPU
seconds) go to stderr; the last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
CHILD = os.path.join(HERE, "child.py")
HOSTSPEED = os.path.join(HERE, "hostspeed.py")
WORK = os.path.join(ROOT, ".perfbench")

ROUNDS = 3                   # minimum set-up samples per instance
RUN_LIMIT_S = 170.0          # a run must end within 180 s
STEPS = ("import", "load", "verify", "analyze", "serialize")
WINDOW_START = dict(zip(STEPS, ("start",) + STEPS))   # snapshot before a step

# Every end-to-end figure is printed; the result JSON carries the ones
# BENCHMARK.json declares.
END_TO_END = {"setup_s": "s", "verify_s": "s", "wall_s": "s",
              "instance_p50_s": "s", "instance_max_s": "s", "peak_rss_mb": "MB"}


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Calibration:
    """The calibration process of ``hostspeed.py``, for the length of a
    ``with`` block."""

    def __init__(self, work_dir: str):
        self.path = os.path.join(work_dir, "hostspeed.rec")
        self.proc = None

    def __enter__(self):
        hostspeed.create(self.path)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", HOSTSPEED, self.path, str(os.getpid())])
        record = hostspeed.open_record(self.path)
        try:
            deadline = time.monotonic() + 10.0
            while hostspeed.read(record)[0] < 10:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the calibration process did not start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        finally:
            record.close()
        return self

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.wait()


def run_child(path: str, flags: list, timeout: float):
    """One child process; returns (status, data). The child is always reaped.
    ``-S``: the package needs only the standard library, and site-packages
    hooks would add tens of milliseconds of start-up to every child."""
    try:
        proc = subprocess.run([sys.executable, "-S", CHILD, path, *flags], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return "timeout", None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return "raised", None
    data = json.loads(lines[-1])
    return data["status"], data


def run_instance(path, record, checker, deadline, flags=()) -> dict:
    """One run of one instance, checked against its reference verdict."""
    t0 = time.perf_counter()
    status, data = run_child(path, list(flags), deadline - t0)
    failure = None if status == "ok" else status
    if failure is None:
        bad = checker.mismatches(record, data["report"])
        if bad:
            failure = "wrong-verdict"
            print(f"  {record['name']}: wrong verdict on {', '.join(bad)}",
                  file=sys.stderr)
    data = data or {}
    return {"name": record["name"], "failure": failure,
            "wall": data.get("wall", {}), "cpu": data.get("cpu", {}),
            "maxrss_kb": data.get("maxrss_kb", 0), "host": data.get("host", {}),
            "trace": data.get("trace"),
            "elapsed": time.perf_counter() - t0}


def run_pass(instances, checker, deadline, flags=()) -> list:
    return [run_instance(path, record, checker, deadline, flags)
            for path, record in instances]


def sample(instances, checker, start, seconds, deadline, host_flags):
    """Runs of each instance: one pass, then rounds that rerun every instance
    whose last run still fits in the budget.  Returns the full runs and, per
    instance, at least ROUNDS runs for the set-up time, topped up with
    set-up-only runs."""
    runs = [[row] for row in run_pass(instances, checker, deadline, host_flags)]
    again = True
    while again:
        again = False
        for (path, record), rows in zip(instances, runs):
            if time.perf_counter() - start + rows[-1]["elapsed"] <= seconds:
                rows.append(run_instance(path, record, checker, deadline, host_flags))
                again = True
    setups = [list(rows) for rows in runs]
    for (path, _), rows in zip(instances, setups):
        while len(rows) < ROUNDS:
            _, data = run_child(path, ["--setup-only", *host_flags],
                                deadline - time.perf_counter())
            data = data or {}
            rows.append({key: data.get(key, {}) for key in ("cpu", "host")})
    return runs, setups


def step(row, *names) -> float:
    """Wall seconds of the steps ``names``."""
    return sum(row["wall"].get(s, 0.0) for s in names)


def ref_seconds(row, *names) -> float:
    """CPU seconds of the consecutive steps ``names``, in reference seconds:
    scaled by the host's speed over the same window, or over the whole child
    when no calibration iteration ended inside the window.  0 for a run that
    did not get that far."""
    host = row["host"]
    if names[-1] not in host:
        return 0.0
    speed = hostspeed.rate(host[WINDOW_START[names[0]]], host[names[-1]]) \
        or hostspeed.rate(host["start"], list(host.values())[-1])
    if speed is None:
        raise RuntimeError("no calibration iteration ended during a child")
    cpu = sum(row["cpu"][s] for s in names)
    return cpu * speed / hostspeed.REFERENCE_RATE


def median_ref(rows, *names) -> float:
    return statistics.median(ref_seconds(r, *names) for r in rows)


def end_to_end(runs, setups) -> dict:
    work = [median_ref(rows, "verify", "analyze") for rows in runs]
    return {
        "setup_s": sum(median_ref(rows, "import", "load") for rows in setups),
        "verify_s": sum(median_ref(rows, "verify") for rows in runs),
        "wall_s": sum(median_ref(rows, *STEPS) for rows in runs),
        "instance_p50_s": statistics.median(work),
        "instance_max_s": max(work),
        "peak_rss_mb": max(r["maxrss_kb"] for rows in runs for r in rows) / 1024.0,
    }


def layer_metrics(rows, untraced_wall: float) -> dict:
    total = {}
    for r in rows:
        for key, value in ((r["trace"] or {}).get("metrics") or {}).items():
            if key == "exactla.max_matrix_entries":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    trials = total.get("cleft.search_invertible.trials", 0)
    found = total.get("cleft.search_invertible.found", 0)
    total["cleft.search_invertible.found_ratio"] = found / trials if trials else 0.0
    total["trace.overhead_s"] = sum(step(r, *STEPS) for r in rows) - untraced_wall
    return total


def print_instances(workload, runs, file=sys.stderr):
    """Per instance: status, then reference / wall / CPU seconds of each run.
    Beside the calibration process a child gets about three quarters of the
    CPU; CPU far below that share of wall means other load on the CPU."""
    print(f"# {workload}: instance, status, runs of ref/wall/cpu s", file=file)
    total_wall = total_cpu = 0.0
    for rows in runs:
        failures = sorted({r["failure"] for r in rows if r["failure"]})
        cells = []
        for r in rows:
            wall, cpu = sum(r["wall"].values()), sum(r["cpu"].values())
            total_wall += wall
            total_cpu += cpu
            ref = ref_seconds(r, *STEPS) if r["host"] else float("nan")
            cells.append(f"{ref:.3f}/{wall:.3f}/{cpu:.3f}")
        print(f"  {rows[0]['name']:<14} {','.join(failures) or 'ok':<14} "
              + " ".join(cells), file=file)
        for r in rows:
            stages = (r["trace"] or {}).get("stages")
            if stages:
                print("    stages: " + ", ".join(
                    f"{k}={v:.3f}" for k, v in sorted(stages.items())), file=file)
    print(f"# {workload}: child wall {total_wall:.2f} s, cpu {total_cpu:.2f} s",
          file=file)


def run_workload(workload, seed, seconds, trace):
    import generate
    from check import Checker

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    work_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    try:
        instances = generate.write_workload(workload, seed, FIXTURES, work_dir)
        checker = Checker(FIXTURES)
        if trace:
            plain = run_pass(instances, checker, deadline)
            traced = run_pass(instances, checker, deadline, ["--trace"])
            runs = [[a, b] for a, b in zip(plain, traced)]
        else:
            with Calibration(work_dir) as calibration:
                runs, setups = sample(instances, checker, start, seconds, deadline,
                                        ["--host", calibration.path])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print_instances(workload, runs)
    attempted = sum(len(rows) for rows in runs)
    classes = Counter(r["failure"] for rows in runs for r in rows if r["failure"])
    failed = sum(classes.values())
    if trace:
        values = layer_metrics(traced, sum(step(r, *STEPS) for r in plain))
        shown = gated = declared("per_layer")
    else:
        values = end_to_end(runs, setups)
        shown, gated = END_TO_END, declared("end_to_end")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in gated.items()}
    lines = [(name, values.get(name, 0), unit) for name, unit in shown.items()]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, classes, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder", "dense", "small", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coring_lab", "__init__.py")) \
            or not os.path.isdir(FIXTURES):
        print(f"error: no coring_lab sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(os.path.join(SRC, "coring_lab"), quiet=1)
    if not args.trace:
        print(f"# {hostspeed.pin_to_one_cpu()}", file=sys.stderr)

    names = ("ladder", "dense", "small") if args.workload == "all" else (args.workload,)
    results, classes, lines = {}, {}, {}
    for w in names:
        results[w], classes[w], lines[w] = run_workload(w, args.seed, args.seconds,
                                                        bool(args.trace))
    for w, res in results.items():
        by_class = ", ".join(f"{k} {v}" for k, v in sorted(classes[w].items()))
        print(f"{w}: failed_ratio {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']}{'; ' + by_class if by_class else ''})")
        for name, value, unit in lines[w]:
            print(f"{w}: {name} {value:.6g} {unit}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
