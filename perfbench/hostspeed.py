"""Host-speed calibration: a fixed kernel run beside the timed children.

On a shared virtual machine the speed of a core moves by up to 2x within
seconds (other tenants on the same physical core), with CPU time equal to
wall time, so neither medians nor longer runs take it out.  What does is to
measure the host's speed over the same instants as the program:

* the benchmark pins itself, its children and this calibration process to
  one CPU, so the scheduler interleaves them a few milliseconds apart and
  they see the same host;
* the calibration process runs at a lower priority (``NICENESS``, about a
  quarter of the CPU while a child runs) and repeats a fixed exact
  elimination over ``Fraction`` -- stdlib only, so no change to the package
  moves it -- publishing (iterations, its CPU seconds) through a small
  memory-mapped file after each one;
* a child snapshots that record at each step boundary.  Over any window the
  host's speed is iterations per calibration-CPU-second, and a step's time
  in reference seconds is its own CPU time scaled by that speed over
  ``REFERENCE_RATE``.

``REFERENCE_RATE`` is the kernel's rate on a fast stretch of the 2-vCPU
machine the benchmark was built on, so reference seconds are close to that
machine's seconds.  Run as a script, this module is the calibration process:

    python3 perfbench/hostspeed.py RECORD_FILE PARENT_PID
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time
from fractions import Fraction

RECORD = struct.Struct("<qdq")   # iterations, CPU seconds, iterations again
NICENESS = 5
REFERENCE_RATE = 1000.0          # kernel iterations per CPU second
SIZE = 6
MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 4 + 1)
           for j in range(SIZE)] for i in range(SIZE)]


def kernel() -> None:
    """Gauss-Jordan elimination of a fixed invertible rational matrix."""
    rows = [row[:] for row in MATRIX]
    for c in range(SIZE):
        p = next(r for r in range(c, SIZE) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        for r in range(SIZE):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]


def create(path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(bytes(RECORD.size))


def open_record(path: str) -> mmap.mmap:
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), RECORD.size, prot=mmap.PROT_READ)


def read(record: mmap.mmap) -> tuple:
    """(iterations, calibration CPU seconds), retried past a torn write."""
    while True:
        first, cpu, last = RECORD.unpack(record[:])
        if first == last:
            return first, cpu


def rate(begin, end):
    """Kernel iterations per calibration CPU second between two snapshots,
    or None when no iteration ended in between."""
    iters, cpu = end[0] - begin[0], end[1] - begin[1]
    return iters / cpu if iters > 0 and cpu > 0 else None


def pin_to_one_cpu() -> str:
    """Pin this process, and so every process it starts, to one CPU.
    Returns a note for the log."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc}); host-speed scaling will be coarser"
    return f"pinned to CPU {cpu}"


def serve(path: str, parent: int) -> None:
    os.nice(NICENESS)
    with open(path, "r+b") as fh:
        record = mmap.mmap(fh.fileno(), RECORD.size)
    it = 0
    while True:
        kernel()
        it += 1
        record[:] = RECORD.pack(it, time.process_time(), it)
        if it % 1000 == 0 and os.getppid() != parent:
            return                   # the benchmark is gone: do not linger


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
