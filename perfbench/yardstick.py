"""A fixed computation that measures how fast the machine is right now.

On a shared machine the speed of a core changes from second to second
with what other tenants run, by as much as a factor of two.  A round's
time alone then says as much about the neighbours as about depth2kit.
So ``run.py`` pins itself, every process it starts and this yardstick
to one CPU.  The yardstick repeats a fixed unit of interpreter work
(function calls, tuples, dicts, small-int arithmetic) without end, at
the lowest scheduling priority, and after each unit publishes how many
units it has done and the CPU time they took.  It shares the CPU with
the measured process, taking a small share in slices spread over the
whole window, so it sees the speed the measured process sees.

A measured CPU time t then becomes ``t * REFERENCE_UNIT_S / u``, where
u is the yardstick's CPU seconds per unit over the same window: the
time the work would take on a machine where one unit takes
``REFERENCE_UNIT_S``.

Usage: ``python3 perfbench/yardstick.py STATE_FILE``; stop it with
SIGTERM.  ``read_state`` reads STATE_FILE from another process.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import sys
import time
from pathlib import Path

# CPU seconds one unit took on the machine the benchmark was built on, a
# shared 2-core x86-64 VM with CPython 3.11; it only sets the scale
REFERENCE_UNIT_S = 6.5e-05

# sequence, units, cpu_ns, sequence: a reader that sees two different
# sequence numbers caught a write half done and reads again
_STATE = struct.Struct("<QQQQ")


def unit(n: int) -> int:
    acc, seen = n, {}
    for i in range(160):
        key = (i & 15, (i >> 4) ^ (acc & 3))
        seen[key] = seen.get(key, 0) + (i * i + acc) % 7
        acc = (acc * 31 + len(seen)) & 0xFFFF
    return acc


def read_state(path: Path) -> tuple[int, float]:
    """(units done, CPU seconds they took), as last published."""
    with open(path, "rb") as handle:
        view = mmap.mmap(handle.fileno(), _STATE.size, access=mmap.ACCESS_READ)
        try:
            while True:
                first, units, cpu_ns, last = _STATE.unpack(view[:_STATE.size])
                if first == last:
                    return units, cpu_ns / 1e9
        finally:
            view.close()


def per_unit(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Yardstick CPU seconds per unit between two states."""
    units = after[0] - before[0]
    if units < 1:
        raise ValueError("the yardstick did no work in the window")
    return (after[1] - before[1]) / units


def main() -> int:
    os.nice(19)
    parent = os.getppid()
    path = Path(sys.argv[1])
    path.write_bytes(bytes(_STATE.size))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(path, "r+b") as handle:
        view = mmap.mmap(handle.fileno(), _STATE.size)
        units, acc, seq = 0, 0, 0
        clock = time.process_time_ns
        while True:
            acc = unit(acc)
            units += 1
            seq += 1
            view[:_STATE.size] = _STATE.pack(seq, units, clock(), seq)
            if units % 4096 == 0 and os.getppid() != parent:
                return 0  # the run that started it has gone


if __name__ == "__main__":
    raise SystemExit(main())
