"""One round of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last line of output.
The round builds its inputs, runs every operation once and times each,
reads its peak memory, and only then converts and checks the outputs,
so that neither the checks nor their memory land in the measurements.
With ``--trace 1`` the tracer is installed before the first operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# CPU seconds of a reference start on the machine the benchmark was built
# on, a shared 2-core x86-64 VM with CPython 3.11; it only sets the scale
REFERENCE_START_S = 0.05


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_start() -> float:
    """CPU seconds of a bare interpreter start, which loads nothing of depth2kit.

    A process that starts depth2kit is timed against one of these run
    right after it: both are interpreter start-up, loading and memory
    work, and their CPU times rise and fall together with the machine's
    speed, far more closely than the start-up follows the yardstick.
    """
    before = cpu_seconds()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True, timeout=60)
    return cpu_seconds() - before


def run_round(workload, trace: bool, yardstick: Path | None = None) -> tuple[dict, dict]:
    """Run every operation once; return the round's record and its outputs.

    With a yardstick, operations are timed in CPU seconds and scaled to
    the reference speed measured over the same window (see
    ``yardstick.py``); a cli command, which starts depth2kit in a fresh
    interpreter, is scaled by a ``reference_start`` right after it
    instead.  Without a yardstick, operations are timed in wall seconds.
    Each operation's plain wall time and unscaled time are kept as well.
    """
    import tracer as tracing
    import yardstick as ys

    probes = tracer = None
    if trace and workload.name == "cli":
        # each command traces itself, in its own interpreter
        workload.tracer_dir = Path(tempfile.mkdtemp(dir=workload.workdir))
    elif trace:
        probes = tracing.LayerProbes(keep_witnesses=True)
        tracer = tracing.Tracer(probes.probes).install()
    operations = workload.operations()
    raw, times, walls, starts = [], [], [], []
    clock = time.perf_counter if yardstick is None else cpu_seconds
    speed_before = ys.read_state(yardstick) if yardstick else None
    for name, run, _ in operations:
        start, wall_start = clock(), time.perf_counter()
        try:
            value = run()
        except Exception as exc:  # an operation that raises has failed
            value = exc
        walls.append(time.perf_counter() - wall_start)
        times.append(clock() - start)
        raw.append(value)
        if yardstick is not None and workload.name == "cli":
            starts.append(reference_start())
    unscaled = sum(times)
    if starts:
        times = [t * REFERENCE_START_S / s for t, s in zip(times, starts)]
    elif yardstick is not None:
        per_unit = ys.per_unit(speed_before, ys.read_state(yardstick))
        times = [t * ys.REFERENCE_UNIT_S / per_unit for t in times]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    ops, outputs = [], {}
    for (name, _, plain), value, seconds, wall in zip(operations, raw, times, walls):
        failure = workload.failure(name, value)
        ops.append([name, seconds, failure, wall])
        if failure is None:
            outputs[name] = plain(value) if plain else value
    record = {"wall_s": sum(times), "raw_wall_s": sum(walls), "cpu_s": unscaled,
              "ops": ops, "peak_rss_kib": peak_kib, "errors": []}
    if trace:
        record["trace"] = _trace_record(workload, tracer, probes)
        record["errors"] += record["trace"].pop("errors")
    return record, outputs


def _trace_record(workload, tracer, probes) -> dict:
    if tracer is not None:
        return summarize(tracer, probes)
    # the cli children each wrote their own summary
    total = None
    for path in sorted(workload.tracer_dir.iterdir()):
        part = json.loads(path.read_text())
        if total is None:
            total = part
            continue
        for group in ("self_s", "calls"):
            for key, value in part[group].items():
                total[group][key] += value
        for key, value in part.items():
            if key not in ("self_s", "calls", "probes"):
                total[key] += value
    return total


def summarize(tracer, probes) -> dict:
    summary = tracer.summary()
    summary.update(probes.metrics())
    summary["errors"] = probes.recheck()
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--yardstick", type=Path, default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import depth2kit

    if Path(depth2kit.__file__).resolve().parent != SRC / "depth2kit":
        print(f"depth2kit imported from {depth2kit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    record, outputs = run_round(workload, bool(args.trace), args.yardstick)
    record["errors"] += workload.check(outputs)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
