"""depth2-kit benchmark: one workload, measured for a fixed time.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  Every round runs the workload's whole instance set
once in a fresh interpreter (``worker.py``), so in-process caches start
cold in each round, as they do for every user of the command line.
Rounds repeat while the next one is expected to end within S seconds;
there is always at least one.

``--trace 0`` also times the set-up (a fresh interpreter that imports
depth2kit and builds the command-line parser) and prints the end-to-end
metrics.  Its times are CPU seconds scaled to a reference speed: a
library round by the yardstick that shares the run's CPU (see
``yardstick.py``), and each process that starts depth2kit (the set-ups
and the cli commands) by a bare interpreter start right after it (see
``worker.reference_start``).  The line
before the result gives the same times unscaled: plain wall seconds,
which also show time spent off the CPU, and plain CPU seconds.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics in wall seconds, with the tracing overhead measured
against the untraced rounds of the same run.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import worker
import yardstick
from tracer import MODULES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES_PER_ROUND = 5
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # a fixed hash seed keeps the set iteration order, and so the call
    # counts, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict, deadline: float, samples: int) -> list[tuple[float, float]]:
    """Fresh interpreters that import depth2kit and build the parser.

    Each sample is (the CPU time scaled by the reference start that
    follows it, the plain wall time), both in seconds.
    """
    command = [sys.executable, "-m", "depth2kit.cli", "--help"]
    out = []
    for _ in range(samples):
        cpu, wall = worker.cpu_seconds(), time.perf_counter()
        proc = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        cpu, wall = worker.cpu_seconds() - cpu, time.perf_counter() - wall
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        out.append((cpu * worker.REFERENCE_START_S / worker.reference_start(), wall))
    return out


def start_yardstick(state: Path, env: dict) -> subprocess.Popen:
    """Pin this process to one CPU, then start the yardstick on it.

    Every process started afterwards inherits the pinning, so the
    yardstick time-shares the CPU with whatever is being measured.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    proc = subprocess.Popen([sys.executable, str(HERE / "yardstick.py"), str(state)],
                            env=env)
    waited = time.perf_counter() + 10.0
    while time.perf_counter() < waited:
        if state.exists() and state.stat().st_size and yardstick.read_state(state)[0]:
            return proc
        time.sleep(0.01)
    proc.terminate()
    proc.wait()
    raise BenchError("the yardstick did not start")


def run_worker(workload: str, seed: int, trace: bool, workdir: Path, env: dict,
               deadline: float, state: Path | None) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)),
               "--workdir", str(workdir)]
    if state is not None:
        command += ["--yardstick", str(state)]
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} round overran the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} round exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(seconds: float, deadline: float, one_round) -> list:
    """Repeat ``one_round`` while the next is expected to end within ``seconds``."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results.append(one_round())
        durations.append(time.perf_counter() - begun)
        now = time.perf_counter()
        expected_end = now + statistics.median(durations)
        if expected_end - start > seconds or expected_end > deadline:
            return results


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, rounds: list[dict], setup: list[float]) -> dict:
    # the mean over rounds uses the whole measured time of the run, which
    # evens out the machine's speed changing from second to second
    wall = statistics.fmean(r["wall_s"] for r in rounds)
    if workload == "cli":
        command = statistics.median(op[1] for r in rounds for op in r["ops"])
    else:
        # an in-process workload is one job: its command is the round
        command = wall
    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mib": metric(
            statistics.median(r["peak_rss_kib"] for r in rounds) / 1024, "MiB"),
        "command_p50_s": metric(command, "s"),
    }


def unscaled(workload: str, rounds: list[dict], setup_walls: list[float]) -> dict:
    """The end-to-end times in plain wall seconds, and the rounds' plain CPU
    seconds: a slowdown that waits off the CPU shows only in the first."""
    wall = statistics.fmean(r["raw_wall_s"] for r in rounds)
    return {
        "raw_wall_s": wall,
        "raw_setup_s": statistics.median(setup_walls),
        "raw_command_p50_s": statistics.median(
            op[3] for r in rounds for op in r["ops"]) if workload == "cli" else wall,
        "cpu_s": statistics.fmean(r["cpu_s"] for r in rounds),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def med(get):
        return statistics.median(get(r["trace"]) for r in traced)

    out = {}
    for module in MODULES:
        out[f"{module}.self_s"] = metric(med(lambda t: t["self_s"][module]), "s")
        out[f"{module}.calls"] = metric(med(lambda t: t["calls"][module]), "count")
    out["semantics.busy_s"] = metric(med(lambda t: t["semantics.busy_s"]), "s")
    out["semantics.valuations_per_s"] = metric(med(
        lambda t: t["semantics.valuations"] / t["semantics.busy_s"]
        if t["semantics.busy_s"] else 0.0), "1/s")
    out["frames.canonical_form_calls"] = metric(
        med(lambda t: t["frames.canonical_form_calls"]), "count")
    out["frames.enumerate_busy_s"] = metric(
        med(lambda t: t["frames.enumerate_busy_s"]), "s")
    out["duality.iso_busy_s"] = metric(med(lambda t: t["duality.iso_busy_s"]), "s")
    plain = statistics.median(r["wall_s"] for r in untraced)
    slow = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_pct"] = metric(100.0 * (slow - plain) / plain, "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "depth2kit" / "__init__.py").is_file():
        print(f"error: no depth2kit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    # on SIGTERM, unwind through the finally below, which stops the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    env = child_env()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    state = workdir / "yardstick.state"
    speed = None
    try:
        def one(trace, measured_state=None):
            return run_worker(args.workload, args.seed, trace, workdir, env, deadline,
                              measured_state)

        if args.trace:
            pairs = run_rounds(args.seconds, deadline, lambda: (one(False), one(True)))
            untraced = [p[0] for p in pairs]
            traced = [p[1] for p in pairs]
            rounds = untraced + traced
            metrics = per_layer(untraced, traced)
        else:
            speed = start_yardstick(state, env)
            # the first set-up fills the bytecode cache; later ones are
            # spread over the run, a few before each round
            measure_setup(env, deadline, 1)
            setup = []

            def untraced_round():
                setup.extend(measure_setup(env, deadline, SETUP_SAMPLES_PER_ROUND))
                return one(False, state)

            rounds = run_rounds(args.seconds, deadline, untraced_round)
            metrics = end_to_end(args.workload, rounds, [s[0] for s in setup])
            plain = unscaled(args.workload, rounds, [s[1] for s in setup])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if speed is not None:
            speed.terminate()
            speed.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for r in rounds for e in r["errors"]]
    failures = [(op[0], op[2]) for r in rounds for op in r["ops"] if op[2]]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    for name, reason in sorted(set(failures)):
        print(f"operation failed: {name}: {reason}", file=sys.stderr)
    if not args.trace:
        print(json.dumps({"unscaled": plain}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
