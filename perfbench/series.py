"""Run the benchmark over several seeds and workloads and keep each result.

Usage::

    python3 perfbench/series.py --out DIR [--seeds 1-10]

Every run is untraced and as long as BENCHMARK.json's ``run_seconds``.
Each run's last two lines of output, the unscaled figures and the
result, go to ``DIR/<workload>/seed<N>.json``.
Seeds form the outer loop, so the workloads' runs interleave in time.
``compare.py`` reads the directories this writes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    status = 0
    for seed in seed_range(args.seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            target = Path(args.out) / workload / f"seed{seed}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("\n".join(lines[-2:]) + "\n")
            print(f"{workload} seed {seed}: {lines[-1]}", flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
