"""Compare two sets of benchmark runs, or summarize one.

Usage::

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the untraced results that ``series.py`` writes.
For every workload and end-to-end metric in BENCHMARK.json it prints
each side's run count, median and quartiles, and the spread: the
distance between the quartiles as a share of the median.  Given two
sets, it also prints how far the change's median moved, signed so that
a positive share is worse, and a verdict:

* ``ok``: the change is not worse by more than the metric's bound;
* ``WORSE``: the change is worse by more than the bound;
* ``unresolved``: a side's spread exceeds the bound, and not every
  run of the change is better than every run of the base.

It also compares the share of failed operations, which must be equal.
The exit code is 1 when any verdict is ``WORSE`` or the failed shares
differ.

The same figures follow, with no verdict, for the runs' unscaled
times: plain wall seconds, which alone show a slowdown spent off the
CPU (waiting or sleeping), and the rounds' plain CPU seconds.  Both
carry the machine's changes of speed, so their spreads are wide.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, workload: str) -> list[dict]:
    """Each run's result, with its unscaled figures under "unscaled"."""
    runs = []
    for path in sorted((directory / workload).glob("seed*.json")):
        figures, result = map(json.loads, path.read_text().splitlines()[-2:])
        runs.append(dict(result, unscaled=figures["unscaled"]))
    return runs


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def describe(s: dict) -> str:
    return (f"n={s['n']:<2} median={s['median']:<10.5g} "
            f"q1={s['q1']:<10.5g} q3={s['q3']:<10.5g} spread={s['spread']:.3f}")


def failed_share(runs: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [Path(a) for a in argv]
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [load(side, workload) for side in sides]
        if not all(runs):
            print(f"{workload}: no runs in {[str(s) for s, r in zip(sides, runs) if not r]}")
            status = 1
            continue
        shares = [failed_share(r) for r in runs]
        correct = [all(x["correct"] for x in r) for r in runs]
        print(f"{workload}: failed/attempted {shares}, all correct {correct}")
        if len(runs) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("  failed shares differ")
            status = 1
        for m in spec["end_to_end"]:
            values = [[r["metrics"][m["name"]]["value"] for r in side] for side in runs]
            summary = [stats(v) for v in values]
            print(f"  {m['name']} ({m['unit']}, bound {m['bound']})")
            for side, s in zip(sides, summary):
                flag = " above bound" if s["spread"] > m["bound"] else ""
                print(f"    {side}: {describe(s)}{flag}")
            if len(runs) < 2:
                continue
            base, change = summary
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (change["median"] - base["median"]) / base["median"]
            every_run_better = (max(values[1]) < min(values[0]) if sign > 0
                                else min(values[1]) > max(values[0]))
            if max(base["spread"], change["spread"]) > m["bound"] and not every_run_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict, status = "WORSE", 1
            else:
                verdict = "ok"
            print(f"    change is {worse:+.3f} worse than base: {verdict}")
        for name in runs[0][0]["unscaled"]:
            summary = [stats([r["unscaled"][name] for r in side]) for side in runs]
            print(f"  {name} (s, unscaled, no bound)")
            for side, s in zip(sides, summary):
                print(f"    {side}: {describe(s)}")
            if len(runs) == 2:
                moved = (summary[1]["median"] - summary[0]["median"]) / summary[0]["median"]
                print(f"    change is {moved:+.3f} worse than base")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
