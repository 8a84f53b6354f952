"""Check of the checker: deliberately corrupted outputs must be reported.

Usage::

    python3 perfbench/checkcheck.py

For each workload this runs one untraced round at seed 1 and confirms
that the checks pass on the real outputs.  Then it applies each of the
workload's corruptions (a flipped verdict, a wrong witness, a dropped
class, a wrong exit code, ...) to a copy of the outputs and confirms
that the run would report it, as a failed operation or as a check
error.  The exit code is 1 if the real outputs fail a check or any
corruption goes unreported.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

from run import child_env, ROOT, SRC
from workloads import WORKLOADS


def judge(workload, outputs: dict) -> list[str]:
    """What a run would report for these outputs: failures, then check errors."""
    failed = {name: workload.failure(name, value) for name, value in outputs.items()}
    kept = {name: value for name, value in outputs.items() if not failed[name]}
    return [f"{name} failed: {why}" for name, why in failed.items() if why] + (
        workload.check(kept))


def main() -> int:
    sys.path.insert(0, str(SRC))
    import worker

    status = 0
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, make in WORKLOADS.items():
            workload = make(1, workdir)
            workload.env = child_env()
            record, outputs = worker.run_round(workload, trace=False)
            errors = workload.check(outputs)
            known = [op[0] for op in record["ops"] if op[2]]
            print(f"{name}: {len(record['ops'])} operations, known failures {known}, "
                  f"check errors {errors}")
            if errors:
                status = 1
            for label, corrupt in workload.corruptions().items():
                damaged = copy.deepcopy(outputs)
                corrupt(damaged)
                reported = judge(workload, damaged)
                verdict = "reported" if reported else "NOT REPORTED"
                print(f"  {label}: {verdict}: {reported[:1]}")
                if not reported:
                    status = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
