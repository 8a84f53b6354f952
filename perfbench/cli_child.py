"""Run one depth2-kit command under the tracer, as ``depth2-kit`` would.

Usage: ``python3 perfbench/cli_child.py SUMMARY.json ARG...``.  The
command's output and exit code are those of ``depth2-kit ARG...``; the
tracer's summary goes to SUMMARY.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tracing  # noqa: E402
from worker import summarize  # noqa: E402


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import depth2kit.cli

    probes = tracing.LayerProbes(keep_witnesses=True)
    tracer = tracing.Tracer(probes.probes).install()
    try:
        return depth2kit.cli.main(argv)
    finally:
        tracer.uninstall()
        summary_path.write_text(json.dumps(summarize(tracer, probes)))


if __name__ == "__main__":
    raise SystemExit(main())
