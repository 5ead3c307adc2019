"""Print every metric of every workload, by name and with its unit.

    python3 perfbench/report.py

Runs `run.py` with seed 1 and the `run_seconds` of BENCHMARK.json for
each workload there, once untraced (the end-to-end metrics) and once
traced (the per-layer metrics), and passes their reports through.  Run
it from the repository root.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))  # the report; the last line is the same as JSON
            print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
            print()
    return status


if __name__ == "__main__":
    sys.exit(main())
