"""Smoke test of the stack benchmark itself.

::

    python3 stackbench/smoke.py

Runs every workload at ``--tiny`` size, untraced and traced, and
asserts that each prints every metric ``BENCHMARK.json`` names for
that mode, with its unit, and that every answer verified; then runs
one workload with a deliberately corrupted answer and asserts that it
lands in the failure count (the error rate) and clears ``correct``.
Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", str(trace), "--tiny",
            "--trace-out", str(ROOT / ".stackbench-out" / "smoke-trace.json"),
            *extra,
        ],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, stdout = run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], (workload, trace, got)
            for name, unit in expected[trace].items():
                assert f"\n{name} " in "\n" + stdout and unit in stdout, name
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            print(f"ok  {workload:15s} trace={trace} "
                  f"{result['attempted']} operations verified")
    result, _ = run("engine-ram", 0, "--corrupt")
    assert result["failed"] >= 1 and not result["correct"], result
    print(f"ok  a corrupted answer counts: {result['failed']} of "
          f"{result['attempted']} failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
