"""Smoke test of the benchmark's own code.

Runs every workload at the tiny scale, untraced and traced, on a seed with
golden digests and on one without, and checks that no job fails and that
the last output line carries exactly the metrics BENCHMARK.json names.
Then checks that the benchmark refuses to run without the program's
sources.  Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--scale", "tiny", "--seconds", "1"]


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((1, 0), (1, 1), (5, 0)):
            label = f"{workload} seed {seed} trace {trace}"
            proc = run([*RUN, "--workload", workload, "--seed", str(seed), "--trace", str(trace)], ROOT)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: fail_frac {result['failed']}/{result['attempted']}\n{proc.stderr}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"ok {label}: {result['attempted']} job runs, {len(units)} metrics")

    bare = ROOT / "perfbench" / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run([*RUN, "--workload", "sweep", "--seed", "1"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run without the program's sources did not fail cleanly")
    else:
        print(f"ok without sources: exit {proc.returncode}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
