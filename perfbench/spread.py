"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload sweep [--json PATH]

Runs perfbench/run.py for seeds 1 to 10, one run at a time, each for
run_seconds from BENCHMARK.json, and prints for each metric the median,
the quartiles (statistics.quantiles, n=4) and the quartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  It also prints each job's single-call wall-time
range over every untraced pass of every run, and the median of the runs'
median single-call times.  With --json PATH the figures, with every run's
values, are also written to PATH.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
JOB_LINE = re.compile(r"^  job (\S+) +wall s: .*?median ([\d.]+).*\(min ([\d.]+), max ([\d.]+)\)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    jobs: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in SEEDS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for match in filter(None, map(JOB_LINE.match, lines)):
            jobs.setdefault(match[1], []).extend(float(match[i]) for i in (2, 3, 4))
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4f}" for k, v in list(result["metrics"].items())[:4]),
              flush=True)

    summary = {"workload": args.workload, "seeds": list(SEEDS), "seconds": seconds,
               "failed": failed, "attempted": attempted, "metrics": {}, "jobs": {}}
    print(f"\n{args.workload}: {failed}/{attempted} job runs failed over {len(SEEDS)} runs")
    print(f"{'metric':48} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / q2 if q2 else float("nan")
        summary["metrics"][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"{name:48} {q2:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bounds[name]:6}")
    for job, times in jobs.items():
        # per run: median, min, max of the job's single calls
        lo, hi, med = min(times), max(times), statistics.median(times[0::3])
        summary["jobs"][job] = {"median_of_run_medians_s": med, "min_s": lo, "max_s": hi}
        print(f"  job {job:14} single call {lo:.3f}-{hi:.3f} s, median of run medians {med:.3f} s "
              f"(range {(hi - lo) / med:.0%} of median)")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
