"""Benchmark of the powersidon CLI: one client, closed loop, in process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,sample,search} --seed N \
        --seconds S --trace {0,1}

A pass runs the workload's job list through ``powersidon.cli.main``, each
job starting after the previous one finished.  The run repeats passes to
fill about ``--seconds`` and then checks every pass's artifacts: against the
golden digests, against independent references for seeded jobs, and
byte for byte against the first pass.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run makes one untraced pass,
then alternates untraced and traced passes, and reports the per-layer
metrics; the spans are
written to perfbench/.work/trace.json when the run ends.  Every metric is
also printed by name with its unit and sample count above that line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench/.work")
OUT = WORK / "out"
#: Input generations per run, and package imports before the first pass and
#: after every pass.  Spreading the imports over the run keeps one slow
#: stretch of a shared machine from setting the median.
SETUP_REPEATS = 7
IMPORTS_PER_STEP = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import powersidon.cli; print(time.perf_counter() - t)"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Per-layer metrics: <module>.<function>.<stat> for every function in
#: tracer.LAYERS, then per-subcommand CLI metrics and the tracing checks.
_STATS = {
    "powersums.representation_profile": ("calls", "self_s", "cells", "table_bytes"),
    "powersums.enumerate_representations": ("calls", "self_s", "reps"),
    "powersums.read_power_set": ("self_s",),
    "powersums.write_power_set": ("self_s",),
    "randomsets.sample_set": ("calls", "self_s", "candidates", "kept", "kept_ratio"),
    "randomsets.expected_count": ("self_s", "terms"),
    "randomsets.expected_representation_count": ("self_s",),
    "structure.max_disjoint_representations": ("calls", "self_s", "exact", "capped", "exact_ratio"),
    "structure.boundedness_scan": ("self_s",),
    "structure.find_delta_system": ("self_s", "unverified_none"),
    "structure.verify_bhg": ("self_s",),
    "structure.greedy_bounded_subset": ("self_s", "candidates", "accepted"),
    "density.concentration_trial": ("self_s", "trials"),
    "density.fit_density_exponent": ("self_s",),
    "oracles.taxicab_scan": ("self_s",),
    "oracles.hypothesis_k_scan": ("self_s",),
    "oracles.divisor_bound_scan": ("self_s",),
    "oracles.divisor_bound_check": ("calls", "self_s"),
}
_UNITS = {"self_s": "s", "wall_s": "s", "cpu_s": "s", "table_bytes": "B", "kept_ratio": "ratio", "exact_ratio": "ratio"}
CLI_COMMANDS = (
    "profile", "oracle", "verify", "greedy", "sample", "expect", "concentrate", "density", "scan", "pack", "sunflower",
)
PER_LAYER = {
    **{f"{fn}.{stat}": _UNITS.get(stat, "count") for fn, stats in _STATS.items() for stat in stats},
    **{f"cli.{cmd}.{stat}": "s" for cmd in CLI_COMMANDS for stat in ("wall_s", "cpu_s", "self_s")},
    "cli.artifact_bytes": "B",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}
#: Counters reported as the largest value of one call, not the sum.
_MAX_COUNTERS = {"table_bytes"}
#: Computed from arguments, not measured; marked so in the printed table.
COMPUTED = {"powersums.representation_profile.cells", "powersums.representation_profile.table_bytes"}

assert {f"{m}.{f}" for m, fns in LAYERS.items() for f in fns} == set(_STATS)


@dataclass
class Pass:
    wall: float
    cpu: float
    traced: bool
    codes: dict[str, int | None]
    job_wall: dict[str, float]
    digests: dict[str, dict[str, str]]
    artifact_bytes: int
    errors: dict[str, str] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)


def time_imports(count: int) -> list[float]:
    """Times to import powersidon.cli, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": "src"}
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    return [
        float(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=120).stdout)
        for _ in range(count)
    ]


def generate_inputs(seed: int, scale: str) -> tuple[list[float], workloads.Inputs]:
    """Times to generate this seed's inputs, and the inputs."""
    gens = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(seed, scale)
        gens.append(time.perf_counter() - t0)
    return gens, inputs


def run_pass(cli, jobs: list[workloads.Job], tracer: Tracer | None) -> Pass:
    shutil.rmtree(OUT, ignore_errors=True)
    codes: dict[str, int | None] = {}
    job_wall: dict[str, float] = {}
    errors: dict[str, str] = {}
    sink = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    for job in jobs:
        argv = [*job.argv, "--outdir", str(OUT / job.id)]
        j0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    codes[job.id] = cli.main(argv)
                else:
                    codes[job.id] = tracer.command(job.argv[0], lambda: cli.main(argv))
        except Exception:  # a crash fails the job; the pass goes on
            codes[job.id] = None
            errors[job.id] = traceback.format_exc()
        job_wall[job.id] = time.perf_counter() - j0
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    digests = {job.id: checks.file_digests(OUT / job.id) for job in jobs if (OUT / job.id).is_dir()}
    size = sum(p.stat().st_size for p in OUT.rglob("*") if p.is_file())
    return Pass(wall, cpu, tracer is not None, codes, job_wall, digests, size, errors)


def layer_metrics(tracer: Tracer, p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans."""
    out = {name: 0.0 for name in PER_LAYER}
    command_time = 0.0
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.name.startswith("cli."):
            out[f"{span.name}.wall_s"] += span.end - span.start
            out[f"{span.name}.cpu_s"] += span.cpu
            command_time += span.end - span.start
        else:
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0.0) + 1
        out[f"{span.name}.self_s"] += self_s
        for key, value in span.counters.items():
            name = f"{span.name}.{key}"
            out[name] = max(out[name], value) if key in _MAX_COUNTERS else out[name] + value
    sample = "randomsets.sample_set"
    if out[f"{sample}.candidates"]:
        out[f"{sample}.kept_ratio"] = out[f"{sample}.kept"] / out[f"{sample}.candidates"]
    pack = "structure.max_disjoint_representations"
    if out[f"{pack}.calls"]:
        out[f"{pack}.exact_ratio"] = out[f"{pack}.exact"] / out[f"{pack}.calls"]
    out["cli.artifact_bytes"] = p.artifact_bytes
    out["trace.uncovered_s"] = p.wall - command_time
    return {name: out[name] for name in PER_LAYER}


def judge(passes: list[Pass], jobs, inputs, workload: str, scale: str, recording: bool) -> tuple[int, int, list[str]]:
    """Count failed job runs over all passes; return (attempted, failed, problems)."""
    golden = checks.load_golden()
    sizes = workloads.SIZES[scale]
    outdirs = {job.id: OUT / job.id for job in jobs}
    first = passes[0]
    # Artifacts on disk are those of the last pass; the byte comparison
    # below ties every other pass to them.
    job_problems: dict[str, list[str]] = {}
    for job in jobs:
        problems = []
        code = passes[-1].codes[job.id]
        if code is None or job.id not in passes[-1].digests:
            problems.append("no artifacts")
        else:
            if job.id != "verify" and code != 0:  # verify exits 2 on a violation
                problems.append(f"exit code {code}")
            ref = checks.golden_for(golden, scale, workload, job, inputs.seed)
            if ref is not None:
                problems += checks.compare_golden(checks.golden_entry(outdirs[job.id], code), ref)
            elif not job.seeded and not recording:
                problems.append("no golden digests recorded")
            if job.seeded:
                problems += checks.check_seeded(job, outdirs, code, inputs, sizes)
        job_problems[job.id] = problems
    attempted = failed = 0
    report = []
    for i, p in enumerate(passes):
        for job in jobs:
            attempted += 1
            problems = list(job_problems[job.id])
            if job.id in p.errors:
                problems.append(p.errors[job.id].strip().splitlines()[-1])
            if p.codes[job.id] != first.codes[job.id] or p.digests.get(job.id) != first.digests.get(job.id):
                problems.append("rerun not byte-identical to the first pass")
            if problems:
                failed += 1
                report.append(f"pass {i} {job.id}: " + "; ".join(dict.fromkeys(problems)))
    return attempted, failed, report


def record_golden(passes: list[Pass], jobs, inputs, workload: str, scale: str) -> None:
    golden = checks.load_golden()
    section = golden.setdefault(scale, {})
    for job in jobs:
        entry = checks.golden_entry(OUT / job.id, passes[-1].codes[job.id])
        key = f"{workload}/{job.id}"
        if job.seeded:
            section.setdefault("seeds", {}).setdefault(str(inputs.seed), {})[key] = entry
        else:
            old = section.setdefault("common", {}).get(key)
            if old is not None and old != entry:
                raise SystemExit(f"{key}: artifacts differ from the recorded golden digests")
            section["common"][key] = entry
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} [q1 {q1:.4f}, q3 {q3:.4f}]"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--record-golden", action="store_true", help="store this run's digests as golden")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "powersidon" / "cli.py").is_file():
        print(f"perfbench: no powersidon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    time_imports(1)  # fills the bytecode caches
    imports = time_imports(IMPORTS_PER_STEP)
    gens, inputs = generate_inputs(args.seed, args.scale)
    from powersidon import cli

    jobs = workloads.jobs(args.workload, args.scale, inputs)
    tracer = Tracer() if args.trace else None
    passes = [run_pass(cli, jobs, None)]
    imports += time_imports(IMPORTS_PER_STEP)
    # Fill --seconds with whole passes.  After the first, cold pass a traced
    # run alternates untraced and traced passes, so that the tracing
    # overhead compares passes made under like conditions.
    fit = args.seconds / passes[0].wall
    if tracer is None:
        schedule = [False] * (max(1, round(fit)) - 1)
    else:
        schedule = [False, True] * max(1, round((fit - 1) / 2))
    span_records = []
    for with_trace in schedule:
        if not with_trace:
            passes.append(run_pass(cli, jobs, None))
        else:
            tracer.spans.clear()
            with tracer:
                p = run_pass(cli, jobs, tracer)
            p.layer = layer_metrics(tracer, p)
            passes.append(p)
            span_records.append({"pass": len(passes) - 1, "spans": tracer.to_records()})
        imports += time_imports(IMPORTS_PER_STEP)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems = judge(passes, jobs, inputs, args.workload, args.scale, args.record_golden)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    if args.record_golden:
        if failed:
            print("perfbench: not recording golden digests from a failing run", file=sys.stderr)
            return 1
        record_golden(passes, jobs, inputs, args.workload, args.scale)

    if span_records:
        (WORK / "trace.json").write_text(json.dumps(span_records) + "\n")

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    walls = [p.wall for p in plain]
    end_to_end = {
        "wall_s": (statistics.median(walls), len(walls), "passes"),
        "cpu_s": (statistics.median(p.cpu for p in plain), len(plain), "passes"),
        "peak_rss_mb": (peak_rss_mb, 1, "process"),
        "setup_s": (statistics.median(imports) + statistics.median(gens), len(imports), "imports + input generations"),
    }
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, {len(passes)} passes "
          f"({len(traced)} traced), inputs: pack n={inputs.pack_n}, sunflower n={inputs.sunflower_n}")
    print(f"{'metric':48} {'value':>14} unit   samples")
    for name, (value, n, what) in end_to_end.items():
        print(f"{name:48} {value:14.6f} {END_TO_END[name]:6} {n} {what}")
    print(f"{'fail_frac':48} {failed / attempted:14.6f} {'ratio':6} {attempted} job runs")
    print(f"  import s: {_quartiles(imports)}; input generation s: {_quartiles(gens)}")
    for job in jobs:
        times = [p.job_wall[job.id] for p in plain]
        print(f"  job {job.id:14} wall s: {_quartiles(times)} (min {min(times):.4f}, max {max(times):.4f})")
    layer: dict[str, float] = {}
    if traced:
        for name in PER_LAYER:
            layer[name] = statistics.median(p.layer[name] for p in traced)
        warm = [p.wall for p in passes[1:] if not p.traced]
        layer["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(warm)
        for name, value in layer.items():
            note = " (computed)" if name in COMPUTED else ""
            print(f"{name:48} {value:14.6f} {PER_LAYER[name]:6} {len(traced)} traced passes{note}")

    chosen = {n: (layer[n], u) for n, u in PER_LAYER.items()} if traced else {
        n: (end_to_end[n][0], u) for n, u in END_TO_END.items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
