"""Correctness checks on the artifacts of one pass.

A job fails when its exit code is not the expected one, when its
artifacts differ from the golden digests recorded at the seed commit, or
when a rerun does not reproduce them byte for byte.  Seeded jobs have
golden digests only for the recorded seeds; for every seed they are also
checked against small independent references written here (own
enumeration, own splitmix64 membership test), so a run on any seed checks
what it computed.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from math import isqrt
from pathlib import Path
from typing import Any

import numpy as np

from workloads import Inputs, Job, strict_three_squares

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Artifacts whose bytes are compared with the golden digests.  JSON
#: reports are compared by the values of the keys of "result" present when
#: the digests were recorded, so later fields may be added.
BYTE_SUFFIXES = (".csv", ".txt")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def file_digests(outdir: Path) -> dict[str, str]:
    """sha256 of every artifact in a job's output directory."""
    return {p.name: _sha(p.read_bytes()) for p in sorted(outdir.iterdir()) if p.is_file()}


def golden_entry(outdir: Path, code: int) -> dict[str, Any]:
    """What the golden file records for one job run."""
    entry: dict[str, Any] = {"exit": code, "files": {}, "result": {}}
    for p in sorted(outdir.iterdir()):
        if p.suffix in BYTE_SUFFIXES:
            entry["files"][p.name] = _sha(p.read_bytes())
        elif p.suffix == ".json":
            result = json.loads(p.read_text())["result"]
            entry["result"] = {key: _sha(_canonical(value)) for key, value in sorted(result.items())}
    return entry


def load_golden() -> dict[str, Any]:
    if GOLDEN_PATH.is_file():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


def golden_for(golden: dict[str, Any], scale: str, workload: str, job: Job, seed: int) -> dict | None:
    section = golden.get(scale, {})
    if job.seeded:
        return section.get("seeds", {}).get(str(seed), {}).get(f"{workload}/{job.id}")
    return section.get("common", {}).get(f"{workload}/{job.id}")


def compare_golden(entry: dict[str, Any], golden: dict[str, Any]) -> list[str]:
    problems = []
    if entry["exit"] != golden["exit"]:
        problems.append(f"exit code {entry['exit']}, golden {golden['exit']}")
    for name, digest in golden["files"].items():
        if entry["files"].get(name) != digest:
            problems.append(f"{name} differs from golden")
    for key, digest in golden["result"].items():
        if entry["result"].get(key) != digest:
            problems.append(f"result.{key} differs from golden")
    return problems


# ---------------------------------------------------------------------------
# independent references for seeded jobs

_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 finalizer (Steele, Lea & Flood 2014)
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _member(seed: int, value: int, theta: float) -> bool:
    """Whether value enters the seeded draw with alpha = value**(-theta)."""
    u = (_mix64(_mix64(seed & _M64) ^ _mix64(value & _M64)) >> 11) / float(1 << 53)
    return u < float(value) ** (-theta)


#: Decay exponents of the models the sample workload draws from.
_DENSITY_H_THETA = 1 / 2 - 1 / 5 + 0.05  # density-h, k=2, h=5, epsilon=0.05
_DENSITY_K_THETA = 0.1  # density-k, k=2, epsilon=0.1


class CheckFailed(Exception):
    """An artifact disagrees with the independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _strict_reps(n: int) -> list[tuple[int, int, int]]:
    return [(a, b, c) for a, b, c in strict_three_squares(n) if a * a + b * b + c * c == n]


def _read_roots(path: Path) -> list[int]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    _require(lines[0] == "k=2", f"{path.name}: expected k=2, got {lines[0]!r}")
    return [int(ln) for ln in lines[1:]]


def _report(outdir: Path, name: str) -> dict[str, Any]:
    return json.loads((outdir / name).read_text())["result"]


def _check_verify(outdir: Path, code: int, inputs: Inputs, sizes: dict) -> None:
    nmax, g = sizes["verify_nmax"], 2
    vals = np.array(inputs.verify_roots, dtype=np.int64) ** 2
    i, j = np.triu_indices(len(vals))
    sums = vals[i] + vals[j]
    counts = np.bincount(sums[sums <= nmax], minlength=nmax + 1)
    over = np.nonzero(counts > g)[0]
    result = _report(outdir, "verify.json")
    _require(result["set_size"] == len(vals), f"set_size {result['set_size']} != {len(vals)}")
    if over.size == 0:
        _require(result["ok"] and code == 0, "verify missed that the set is B_2[2]")
    else:
        n = int(over[0])
        _require(code == 2 and not result["ok"], "verify missed a violation")
        own = {"n": n, "weak_count": int(counts[n])}
        _require(result["violation"] == own, f"violation {result['violation']} != {own}")


def _check_sample(outdir: Path, seed: int, sizes: dict) -> None:
    roots = _read_roots(outdir / "sample_set.txt")
    _require(roots == sorted(set(roots)), "sample roots not strictly increasing")
    _require(_report(outdir, "sample.json")["size"] == len(roots), "sample size != roots in file")
    top = isqrt(sizes["sample_xmax"])
    for m in roots:
        _require(1 <= m <= top and _member(seed, m * m, _DENSITY_H_THETA), f"root {m} kept wrongly")
    kept = set(roots)
    rng = random.Random(seed)
    for m in (rng.randint(1, top) for _ in range(2000)):
        _require((m in kept) == _member(seed, m * m, _DENSITY_H_THETA), f"root {m} drawn wrongly")


def _check_density(outdir: Path, sample_dir: Path, sizes: dict) -> None:
    # Draws are stable under extension of the range, so the density job's
    # set is the sample job's set cut at density_hi.
    roots = _read_roots(sample_dir / "sample_set.txt")
    expected = sum(1 for m in roots if m * m <= sizes["density_hi"])
    got = _report(outdir, "density.json")["set_size"]
    _require(got == expected, f"density set_size {got} != {expected} sampled roots")


def _check_concentrate(outdir: Path, seed: int, sizes: dict) -> None:
    x, trials = sizes["concentrate_x"], sizes["concentrate_trials"]
    rows = (outdir / "concentrate.csv").read_text().splitlines()[1:]
    reported = _report(outdir, "concentrate.json")["trials"]
    _require(len(rows) == trials == reported, f"{len(rows)} rows, {reported} trials, {trials} asked")
    first = rows[0].split(",")
    own = sum(1 for m in range(1, isqrt(x) + 1) if _member(seed, m * m, _DENSITY_K_THETA))
    _require(int(first[0]) == x and int(first[1]) == own, f"A(x) for seed {seed}: {first[1]} != {own}")


def _check_pack(outdir: Path, n: int) -> None:
    reps = _strict_reps(n)
    result = _report(outdir, "pack.json")
    witness = [tuple(w) for w in result["witness"]]
    _require(result["exact"] and not result["capped"], "packing not exact")
    _require(result["f_value"] == len(witness), "f_value != witness size")
    _require(set(witness) <= set(reps), "witness holds a non-representation")
    _require(all(not set(u) & set(v) for u, v in combinations(witness, 2)), "packing not disjoint")
    used: set[int] = set()
    greedy = 0
    for rep in reps:
        if not used & set(rep):
            used |= set(rep)
            greedy += 1
    _require(result["f_value"] >= greedy, "exact packing below the greedy one")


def _check_sunflower(outdir: Path, n: int) -> None:
    reps = {frozenset(r) for r in _strict_reps(n)}
    result = _report(outdir, "sunflower.json")
    _require(result["collection_size"] == len(reps), f"collection_size != {len(reps)}")
    if result["found"]:
        petals = [frozenset(p) for p in result["petals"]]
        core = frozenset(result["core"])
        _require(len(petals) == 4 and set(petals) <= reps, "petals are not 4 representations")
        _require(all(p & q == core for p, q in combinations(petals, 2)), "not a sunflower")


def check_seeded(job: Job, outdirs: dict[str, Path], code: int, inputs: Inputs, sizes: dict) -> list[str]:
    """Independent check of one seeded job; returns problems found."""
    outdir = outdirs[job.id]
    try:
        if job.id == "verify":
            _check_verify(outdir, code, inputs, sizes)
        elif job.id == "sample":
            _check_sample(outdir, inputs.seed, sizes)
        elif job.id == "density":
            _check_density(outdir, outdirs["sample"], sizes)
        elif job.id == "concentrate":
            _check_concentrate(outdir, inputs.seed, sizes)
        elif job.id == "pack":
            _check_pack(outdir, inputs.pack_n)
        elif job.id == "sunflower":
            _check_sunflower(outdir, inputs.sunflower_n)
        else:
            return [f"no independent check for seeded job {job.id}"]
    except (CheckFailed, OSError, KeyError, IndexError, ValueError) as exc:
        return [f"independent check failed: {exc}"]
    return []
