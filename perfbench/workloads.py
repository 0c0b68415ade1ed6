"""Workload job lists and the inputs they are built from.

Every workload is a list of CLI invocations run one after another in one
process (one client, closed loop).  Sizes are chosen so that a pass spends
its time in the algorithms, not in the package import.  Inputs that depend
on the benchmark seed are drawn here with ``random.Random(seed)``, never
with the library's own sampler, so that ``sweep`` never touches
``randomsets``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Iterator

WORKLOADS = ("sweep", "sample", "search")

#: Job sizes per scale.  "full" is the benchmark; "tiny" runs the same job
#: lists in well under a second per pass, for the smoke test.
SIZES = {
    "full": {
        "profile_h2": 1_000_000,
        "profile_h4": 300_000,
        "taxicab": 2_000_000,
        "hypothesis_k": 1_000_000,
        "verify_nmax": 1_000_000,
        "verify_roots": 300,
        "greedy": 400_000,
        "sample_xmax": 10**12,
        "expect_x": 10**12,
        "concentrate_x": 10**9,
        "concentrate_trials": 50,
        "density_hi": 10**10,
        "scan_nmax": 10_000,
        "divisor_max": 3_000_000,
        "expect_n": 10**7,
    },
    "tiny": {
        "profile_h2": 20_000,
        "profile_h4": 5_000,
        "taxicab": 100_000,
        "hypothesis_k": 50_000,
        "verify_nmax": 10_000,
        "verify_roots": 40,
        "greedy": 5_000,
        "sample_xmax": 10**8,
        "expect_x": 10**8,
        "concentrate_x": 10**6,
        "concentrate_trials": 10,
        "density_hi": 10**7,
        "scan_nmax": 1_000,
        "divisor_max": 100_000,
        "expect_n": 10**5,
    },
}

#: Pack and sunflower targets are drawn from n <= TARGET_MAX with
#: TARGET_REPS strict 3-part representations by squares.  Exact packing is
#: exponential in the number of representations (PACKING_CAP is 64): at the
#: seed commit n=4826 (30 representations) packs in 0.06 s but n=13166 (53
#: representations) takes 180 s.  That cliff is a known defect, recorded in
#: perfbench/README.md; the range keeps every seed on the fast side of it.
TARGET_MAX = 20_000
TARGET_REPS = (10, 30)

#: Generated set files are passed by this fixed relative path (relative to
#: the checkout root), because reports embed config.set.
INPUT_DIR = Path("perfbench/.work/inputs")


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    seeded: bool = False  # artifacts depend on the benchmark seed


@dataclass(frozen=True)
class Inputs:
    seed: int
    verify_set: Path
    verify_roots: tuple[int, ...]
    pack_n: int
    sunflower_n: int


def strict_three_squares(n_max: int) -> Iterator[tuple[int, int, int]]:
    """Every (a, b, c) with 0 < a < b < c and a^2 + b^2 + c^2 <= n_max."""
    a = 1
    while 3 * a * a + 6 * a + 5 <= n_max:
        b = a + 1
        while a * a + 2 * b * b + 2 * b + 1 <= n_max:
            s = a * a + b * b
            c = b + 1
            while s + c * c <= n_max:
                yield a, b, c
                c += 1
            b += 1
        a += 1


def strict_three_square_counts(n_max: int) -> list[int]:
    """counts[n] = number of a < b < c with a^2 + b^2 + c^2 = n."""
    counts = [0] * (n_max + 1)
    for a, b, c in strict_three_squares(n_max):
        counts[a * a + b * b + c * c] += 1
    return counts


def make_inputs(seed: int, scale: str) -> Inputs:
    """Draw this seed's inputs and write the verify set file."""
    rng = random.Random(seed)
    sizes = SIZES[scale]
    roots = tuple(sorted(rng.sample(range(1, isqrt(sizes["verify_nmax"]) + 1), sizes["verify_roots"])))
    counts = strict_three_square_counts(TARGET_MAX)
    lo, hi = TARGET_REPS
    targets = [n for n, c in enumerate(counts) if lo <= c <= hi]
    pack_n, sunflower_n = rng.choice(targets), rng.choice(targets)
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    verify_set = INPUT_DIR / "verify_set.txt"
    verify_set.write_text(
        f"# {len(roots)} roots drawn with random.Random({seed})\nk=2\n"
        + "".join(f"{r}\n" for r in roots),
        encoding="ascii",
    )
    return Inputs(seed, verify_set, roots, pack_n, sunflower_n)


def jobs(workload: str, scale: str, inputs: Inputs) -> list[Job]:
    s = {key: str(value) for key, value in SIZES[scale].items()}
    seed = str(inputs.seed)
    if workload == "sweep":
        # Dense sum-table DP and artifact writing.  h=2 at 10^6 and h=4 with
        # 547 roots sit on the two sides of a sparse/dense cost model.
        return [
            Job("profile-h2", ("profile", "-k", "2", "--h", "2", "--hi", s["profile_h2"])),
            Job("profile-h4", ("profile", "-k", "2", "--h", "4", "--hi", s["profile_h4"])),
            Job("taxicab", ("oracle", "--taxicab", "-k", "3", "--max", s["taxicab"])),
            Job(
                "hypothesis-k",
                ("oracle", "--hypothesis-k", "-k", "3", "--h", "3", "--max", s["hypothesis_k"]),
            ),
            Job(
                "verify",
                ("verify", "--set", str(inputs.verify_set), "--h", "2", "--g", "2", "--nmax", s["verify_nmax"]),
                seeded=True,
            ),
            Job("greedy", ("greedy", "-k", "2", "--h", "2", "--xmax", s["greedy"])),
        ]
    if workload == "sample":
        # Pure-Python splitmix sampler and exact expectations; never touches
        # the counting kernels.
        density_h = ("--model", "density-h", "-k", "2", "--h", "5", "--epsilon", "0.05")
        return [
            Job("sample", ("sample", *density_h, "--xmax", s["sample_xmax"], "--seed", seed), seeded=True),
            Job("expect-count", ("expect", "--x", s["expect_x"])),
            Job(
                "concentrate",
                (
                    "concentrate", "-k", "2", "--epsilon", "0.1", "--x", s["concentrate_x"],
                    "--trials", s["concentrate_trials"], "--jobs", "2", "--seed-base", seed,
                ),
                seeded=True,
            ),
            Job("density", ("density", *density_h, "--hi", s["density_hi"], "--seed", seed), seeded=True),
        ]
    if workload == "search":
        # Per-target DFS enumeration rather than range sweeps.  scan keeps
        # the CLI's default model seed, so its DFS cost is the same for
        # every benchmark seed.
        return [
            Job("scan", ("scan", "-k", "2", "--h", "3", "--nmax", s["scan_nmax"])),
            Job("divisor", ("oracle", "--divisor", "-k", "3", "--max", s["divisor_max"])),
            Job("expect-rep", ("expect", "--n", s["expect_n"], "--l", "3")),
            Job("pack", ("pack", "--n", str(inputs.pack_n), "--l", "3"), seeded=True),
            Job("sunflower", ("sunflower", "--n", str(inputs.sunflower_n), "--l", "3", "--r", "4"), seeded=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")
