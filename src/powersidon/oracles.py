"""Classical number-theoretic ground truths used as cross-checks: the
two-squares counting sieve, the divisor bound on two-part counts for odd
exponents, taxicab scans, and Hypothesis-K style ratio scans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

import numpy as np

from .powersums import FullPowers, enumerate_representations, representation_profile


class TwoSquaresCount(NamedTuple):
    count: int
    normalized: float


def sum_two_squares_sieve(x: int) -> TwoSquaresCount:
    """Exact count of 1 <= n <= x expressible as a^2 + b^2 with a, b >= 0.

    Zero parts are allowed here (the classical counting convention), unlike
    the positive-part representation counts elsewhere.  normalized is
    count * sqrt(log x) / x, the ratio that approaches the
    Landau-Ramanujan constant (~0.7642) from above as x grows.
    """
    if not isinstance(x, int) or x < 2:
        raise ValueError(f"x must be an integer >= 2, got {x!r}")
    marked = np.zeros(x + 1, dtype=bool)
    for a in range(0, isqrt(x) + 1):
        va = a * a
        bs = np.arange(a, isqrt(x - va) + 1, dtype=np.int64)
        marked[va + bs * bs] = True
    count = int(marked[1:].sum())
    return TwoSquaresCount(count=count, normalized=count * math.sqrt(math.log(x)) / x)


def count_two_squares_by_square_test(x: int) -> int:
    """Independent recount of sum_two_squares_sieve via per-n membership:
    n counts iff n - a^2 is a perfect square for some a."""
    if not isinstance(x, int) or x < 2:
        raise ValueError(f"x must be an integer >= 2, got {x!r}")
    squares = np.zeros(x + 1, dtype=bool)
    squares[np.arange(0, isqrt(x) + 1, dtype=np.int64) ** 2] = True
    marked = np.zeros(x + 1, dtype=bool)
    for a in range(0, isqrt(x) + 1):
        va = a * a
        marked[va:] |= squares[: x + 1 - va]
    return int(marked[1:].sum())


def divisor_count(n: int) -> int:
    """d(n) by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


@dataclass(frozen=True)
class DivisorBoundResult:
    """Weak two-part count of n against its divisor count, for odd k.

    For odd k every representation a^k + b^k = n has a + b dividing n, and
    each divisor carries at most one representation; ok records
    weak_count <= divisor_count and per_divisor_unique records the at-most-
    one-per-(a+b) grouping.
    """

    n: int
    k: int
    weak_count: int
    divisor_count: int
    ok: bool
    per_divisor_unique: bool


def divisor_bound_check(k: int, n: int) -> DivisorBoundResult:
    """Check one n: enumerate weak two-part representations by k-th powers
    and compare with d(n)."""
    if not isinstance(k, int) or k < 3 or k % 2 == 0:
        raise ValueError(f"k must be an odd integer >= 3, got {k!r}")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    reps = enumerate_representations(n, 2, FullPowers(k), "weak")
    sums = [rep.parts[0] + rep.parts[1] for rep in reps]
    d = divisor_count(n)
    return DivisorBoundResult(
        n=n,
        k=k,
        weak_count=len(reps),
        divisor_count=d,
        ok=len(reps) <= d,
        per_divisor_unique=len(set(sums)) == len(sums),
    )


@dataclass(frozen=True)
class DivisorScanReport:
    """Exhaustive divisor-bound check over all n <= n_max for odd k.

    rows holds (n, weak_count, divisor_count) for every represented n,
    ascending; each row agrees with divisor_bound_check(k, n).
    """

    k: int
    n_max: int
    represented: int
    max_weak: int
    bound_violations: tuple[int, ...]
    uniqueness_violations: tuple[int, ...]
    rows: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.bound_violations and not self.uniqueness_violations


def divisor_bound_scan(k: int, n_max: int) -> DivisorScanReport:
    """Sweep all root pairs once and check every represented n <= n_max
    against its divisor count and the one-representation-per-(a+b) rule,
    keeping one row per represented n."""
    if not isinstance(k, int) or k < 3 or k % 2 == 0:
        raise ValueError(f"k must be an odd integer >= 3, got {k!r}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max!r}")
    pair_sums: dict[int, list[int]] = {}
    a = 1
    while 2 * a**k <= n_max:
        va = a**k
        b = a
        while va + b**k <= n_max:
            pair_sums.setdefault(va + b**k, []).append(a + b)
            b += 1
        a += 1
    bound_violations = []
    uniqueness_violations = []
    rows = []
    max_weak = 0
    for n in sorted(pair_sums):
        keys = pair_sums[n]
        d = divisor_count(n)
        rows.append((n, len(keys), d))
        max_weak = max(max_weak, len(keys))
        if len(keys) > d:
            bound_violations.append(n)
        if len(set(keys)) != len(keys):
            uniqueness_violations.append(n)
    return DivisorScanReport(
        k=k,
        n_max=n_max,
        represented=len(pair_sums),
        max_weak=max_weak,
        bound_violations=tuple(bound_violations),
        uniqueness_violations=tuple(uniqueness_violations),
        rows=tuple(rows),
    )


def taxicab_scan(k: int, x_max: int, threshold: int = 2) -> list[tuple[int, int]]:
    """All n <= x_max whose weak two-part count by k-th powers reaches the
    threshold, ascending, via the profile sweep."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if not isinstance(threshold, int) or threshold < 2:
        raise ValueError(f"threshold must be an integer >= 2, got {threshold!r}")
    if x_max < 1:
        return []
    profile = representation_profile((1, x_max), 2, FullPowers(k))
    hits = np.nonzero(profile.weak_counts >= threshold)[0]
    return [(int(i) + 1, int(profile.weak_counts[i])) for i in hits]


@dataclass(frozen=True)
class HypothesisKReport:
    """Strict-count growth relative to n**eta over a scanned range.

    Ratios, not booleans: slowly growing counts surface in max_ratio even
    when nothing violates the n**eta ceiling.  Evidence tooling, not a
    proof.
    """

    k: int
    h: int
    eta: float
    n_start: int
    n_max: int
    max_ratio: float
    worst_n: int | None
    violations: tuple[tuple[int, int], ...]  # (n, strict count)


def hypothesis_k_scan(
    k: int, h: int, n_max: int, eta: float, *, n_start: int = 2
) -> HypothesisKReport:
    """Scan strict counts over [n_start, n_max], reporting the max of
    R(n)/n**eta and every n with R(n) >= n**eta."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if not isinstance(h, int) or h < 2:
        raise ValueError(f"h must be an integer >= 2, got {h!r}")
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta!r}")
    if n_max < n_start:
        return HypothesisKReport(k, h, eta, n_start, n_max, 0.0, None, ())
    profile = representation_profile((n_start, n_max), h, FullPowers(k))
    counts = profile.strict_counts.astype(np.float64)
    ns = np.arange(n_start, n_max + 1, dtype=np.float64)
    ceilings = ns**eta
    ratios = counts / ceilings
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    violating = np.nonzero(counts >= ceilings)[0]
    violations = tuple((int(i) + n_start, int(counts[i])) for i in violating)
    return HypothesisKReport(
        k=k,
        h=h,
        eta=eta,
        n_start=n_start,
        n_max=n_max,
        max_ratio=max_ratio,
        worst_n=(worst + n_start) if max_ratio > 0 else None,
        violations=violations,
    )
