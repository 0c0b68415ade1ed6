"""Counting function of a power set, growth-exponent fits, and
concentration trials against the additive Chernoff bound."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import UndefinedFitError
from .powersums import PowerSet
from .randomsets import RandomModel, expected_count, sample_counts


def count_up_to(A: PowerSet, x: int) -> int:
    """A(x): number of set elements with value <= x."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    return bisect_right(A.values, x)


def geometric_grid(lo: int, hi: int, points_per_decade: int = 12) -> list[int]:
    """Distinct integers spread geometrically over [lo, hi], endpoints included.

    Log-log fits on linear grids overweight the large end; geometric grids
    are the default everywhere an exponent is fitted.
    """
    if not (1 <= lo <= hi):
        raise ValueError(f"need 1 <= lo <= hi, got [{lo!r}, {hi!r}]")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    if lo == hi:
        return [lo]
    decades = math.log10(hi / lo)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    xs = np.logspace(math.log10(lo), math.log10(hi), count)
    grid = sorted({int(round(x)) for x in xs} | {lo, hi})
    return [x for x in grid if lo <= x <= hi]


@dataclass(frozen=True)
class DensityFit:
    """Log-log fit of the counting function over a grid."""

    exponent: float
    intercept: float
    residual: float
    points: tuple[tuple[int, int], ...]
    dropped: tuple[int, ...]


def fit_density_exponent(A: PowerSet, x_grid: Sequence[int]) -> DensityFit:
    """Least-squares slope of log A(x) against log x; the empirical density
    exponent of the set.

    The fit is unweighted ordinary least squares over the given grid, so it
    is the mean slope of the counting function on that range, not its
    asymptotic exponent.  Lower-order terms of A(x) bias it away from the
    asymptotic exponent when counts are small: for density-h with k=2, h=5,
    epsilon=0.05 the exact E[A(x)] has slope 0.169 on [10^4, 10^8] against
    an asymptotic 0.15.

    Grid points where A(x) = 0 are dropped and recorded; if fewer than two
    points survive the fit is undefined.
    """
    grid = [int(x) for x in x_grid]
    if len(grid) < 3:
        raise ValueError("density fit needs a grid of at least 3 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid points must be strictly increasing")
    points = [(x, count_up_to(A, x)) for x in grid]
    used = [(x, c) for x, c in points if c > 0]
    dropped = tuple(x for x, c in points if c == 0)
    if len(used) < 2:
        raise UndefinedFitError("counting function vanishes on the whole grid")
    logs_x = np.log([x for x, _ in used])
    logs_c = np.log([c for _, c in used])
    slope, intercept = np.polyfit(logs_x, logs_c, 1)
    resid = logs_c - (slope * logs_x + intercept)
    return DensityFit(
        exponent=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid**2))),
        points=tuple(used),
        dropped=dropped,
    )


class TrialRow(NamedTuple):
    seed: int
    count: int
    deviation: float
    violated: bool


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of repeated draws of A(x) against the Chernoff deviation bound.

    delta is sqrt(8 log x / E[A(x)]) and a trial violates when
    |A(x) - E| >= delta * E.  chernoff_bound is 2*exp(-min(delta^2/4,
    delta/2) * E); for delta <= 2 that equals 2/x^2, reported separately as
    inverse_square_bound.  flagged marks delta >= 2, where the
    inverse-square comparison no longer applies.
    """

    x: int
    trials: int
    delta: float
    expected: float
    violation_fraction: float
    chernoff_bound: float
    inverse_square_bound: float
    flagged: bool
    rows: tuple[TrialRow, ...]


def concentration_trial(
    model: RandomModel, x: int, seeds: Sequence[int], *, jobs: int = 1
) -> ConcentrationReport:
    """Sample A(x) once per seed and report how often the deviation bound
    |A(x) - E| >= delta*E is violated, alongside the exact Chernoff bound.

    The expectation is the exact sum, not a sampled mean, so the trial
    tests the bound and not estimator noise.  All seeds are drawn in one
    vectorised pass (``sample_counts``); ``jobs`` is accepted for
    compatibility and no longer changes how the trial runs.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 10:
        raise ValueError(f"need at least 10 seeds, got {len(seeds)}")
    if not isinstance(x, int) or x < 2:
        raise ValueError(f"x must be an integer >= 2, got {x!r}")
    expected = expected_count(model, x).exact
    if expected <= 0.0:
        raise ValueError("model has zero expected count at this x")
    delta = math.sqrt(8.0 * math.log(x) / expected)
    threshold = delta * expected
    rows = []
    for seed, count in zip(seeds, sample_counts(model, x, seeds)):
        deviation = abs(count - expected)
        rows.append(TrialRow(seed, count, deviation, deviation >= threshold))
    violations = sum(r.violated for r in rows)
    chernoff = 2.0 * math.exp(-min(delta * delta / 4.0, delta / 2.0) * expected)
    return ConcentrationReport(
        x=x,
        trials=len(seeds),
        delta=delta,
        expected=expected,
        violation_fraction=violations / len(seeds),
        chernoff_bound=chernoff,
        inverse_square_bound=2.0 / float(x) ** 2,
        flagged=delta >= 2.0,
        rows=tuple(rows),
    )
