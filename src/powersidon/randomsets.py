"""Seeded random subsets of the k-th powers.

A model assigns every k-th power n a membership probability alpha_n and
carries a 64-bit seed.  Whether n lands in the sampled set is a pure
function of (seed, n) through a counter-based hash, so draws are
independent at the quality of the hash, reproducible, and stable under
extension of the sampling range.  Exact expectations of the counting
function A(x) and of representation counts are computed alongside.

Membership is defined by the scalar rule ``_unit_interval(seed, n) <
membership_probability(model, n)``.  The numpy path in ``_draws`` only
filters it: numpy's ``power`` may differ from Python's ``float ** float``
in the last bit (it does for about 4.6% of the first 10**6 squares at
exponent 0.1), so a root whose draw lies within a relative 2**-40 of the
numpy probability is decided again by the scalar rule.  Every other root
lies on the same side of both probabilities.  ``expected_count`` sums the
scalar rule's own terms ``float(n) ** -theta`` in one ``math.fsum``, so no
numpy rounding reaches it.

Model kinds, named by the density they target on the k-th powers:

* ``density-k``: alpha_n = n**(-eps); expected A(x) grows like
  x**(1/k - eps) / (1 - k*eps).
* ``density-h``: alpha_n = n**(-(1/k - 1/h + eps)) for h > k; expected
  A(x) grows like x**(1/h - eps) / (k/h - k*eps).
* ``table``: explicit (n, alpha_n) pairs on k-th powers, zero elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .errors import UndefinedFitError, WidthOverflowError
from .powersums import (
    MAX_VALUE,
    FullPowers,
    PowerSet,
    enumerate_representations,
    integer_kth_root,
)

DENSITY_K = "density-k"
DENSITY_H = "density-h"
TABLE = "table"
KINDS = (DENSITY_K, DENSITY_H, TABLE)

_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 finalizer; the per-integer randomness source
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _unit_interval(seed: int, n: int) -> float:
    """Deterministic uniform draw in [0, 1) for the pair (seed, n)."""
    return (_mix64(_mix64(seed & _M64) ^ _mix64(n & _M64)) >> 11) / float(1 << 53)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``_mix64`` of every entry of a uint64 array, in place; uint64
    arithmetic wraps modulo 2**64 exactly as the masked ints do."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


# Roots per numpy block: large enough to amortise the per-call overhead,
# small enough that the temporaries do not raise peak memory.
_BLOCK = 4096
# Relative half-width of the band around numpy's probability inside which
# the scalar rule decides; numpy's and Python's powers differ by an ulp.
_BAND = 2.0**-40


def _top_root(k: int) -> int:
    """Largest root whose k-th power fits the 64-bit value range."""
    return integer_kth_root(MAX_VALUE, k)


def _power_blocks(k: int, r_max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Roots m <= r_max and their powers m**k as uint64 blocks of at most
    ``_BLOCK`` entries, only as far as m**k fits 64 bits, so nothing wraps."""
    top = min(r_max, _top_root(k))
    for lo in range(1, top + 1, _BLOCK):
        roots = np.arange(lo, min(lo + _BLOCK, top + 1), dtype=np.uint64)
        yield roots, roots**k


@dataclass(frozen=True)
class RandomModel:
    """Membership-probability law on the k-th powers plus a sampling seed."""

    kind: str
    k: int
    seed: int
    h: int | None = None
    epsilon: float | None = None
    table: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("exponent k must be a positive integer")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if self.kind == DENSITY_K:
            if self.h is not None:
                raise ValueError("density-k models take no part count h")
            if self.epsilon is None or not 0 < self.epsilon < 1 / self.k:
                raise ValueError(f"density-k requires 0 < epsilon < 1/k, got {self.epsilon!r}")
        elif self.kind == DENSITY_H:
            if self.h is None or not isinstance(self.h, int) or self.h <= self.k:
                raise ValueError(f"density-h requires an integer h > k, got h={self.h!r}")
            if self.epsilon is None or not 0 < self.epsilon < 1 / self.h:
                raise ValueError(f"density-h requires 0 < epsilon < 1/h, got {self.epsilon!r}")
        else:
            if self.epsilon is not None or self.h is not None:
                raise ValueError("table models take only k, seed and the table")
            if self.table is None:
                raise ValueError("table models need a table of (n, alpha) pairs")
            prev = 0
            for n, alpha in self.table:
                if n <= prev:
                    raise ValueError("table entries must have strictly increasing n")
                r = integer_kth_root(n, self.k)
                if r**self.k != n:
                    raise ValueError(f"table entry {n} is not a {self.k}-th power")
                if not 0.0 <= alpha <= 1.0:
                    raise ValueError(f"probability {alpha} for {n} outside [0, 1]")
                prev = n

    @classmethod
    def density_k(cls, k: int, epsilon: float, seed: int) -> "RandomModel":
        return cls(kind=DENSITY_K, k=k, seed=seed, epsilon=epsilon)

    @classmethod
    def density_h(cls, k: int, h: int, epsilon: float, seed: int) -> "RandomModel":
        return cls(kind=DENSITY_H, k=k, seed=seed, h=h, epsilon=epsilon)

    @classmethod
    def from_table(cls, k: int, entries: Sequence[tuple[int, float]], seed: int) -> "RandomModel":
        table = tuple((int(n), float(a)) for n, a in entries)
        return cls(kind=TABLE, k=k, seed=seed, table=table)

    @cached_property
    def _table_map(self) -> dict[int, float]:
        return dict(self.table or ())

    @property
    def exponent(self) -> float | None:
        """Decay exponent theta of alpha_n = n**(-theta), when one exists."""
        if self.kind == DENSITY_K:
            return self.epsilon
        if self.kind == DENSITY_H:
            return 1 / self.k - 1 / self.h + self.epsilon
        return None


def membership_probability(model: RandomModel, n: int) -> float:
    """alpha_n of the model; zero when n is not a k-th power."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    r = integer_kth_root(n, model.k)
    if r**model.k != n:
        return 0.0
    if model.kind == TABLE:
        return model._table_map.get(n, 0.0)
    return float(n) ** (-model.exponent)


def _drawable_blocks(model: RandomModel, x_max: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(roots, values, alpha) blocks of the k-th powers v <= min(x_max,
    2**64 - 1) with a nonzero probability; alpha is numpy's probability,
    exact for table models and otherwise a few ulps at most from the scalar
    rule's (one ulp at most, measured)."""
    k = model.k
    if model.kind == TABLE:
        limit = min(x_max, MAX_VALUE)
        entries = [(n, a) for n, a in model.table if n <= limit and a > 0.0]
        for lo in range(0, len(entries), _BLOCK):
            chunk = entries[lo : lo + _BLOCK]
            values = np.array([n for n, _ in chunk], dtype=np.uint64)
            roots = np.array([integer_kth_root(n, k) for n, _ in chunk], dtype=np.uint64)
            yield roots, values, np.array([a for _, a in chunk])
    else:
        for roots, values in _power_blocks(k, integer_kth_root(x_max, k)):
            yield roots, values, np.power(values.astype(np.float64), -model.exponent)


def _check_width(model: RandomModel, x_max: int, seed: int) -> None:
    """Raise ``WidthOverflowError``, as ``PowerSet`` does, at the first root
    drawn under the seed whose k-th power exceeds 2**64 - 1."""
    k = model.k
    if model.kind == TABLE:
        wide = (integer_kth_root(n, k) for n, _ in model.table if MAX_VALUE < n <= x_max)
    else:
        wide = range(_top_root(k) + 1, integer_kth_root(x_max, k) + 1)
    for m in wide:
        if _unit_interval(seed, m**k) < membership_probability(model, m**k):
            raise WidthOverflowError(f"{m}**{k} exceeds the configured value range")


def _draws(
    model: RandomModel, x_max: int, seeds: Sequence[int]
) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Draw the k-th powers <= x_max under every seed in one pass.

    Yields (roots, kept) per block, where kept[i] marks the roots drawn
    under seeds[i].  Each seed's draw equals the scalar rule's: numpy keeps
    a root when u < alpha*(1 - 2**-40) and drops it when u >= alpha*(1 +
    2**-40); the scalar rule decides the roots in between.  The hash of the
    value, alpha and the band are computed once per block for all seeds.
    """
    if not isinstance(x_max, int) or x_max < 1:
        raise ValueError(f"x_max must be a positive integer, got {x_max!r}")
    seed_mixes = [np.uint64(_mix64(s & _M64)) for s in seeds]
    for roots, values, alpha in _drawable_blocks(model, x_max):
        inner = _mix64_array(values.copy())
        surely = alpha * (1.0 - _BAND)
        maybe = np.multiply(alpha, 1.0 + _BAND, out=alpha)
        z = np.empty_like(inner)
        u = np.empty(len(inner))
        kept = []
        for seed, seed_mix in zip(seeds, seed_mixes):
            _mix64_array(np.bitwise_xor(inner, seed_mix, out=z))
            z >>= np.uint64(11)
            np.multiply(z, 2.0**-53, out=u)  # exact: z < 2**53
            keep = u < surely
            for j in np.flatnonzero((u < maybe) & ~keep).tolist():
                v = int(values[j])
                keep[j] = _unit_interval(seed, v) < membership_probability(model, v)
            kept.append(keep)
        yield roots, kept
    for seed in seeds:
        _check_width(model, x_max, seed)


def sample_set(model: RandomModel, x_max: int) -> PowerSet:
    """One draw of the random set restricted to values <= x_max.

    Each k-th power n <= x_max enters independently with probability
    alpha_n; the decision for n depends only on (seed, n), so repeated or
    extended draws agree wherever they overlap.
    """
    roots: list[int] = []
    for block, (keep,) in _draws(model, x_max, [model.seed]):
        roots += block[keep].tolist()
    return PowerSet(roots, model.k)


def sample_counts(model: RandomModel, x_max: int, seeds: Sequence[int]) -> list[int]:
    """``len(sample_set(replace(model, seed=s), x_max))`` for each seed s,
    from one pass over the k-th powers shared by all seeds."""
    counts = [0] * len(seeds)
    for _, kept in _draws(model, x_max, seeds):
        for i, keep in enumerate(kept):
            counts[i] += int(np.count_nonzero(keep))
    return counts


@dataclass(frozen=True)
class ExpectedCount:
    """Exact expectation of A(x) plus the matching leading-order term."""

    exact: float
    closed_form: float | None


def expected_count(model: RandomModel, x: int) -> ExpectedCount:
    """E[A(x)] summed exactly over the k-th powers up to x, and the
    closed-form leading term when the model has one (table models do not).
    """
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"x must be a positive integer, got {x!r}")
    k = model.k
    if model.kind == TABLE:
        # alpha is zero off the table, and zeros do not change an fsum
        terms = (a for n, a in model.table if n <= x)
    else:
        # one fsum over the scalar rule's terms float(v) ** -theta; summing
        # per-block fsums would round twice
        r_max = integer_kth_root(x, k)
        values = chain(
            chain.from_iterable(block.tolist() for _, block in _power_blocks(k, r_max)),
            (m**k for m in range(_top_root(k) + 1, r_max + 1)),
        )
        terms = map(pow, map(float, values), repeat(-model.exponent))
    exact = math.fsum(terms)
    if model.kind == DENSITY_K:
        closed = x ** (1 / k - model.epsilon) / (1 - k * model.epsilon)
    elif model.kind == DENSITY_H:
        closed = x ** (1 / model.h - model.epsilon) / (k / model.h - k * model.epsilon)
    else:
        closed = None
    return ExpectedCount(exact=exact, closed_form=closed)


def expected_representation_count(model: RandomModel, n: int, l: int) -> float:
    """Exact E[R(n)] for l strict parts: the sum over all strict
    representations of n by k-th powers of the product of the parts'
    membership probabilities."""
    if not isinstance(l, int) or l < 2:
        raise ValueError(f"part count must be an integer >= 2, got {l!r}")
    reps = enumerate_representations(n, l, FullPowers(model.k), "strict")
    return math.fsum(
        math.prod(membership_probability(model, v) for v in rep.values) for rep in reps
    )


@dataclass(frozen=True)
class DecayFit:
    """Log-log slope of E[R(n)] over a grid, with the per-point values."""

    slope: float
    intercept: float
    points: tuple[tuple[int, float], ...]
    dropped: tuple[int, ...]


def expectation_decay_fit(model: RandomModel, l: int, n_grid: Sequence[int]) -> DecayFit:
    """Least-squares slope of log E[R(n)] against log n over the grid.

    Grid points with zero expectation are dropped and recorded, never
    smoothed; fewer than two surviving points is an undefined fit.
    """
    grid = [int(n) for n in n_grid]
    if len(grid) < 3:
        raise ValueError("decay fit needs a grid of at least 3 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid points must be strictly increasing")
    points = [(n, expected_representation_count(model, n, l)) for n in grid]
    used = [(n, e) for n, e in points if e > 0.0]
    dropped = tuple(n for n, e in points if e == 0.0)
    if len(used) < 2:
        raise UndefinedFitError("all grid expectations vanish; no slope to fit")
    logs_n = np.log([n for n, _ in used])
    logs_e = np.log([e for _, e in used])
    slope, intercept = np.polyfit(logs_n, logs_e, 1)
    return DecayFit(
        slope=float(slope), intercept=float(intercept), points=tuple(used), dropped=dropped
    )
