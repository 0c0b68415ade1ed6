"""Combinatorial structure of representation families: disjoint packings,
sunflower (Delta-system) extraction, B_h[g] verification, the Sidon
counting bound, windowed boundedness scans, and a greedy probe for
bounded-representation subsets."""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .density import fit_density_exponent, geometric_grid
from .errors import UndefinedFitError
from .powersums import (
    PowerSet,
    enumerate_representations,
    representation_profile,
)

#: Exact packing falls back to greedy above this many representations.
PACKING_CAP = 64

#: The tests check find_delta_system against brute force over every r-subset
#: of collections up to this many sets.
SUNFLOWER_EXHAUSTIVE_LIMIT = 20


# ---------------------------------------------------------------------------
# disjoint representation packings


@dataclass(frozen=True)
class PackingResult:
    """Largest found family of pairwise-disjoint representations of n.

    f_value == len(witness); exact is True only when the branch-and-bound
    search ran to completion, otherwise the value is a greedy lower bound.
    """

    n: int
    l: int
    f_value: int
    witness: tuple[tuple[int, ...], ...]
    exact: bool
    capped: bool = False


def _greedy_packing(sets: Sequence[frozenset[int]]) -> list[int]:
    chosen: list[int] = []
    used: set[int] = set()
    for i, s in enumerate(sets):
        if not (used & s):
            chosen.append(i)
            used |= s
    return chosen


def _max_packing(sets: Sequence[frozenset[int]]) -> list[int]:
    """Exact maximum set packing by depth-first branch and bound.

    Recursion depth is the packing size, not the collection size.
    """
    best: list[int] = []

    def rec(start: int, used: frozenset[int], chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for i in range(start, len(sets)):
            if len(chosen) + len(sets) - i <= len(best):
                return
            s = sets[i]
            if not (used & s):
                chosen.append(i)
                rec(i + 1, used | s, chosen)
                chosen.pop()

    rec(0, frozenset(), [])
    return best


def max_disjoint_representations(
    n: int,
    l: int,
    A: PowerSet,
    mode: Literal["exact", "greedy"] = "exact",
    *,
    cap: int = PACKING_CAP,
) -> PackingResult:
    """Maximum (or greedy-maximal) family of pairwise-disjoint strict
    representations of n as a sum of l distinct elements of A.

    Exact mode runs a branch-and-bound set packing; if the representation
    list exceeds ``cap`` it falls back to the greedy value, flagged with
    exact=False and capped=True.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown packing mode {mode!r}")
    reps = enumerate_representations(n, l, A, "strict")
    sets = [frozenset(rep.parts) for rep in reps]
    capped = False
    if mode == "exact" and len(sets) > cap:
        capped = True
        mode = "greedy"
    chosen = _greedy_packing(sets) if mode == "greedy" else _max_packing(sets)
    witness = tuple(reps[i].parts for i in chosen)
    return PackingResult(
        n=n,
        l=l,
        f_value=len(witness),
        witness=witness,
        exact=(mode == "exact"),
        capped=capped,
    )


# ---------------------------------------------------------------------------
# sunflowers


@dataclass(frozen=True)
class SunflowerFamily:
    """r sets whose pairwise intersections all equal the common core."""

    core: frozenset[int]
    petals: tuple[frozenset[int], ...]


def is_delta_system(core: frozenset[int], petals: Sequence[frozenset[int]]) -> bool:
    """True when every pair of petals intersects exactly in core."""
    petals = list(petals)
    if len(set(petals)) != len(petals):
        return False
    for i in range(len(petals)):
        for j in range(i + 1, len(petals)):
            if petals[i] & petals[j] != core:
                return False
    return True


def _find_disjoint_family(sets: Sequence[frozenset[int]], need: int) -> list[int] | None:
    """Indices of `need` pairwise-disjoint sets, or None."""

    def rec(start: int, used: frozenset[int], chosen: list[int]) -> list[int] | None:
        if len(chosen) == need:
            return chosen
        for i in range(start, len(sets)):
            if len(chosen) + len(sets) - i < need:
                return None
            s = sets[i]
            if not (used & s):
                got = rec(i + 1, used | s, chosen + [i])
                if got is not None:
                    return got
        return None

    if need > len(sets):
        return None
    return rec(0, frozenset(), [])


def _sunflower_search(sets: list[frozenset[int]], r: int) -> tuple[frozenset[int], list[int]] | None:
    """Recursive search: either r pairwise-disjoint sets (empty core) or a
    common element joined to a sunflower of the reduced family.

    Exhaustive: a sunflower with empty core is r pairwise-disjoint sets,
    which the exact disjoint-family search finds; one with an element x in
    its core has r petals containing x, and removing x from them leaves a
    sunflower of the family reduced at x, which the recursion searches
    (every x in at least r sets is tried).
    """
    disjoint = _find_disjoint_family(sets, r)
    if disjoint is not None:
        return frozenset(), disjoint
    freq = Counter(e for s in sets for e in s)
    for x, cnt in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0])):
        if cnt < r:
            continue
        idx = [i for i, s in enumerate(sets) if x in s]
        reduced = [sets[i] - {x} for i in idx]
        found = _sunflower_search(reduced, r)
        if found is not None:
            core, sub = found
            return core | {x}, [idx[i] for i in sub]
    return None


def find_delta_system(H: Iterable[Iterable[int]], r: int) -> SunflowerFamily | None:
    """Find r member sets of H forming a Delta-system (sunflower), or None.

    The search tries an exact pairwise-disjoint subfamily first (empty
    core), then recurses on shared elements.  It is exhaustive, so None
    means that no r distinct sets of H form a sunflower.
    """
    if not isinstance(r, int) or r < 3:
        raise ValueError(f"need an integer r >= 3, got {r!r}")
    sets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for s in H:
        fs = frozenset(int(e) for e in s)
        if fs not in seen:
            seen.add(fs)
            sets.append(fs)
    if len(sets) < r:
        return None
    found = _sunflower_search(sets, r)
    if found is None:
        return None
    core, idx = found
    family = SunflowerFamily(core=core, petals=tuple(sets[i] for i in idx))
    assert is_delta_system(family.core, family.petals)
    return family


# ---------------------------------------------------------------------------
# B_h[g] verification and the counting bound


class BhgViolation(NamedTuple):
    n: int
    weak_count: int


def verify_bhg(A: PowerSet, h: int, g: int, n_max: int) -> BhgViolation | None:
    """Scan n in [1, n_max] for weak representation counts above g.

    Returns the first violation, or None when A behaves as a B_h[g] set on
    the scanned range.
    """
    if not isinstance(h, int) or h < 2:
        raise ValueError(f"need an integer h >= 2, got {h!r}")
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"need an integer g >= 1, got {g!r}")
    if n_max < 1:
        return None
    profile = representation_profile((1, n_max), h, A)
    over = np.nonzero(profile.weak_counts > g)[0]
    if over.size == 0:
        return None
    n = int(over[0]) + 1
    return BhgViolation(n=n, weak_count=profile.weak_count(n))


def sidon_counting_bound(h: int, g: int, x: int) -> float:
    """Upper bound (h*g*x*h!)**(1/h) + h - 1 on A(x) for any B_h[g] set."""
    if not isinstance(h, int) or h < 2:
        raise ValueError(f"need an integer h >= 2, got {h!r}")
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"need an integer g >= 1, got {g!r}")
    if x < 1:
        raise ValueError(f"need x >= 1, got {x!r}")
    return float(h * g * x * factorial(h)) ** (1.0 / h) + h - 1


# ---------------------------------------------------------------------------
# windowed boundedness evidence


@dataclass(frozen=True)
class WindowStats:
    """Maxima over one window of the scanned range."""

    lo: int
    hi: int
    max_r: int
    max_f: tuple[int, ...]  # indexed by l = 2 .. h
    packing_bound_ok: bool
    all_exact: bool


@dataclass(frozen=True)
class BoundednessReport:
    """Per-window maxima of strict counts and packing numbers.

    packing_bound_ok per window checks max R <= (max over l of max f_l)**h * h!.
    Window maxima that stay flat are evidence of no growth on the scanned
    range, never a proof of boundedness.
    """

    h: int
    n_max: int
    windows: tuple[WindowStats, ...]

    @property
    def max_r_by_window(self) -> tuple[int, ...]:
        return tuple(w.max_r for w in self.windows)

    @property
    def all_bounds_ok(self) -> bool:
        return all(w.packing_bound_ok for w in self.windows)


def boundedness_scan(
    A: PowerSet,
    h: int,
    n_max: int,
    window_count: int,
    *,
    packing_cap: int = PACKING_CAP,
    jobs: int = 1,
) -> BoundednessReport:
    """Partition [1, n_max] into equal windows and report, per window, the
    max of the strict count R(n) and of the packing number f_l(n) for each
    2 <= l <= h, plus the cross-check max R <= (max_l f_l)**h * h!.
    """
    if not isinstance(h, int) or h < 2:
        raise ValueError(f"need an integer h >= 2, got {h!r}")
    if not isinstance(window_count, int) or window_count < 2:
        raise ValueError(f"need an integer window_count >= 2, got {window_count!r}")
    if n_max < window_count:
        raise ValueError("n_max must be at least the window count")
    profiles = {l: representation_profile((1, n_max), l, A) for l in range(2, h + 1)}

    def window_stats(i: int) -> WindowStats:
        lo = i * n_max // window_count + 1
        hi = (i + 1) * n_max // window_count
        max_r = int(profiles[h].strict_block(lo, hi).max(initial=0))
        max_f = []
        all_exact = True
        for l in range(2, h + 1):
            block = profiles[l].strict_block(lo, hi)
            best = 1 if block.max(initial=0) >= 1 else 0
            if l == 2:
                # distinct two-part representations of the same target are
                # automatically disjoint, so f_2(n) = R(n)
                best = max(best, int(block.max(initial=0)))
            else:
                for off in np.nonzero(block >= 2)[0]:
                    res = max_disjoint_representations(
                        int(off) + lo, l, A, "exact", cap=packing_cap
                    )
                    all_exact = all_exact and res.exact
                    best = max(best, res.f_value)
            max_f.append(best)
        bound = max(max_f) ** h * factorial(h)
        return WindowStats(
            lo=lo,
            hi=hi,
            max_r=max_r,
            max_f=tuple(max_f),
            packing_bound_ok=max_r <= bound,
            all_exact=all_exact,
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            windows = tuple(pool.map(window_stats, range(window_count)))
    else:
        windows = tuple(window_stats(i) for i in range(window_count))
    return BoundednessReport(h=h, n_max=n_max, windows=windows)


# ---------------------------------------------------------------------------
# greedy bounded-representation subsets


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of the greedy B_h[g] probe over the k-th powers."""

    power_set: PowerSet
    density_exponent: float | None
    decisions: tuple[tuple[int, bool], ...]  # (root, accepted)


def greedy_bounded_subset(
    k: int, h: int, g: int, x_max: int, *, full_rescan: bool = False
) -> GreedyResult:
    """Scan k-th powers ascending, accepting a candidate iff every weak
    h-part representation count of the grown set stays <= g.

    Only sums affected by the candidate are rechecked, via incremental
    weak-sum tables; ``full_rescan`` recomputes each decision from a fresh
    profile sweep and asserts agreement (debug mode).  Returns the set, its
    fitted density exponent, and the per-root decision log.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("exponent k must be a positive integer")
    if not isinstance(h, int) or h < 2:
        raise ValueError(f"need an integer h >= 2, got {h!r}")
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"need an integer g >= 1, got {g!r}")
    if x_max < 1:
        return GreedyResult(PowerSet((), k), None, ())
    top = h * x_max
    weak = np.zeros(top + 1, dtype=np.int64)
    # multi[t][s] = number of weak t-part sums of accepted values equal to s
    multi = [np.zeros(top + 1, dtype=np.int64) for _ in range(h)]
    multi[0][0] = 1
    roots: list[int] = []
    decisions: list[tuple[int, bool]] = []
    m = 1
    while m**k <= x_max:
        c = m**k
        delta = np.zeros(top + 1, dtype=np.int64)
        for j in range(1, h + 1):
            shift = j * c
            if shift > top:
                break
            delta[shift:] += multi[h - j][: top + 1 - shift]
        ok = int((weak + delta).max()) <= g
        if full_rescan:
            trial = PowerSet(roots + [m], k)
            rescan = representation_profile((1, top), h, trial)
            rescan_ok = int(rescan.weak_counts.max(initial=0)) <= g
            assert rescan_ok == ok, f"incremental and full rescan disagree at root {m}"
        decisions.append((m, ok))
        if ok:
            weak += delta
            updates = []
            for t in range(1, h):
                d = np.zeros(top + 1, dtype=np.int64)
                for j in range(1, t + 1):
                    shift = j * c
                    if shift > top:
                        break
                    d[shift:] += multi[t - j][: top + 1 - shift]
                updates.append((t, d))
            for t, d in updates:
                multi[t] += d
            roots.append(m)
        m += 1
    ps = PowerSet(roots, k)
    exponent = None
    if ps.values:
        try:
            grid = geometric_grid(ps.values[0], x_max)
            if len(grid) >= 3:
                exponent = fit_density_exponent(ps, grid).exponent
        except (UndefinedFitError, ValueError):
            exponent = None
    return GreedyResult(power_set=ps, density_exponent=exponent, decisions=tuple(decisions))
