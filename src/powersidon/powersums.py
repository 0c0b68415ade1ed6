"""Exact counting and enumeration of representations as sums of k-th powers.

The domain of parts is either every k-th power of a positive integer
(``FullPowers``) or a finite subset stored by its roots (``PowerSet``).
Representations come in two orderings: strict (parts strictly increasing,
the classical R count) and weak (parts non-decreasing, the R* count that
admits repeated parts).  Single targets use a pruned depth-first search or
a meet-in-the-middle join for many parts; range sweeps either enumerate the
few part tuples under the range end or build sum tables, so a whole profile
costs one pass instead of one search per target.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import comb, isqrt, prod
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence, Union

import numpy as np

from .errors import ResourceLimitError, WidthOverflowError

Ordering = Literal["strict", "weak"]

#: Values live inside an unsigned 64-bit range; arithmetic that would leave
#: it raises, it never wraps.
MAX_VALUE = 2**64 - 1

#: count_representations switches from DFS to meet-in-the-middle from this
#: many parts on.
MITM_MIN_PARTS = 4

#: Range sweeps refuse to allocate more than this many bytes.
MEMORY_BUDGET = 1 << 30


def integer_kth_root(n: int, k: int) -> int:
    """Largest integer r >= 0 with r**k <= n (exact, no float error)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _check_value(n: int, what: str = "target") -> None:
    if n > MAX_VALUE:
        raise WidthOverflowError(f"{what} {n} exceeds the 64-bit value range")


class PowerSet:
    """A finite set of k-th powers {m**k : m in roots}, stored by roots.

    Roots must be strictly increasing positive integers; every stored
    value m**k must fit the configured width.
    """

    __slots__ = ("k", "roots", "values", "_value_set")

    def __init__(self, roots: Iterable[int], k: int, *, max_value: int = MAX_VALUE):
        if not isinstance(k, int) or k < 1:
            raise ValueError("exponent k must be a positive integer")
        roots = tuple(int(r) for r in roots)
        values = []
        prev = 0
        for r in roots:
            if r < 1:
                raise ValueError(f"root {r} is not a positive integer")
            if r <= prev:
                raise ValueError(f"roots must be strictly increasing, got {r} after {prev}")
            v = r**k
            if v > max_value:
                raise WidthOverflowError(f"{r}**{k} exceeds the configured value range")
            values.append(v)
            prev = r
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_value_set", frozenset(values))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSet is immutable")

    @classmethod
    def all_powers(cls, k: int, x_max: int) -> "PowerSet":
        """Every k-th power with value <= x_max."""
        if x_max < 1:
            return cls((), k)
        return cls(range(1, integer_kth_root(x_max, k) + 1), k)

    def has_root(self, r: int) -> bool:
        i = bisect_left(self.roots, r)
        return i < len(self.roots) and self.roots[i] == r

    def has_value(self, v: int) -> bool:
        return v in self._value_set

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[int]:
        return iter(self.roots)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSet):
            return NotImplemented
        return self.k == other.k and self.roots == other.roots

    def __hash__(self) -> int:
        return hash((self.k, self.roots))

    def __repr__(self) -> str:
        shown = ",".join(map(str, self.roots[:8])) + (",..." if len(self.roots) > 8 else "")
        return f"PowerSet(k={self.k}, roots=[{shown}], size={len(self.roots)})"


@dataclass(frozen=True)
class FullPowers:
    """The unrestricted domain: every k-th power of a positive integer."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("exponent k must be a positive integer")


Domain = Union[FullPowers, PowerSet]


def _roots_upto(domain: Domain, limit: int) -> Sequence[int]:
    """Roots of the domain whose value is <= limit, ascending."""
    if isinstance(domain, FullPowers):
        if limit < 1:
            return range(0)
        return range(1, integer_kth_root(limit, domain.k) + 1)
    return domain.roots[: bisect_right(domain.values, limit)]


def _roots_from(domain: Domain, r_min: int) -> Iterator[int]:
    """Ascending roots >= r_min; unbounded for the full domain."""
    if isinstance(domain, FullPowers):
        return itertools.count(max(1, r_min))
    return iter(domain.roots[bisect_left(domain.roots, r_min):])


def _domain_label(domain: Domain) -> str:
    if isinstance(domain, FullPowers):
        return f"full(k={domain.k})"
    return f"set(k={domain.k}, size={len(domain)})"


@dataclass(frozen=True)
class Representation:
    """One solution parts[0]**k + ... + parts[h-1]**k == n under an ordering.

    Parts are roots, not values; strict parts increase, weak parts may repeat.
    """

    n: int
    k: int
    parts: tuple[int, ...]
    ordering: Ordering

    def __post_init__(self):
        if self.ordering not in ("strict", "weak"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if not self.parts:
            raise ValueError("a representation needs at least one part")
        prev = 0
        total = 0
        for p in self.parts:
            if p < 1:
                raise ValueError(f"part {p} is not a positive integer")
            if self.ordering == "strict" and p <= prev:
                raise ValueError("strict parts must be strictly increasing")
            if self.ordering == "weak" and p < prev:
                raise ValueError("weak parts must be non-decreasing")
            total += p**self.k
            prev = p
        if total != self.n:
            raise ValueError(f"parts sum to {total}, not {self.n}")

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(p**self.k for p in self.parts)


def _validate_target(n: int, h: int, ordering: str) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"target must be a positive integer, got {n!r}")
    _check_value(n)
    if not isinstance(h, int) or h < 2:
        raise ValueError(f"part count must be an integer >= 2, got {h!r}")
    if ordering not in ("strict", "weak"):
        raise ValueError(f"unknown ordering {ordering!r}")


def _min_tail(r: int, t: int, k: int, strict: bool) -> int:
    """Least possible sum of t further parts after a part with root r."""
    if strict:
        return sum((r + j) ** k for j in range(1, t + 1))
    return t * r**k


def _iter_parts(n: int, h: int, domain: Domain, ordering: Ordering) -> Iterator[tuple[int, ...]]:
    """Yield part tuples of every representation, lexicographically ascending."""
    k = domain.k
    strict = ordering == "strict"

    def rec(prefix: tuple[int, ...], rem: int, slots: int, lo: int):
        if slots == 1:
            r = integer_kth_root(rem, k)
            if r >= lo and r**k == rem and (isinstance(domain, FullPowers) or domain.has_value(rem)):
                yield prefix + (r,)
            return
        for r in _roots_from(domain, lo):
            v = r**k
            if v + _min_tail(r, slots - 1, k, strict) > rem:
                break
            yield from rec(prefix + (r,), rem - v, slots - 1, r + 1 if strict else r)

    yield from rec((), n, h, 1)


def enumerate_representations(
    n: int, h: int, domain: Domain, ordering: Ordering
) -> list[Representation]:
    """All representations of n as an ordered sum of h domain parts.

    Output is in lexicographic order of the part tuples and is
    deterministic for a given input.
    """
    _validate_target(n, h, ordering)
    k = domain.k
    return [Representation(n, k, parts, ordering) for parts in _iter_parts(n, h, domain, ordering)]


def _iter_bounded(
    count: int, budget: int, domain: Domain, ordering: Ordering, r_min: int = 1
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (parts, total) for all ordered part tuples with total <= budget."""
    k = domain.k
    strict = ordering == "strict"

    def rec(prefix: tuple[int, ...], total: int, slots: int, lo: int):
        if slots == 0:
            yield prefix, total
            return
        for r in _roots_from(domain, lo):
            v = r**k
            if total + v + _min_tail(r, slots - 1, k, strict) > budget:
                break
            yield from rec(prefix + (r,), total + v, slots - 1, r + 1 if strict else r)

    yield from rec((), 0, count, r_min)


def _count_mitm(n: int, h: int, domain: Domain, ordering: Ordering) -> int:
    """Meet-in-the-middle count: split the parts in two halves, join on the
    complementary sum with a boundary condition on the middle parts."""
    k = domain.k
    strict = ordering == "strict"
    a = h // 2
    b = h - a

    def head_min(t: int) -> int:
        # least possible sum of t ordered parts starting at root 1
        if strict:
            return sum(j**k for j in range(1, t + 1))
        return t

    right_index: dict[int, list[int]] = {}
    for parts, total in _iter_bounded(b, n - head_min(a), domain, ordering):
        right_index.setdefault(total, []).append(parts[0])
    for lst in right_index.values():
        lst.sort()

    count = 0
    for parts, total in _iter_bounded(a, n - head_min(b), domain, ordering):
        lst = right_index.get(n - total)
        if not lst:
            continue
        last = parts[-1]
        cut = bisect_right(lst, last) if strict else bisect_left(lst, last)
        count += len(lst) - cut
    return count


def count_representations(
    n: int,
    h: int,
    domain: Domain,
    ordering: Ordering,
    *,
    method: Literal["auto", "dfs", "mitm"] = "auto",
) -> int:
    """Number of representations of n as an ordered sum of h domain parts.

    Contractually equal to len(enumerate_representations(...)); the
    meet-in-the-middle path avoids materializing tuples when h is large.
    """
    _validate_target(n, h, ordering)
    if method == "auto":
        method = "mitm" if h >= MITM_MIN_PARTS else "dfs"
    if method == "dfs":
        return sum(1 for _ in _iter_parts(n, h, domain, ordering))
    if method == "mitm":
        return _count_mitm(n, h, domain, ordering)
    raise ValueError(f"unknown counting method {method!r}")


Backend = Literal["sparse", "dense"]


@dataclass(eq=False)
class RepCountProfile:
    """Strict and weak representation counts for every n in [n_lo, n_hi],
    with the counting backend that produced them."""

    k: int
    h: int
    domain: str
    n_lo: int
    n_hi: int
    strict_counts: np.ndarray = field(repr=False)
    weak_counts: np.ndarray = field(repr=False)
    backend: Backend

    def _index(self, n: int) -> int:
        if not self.n_lo <= n <= self.n_hi:
            raise ValueError(f"{n} outside profiled range [{self.n_lo}, {self.n_hi}]")
        return n - self.n_lo

    def strict_count(self, n: int) -> int:
        return int(self.strict_counts[self._index(n)])

    def weak_count(self, n: int) -> int:
        return int(self.weak_counts[self._index(n)])

    def counts(self, n: int) -> tuple[int, int]:
        i = self._index(n)
        return int(self.strict_counts[i]), int(self.weak_counts[i])

    def strict_block(self, lo: int, hi: int) -> np.ndarray:
        """View of strict counts for n in [lo, hi]."""
        return self.strict_counts[self._index(lo) : self._index(hi) + 1]

    def weak_block(self, lo: int, hi: int) -> np.ndarray:
        return self.weak_counts[self._index(lo) : self._index(hi) + 1]

    def rows(self) -> Iterator[tuple[int, int, int]]:
        return zip(
            range(self.n_lo, self.n_hi + 1), self.strict_counts.tolist(), self.weak_counts.tolist()
        )


#: Bytes the sparse backend holds per enumerated tuple: partial sums, part
#: indices, flags and the temporaries of one level (at most 35 measured).
_SPARSE_TUPLE_BYTES = 48


def _choose_backend(root_count: int, h: int, n_lo: int, n_hi: int, memory_budget: int) -> tuple[Backend, int]:
    """The counting backend for a profile and the bytes it will allocate.

    C(roots + h - 1, h) bounds the number of h-tuples the sparse backend
    enumerates; h * roots * (n_hi + 1) is the dense DP's work.  Sparse wins
    when it does no more work and its arrays fit the budget.
    """
    tuples = comb(root_count + h - 1, h)
    counts_bytes = 2 * 8 * (n_hi - n_lo + 1)  # the two uint64 count arrays returned
    sparse_bytes = tuples * _SPARSE_TUPLE_BYTES + counts_bytes
    if tuples <= h * root_count * (n_hi + 1) and sparse_bytes <= memory_budget:
        return "sparse", sparse_bytes
    return "dense", 2 * (h + 1) * (n_hi + 1) * 8 + counts_bytes


def _sparse_counts(values: Sequence[int], h: int, n_lo: int, n_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict and weak counts on [n_lo, n_hi] by enumerating every
    non-decreasing h-tuple of part indices whose sum is at most n_hi.

    Tuples grow one part per level; a part j may follow only if
    sum + left * values[j] <= n_hi, where left counts it and the parts still
    to come, so every kept prefix completes to at least one tuple.  A tuple
    is strict when no part repeats the one before it.
    """
    vals = np.array(values, dtype=np.uint64)
    sums = np.zeros(1, dtype=np.uint64)
    prev = np.full(1, -1, dtype=np.int64)  # index of the last part, -1 before the first
    distinct = np.ones(1, dtype=bool)
    for left in range(h, 0, -1):
        start = np.maximum(prev, 0)
        stop = np.searchsorted(vals, (n_hi - sums) // left, side="right")
        width = np.maximum(stop - start, 0)
        first = np.cumsum(width) - width  # where each prefix's run of parts begins
        j = np.arange(int(width.sum())) - np.repeat(first - start, width)
        distinct = np.repeat(distinct, width)
        # only the first part of a run can repeat the previous part
        distinct[first[(width > 0) & (prev == start)]] = False
        sums = np.repeat(sums, width)
        sums += vals[j]
        prev = j
    size = n_hi - n_lo + 1
    sums -= np.uint64(n_lo)  # sums below n_lo wrap past size and drop out
    keep = sums < size
    offsets = sums[keep].view(np.intp)
    weak = np.bincount(offsets, minlength=size)
    strict = np.bincount(offsets[distinct[keep]], minlength=size)
    return strict.view(np.uint64), weak.view(np.uint64)


def _dense_counts(values: Sequence[int], h: int, n_lo: int, n_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict and weak counts on [n_lo, n_hi] from one sum-table DP over
    [0, n_hi]: row t of each table counts sums of t parts."""
    size = n_hi + 1
    strict_tab = np.zeros((h + 1, size), dtype=np.uint64)
    weak_tab = np.zeros((h + 1, size), dtype=np.uint64)
    strict_tab[0, 0] = 1
    weak_tab[0, 0] = 1
    for v in values:
        # strict: each root used at most once, so read the pre-update row
        for t in range(h, 0, -1):
            strict_tab[t, v:] += strict_tab[t - 1, : size - v]
        # weak: ascending t reads the already-updated row, allowing repeats
        for t in range(1, h + 1):
            weak_tab[t, v:] += weak_tab[t - 1, : size - v]
    return strict_tab[h, n_lo:].copy(), weak_tab[h, n_lo:].copy()


_BACKENDS = {"sparse": _sparse_counts, "dense": _dense_counts}


def representation_profile(
    n_range: tuple[int, int],
    h: int,
    domain: Domain,
    *,
    memory_budget: int = MEMORY_BUDGET,
) -> RepCountProfile:
    """Both counts for every n in the range, in one pass over the domain.

    Equal to pointwise count_representations.  Two backends give the same
    counts: the sparse one enumerates the h-tuples of roots with sum at most
    n_hi and bins their sums; the dense one runs a sum-table DP over
    [0, n_hi].  The sparse backend runs when its tuple bound
    C(roots + h - 1, h) is at most the DP's h * roots * (n_hi + 1) cell
    updates and its arrays fit ``memory_budget``; otherwise the dense one
    does, and its tables, driven by the upper end of the range, must fit.
    """
    n_lo, n_hi = n_range
    if not (isinstance(n_lo, int) and isinstance(n_hi, int) and 1 <= n_lo <= n_hi):
        raise ValueError(f"need 1 <= n_lo <= n_hi, got [{n_lo!r}, {n_hi!r}]")
    _check_value(n_hi, "range end")
    if not isinstance(h, int) or h < 2:
        raise ValueError(f"part count must be an integer >= 2, got {h!r}")
    roots = _roots_upto(domain, n_hi)
    # every count is of multisets of at most h roots, so this bounds them all
    most = comb(len(roots) + h - 1, h)
    if most > MAX_VALUE:
        raise WidthOverflowError(
            f"counts with {h} parts from {len(roots)} roots can reach {most}, beyond the "
            f"64-bit value range; use fewer parts or a smaller range"
        )
    backend, need = _choose_backend(len(roots), h, n_lo, n_hi, memory_budget)
    if need > memory_budget:
        raise ResourceLimitError(
            f"profile up to {n_hi} needs {need} bytes of sum tables "
            f"(budget {memory_budget}); split the range, e.g. at {n_hi // 2}"
        )
    k = domain.k
    strict, weak = _BACKENDS[backend]([r**k for r in roots], h, n_lo, n_hi)
    return RepCountProfile(
        k=k,
        h=h,
        domain=_domain_label(domain),
        n_lo=n_lo,
        n_hi=n_hi,
        strict_counts=strict,
        weak_counts=weak,
        backend=backend,
    )


def _box_counts(
    k: int, bounds: Sequence[int], n_max: int, memory_budget: int = MEMORY_BUDGET
) -> np.ndarray:
    if (n_max + 1) * 8 > memory_budget:
        raise ResourceLimitError(
            f"box table up to {n_max} needs {(n_max + 1) * 8} bytes (budget {memory_budget})"
        )
    root_max = integer_kth_root(n_max, k)
    # every table cell counts tuples from a prefix of the box, so this bounds them all
    most = prod(min(bound, root_max) for bound in bounds)
    if most > MAX_VALUE:
        raise WidthOverflowError(
            f"box counts up to {n_max} can reach {most}, beyond the 64-bit value range; "
            f"use fewer coordinates, smaller bounds or a smaller target"
        )
    cur = np.zeros(n_max + 1, dtype=np.uint64)
    cur[0] = 1
    for bound in bounds:
        nxt = np.zeros_like(cur)
        r_max = min(bound, root_max)
        for y in range(1, r_max + 1):
            v = y**k
            nxt[v:] += cur[: n_max + 1 - v]
        cur = nxt
    return cur


def count_solutions_in_box(
    n: int,
    k: int,
    bounds: Sequence[int],
    *,
    memory_budget: int = MEMORY_BUDGET,
) -> int:
    """Ordered tuples (y_1,...,y_l), 1 <= y_i <= bounds[i], with sum of
    y_i**k equal to n.  Coordinates are independently bounded and order
    matters."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"target must be a positive integer, got {n!r}")
    _check_value(n)
    if not isinstance(k, int) or k < 1:
        raise ValueError("exponent k must be a positive integer")
    bounds = [int(b) for b in bounds]
    if not bounds or any(b < 1 for b in bounds):
        raise ValueError("bounds must be a nonempty list of positive integers")
    return int(_box_counts(k, bounds, n, memory_budget)[n])


def write_power_set(ps: PowerSet, path: str | Path, comments: Sequence[str] = ()) -> None:
    """Write the text format: optional '#' comment lines, a 'k=<int>' line,
    then one root per line in ascending decimal."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"k={ps.k}")
    lines.extend(str(r) for r in ps.roots)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_power_set(path: str | Path) -> PowerSet:
    """Read the text format written by write_power_set.

    Rejects files whose roots are out of order or duplicated.
    """
    k = None
    roots: list[int] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if k is None:
            if not line.startswith("k="):
                raise ValueError(f"{path}:{lineno}: expected 'k=<integer>', got {line!r}")
            k = int(line[2:])
            continue
        roots.append(int(line))
    if k is None:
        raise ValueError(f"{path}: missing 'k=<integer>' header line")
    try:
        return PowerSet(roots, k)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
