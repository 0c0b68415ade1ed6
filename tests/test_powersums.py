"""Core counting: enumeration, counts, sweeps, boxes, persistence."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersidon import (
    FullPowers,
    PowerSet,
    Representation,
    ResourceLimitError,
    WidthOverflowError,
    count_representations,
    count_solutions_in_box,
    enumerate_representations,
    integer_kth_root,
    read_power_set,
    representation_profile,
    write_power_set,
)
from powersidon import powersums

SQ = FullPowers(2)
CB = FullPowers(3)


def brute_parts(n, h, k, ordering, roots=None):
    """Independent oracle: filter all combinations of roots."""
    if roots is None:
        roots = range(1, integer_kth_root(n, k) + 1)
    combo = (
        itertools.combinations(roots, h)
        if ordering == "strict"
        else itertools.combinations_with_replacement(roots, h)
    )
    return [parts for parts in combo if sum(p**k for p in parts) == n]


# --- frozen examples -------------------------------------------------------


def test_enumerate_two_squares_of_50():
    weak = enumerate_representations(50, 2, SQ, "weak")
    assert [r.parts for r in weak] == [(1, 7), (5, 5)]
    strict = enumerate_representations(50, 2, SQ, "strict")
    assert [r.parts for r in strict] == [(1, 7)]


def test_enumerate_smallest_double():
    assert [r.parts for r in enumerate_representations(2, 2, SQ, "weak")] == [(1, 1)]


def test_enumerate_taxicab_cubes():
    assert [r.parts for r in enumerate_representations(1729, 2, CB, "weak")] == [(1, 12), (9, 10)]


def test_count_25_weak():
    # 9 + 16 only; 25 + 0 is excluded because parts are positive
    assert count_representations(25, 2, SQ, "weak") == 1


def test_count_325_strict():
    # 1+324, 36+289, 100+225
    assert count_representations(325, 2, SQ, "strict") == 3


def test_count_empty_set_is_zero():
    empty = PowerSet((), 2)
    assert count_representations(50, 2, empty, "strict") == 0
    assert enumerate_representations(50, 3, empty, "weak") == []


def test_profile_first_decade():
    prof = representation_profile((1, 10), 2, SQ)
    assert [n for n, _, w in prof.rows() if w > 0] == [2, 5, 8, 10]


def test_profile_single_point():
    prof = representation_profile((1, 1), 2, SQ)
    assert prof.counts(1) == (0, 0)


def test_profile_cubes_to_2000():
    prof = representation_profile((1, 2000), 2, CB)
    assert prof.weak_count(1729) == 2
    others = [w for n, _, w in prof.rows() if n != 1729]
    assert max(others) <= 1


def test_representation_values_and_validation():
    rep = Representation(50, 2, (1, 7), "strict")
    assert rep.values == (1, 49)
    with pytest.raises(ValueError):
        Representation(50, 2, (7, 1), "strict")
    with pytest.raises(ValueError):
        Representation(50, 2, (5, 5), "strict")
    with pytest.raises(ValueError):
        Representation(51, 2, (1, 7), "weak")


# --- oracle equivalence ----------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("ordering", ["strict", "weak"])
def test_enumeration_matches_brute_force(k, h, ordering):
    domain = FullPowers(k)
    for n in list(range(1, 120)) + [216, 325, 433, 1729]:
        got = [r.parts for r in enumerate_representations(n, h, domain, ordering)]
        assert got == brute_parts(n, h, k, ordering), (n, h, k, ordering)


@pytest.mark.parametrize("ordering", ["strict", "weak"])
def test_mitm_equals_dfs(ordering):
    for k in (2, 3):
        domain = FullPowers(k)
        for h in (4, 5, 6):
            for n in (50, 100, 333, 1000, 1729):
                dfs = count_representations(n, h, domain, ordering, method="dfs")
                mitm = count_representations(n, h, domain, ordering, method="mitm")
                assert dfs == mitm, (n, h, k, ordering)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("h", [2, 3])
def test_mitm_equals_dfs_small_parts(k, h):
    domain = FullPowers(k)
    targets = list(range(1, 600)) + list(range(600, 10**4, 137))
    for n in targets:
        for ordering in ("strict", "weak"):
            assert count_representations(
                n, h, domain, ordering, method="mitm"
            ) == count_representations(n, h, domain, ordering, method="dfs")


def test_mitm_on_subset_domain():
    A = PowerSet([1, 2, 3, 5, 7, 8, 11, 12], 2)
    for n in range(1, 400):
        assert count_representations(n, 4, A, "weak", method="mitm") == count_representations(
            n, 4, A, "weak", method="dfs"
        )


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("h", [2, 3])
def test_profile_equals_pointwise_counts(k, h):
    domain = FullPowers(k)
    prof = representation_profile((1, 400), h, domain)
    for n in range(1, 401):
        assert prof.strict_count(n) == count_representations(n, h, domain, "strict")
        assert prof.weak_count(n) == count_representations(n, h, domain, "weak")


def test_profile_on_subset_matches_enumeration():
    A = PowerSet([1, 3, 4, 6, 10], 2)
    prof = representation_profile((1, 300), 3, A)
    for n in range(1, 301):
        assert prof.counts(n) == (
            len(enumerate_representations(n, 3, A, "strict")),
            len(enumerate_representations(n, 3, A, "weak")),
        )


# --- invariants ------------------------------------------------------------


@given(
    n=st.integers(1, 3000),
    h=st.integers(2, 4),
    k=st.integers(2, 4),
)
@settings(max_examples=60, deadline=None)
def test_strict_at_most_weak(n, h, k):
    domain = FullPowers(k)
    assert count_representations(n, h, domain, "strict") <= count_representations(
        n, h, domain, "weak"
    )


@given(
    roots=st.sets(st.integers(1, 25), min_size=0, max_size=12),
    extra=st.sets(st.integers(1, 25), min_size=0, max_size=6),
    n=st.integers(1, 600),
    h=st.integers(2, 3),
)
@settings(max_examples=40, deadline=None)
def test_subset_monotonicity(roots, extra, n, h):
    small = PowerSet(sorted(roots), 2)
    big = PowerSet(sorted(roots | extra), 2)
    for ordering in ("strict", "weak"):
        assert count_representations(n, h, small, ordering) <= count_representations(
            n, h, big, ordering
        )


def test_subset_counts_equal_full_domain_tuples_within_set():
    # counting over A equals counting full-domain tuples whose parts all lie in A
    A = PowerSet([1, 2, 4, 5, 9, 11], 2)
    members = set(A.roots)
    for n in range(1, 260):
        full_tuples = [
            r.parts
            for r in enumerate_representations(n, 2, SQ, "strict")
            if set(r.parts) <= members
        ]
        assert count_representations(n, 2, A, "strict") == len(full_tuples)


@given(
    roots=st.sets(st.integers(1, 20), min_size=2, max_size=10),
    h=st.integers(2, 3),
    x=st.integers(1, 400),
)
@settings(max_examples=40, deadline=None)
def test_weak_sum_dominates_binomial(roots, h, x):
    # sum over n <= h*x of weak counts is at least C(A(x), h)
    A = PowerSet(sorted(roots), 2)
    prof = representation_profile((1, h * x), h, A)
    total = int(prof.weak_counts.sum())
    a_x = sum(1 for v in A.values if v <= x)
    assert total >= comb(a_x, h)


@given(st.integers(0, 10**12), st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_integer_kth_root_exact(n, k):
    r = integer_kth_root(n, k)
    assert r**k <= n < (r + 1) ** k


# --- boxes -----------------------------------------------------------------


def test_box_examples():
    assert count_solutions_in_box(6, 2, (2, 2, 2)) == 3
    assert count_solutions_in_box(3, 2, (1, 1, 1)) == 1
    assert count_solutions_in_box(100, 2, (6, 8)) == 1


def brute_box(n, k, bounds):
    return sum(
        1
        for tup in itertools.product(*(range(1, b + 1) for b in bounds))
        if sum(y**k for y in tup) == n
    )


@given(
    n=st.integers(1, 200),
    k=st.integers(2, 3),
    bounds=st.lists(st.integers(1, 6), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_box_matches_brute_force(n, k, bounds):
    assert count_solutions_in_box(n, k, bounds) == brute_box(n, k, bounds)


def test_box_counts_follow_bound_shape():
    # empirical check of the shape (1/n)*prod(P) + prod(P)**(1 - k/l):
    # observed counts never exceed a small multiple of it at this scale
    from powersidon.powersums import _box_counts

    worst = 0.0
    for bounds in itertools.product(range(1, 9), repeat=3):
        prod = bounds[0] * bounds[1] * bounds[2]
        counts = _box_counts(2, bounds, 500).astype(float)
        ns = np.arange(1, 501, dtype=float)
        shape = prod / ns + prod ** (1 - 2 / 3)
        worst = max(worst, float((counts[1:] / shape).max()))
    assert worst <= 2.0


# --- errors ----------------------------------------------------------------


def test_argument_errors():
    with pytest.raises(ValueError):
        enumerate_representations(10, 1, SQ, "weak")
    with pytest.raises(ValueError):
        count_representations(0, 2, SQ, "weak")
    with pytest.raises(ValueError):
        enumerate_representations(10, 2, SQ, "sorted")
    with pytest.raises(ValueError):
        count_solutions_in_box(10, 2, ())
    with pytest.raises(ValueError):
        count_solutions_in_box(10, 2, (0, 2))


def test_width_overflow_errors():
    with pytest.raises(WidthOverflowError):
        count_representations(2**64, 2, SQ, "weak")
    with pytest.raises(WidthOverflowError):
        PowerSet([2**33], 2)
    # the same root fits with a wider budget
    PowerSet([2**33], 2, max_value=2**70)


def test_profile_refuses_counts_beyond_64_bits():
    # up to C(3011, 12) ~ 1e33 multisets of 12 roots: the uint64 tables would wrap
    with pytest.raises(WidthOverflowError, match="fewer parts or a smaller range"):
        representation_profile((3000, 3000), 12, FullPowers(1))


def test_box_refuses_counts_beyond_64_bits():
    # 256**10 = 2**80 tuples; the count at the middle sum is about 2**71
    with pytest.raises(WidthOverflowError, match="smaller bounds"):
        count_solutions_in_box(1285, 1, [256] * 10)


def test_profile_memory_budget():
    with pytest.raises(ResourceLimitError, match="split the range"):
        representation_profile((1, 10**6), 2, SQ, memory_budget=10**6)


# --- the sparse and dense profile backends ----------------------------------


def backend_counts(domain, h, n_lo, n_hi):
    """(strict, weak) from the sparse and the dense backend, past the dispatch."""
    values = [r**domain.k for r in powersums._roots_upto(domain, n_hi)]
    return [powersums._BACKENDS[name](values, h, n_lo, n_hi) for name in ("sparse", "dense")]


def assert_backends_agree_with_dfs(domain, h, n_lo, n_hi, targets):
    (strict, weak), (dense_strict, dense_weak) = backend_counts(domain, h, n_lo, n_hi)
    for counts in (strict, weak, dense_strict, dense_weak):
        assert counts.dtype == np.uint64 and counts.shape == (n_hi - n_lo + 1,)
    assert np.array_equal(strict, dense_strict)
    assert np.array_equal(weak, dense_weak)
    for n in targets:
        assert strict[n - n_lo] == count_representations(n, h, domain, "strict", method="dfs")
        assert weak[n - n_lo] == count_representations(n, h, domain, "weak", method="dfs")


@st.composite
def profile_cases(draw):
    k = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    # at most 2*10**4 multisets of roots keeps the forced sparse backend small
    root_cap = max(r for r in range(1, 400) if comb(r + h - 1, h) <= 20_000)
    n_hi = draw(st.integers(1, min(root_cap**k, 20_000)))
    n_lo = draw(st.integers(1, n_hi))
    if draw(st.booleans()):
        domain = FullPowers(k)
    else:
        # may include roots whose power lies beyond n_hi
        pool = range(1, integer_kth_root(n_hi, k) + 3)
        domain = PowerSet(sorted(draw(st.sets(st.sampled_from(pool)))), k)
    targets = draw(st.lists(st.integers(n_lo, n_hi), min_size=1, max_size=5))
    return domain, h, n_lo, n_hi, targets


@settings(max_examples=150, deadline=None)
@given(profile_cases())
def test_sparse_and_dense_backends_agree(case):
    assert_backends_agree_with_dfs(*case)


def largest_guarded_root_count(h):
    """Most roots whose C(roots + h - 1, h) the 64-bit width guard admits."""
    lo, hi = 1, 2
    while comb(hi + h - 1, h) <= powersums.MAX_VALUE:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if comb(mid + h - 1, h) <= powersums.MAX_VALUE else (lo, mid)
    return lo


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(8, 20),
    small=st.integers(1, 3),
    slack=st.integers(0, 50),
    data=st.data(),
)
def test_backends_agree_with_dfs_at_the_64_bit_guard(h, small, slack, data):
    # k = 1 with roots 1..small plus enough roots above n_hi / 2 that
    # C(roots + h - 1, h) is as large as the guard admits; a tuple then holds
    # at most one large root, so the actual counts stay small
    large = largest_guarded_root_count(h) - small
    n_hi = 2 * large + slack
    domain = PowerSet([*range(1, small + 1), *range(n_hi - large + 1, n_hi + 1)], 1)
    n_lo = data.draw(st.integers(1, n_hi))
    targets = data.draw(st.lists(st.integers(n_lo, n_hi), min_size=1, max_size=4))
    assert_backends_agree_with_dfs(domain, h, n_lo, n_hi, targets)
    prof = representation_profile((n_lo, n_hi), h, domain)
    assert prof.weak_count(targets[0]) == count_representations(targets[0], h, domain, "weak", method="dfs")
    one_more = PowerSet([*range(1, small + 1), *range(n_hi - large, n_hi + 1)], 1)
    with pytest.raises(WidthOverflowError):
        representation_profile((n_lo, n_hi), h, one_more)


def test_backend_choice_follows_the_cost_model():
    def choice(domain, h, n_hi, budget=powersums.MEMORY_BUDGET):
        roots = len(powersums._roots_upto(domain, n_hi))
        return powersums._choose_backend(roots, h, 1, n_hi, budget)[0]

    # 1000 squares: C(1001, 2) = 500500 tuples against 2 * 1000 * (10**6 + 1) cells
    assert choice(SQ, 2, 10**6) == "sparse"
    assert representation_profile((1, 10**6), 2, SQ).backend == "sparse"
    # 547 squares: C(550, 4) ~ 3.8e9 tuples against 6.6e8 cells
    assert choice(SQ, 4, 3 * 10**5) == "dense"
    # 141 squares: C(144, 4) ~ 1.7e7 tuples would fit the budget, but the DP
    # updates only 4 * 141 * (2 * 10**4 + 1) ~ 1.1e7 cells
    assert choice(SQ, 4, 2 * 10**4) == "dense"
    # sparse would do less work but does not fit the budget
    assert choice(SQ, 2, 10**6, budget=10**6) == "dense"


@pytest.mark.parametrize(
    "n_range, h, domain",
    [((1, 10**6), 2, SQ), ((10**5, 10**6), 3, CB), ((1, 2 * 10**4), 4, SQ)],
)
def test_profile_allocates_within_its_estimate(n_range, h, domain):
    roots = len(powersums._roots_upto(domain, n_range[1]))
    backend, need = powersums._choose_backend(roots, h, *n_range, powersums.MEMORY_BUDGET)
    tracemalloc.start()
    try:
        prof = representation_profile(n_range, h, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.backend == backend
    assert peak <= need + 64 * 1024, (backend, peak, need)


def test_powerset_validation():
    with pytest.raises(ValueError):
        PowerSet([3, 2], 2)
    with pytest.raises(ValueError):
        PowerSet([2, 2], 2)
    with pytest.raises(ValueError):
        PowerSet([0, 1], 2)
    with pytest.raises(ValueError):
        PowerSet([1, 2], 0)


# --- persistence -----------------------------------------------------------


def test_power_set_round_trip(tmp_path):
    ps = PowerSet([1, 4, 9, 12], 3)
    path = tmp_path / "set.txt"
    write_power_set(ps, path, comments=["model=density-k", "seed=7"])
    text = path.read_text()
    assert text.startswith("# model=density-k\n# seed=7\nk=3\n")
    assert read_power_set(path) == ps


def test_reader_rejects_bad_files(tmp_path):
    bad_order = tmp_path / "a.txt"
    bad_order.write_text("k=2\n5\n3\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        read_power_set(bad_order)
    dup = tmp_path / "b.txt"
    dup.write_text("k=2\n5\n5\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        read_power_set(dup)
    no_header = tmp_path / "c.txt"
    no_header.write_text("5\n7\n")
    with pytest.raises(ValueError, match="k="):
        read_power_set(no_header)
    empty = tmp_path / "d.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="missing"):
        read_power_set(empty)


def test_profile_block_accessors():
    prof = representation_profile((5, 50), 2, SQ)
    assert prof.strict_block(5, 50).shape == (46,)
    assert prof.weak_block(10, 10)[0] == prof.weak_count(10)
    with pytest.raises(ValueError):
        prof.counts(4)
    with pytest.raises(ValueError):
        prof.counts(51)
    assert np.all(prof.strict_counts <= prof.weak_counts)
