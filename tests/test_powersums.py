"""Core counting: enumeration, counts, sweeps, boxes, persistence."""

import itertools
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
