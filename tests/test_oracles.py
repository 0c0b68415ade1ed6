"""Classical counting oracles: two-squares sieve, divisor bound, taxicab
and hypothesis-k scans."""

from math import isqrt

import pytest

from powersidon import (
    FullPowers,
    count_two_squares_by_square_test,
    divisor_bound_check,
    divisor_bound_scan,
    divisor_count,
    enumerate_representations,
    hypothesis_k_scan,
    sum_two_squares_sieve,
    taxicab_scan,
)


# --- two squares -------------------------------------------------------------


def test_two_squares_small_counts():
    assert sum_two_squares_sieve(100).count == 43
    assert sum_two_squares_sieve(2).count == 2  # 1 = 1+0, 2 = 1+1


def test_two_squares_matches_per_n_enumeration():
    for x in (2, 10, 100, 1234, 10**4):
        assert sum_two_squares_sieve(x).count == count_two_squares_by_square_test(x)


def test_two_squares_exhaustive_tiny():
    def is_sum(n):
        return any((lambda b2: isqrt(b2) ** 2 == b2)(n - a * a) for a in range(isqrt(n) + 1))

    for x in (2, 3, 17, 50, 99):
        assert sum_two_squares_sieve(x).count == sum(1 for n in range(1, x + 1) if is_sum(n))


def test_two_squares_monotone_and_normalized_trend():
    counts = [sum_two_squares_sieve(10**e).count for e in range(2, 6)]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    ratios = [sum_two_squares_sieve(10**e).normalized for e in range(2, 6)]
    # slow downward drift toward the Landau-Ramanujan constant ~0.7642
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(r > 0.7642 for r in ratios)


def test_two_squares_validation():
    with pytest.raises(ValueError):
        sum_two_squares_sieve(1)
    with pytest.raises(ValueError):
        count_two_squares_by_square_test(0)


# --- divisor bound -----------------------------------------------------------


def test_divisor_count_trial_division():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(1729) == 8  # 7 * 13 * 19
    assert divisor_count(36) == 9


def test_divisor_bound_known_targets():
    res = divisor_bound_check(3, 1729)
    assert (res.weak_count, res.divisor_count) == (2, 8)
    assert res.ok and res.per_divisor_unique
    res2 = divisor_bound_check(3, 2)
    assert (res2.weak_count, res2.divisor_count) == (1, 2)
    res5 = divisor_bound_check(5, 33)
    assert (res5.weak_count, res5.divisor_count) == (1, 4)
    assert res5.ok


def test_divisor_bound_sums_divide_target():
    for n in (1729, 4104, 1027, 854):
        for rep in enumerate_representations(n, 2, FullPowers(3), "weak"):
            assert n % (rep.parts[0] + rep.parts[1]) == 0


def test_divisor_scan_clean_for_odd_powers():
    for k in (3, 5):
        report = divisor_bound_scan(k, 2 * 10**4)
        assert report.ok
        assert report.bound_violations == ()
        assert report.uniqueness_violations == ()
        assert report.max_weak <= 2


def test_divisor_scan_agrees_with_per_n_checks():
    report = divisor_bound_scan(3, 3000)
    assert report.ok
    checked = []
    for n in range(2, 3001):
        res = divisor_bound_check(3, n)
        assert res.ok and res.per_divisor_unique
        if res.weak_count:
            checked.append((n, res.weak_count, res.divisor_count))
    assert report.rows == tuple(checked)
    assert report.represented == len(report.rows)


def test_divisor_validation():
    with pytest.raises(ValueError):
        divisor_bound_check(2, 100)  # even k
    with pytest.raises(ValueError):
        divisor_bound_check(3, 1)
    with pytest.raises(ValueError):
        divisor_bound_scan(4, 100)


# --- taxicab -------------------------------------------------------------------


def test_taxicab_cubes():
    assert taxicab_scan(3, 5000, 2) == [(1729, 2), (4104, 2)]
    assert taxicab_scan(3, 1728, 2) == []


def test_taxicab_squares():
    assert taxicab_scan(2, 100, 2) == [(50, 2), (65, 2), (85, 2)]


def test_taxicab_fifth_powers_empty():
    # no known nontrivial coincidence of two fifth-power sums
    assert taxicab_scan(5, 10**6, 2) == []


def test_taxicab_matches_pairwise_enumeration():
    x_max = 3000
    counts: dict[int, int] = {}
    a = 1
    while 2 * a**3 <= x_max:
        b = a
        while a**3 + b**3 <= x_max:
            counts[a**3 + b**3] = counts.get(a**3 + b**3, 0) + 1
            b += 1
        a += 1
    expected = sorted((n, c) for n, c in counts.items() if c >= 2)
    assert taxicab_scan(3, x_max, 2) == expected


def test_taxicab_validation():
    with pytest.raises(ValueError):
        taxicab_scan(1, 100, 2)
    with pytest.raises(ValueError):
        taxicab_scan(3, 100, 1)
    assert taxicab_scan(3, 0, 2) == []


# --- hypothesis-k ----------------------------------------------------------------


def test_hypothesis_k_squares_no_violations():
    report = hypothesis_k_scan(2, 2, 10**4, 0.5)
    assert report.violations == ()
    assert 0 < report.max_ratio < 1
    assert report.worst_n is not None


def test_hypothesis_k_cubes_taxicab_violates_tiny_eta():
    report = hypothesis_k_scan(3, 2, 2000, 0.05)
    assert 1729 in {n for n, _ in report.violations}
    assert report.worst_n == 1729
    assert report.max_ratio == pytest.approx(2 / 1729**0.05, rel=1e-12)


def test_hypothesis_k_empty_range():
    report = hypothesis_k_scan(2, 2, 1, 0.5)
    assert report.max_ratio == 0.0
    assert report.worst_n is None
    assert report.violations == ()


def test_hypothesis_k_validation():
    with pytest.raises(ValueError):
        hypothesis_k_scan(1, 2, 100, 0.5)
    with pytest.raises(ValueError):
        hypothesis_k_scan(2, 2, 100, 0.0)
