"""Packing, sunflowers, B_h[g] verification, scans, and the greedy probe."""

import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersidon import (
    PowerSet,
    RandomModel,
    boundedness_scan,
    count_up_to,
    find_delta_system,
    greedy_bounded_subset,
    is_delta_system,
    max_disjoint_representations,
    representation_profile,
    sample_set,
    sidon_counting_bound,
    verify_bhg,
)
from powersidon.structure import SUNFLOWER_EXHAUSTIVE_LIMIT


# --- packing -----------------------------------------------------------------


def test_packing_325_all_disjoint():
    A = PowerSet.all_powers(2, 325)
    res = max_disjoint_representations(325, 2, A, "exact")
    assert res.f_value == 3
    assert res.witness == ((1, 18), (6, 17), (10, 15))
    assert res.exact and not res.capped


def test_packing_single_representation():
    A = PowerSet.all_powers(2, 50)
    res = max_disjoint_representations(50, 2, A, "exact")
    assert res.f_value == 1
    assert res.witness == ((1, 7),)


def test_packing_no_representations():
    A = PowerSet.all_powers(2, 100)
    res = max_disjoint_representations(3, 2, A, "exact")
    assert res.f_value == 0 and res.witness == ()


def test_packing_witness_is_disjoint_and_greedy_below_exact():
    A = PowerSet.all_powers(2, 2210)
    for n in (325, 1105, 2210, 50, 725):
        exact = max_disjoint_representations(n, 2, A, "exact")
        greedy = max_disjoint_representations(n, 2, A, "greedy")
        assert greedy.f_value <= exact.f_value
        for a, b in itertools.combinations(exact.witness, 2):
            assert not (set(a) & set(b))
        assert not greedy.exact


def test_packing_cap_falls_back_to_greedy():
    A = PowerSet.all_powers(2, 5525)
    res = max_disjoint_representations(5525, 2, A, "exact", cap=2)
    assert res.capped and not res.exact
    unlimited = max_disjoint_representations(5525, 2, A, "exact")
    assert res.f_value <= unlimited.f_value


def test_packing_three_parts():
    A = PowerSet.all_powers(2, 1000)
    prof = representation_profile((1, 1000), 3, A)
    for n in range(1, 1001):
        if prof.strict_count(n) >= 2:
            res = max_disjoint_representations(n, 3, A, "exact")
            assert 1 <= res.f_value <= prof.strict_count(n)


def test_packing_mode_validation():
    with pytest.raises(ValueError):
        max_disjoint_representations(10, 2, PowerSet.all_powers(2, 10), "fast")


# --- sunflowers ---------------------------------------------------------------


def test_sunflower_shared_core():
    fam = find_delta_system([{1, 2}, {1, 3}, {1, 4}], 3)
    assert fam.core == {1}
    assert set(fam.petals) == {frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})}


def test_sunflower_disjoint_family():
    fam = find_delta_system([{1, 2}, {3, 4}, {5, 6}], 3)
    assert fam.core == frozenset()
    assert len(fam.petals) == 3


def sunflower_exhaustive(sets, r):
    """Oracle: the first r sets, in combination order, forming a sunflower."""
    sets = [frozenset(s) for s in sets]
    for combo in itertools.combinations(sets, r):
        core = combo[0] & combo[1]
        if is_delta_system(core, combo):
            return combo
    return None


def test_sunflower_none_cases():
    triangle = [{1, 2}, {1, 3}, {2, 3}]
    assert sunflower_exhaustive(triangle, 3) is None
    assert find_delta_system(triangle, 3) is None
    assert find_delta_system([{1, 2}], 3) is None
    with pytest.raises(ValueError):
        find_delta_system([{1, 2}, {3, 4}, {5, 6}], 2)


def test_sunflower_requires_disjoint_beyond_greedy_choice():
    # a greedy maximal disjoint family here stalls at two sets, the
    # sunflower {1,4},{2,6},{3,7} is still found
    H = [{2, 3}, {1, 4}, {1, 5}, {2, 6}, {3, 7}]
    fam = find_delta_system(H, 3)
    assert fam is not None
    assert is_delta_system(fam.core, fam.petals)


def test_sunflower_matches_brute_force_on_random_collections():
    rng = random.Random(20260809)
    for trial in range(300):
        universe = list(range(1, rng.randint(5, 9)))
        size = rng.randint(3, 7)
        pool = [frozenset(c) for c in itertools.combinations(universe, 2)]
        pool += [frozenset(c) for c in itertools.combinations(universe, 3)]
        rng.shuffle(pool)
        sets = pool[:size]
        found = find_delta_system(sets, 3)
        expected = sunflower_exhaustive(sets, 3)
        if expected is None:
            assert found is None, sets
        else:
            assert found is not None, sets
            assert is_delta_system(found.core, found.petals)
            assert all(p in sets for p in found.petals)


def test_sunflower_none_agrees_with_oracle_up_to_limit():
    # r = 4, 5 on up to SUNFLOWER_EXHAUSTIVE_LIMIT sets: about half the
    # collections have no sunflower, so None answers are checked too
    rng = random.Random(5)
    nones = 0
    for trial in range(150):
        r = rng.choice((4, 5))
        universe = range(1, rng.randint(6, 10))
        pool = [frozenset(c) for c in itertools.combinations(universe, 2)]
        pool += [frozenset(c) for c in itertools.combinations(universe, 3)]
        sets = rng.sample(pool, rng.randint(8, SUNFLOWER_EXHAUSTIVE_LIMIT))
        expected = sunflower_exhaustive(sets, r)
        found = find_delta_system(sets, r)
        assert (found is None) == (expected is None), (r, sets)
        nones += found is None
    assert 30 <= nones <= 120


def test_nine_two_sets_always_contain_three_sunflower():
    # threshold (r-1)^s * s! = 8 for 2-element sets and r = 3, so any 9
    # distinct 2-sets must contain a 3-sunflower
    rng = random.Random(7)
    pool = [frozenset(c) for c in itertools.combinations(range(1, 13), 2)]
    for _ in range(200):
        sets = rng.sample(pool, 9)
        fam = find_delta_system(sets, 3)
        assert fam is not None
        assert is_delta_system(fam.core, fam.petals)
        assert len(fam.petals) == 3


def test_is_delta_system_validator():
    assert is_delta_system(frozenset({1}), [frozenset({1, 2}), frozenset({1, 3})])
    assert not is_delta_system(frozenset(), [frozenset({1, 2}), frozenset({1, 3})])
    assert not is_delta_system(frozenset({1}), [frozenset({1, 2}), frozenset({1, 2})])


# --- B_h[g] verification -------------------------------------------------------


def test_verify_cubes_taxicab_violation():
    cubes = PowerSet.all_powers(3, 4096)  # roots up to 16
    violation = verify_bhg(cubes, 2, 1, 5000)
    assert violation == (1729, 2)


def test_verify_small_and_empty_sets_pass():
    assert verify_bhg(PowerSet([1, 2], 7), 2, 1, 10**5) is None
    assert verify_bhg(PowerSet((), 2), 2, 1, 1000) is None
    assert verify_bhg(PowerSet([1, 2], 2), 2, 1, 0) is None


def test_verify_squares_fail_high_g_pass():
    squares = PowerSet.all_powers(2, 100)
    violation = verify_bhg(squares, 2, 1, 100)
    assert violation == (50, 2)
    assert verify_bhg(squares, 2, 3, 200) is None


def test_verify_validation():
    A = PowerSet.all_powers(2, 10)
    with pytest.raises(ValueError):
        verify_bhg(A, 1, 1, 100)
    with pytest.raises(ValueError):
        verify_bhg(A, 2, 0, 100)


# --- counting bound ------------------------------------------------------------


def test_counting_bound_values():
    assert sidon_counting_bound(2, 1, 100) == pytest.approx(21.0, rel=1e-12)
    assert sidon_counting_bound(2, 1, 1) == pytest.approx(3.0, rel=1e-12)
    assert sidon_counting_bound(3, 2, 1000) == pytest.approx(36000 ** (1 / 3) + 2, rel=1e-12)


@given(
    roots=st.sets(st.integers(1, 30), min_size=1, max_size=12),
    g=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_verified_sets_respect_counting_bound(roots, g):
    # whenever the verifier passes up to 2*x, the counting bound holds at x
    A = PowerSet(sorted(roots), 2)
    n_max = 2 * 900
    if verify_bhg(A, 2, g, n_max) is None:
        for x in (10, 100, 300, 900):
            assert count_up_to(A, x) <= sidon_counting_bound(2, g, x)


# --- boundedness scan -----------------------------------------------------------


def test_scan_empty_set():
    report = boundedness_scan(PowerSet((), 2), 2, 1000, 2)
    assert report.max_r_by_window == (0, 0)
    assert report.all_bounds_ok


def test_scan_window_maxima_match_profile():
    A = PowerSet.all_powers(2, 10**4)
    report = boundedness_scan(A, 2, 10**4, 2)
    prof = representation_profile((1, 10**4), 2, A)
    for w in report.windows:
        assert w.max_r == int(prof.strict_block(w.lo, w.hi).max())
        assert w.max_r <= max(w.max_f) ** 2 * factorial(2)


def test_scan_three_parts_cross_check():
    A = PowerSet.all_powers(2, 3000)
    report = boundedness_scan(A, 3, 3000, 3)
    for w in report.windows:
        bound = max(w.max_f) ** 3 * factorial(3)
        assert w.max_r <= bound
        assert len(w.max_f) == 2  # l = 2 and l = 3


def test_scan_sampled_set_bounds_hold():
    A = sample_set(RandomModel.density_k(2, 0.1, seed=11), 10**5)
    report = boundedness_scan(A, 2, 10**5, 4)
    assert report.all_bounds_ok
    assert len(report.windows) == 4


def test_scan_jobs_parity():
    A = PowerSet.all_powers(2, 4000)
    assert boundedness_scan(A, 2, 4000, 4) == boundedness_scan(A, 2, 4000, 4, jobs=3)


def test_scan_validation():
    A = PowerSet.all_powers(2, 100)
    with pytest.raises(ValueError):
        boundedness_scan(A, 2, 1000, 1)
    with pytest.raises(ValueError):
        boundedness_scan(A, 1, 1000, 2)


# --- greedy probe ----------------------------------------------------------------


def test_greedy_golden_prefix():
    # hand-checked: root 7 collides at 50 = 25 + 25 = 49 + 1, root 11 at
    # 125 = 100 + 25 = 121 + 4, root 12 at 145, root 14 at 200, root 15 at
    # 250, root 18 at 325, root 19 at 370, root 20 at 425
    res = greedy_bounded_subset(2, 2, 1, 400)
    assert res.power_set.roots == (1, 2, 3, 4, 5, 6, 8, 9, 10, 13, 16, 17)
    rejected = [root for root, ok in res.decisions if not ok]
    assert rejected == [7, 11, 12, 14, 15, 18, 19, 20]


def test_greedy_incremental_matches_full_rescan():
    res = greedy_bounded_subset(2, 2, 1, 400, full_rescan=True)
    assert res.power_set.roots == (1, 2, 3, 4, 5, 6, 8, 9, 10, 13, 16, 17)
    res3 = greedy_bounded_subset(2, 3, 2, 150, full_rescan=True)
    assert len(res3.power_set) > 0


def test_greedy_output_passes_verifier():
    for k, h, g, x_max in [(2, 2, 1, 400), (2, 2, 1, 2000), (3, 2, 1, 3000), (2, 3, 1, 300)]:
        res = greedy_bounded_subset(k, h, g, x_max)
        assert verify_bhg(res.power_set, h, g, h * x_max) is None, (k, h, g, x_max)


def test_greedy_unconstrained_accepts_everything():
    res = greedy_bounded_subset(2, 2, 10**9, 400)
    assert res.power_set.roots == tuple(range(1, 21))


def test_greedy_empty_range():
    res = greedy_bounded_subset(2, 2, 1, 0)
    assert len(res.power_set) == 0
    assert res.density_exponent is None
    assert res.decisions == ()


def test_greedy_reports_density_exponent():
    res = greedy_bounded_subset(2, 2, 1, 10**4)
    assert res.density_exponent is not None
    assert 0.2 < res.density_exponent < 0.6
