"""Counting function, exponent fits, and concentration trials."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersidon import (
    PowerSet,
    RandomModel,
    UndefinedFitError,
    WidthOverflowError,
    concentration_trial,
    count_up_to,
    fit_density_exponent,
    geometric_grid,
    integer_kth_root,
    membership_probability,
)
from powersidon.randomsets import _unit_interval


def test_count_up_to_examples():
    squares = PowerSet(range(1, 11), 2)
    assert count_up_to(squares, 100) == 10
    assert count_up_to(squares, 0) == 0
    cubes = PowerSet([1, 9, 10, 12], 3)
    # boundary is inclusive: 1000 = 10**3 counts
    assert count_up_to(cubes, 1000) == 3
    assert count_up_to(cubes, 999) == 2
    with pytest.raises(ValueError):
        count_up_to(squares, -1)


@given(roots=st.sets(st.integers(1, 40), max_size=15), x=st.integers(0, 2000))
@settings(max_examples=60, deadline=None)
def test_count_up_to_naive_and_monotone(roots, x):
    A = PowerSet(sorted(roots), 2)
    naive = sum(1 for v in A.values if v <= x)
    assert count_up_to(A, x) == naive
    assert count_up_to(A, x) <= count_up_to(A, x + 100)


def test_geometric_grid_shape():
    grid = geometric_grid(100, 10**6)
    assert grid[0] == 100 and grid[-1] == 10**6
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert geometric_grid(50, 50) == [50]
    with pytest.raises(ValueError):
        geometric_grid(10, 5)


def test_fit_full_squares_exponent_half():
    A = PowerSet.all_powers(2, 10**6)
    fit = fit_density_exponent(A, geometric_grid(100, 10**6))
    assert abs(fit.exponent - 0.5) < 0.02
    assert not fit.dropped


def test_fit_full_cubes_exponent_third():
    A = PowerSet.all_powers(3, 10**7)
    fit = fit_density_exponent(A, geometric_grid(1000, 10**7))
    assert abs(fit.exponent - 1 / 3) < 0.02


def test_fit_constant_set_exponent_zero():
    single = PowerSet([3], 2)
    fit = fit_density_exponent(single, geometric_grid(10, 10**5))
    assert abs(fit.exponent) < 1e-9


def test_fit_drops_empty_points():
    A = PowerSet([100], 2)  # value 10000
    grid = geometric_grid(10, 10**6)
    fit = fit_density_exponent(A, grid)
    assert all(x < 10**4 for x in fit.dropped)
    assert all(c > 0 for _, c in fit.points)


def test_fit_errors():
    A = PowerSet([100], 2)
    with pytest.raises(UndefinedFitError):
        fit_density_exponent(A, [10, 20, 40])
    with pytest.raises(ValueError):
        fit_density_exponent(A, [10, 20])
    with pytest.raises(ValueError):
        fit_density_exponent(A, [10, 10, 20])


# --- concentration -----------------------------------------------------------


def test_concentration_deterministic_model():
    ones = RandomModel.from_table(2, [(m * m, 1.0) for m in range(1, 1001)], seed=0)
    report = concentration_trial(ones, 10**6, list(range(10)))
    assert report.expected == 1000.0
    assert all(row.count == 1000 for row in report.rows)
    assert report.violation_fraction == 0.0
    assert not report.flagged


def test_concentration_bound_equals_inverse_square():
    m = RandomModel.density_k(2, 0.1, seed=0)
    report = concentration_trial(m, 10**6, list(range(1, 26)))
    assert report.delta < 2
    rel = abs(report.chernoff_bound - report.inverse_square_bound) / report.inverse_square_bound
    assert rel < 1e-12
    assert report.inverse_square_bound == 2.0 / 10**12


def test_concentration_flagged_when_delta_large():
    sparse = RandomModel.from_table(2, [(1, 0.5), (4, 0.5)], seed=0)
    report = concentration_trial(sparse, 10**4, list(range(10)))
    assert report.flagged
    assert report.delta >= 2
    # with delta >= 2 the exponent switches to the delta/2 branch
    expected_bound = 2 * math.exp(-(report.delta / 2) * report.expected)
    assert report.chernoff_bound == pytest.approx(expected_bound, rel=1e-12)


def test_concentration_jobs_do_not_change_result():
    m = RandomModel.density_k(2, 0.1, seed=0)
    seq = concentration_trial(m, 10**5, list(range(1, 31)))
    par = concentration_trial(m, 10**5, list(range(1, 31)), jobs=4)
    assert seq == par


def test_concentration_argument_errors():
    m = RandomModel.density_k(2, 0.1, seed=0)
    with pytest.raises(ValueError, match="at least 10"):
        concentration_trial(m, 10**6, [1, 2, 3])
    with pytest.raises(ValueError, match=">= 2"):
        concentration_trial(m, 1, list(range(10)))
    empty = RandomModel.from_table(2, [(4, 0.0)], seed=0)
    with pytest.raises(ValueError, match="zero expected"):
        concentration_trial(empty, 100, list(range(10)))


def reference_counts(model, x, seeds):
    """A(x) per seed from the scalar loop that defines a draw, with
    PowerSet's width check."""
    k = model.k
    alphas = [membership_probability(model, m**k) for m in range(1, integer_kth_root(x, k) + 1)]
    counts = []
    for seed in seeds:
        roots = [m for m, a in enumerate(alphas, 1) if a > 0.0 and _unit_interval(seed, m**k) < a]
        counts.append(len(PowerSet(roots, k)))
    return counts


def trial_outcome(count, model, x, seeds):
    try:
        return count(model, x, seeds)
    except WidthOverflowError as exc:
        return f"WidthOverflowError: {exc}"


def trial_counts(model, x, seeds):
    return [row.count for row in concentration_trial(model, x, seeds).rows]


@st.composite
def trial_models(draw):
    k = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["density-k", "density-h", "table"]))
    if kind == "density-k":
        eps = draw(st.floats(0.0, 1 / k, exclude_min=True, exclude_max=True))
        return RandomModel.density_k(k, eps, 0)
    if kind == "density-h":
        h = draw(st.integers(k + 1, k + 4))
        eps = draw(st.floats(0.0, 1 / h, exclude_min=True, exclude_max=True))
        return RandomModel.density_h(k, h, eps, 0)
    roots = sorted({1} | draw(st.sets(st.integers(2, 8200), max_size=40)))
    # a positive alpha at 1 keeps the expected count above zero for every x
    others = st.lists(st.floats(0.0, 1.0), min_size=len(roots) - 1, max_size=len(roots) - 1)
    alphas = [draw(st.floats(0.01, 1.0))] + draw(others)
    return RandomModel.from_table(k, [(r**k, a) for r, a in zip(roots, alphas)], 0)


@given(
    model=trial_models(),
    r=st.one_of(st.sampled_from([2, 4095, 4096, 4097, 7131, 7132, 8193]), st.integers(2, 8200)),
    dx=st.integers(-1, 1),
    seeds=st.lists(
        st.one_of(
            st.sampled_from([0, -1, 2**64 - 1, 2**64, 2**64 + 3, -(2**65)]),
            st.integers(-(2**70), 2**70),
        ),
        min_size=10,
        max_size=12,
    ),
)
@settings(max_examples=30, deadline=None)
def test_concentration_counts_match_scalar_rule(model, r, dx, seeds):
    x = max(2, r**model.k + dx)
    assert trial_outcome(trial_counts, model, x, seeds) == trial_outcome(reference_counts, model, x, seeds)


def test_concentration_counts_across_and_beyond_64_bits():
    seeds = list(range(-5, 7))
    for model in (RandomModel.density_k(5, 0.15, 0), RandomModel.density_h(5, 6, 0.01, 0)):
        assert trial_counts(model, 2**63, seeds) == reference_counts(model, 2**63, seeds)
    # 7132**5 > 2**64 - 1 and alpha is about 0.64 there: some seed keeps it
    wide = RandomModel.density_k(5, 0.01, 0)
    assert trial_counts(wide, 2**64 - 1, seeds) == reference_counts(wide, 2**64 - 1, seeds)
    with pytest.raises(WidthOverflowError, match=r"\*\*5 exceeds"):
        reference_counts(wide, 7132**5, seeds)
    with pytest.raises(WidthOverflowError, match=r"\*\*5 exceeds"):
        concentration_trial(wide, 7132**5, seeds)
