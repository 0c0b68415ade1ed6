"""Random power-set models: sampling determinism, exact expectations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersidon import (
    FullPowers,
    PowerSet,
    RandomModel,
    UndefinedFitError,
    WidthOverflowError,
    count_representations,
    expectation_decay_fit,
    expected_count,
    expected_representation_count,
    geometric_grid,
    integer_kth_root,
    membership_probability,
    sample_set,
)
from powersidon import randomsets
from powersidon.randomsets import KINDS, _unit_interval


def ones_on_squares(limit_root, seed=0):
    return RandomModel.from_table(2, [(m * m, 1.0) for m in range(1, limit_root + 1)], seed)


# --- membership probabilities ----------------------------------------------


def test_membership_decay_value():
    m = RandomModel.density_k(2, 0.1, seed=1)
    assert membership_probability(m, 16) == pytest.approx(16**-0.1, rel=1e-12)
    assert membership_probability(m, 16) == pytest.approx(0.7579, abs=1e-4)


def test_membership_zero_off_powers():
    m = RandomModel.density_k(2, 0.1, seed=1)
    assert membership_probability(m, 3) == 0.0
    mh = RandomModel.density_h(3, 7, 0.05, seed=1)
    assert membership_probability(mh, 9) == 0.0  # not a cube


def test_membership_at_one():
    mh = RandomModel.density_h(2, 5, 0.05, seed=1)
    assert membership_probability(mh, 1) == 1.0


def test_table_membership_and_validation():
    t = RandomModel.from_table(2, [(1, 0.5), (4, 0.25)], seed=0)
    assert membership_probability(t, 4) == 0.25
    assert membership_probability(t, 9) == 0.0
    with pytest.raises(ValueError, match="not a 2-th power"):
        RandomModel.from_table(2, [(3, 0.5)], seed=0)
    with pytest.raises(ValueError, match="outside"):
        RandomModel.from_table(2, [(4, 1.5)], seed=0)
    with pytest.raises(ValueError, match="increasing"):
        RandomModel.from_table(2, [(4, 0.5), (4, 0.5)], seed=0)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        RandomModel.density_k(2, 0.5, seed=0)  # needs epsilon < 1/k
    with pytest.raises(ValueError):
        RandomModel.density_k(2, 0.0, seed=0)
    with pytest.raises(ValueError):
        RandomModel.density_h(2, 2, 0.05, seed=0)  # needs h > k
    with pytest.raises(ValueError):
        RandomModel.density_h(2, 5, 0.3, seed=0)  # needs epsilon < 1/h
    with pytest.raises(ValueError):
        RandomModel(kind="weird", k=2, seed=0)


# --- sampling --------------------------------------------------------------


def test_sample_determinism_and_extension():
    m = RandomModel.density_k(2, 0.1, seed=987654321)
    a = sample_set(m, 10**6)
    b = sample_set(m, 10**6)
    assert a == b
    wider = sample_set(m, 4 * 10**6)
    # decisions already made never change when the range is extended
    assert [r for r in wider.roots if r * r <= 10**6] == list(a.roots)


def test_sample_all_ones_and_all_zeros():
    assert sample_set(ones_on_squares(10), 100).roots == tuple(range(1, 11))
    zeros = RandomModel.from_table(2, [(m * m, 0.0) for m in range(1, 1001)], seed=3)
    assert len(sample_set(zeros, 10**6)) == 0


def test_sample_different_seeds_differ():
    a = sample_set(RandomModel.density_k(2, 0.1, seed=1), 10**6)
    b = sample_set(RandomModel.density_k(2, 0.1, seed=2), 10**6)
    assert a != b


def test_membership_indicators_uncorrelated_across_seeds():
    # empirical surrogate for independence of the per-integer draws
    values = [m * m for m in range(10, 20)]
    seeds = range(1, 1201)
    model = RandomModel.density_k(2, 0.1, seed=0)
    draws = np.array(
        [
            [_unit_interval(s, v) < membership_probability(model, v) for v in values]
            for s in seeds
        ],
        dtype=float,
    )
    corr = np.corrcoef(draws.T)
    off_diag = corr[np.triu_indices(len(values), k=1)]
    assert np.abs(off_diag).max() < 0.15


# --- expectations ----------------------------------------------------------


def test_expected_representation_count_known_value():
    m = RandomModel.density_k(2, 0.1, seed=1)
    # single strict representation 1 + 49
    assert expected_representation_count(m, 50, 2) == pytest.approx(49**-0.1, rel=1e-12)
    assert expected_representation_count(m, 3, 2) == 0.0


def test_expected_representation_reduces_to_count():
    ones = ones_on_squares(40)
    for n in (50, 325, 1105, 30):
        assert expected_representation_count(ones, n, 2) == count_representations(
            n, 2, FullPowers(2), "strict"
        )
        assert expected_representation_count(ones, n, 3) == count_representations(
            n, 3, FullPowers(2), "strict"
        )


def test_expected_count_table():
    ones = ones_on_squares(10)
    pair = expected_count(ones, 100)
    assert pair.exact == 10.0
    assert pair.closed_form is None


def test_expected_count_closed_forms():
    m = RandomModel.density_k(2, 0.1, seed=1)
    pair = expected_count(m, 10**6)
    assert pair.closed_form == pytest.approx(1.25 * 10 ** (6 * 0.4), rel=1e-12)
    assert abs(pair.exact - pair.closed_form) < 2.0
    mh = RandomModel.density_h(2, 5, 0.05, seed=1)
    pair_h = expected_count(mh, 10**5)
    assert pair_h.closed_form == pytest.approx((1 / 0.3) * 10 ** (5 * 0.15), rel=1e-12)
    assert abs(pair_h.exact - pair_h.closed_form) < 4.0


def test_expected_count_gap_stays_bounded():
    m = RandomModel.density_k(2, 0.2, seed=1)
    gaps = [abs(expected_count(m, 10**e).exact - expected_count(m, 10**e).closed_form)
            for e in range(3, 8)]
    assert max(gaps) < 2.0


def test_sampled_mean_matches_expectation():
    # mean of A(x) over seeds within 3 standard errors of the exact sum
    m = RandomModel.density_k(2, 0.1, seed=0)
    x = 10**4
    alphas = [membership_probability(m, r * r) for r in range(1, 101)]
    exact = expected_count(m, x).exact
    counts = [len(sample_set(RandomModel.density_k(2, 0.1, seed=s), x)) for s in range(1, 1001)]
    stderr = math.sqrt(sum(a * (1 - a) for a in alphas) / len(counts))
    assert abs(np.mean(counts) - exact) <= 3 * stderr


def test_sampled_count_equals_trial_successes():
    # A(x) of the sampled set equals the number of successful draws below x
    m = RandomModel.density_k(2, 0.15, seed=5)
    x = 40000
    drawn = sample_set(m, x)
    successes = [
        r
        for r in range(1, 201)
        if _unit_interval(m.seed, r * r) < membership_probability(m, r * r)
    ]
    assert list(drawn.roots) == successes


# --- decay fits -------------------------------------------------------------


def test_decay_fit_negative_slope_for_decaying_model():
    m = RandomModel.density_k(2, 0.2, seed=1)
    fit = expectation_decay_fit(m, 2, geometric_grid(1000, 10**5, 16))
    assert fit.slope < -0.05
    assert all(e > 0 for _, e in fit.points)


def test_decay_fit_positive_slope_for_all_ones():
    ones = ones_on_squares(1000)
    fit = expectation_decay_fit(ones, 2, geometric_grid(1000, 10**6, 6))
    assert fit.slope > 0


def test_decay_fit_errors():
    m = RandomModel.density_k(2, 0.2, seed=1)
    with pytest.raises(ValueError, match="at least 3"):
        expectation_decay_fit(m, 2, [1000])
    with pytest.raises(ValueError, match="increasing"):
        expectation_decay_fit(m, 2, [10, 10, 20])
    with pytest.raises(UndefinedFitError):
        # none of these targets is a sum of two distinct squares
        expectation_decay_fit(m, 2, [3, 7, 11])
    with pytest.raises(ValueError):
        expected_representation_count(m, 50, 1)


# --- the numpy path against the scalar rule -----------------------------------


def reference_sample(model, x_max):
    """The scalar loop that defines a draw, with PowerSet's width check."""
    k = model.k
    roots = []
    for m in range(1, integer_kth_root(x_max, k) + 1):
        alpha = membership_probability(model, m**k)
        if alpha > 0.0 and _unit_interval(model.seed, m**k) < alpha:
            roots.append(m)
    return PowerSet(roots, k)


def reference_expected(model, x):
    k = model.k
    return math.fsum(membership_probability(model, m**k) for m in range(1, integer_kth_root(x, k) + 1))


def outcome(draw, model, x_max):
    """The drawn roots, or the overflow error's message."""
    try:
        return draw(model, x_max).roots
    except WidthOverflowError as exc:
        return f"WidthOverflowError: {exc}"


# 4096 roots per block; 7131 is the last fifth power below 2**64
BOUNDARY_ROOTS = (1, 2, 4095, 4096, 4097, 7131, 7132, 8191, 8192, 8193)
SPECIAL_SEEDS = (0, -1, -(2**63), 2**64 - 1, 2**64, 2**64 + 12345, -(2**64) - 7, 2**100 + 3)
seeds = st.one_of(st.sampled_from(SPECIAL_SEEDS), st.integers(-(2**70), 2**70))


def below(hi):
    return st.floats(min_value=0.0, max_value=hi, exclude_min=True, exclude_max=True)


@st.composite
def models(draw):
    k = draw(st.integers(1, 5))
    seed = draw(seeds)
    kind = draw(st.sampled_from(KINDS))
    if kind == randomsets.DENSITY_K:
        return RandomModel.density_k(k, draw(below(1 / k)), seed)
    if kind == randomsets.DENSITY_H:
        h = draw(st.integers(k + 1, k + 4))
        return RandomModel.density_h(k, h, draw(below(1 / h)), seed)
    roots = sorted(draw(st.sets(st.integers(1, 9000), max_size=40)))
    alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=len(roots), max_size=len(roots)))
    return RandomModel.from_table(k, [(r**k, a) for r, a in zip(roots, alphas)], seed)


@st.composite
def models_and_ranges(draw):
    model = draw(models())
    r = draw(st.one_of(st.sampled_from(BOUNDARY_ROOTS), st.integers(1, 8200)))
    return model, max(1, r**model.k + draw(st.integers(-1, 1)))


@given(models_and_ranges())
@settings(max_examples=80, deadline=None)
def test_vector_path_matches_scalar_rule(case):
    model, x_max = case
    assert outcome(sample_set, model, x_max) == outcome(reference_sample, model, x_max)
    assert expected_count(model, x_max).exact == reference_expected(model, x_max)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_vector_path_at_block_edges(k):
    # epsilon near 0 keeps almost every root, so a root lost or repeated
    # at a block edge shows in the draw as well as in the expectation
    for model in (RandomModel.density_k(k, 1e-9, 1), RandomModel.density_h(k, k + 1, 0.01, -2)):
        for r in (4096, 4097, 7132, 8193):
            for x_max in (r**k - 1, r**k):
                assert outcome(sample_set, model, x_max) == outcome(reference_sample, model, x_max)
                assert expected_count(model, x_max).exact == reference_expected(model, x_max)


def test_vector_path_across_2_pow_53():
    # fifth powers pass 2**53 at root 1552 and 2**63 at root 6208
    for model in (
        RandomModel.density_k(5, 0.15, 9),
        RandomModel.density_h(5, 7, 0.1, -3),
        RandomModel.density_k(4, 0.2, 2**64 + 5),
    ):
        assert sample_set(model, 2**63) == reference_sample(model, 2**63)
        assert expected_count(model, 2**63).exact == reference_expected(model, 2**63)


def test_vector_path_beyond_64_bits():
    # 7132**5 > 2**64 - 1: a draw that keeps it fails like PowerSet does
    results = set()
    for seed in range(10):
        model = RandomModel.density_k(5, 0.01, seed)
        for x_max in (2**64 - 1, 2**64, 7132**5, 7140**5):
            got = outcome(sample_set, model, x_max)
            assert got == outcome(reference_sample, model, x_max)
            results.add(isinstance(got, str))
        assert expected_count(model, 7140**5).exact == reference_expected(model, 7140**5)
    assert results == {True, False}
    table = RandomModel.from_table(5, [(7000**5, 1.0), (7131**5, 0.5), (7132**5, 1.0)], 4)
    assert outcome(sample_set, table, 7131**5) == outcome(reference_sample, table, 7131**5)
    with pytest.raises(WidthOverflowError, match=r"7132\*\*5"):
        sample_set(table, 2**70)


def test_near_ties_are_decided_by_the_scalar_rule(monkeypatch):
    # choose epsilon so that v**-epsilon lands within two ulps of the draw u
    # of (seed, v); numpy's power may round to the other side of u there
    cases = []
    for seed in range(40):
        for m in (3, 10, 100):
            v = m * m
            u = _unit_interval(seed, v)
            if u <= 1 / m:
                continue  # would need epsilon >= 1/2
            eps = -math.log(u) / math.log(v)
            for _ in range(8):
                eps = math.nextafter(eps, 0.0)
            for _ in range(16):
                eps = math.nextafter(eps, 1.0)
                if abs(float(v) ** -eps - u) <= 2 * math.ulp(u):
                    cases.append((RandomModel.density_k(2, eps, seed), v))
    assert len(cases) > 100
    calls = []

    def counted(seed, n):
        calls.append(n)
        return _unit_interval(seed, n)

    monkeypatch.setattr(randomsets, "_unit_interval", counted)
    for model, v in cases:
        calls.clear()
        assert sample_set(model, v) == reference_sample(model, v)
        assert v in calls  # the tie went to the scalar rule
