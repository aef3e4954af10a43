"""Aggregate-effect arithmetic and the multiplicative-field simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectaudit import (
    LogisticField,
    MultiplicativeField,
    aggregate_sd_log,
    logistic_total,
    multiplier_range,
    probability_swing,
)
from effectaudit.errors import InvalidShapeError
from effectaudit.finite_sample import MonteCarloEstimate, RunningMoments

HUNDRED_SMALL = MultiplicativeField(count=100, multiplier=1.13)

_SIM_BATCH = 65536


def simulate_multiplicative(
    field: MultiplicativeField, trials: int, seed: int
) -> MonteCarloEstimate:
    """Estimate the sd of the total log effect by simulation.

    Each trial activates effects independently and records the centered total
    log effect; the estimate's ``mean`` is the sample standard deviation of
    those totals.  Because the estimand is an sd rather than a mean,
    ``stderr`` is the normal-theory standard error of a sample standard
    deviation, sd / sqrt(2 (trials - 1)); totals are sums of independent
    activations, so the normal approximation is accurate for any
    non-trivial count.  Deterministic for a fixed seed.
    """
    if trials < 2:
        raise InvalidShapeError(f"need at least 2 trials, got {trials}")
    log_m = math.log(field.multiplier)
    center = field.count * field.activation_prob * log_m
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    moments = RunningMoments()
    done = 0
    while done < trials:
        m = min(_SIM_BATCH, trials - done)
        active = rng.binomial(field.count, field.activation_prob, size=m)
        moments.update(active * log_m - center)
        done += m
    sd = moments.std
    return MonteCarloEstimate(
        mean=sd,
        stderr=sd / math.sqrt(2.0 * (trials - 1)),
        trials=trials,
        seed=int(seed),
    )


def test_aggregate_fixture_values():
    # sqrt(100 * 0.25) * log 1.13 = 5 log 1.13
    assert aggregate_sd_log(HUNDRED_SMALL) == pytest.approx(5 * math.log(1.13), abs=0)
    assert aggregate_sd_log(HUNDRED_SMALL) == pytest.approx(0.6110881636212455, abs=1e-15)
    band = multiplier_range(HUNDRED_SMALL)
    assert band.high_multiplier == pytest.approx(1.8424351792999991, abs=1e-12)
    assert f"{band.sd_log:.3f}" == "0.611"
    assert f"{band.high_multiplier:.3g}" == "1.84"


def test_multiplier_band_reciprocal():
    rng_cases = [
        MultiplicativeField(10, 2.0),
        MultiplicativeField(1000, 1.01, activation_prob=0.2),
        MultiplicativeField(7, 0.5, activation_prob=0.9),
    ]
    for f in rng_cases:
        band = multiplier_range(f)
        assert band.low_multiplier * band.high_multiplier == pytest.approx(1.0, abs=1e-12)
        assert band.low_multiplier <= 1.0 <= band.high_multiplier


def test_neutral_multiplier_gives_zero_spread():
    f = MultiplicativeField(count=500, multiplier=1.0)
    assert aggregate_sd_log(f) == 0.0
    band = multiplier_range(f)
    assert band.low_multiplier == 1.0 and band.high_multiplier == 1.0


def test_inverse_multipliers_same_spread():
    # m and 1/m give identical sd of the log
    a = aggregate_sd_log(MultiplicativeField(30, 1.25))
    b = aggregate_sd_log(MultiplicativeField(30, 0.8))
    assert a == pytest.approx(b, abs=1e-15)


def test_field_validation():
    with pytest.raises(InvalidShapeError):
        MultiplicativeField(count=0, multiplier=1.1)
    with pytest.raises(InvalidShapeError):
        MultiplicativeField(count=5, multiplier=0.0)
    with pytest.raises(InvalidShapeError):
        MultiplicativeField(count=5, multiplier=-2.0)
    with pytest.raises(InvalidShapeError):
        MultiplicativeField(count=5, multiplier=1.1, activation_prob=1.0)
    with pytest.raises(InvalidShapeError):
        MultiplicativeField(count=5, multiplier=1.1, activation_prob=0.0)
    with pytest.raises(InvalidShapeError):
        LogisticField(count=0, per_effect_logit=0.5)


def test_simulation_matches_analytic_sd():
    est = simulate_multiplicative(HUNDRED_SMALL, trials=100_000, seed=31)
    truth = aggregate_sd_log(HUNDRED_SMALL)
    assert abs(est.mean - truth) < 3.0 * est.stderr
    assert abs(est.mean - truth) / truth < 0.01  # within 1% at this trial count
    assert est.trials == 100_000 and est.seed == 31


def test_simulation_skewed_activation():
    f = MultiplicativeField(count=40, multiplier=1.5, activation_prob=0.1)
    est = simulate_multiplicative(f, trials=80_000, seed=6)
    assert abs(est.mean - aggregate_sd_log(f)) < 4.0 * est.stderr


def test_simulation_seed_determinism():
    one = simulate_multiplicative(HUNDRED_SMALL, trials=50_000, seed=4)
    two = simulate_multiplicative(HUNDRED_SMALL, trials=50_000, seed=4)
    assert one == two  # frozen dataclass, bitwise-equal fields
    other = simulate_multiplicative(HUNDRED_SMALL, trials=50_000, seed=5)
    assert other.mean != one.mean
    assert abs(other.mean - one.mean) < 4.0 * math.hypot(one.stderr, other.stderr)


def test_simulation_argument_validation():
    with pytest.raises(InvalidShapeError):
        simulate_multiplicative(HUNDRED_SMALL, trials=1, seed=0)


def test_logistic_total_exact():
    assert logistic_total(LogisticField(count=20, per_effect_logit=0.5)) == 10.0
    assert logistic_total(LogisticField(count=3, per_effect_logit=-0.25)) == -0.75


def test_probability_swing_fixture():
    low, high = probability_swing(10.0)
    assert low == pytest.approx(0.006692850924284856, abs=1e-15)
    assert high == pytest.approx(0.9933071490757152, abs=1e-15)
    assert (round(low, 5), round(high, 5)) == (0.00669, 0.99331)


def test_probability_swing_zero():
    assert probability_swing(0.0) == (0.5, 0.5)


@given(t=st.floats(min_value=-60.0, max_value=60.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_probability_swing_properties(t):
    low, high = probability_swing(t)
    assert low + high == 1.0  # exact by construction
    assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
    swapped = probability_swing(-t)
    assert swapped == (high, low)  # exact swap under negation


@given(
    t1=st.floats(min_value=0.0, max_value=50.0),
    t2=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=100, deadline=None)
def test_probability_swing_monotone_in_total(t1, t2):
    lo, hi = sorted((t1, t2))
    assert probability_swing(lo)[1] <= probability_swing(hi)[1] + 1e-15
    assert probability_swing(lo)[0] >= probability_swing(hi)[0] - 1e-15


def test_models_reject_non_finite_and_overflowing_input():
    with pytest.raises(InvalidShapeError, match="finite"):
        MultiplicativeField(count=10, multiplier=math.inf)
    with pytest.raises(InvalidShapeError, match="overflows"):
        multiplier_range(MultiplicativeField(count=100_000, multiplier=1e300))
    with pytest.raises(InvalidShapeError, match="overflows"):
        LogisticField(count=3, per_effect_logit=1e308)
