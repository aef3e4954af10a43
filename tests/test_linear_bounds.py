"""Correlation-sum, spectral, and regression-norm feasibility bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from effectaudit import (
    ClaimSet,
    SecondMomentMatrix,
    SymMatrix,
    claims_cross_mass,
    eigen_bound_check,
    equicorrelation,
    fit_least_squares,
    min_cross_mass,
    multi_outcome_degenerate,
    multi_outcome_min_mass,
    tightness_instance,
    vdc_check,
)
from effectaudit.errors import (
    DimensionMismatchError,
    EntryOutOfRangeError,
    InvalidShapeError,
    TauOutOfRangeError,
)
from effectaudit.linear_bounds import BoundKind

from test_matrix_core import random_correlation


def _as_corr(a):
    from effectaudit import validate_correlation

    return validate_correlation(SymMatrix.symmetrized(a))


def test_vdc_equality_at_independent_quarter():
    # four claims of 0.5 with identity cross: lhs = 2 = sqrt(4) = rhs
    r = vdc_check(np.full(4, 0.5), equicorrelation(4, 0.0))
    assert r.kind is BoundKind.VDC
    assert r.lhs == pytest.approx(2.0, abs=1e-12)
    assert r.rhs == pytest.approx(2.0, abs=1e-12)
    assert r.satisfied and r.slack == pytest.approx(0.0, abs=1e-12)


def test_vdc_violation_two_strong_claims():
    # (0.9, 0.9) against identity: lhs 1.8 > sqrt(2)
    r = vdc_check(np.array([0.9, 0.9]), equicorrelation(2, 0.0))
    assert r.rhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert not r.satisfied
    assert r.slack < 0


def test_vdc_and_eigen_sign_flip_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = int(rng.integers(2, 8))
        cross = _as_corr(random_correlation(rng, p))
        c = rng.uniform(-1, 1, size=p)
        flipped = c * rng.choice([-1.0, 1.0], size=p)
        a, b = vdc_check(c, cross), vdc_check(flipped, cross)
        assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
        assert a.rhs == b.rhs
        ea_, eb = eigen_bound_check(c, cross), eigen_bound_check(flipped, cross)
        assert ea_.lhs == pytest.approx(eb.lhs, abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        vdc_check(np.full(3, 0.5), equicorrelation(4, 0.0))
    with pytest.raises(EntryOutOfRangeError):
        vdc_check(np.array([1.5]), equicorrelation(1, 0.0))


def test_min_cross_mass_values():
    # p=100, tau=0.2: 100 (0.04 * 100 - 1) = 300
    assert min_cross_mass(100, 0.2) == pytest.approx(300.0, abs=1e-9)
    # p=10, tau=0.1: vacuous, 10 (0.1 - 1) = -9
    assert min_cross_mass(10, 0.1) == pytest.approx(-9.0, abs=1e-9)


def test_claims_cross_mass_uses_every_claim():
    assert claims_cross_mass(np.array([0.2] + [0.6] * 9)) == pytest.approx(21.36, abs=1e-12)
    assert claims_cross_mass(np.array([1.0, 0.1])) == pytest.approx(1.21 - 2, abs=1e-15)
    for bad in ([0.5, 1.5], [-0.1, 0.5], [math.nan, 0.5]):
        with pytest.raises(TauOutOfRangeError):
            claims_cross_mass(np.array(bad))


@pytest.mark.parametrize("p,tau", [(1, 0.0), (4, 0.3), (12, 0.3), (10, 0.1), (7, 1 / 3), (1000, 0.7)])
def test_claims_cross_mass_of_equal_claims_is_min_cross_mass_bit_for_bit(p, tau):
    assert claims_cross_mass(np.full(p, tau)) == min_cross_mass(p, tau)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_claims_cross_mass_is_never_below_the_weakest_claims(tau):
    t = np.array(tau)
    bound = min_cross_mass(t.size, float(t.min()))
    assert claims_cross_mass(t) >= bound - 1e-12 * max(1.0, abs(bound))


def test_min_cross_mass_zero_at_quarter_point():
    # tau = 1/sqrt(p) gives exactly zero in real arithmetic
    for p in (2, 3, 10, 100, 9973, 10**6):
        assert abs(min_cross_mass(p, 1.0 / math.sqrt(p))) <= 1e-6


def test_multi_outcome_min_mass():
    # p=10, tau=0.5, eps=0.005: threshold 0.4, mass 10(1.6 - 1) = 6
    assert multi_outcome_min_mass(10, 0.5, 0.005) == pytest.approx(6.0, abs=1e-9)
    assert not multi_outcome_degenerate(0.5, 0.005)
    # tau below sqrt(2 eps): degenerate
    assert multi_outcome_degenerate(0.1, 0.02)
    # eps = 0 reduces to the single-outcome mass
    assert multi_outcome_min_mass(7, 0.4, 0.0) == pytest.approx(min_cross_mass(7, 0.4), abs=1e-12)


def test_eigen_bound_tightness_instance_equality():
    # equicorrelated construction at p=50, tau=0.3: both sides 1 + 49 * 0.09 = 5.41
    inst = tightness_instance(50, 0.3)
    corr_xy = np.full(50, inst.implied_corr)
    r = eigen_bound_check(corr_xy, equicorrelation(inst.p, inst.tau**2))
    assert r.lhs == pytest.approx(5.41, abs=1e-9)
    assert r.rhs == pytest.approx(5.41, abs=1e-9)
    assert r.satisfied


def test_fit_least_squares_identity():
    m = SecondMomentMatrix(SymMatrix(np.eye(3)))
    fit = fit_least_squares(m, np.array([0.5, -0.25, 0.0]))
    assert np.allclose(fit.beta, [0.5, -0.25, 0.0], atol=1e-12)
    assert fit.bound == pytest.approx(1.0)
    assert fit.norm_sq <= fit.bound + 1e-9


def test_fit_least_squares_residual_and_bound():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = int(rng.integers(1, 10))
        n = 50 + p
        data = rng.standard_normal((n, p + 1))
        cols = data - data.mean(axis=0)
        cols /= np.linalg.norm(cols, axis=0)
        x, y = cols[:, :p], cols[:, p]
        gram = x.T @ x
        c = x.T @ y
        m = SecondMomentMatrix(SymMatrix.symmetrized(gram))
        fit = fit_least_squares(m, c)
        # solves the normal equations
        assert np.abs(m.entries @ fit.beta - c).max() <= 1e-9 * max(1.0, np.linalg.norm(c))
        # norm bound holds for correlations of a unit-variance response
        assert fit.norm_sq <= fit.bound + 1e-9


def test_fit_least_squares_singular_gives_infinite_bound():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    m = SecondMomentMatrix(SymMatrix(a))
    fit = fit_least_squares(m, np.array([0.5, 0.5]))
    assert fit.bound == math.inf
    assert np.abs(a @ fit.beta - np.array([0.5, 0.5])).max() <= 1e-9


def test_fit_least_squares_zero_matrix_gives_zero_beta():
    fit = fit_least_squares(SecondMomentMatrix(SymMatrix(np.zeros((2, 2)))), np.array([0.5, 0.5]))
    assert fit.bound == math.inf and fit.beta.tolist() == [0.0, 0.0]


def test_tightness_instance_formula_and_limits():
    # implied_corr must match the closed form; oracle is the simplified
    # algebraic equivalent sqrt((1 + (p-1) tau^2) / p)
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = int(rng.integers(1, 5000))
        tau = float(rng.uniform(0.0, 1.0))
        inst = tightness_instance(p, tau)
        direct = (1 + (p - 1) * tau**2) / math.sqrt(p + p * (p - 1) * tau**2)
        oracle = math.sqrt((1 + (p - 1) * tau**2) / p)
        assert inst.implied_corr == pytest.approx(direct, abs=1e-12)
        assert inst.implied_corr == pytest.approx(oracle, abs=1e-12)
        assert 0.0 <= inst.implied_corr <= 1.0


def test_tightness_instance_edge_cases():
    assert tightness_instance(1, 0.42).implied_corr == pytest.approx(1.0, abs=1e-12)
    assert tightness_instance(2, 1.0).implied_corr == pytest.approx(1.0, abs=1e-12)


def test_tightness_approaches_tau_from_above():
    for tau in (0.1, 0.3, 0.7):
        prev = None
        for p in (2, 5, 20, 100, 1000, 10000):
            ic = tightness_instance(p, tau).implied_corr
            assert ic >= tau
            assert ic - tau <= 1.0 / (tau * p)
            if prev is not None:
                assert ic <= prev
            prev = ic


def test_tightness_sigma_is_lazy_and_valid():
    inst = tightness_instance(6, 0.5)
    # seven scalars, no p x p matrix
    assert [type(v) for v in vars(inst).values()] == [int] + [float] * 6
    sig = equicorrelation(inst.p, inst.tau**2)
    assert sig.entries[0, 1] == 0.25
    assert np.linalg.eigvalsh(sig.entries)[0] >= -1e-12
    assert np.linalg.eigvalsh(sig.entries)[-1] == pytest.approx(inst.lambda_max, abs=1e-12)


def test_vdc_tight_on_construction_for_large_p():
    # the construction drives sum |corr| to the bound as p grows
    inst = tightness_instance(400, 0.3)
    r = vdc_check(np.full(inst.p, inst.implied_corr), equicorrelation(inst.p, inst.tau**2))
    assert r.satisfied
    assert r.slack == pytest.approx(0.0, abs=1e-6)


def test_claim_set_validation():
    with pytest.raises(EntryOutOfRangeError):
        ClaimSet(tau=np.array([0.5, 1.2]))
    with pytest.raises(DimensionMismatchError):
        ClaimSet(tau=np.array([0.5, 0.5]), cross=equicorrelation(3, 0.0))
    cs = ClaimSet(tau=np.array([0.3, 0.4]))
    assert cs.p == 2


def test_claim_set_rejects_nan_tau_at_its_own_index():
    with pytest.raises(EntryOutOfRangeError, match=r"tau\[1\] = nan outside \[0, 1\]"):
        ClaimSet(tau=np.array([0.3, np.nan, 0.2]))


@pytest.mark.parametrize("check", [vdc_check, eigen_bound_check])
@pytest.mark.parametrize("value,shown", [(math.nan, "nan"), (1.5, "1.5"), (-math.inf, "-inf")])
def test_corr_vector_names_the_bad_entry_and_its_range(check, value, shown):
    # NaN fails every comparison, so it must not slip through to lhs = nan
    with pytest.raises(EntryOutOfRangeError, match=rf"^corr_xy\[1\] = {shown} outside \[-1, 1\]$"):
        check(np.array([0.5, value]), equicorrelation(2, 0.0))


# eps is one minus a correlation; past 2 it is no such thing, and at 1e308
# sqrt(2 eps) overflows to inf
EPS_OUTSIDE = [(-0.1, "-0.1"), (math.nan, "nan"), (2.0000000000000004, "2.0000000000000004"),
               (1e308, "1e+308"), (math.inf, "inf"), (-math.inf, "-inf")]
EPS_MESSAGE = re.escape("eps must be finite and in [0, 2], got ")


@pytest.mark.parametrize("eps,shown", EPS_OUTSIDE)
def test_multi_outcome_min_mass_names_eps(eps, shown):
    with pytest.raises(InvalidShapeError, match=rf"^{EPS_MESSAGE}{re.escape(shown)}$"):
        multi_outcome_min_mass(3, 0.5, eps)


@pytest.mark.parametrize("eps,shown", EPS_OUTSIDE)
def test_multi_outcome_degenerate_names_eps(eps, shown):
    # it used to answer True at eps = 1e308 and inf, and False at nan
    with pytest.raises(InvalidShapeError, match=rf"^{EPS_MESSAGE}{re.escape(shown)}$"):
        multi_outcome_degenerate(0.5, eps)
