"""Sample correlations, the Gram-route SVD, and sphere-average simulation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from effectaudit import (
    RunningMoments,
    SampleMatrix,
    chisq_mixture_compare,
    expected_sum_sq,
    expected_sum_sq_mc,
    random_sample_matrix,
    sample_corr,
    sample_sphere,
    standardize,
    sum_sq_corr,
    svd,
)
from effectaudit.finite_sample import (
    _direct_sum_sq_batches,
    _gram_route,
    _law_sum_sq_batches,
)
from effectaudit.errors import (
    ConstantVectorError,
    DimensionMismatchError,
    InvalidShapeError,
    NotStandardizedError,
)


def test_standardize_small_fixture():
    s = standardize(np.array([1.0, 2.0, 3.0]))
    root2 = math.sqrt(2.0)
    np.testing.assert_allclose(s.values, [-1 / root2, 0.0, 1 / root2], atol=1e-15)
    assert abs(float(s.values.sum())) < 1e-15
    assert abs(float(np.linalg.norm(s.values)) - 1.0) < 1e-15


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(40)
    once = standardize(v).values
    twice = standardize(once).values
    np.testing.assert_allclose(twice, once, atol=1e-15)


def test_standardize_rejects_constant_and_bad_shape():
    with pytest.raises(ConstantVectorError):
        standardize(np.full(10, 3.7))
    with pytest.raises(ConstantVectorError):
        standardize(np.zeros(5))
    with pytest.raises(ConstantVectorError):
        standardize(np.full(8, 1.0) + 1e-16 * np.arange(8.0))
    with pytest.raises(InvalidShapeError):
        standardize(np.ones((3, 3)))
    with pytest.raises(InvalidShapeError):
        standardize(np.array([1.0]))


def test_sample_corr_fixture():
    assert sample_corr(np.array([1.0, 2, 3]), np.array([1.0, 2, 4])) == pytest.approx(
        0.9819805060619655, abs=1e-15
    )


def test_sample_corr_against_direct_formula():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        xc = x - x.mean()
        yc = y - y.mean()
        oracle = float(xc @ yc / (np.linalg.norm(xc) * np.linalg.norm(yc)))
        assert sample_corr(x, y) == pytest.approx(oracle, abs=1e-12)
        assert -1.0 - 1e-12 <= sample_corr(x, y) <= 1.0 + 1e-12


@given(
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=-50.0, max_value=50.0),
    flip=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sample_corr_affine_invariance(a, b, flip, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    base = sample_corr(x, y)
    scale = -a if flip else a
    assert sample_corr(scale * x + b, y) == pytest.approx(
        -base if flip else base, abs=1e-10
    )


def test_sample_corr_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        sample_corr(np.arange(4.0), np.arange(5.0))


def test_sample_matrix_validation():
    with pytest.raises(InvalidShapeError):
        SampleMatrix(np.zeros(5))
    with pytest.raises(InvalidShapeError):
        SampleMatrix(np.eye(4))  # n == p
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((10, 3))
    with pytest.raises(NotStandardizedError):
        SampleMatrix(raw)
    shifted = random_sample_matrix(10, 3, rng).entries + 0.2
    with pytest.raises(NotStandardizedError):
        SampleMatrix(shifted)
    scaled = random_sample_matrix(10, 3, rng).entries * 1.5
    with pytest.raises(NotStandardizedError):
        SampleMatrix(scaled)
    m = SampleMatrix.from_raw(raw)
    assert (m.n, m.p) == (10, 3)
    assert not m.entries.flags.writeable


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(4, 40))
        p = int(rng.integers(1, min(n, 9)))
        x = random_sample_matrix(n, p, rng)
        f = svd(x)
        u, s, v = f.left_vectors, f.singular_values, f.right_vectors
        assert np.all(np.diff(s) <= 1e-15)  # descending
        recon = (u * s) @ v.T
        assert np.max(np.abs(recon - x.entries)) < 1e-9
        assert np.max(np.abs(u.T @ u - np.eye(p))) < 1e-9
        assert np.max(np.abs(v.T @ v - np.eye(p))) < 1e-9
        # standardized columns force trace(X^T X) = p
        assert float(np.sum(s**2)) == pytest.approx(p, abs=1e-8)


def test_svd_left_vectors_are_standardized():
    # every left vector, padded ones included, is itself a standardized column
    rng = np.random.default_rng(11)
    x = random_sample_matrix(25, 6, rng)
    u = svd(x).left_vectors
    for k in range(u.shape[1]):
        assert abs(float(u[:, k].mean())) < 1e-10
        assert abs(float(np.linalg.norm(u[:, k])) - 1.0) < 1e-10


def test_svd_duplicated_column_reports_exact_zero():
    rng = np.random.default_rng(3)
    col = standardize(rng.standard_normal(12)).values
    x = SampleMatrix(np.column_stack([col, col]))
    f = svd(x)
    np.testing.assert_allclose(f.singular_values, [math.sqrt(2.0), 0.0], atol=1e-12)
    assert f.singular_values[1] == 0.0
    u = f.left_vectors
    assert np.max(np.abs(u.T @ u - np.eye(2))) < 1e-9


def test_sum_sq_corr_dual_route_and_spectral_cap():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(5, 30))
        p = int(rng.integers(1, min(n, 7)))
        x = random_sample_matrix(n, p, rng)
        y = rng.standard_normal(n)
        direct = sum(sample_corr(x.entries[:, j], y) ** 2 for j in range(p))
        assert sum_sq_corr(x, y) == pytest.approx(direct, abs=1e-10)
        assert sum_sq_corr(x, y) <= svd(x).sigma1_sq + 1e-9


def test_sum_sq_corr_attained_at_top_left_vector():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = random_sample_matrix(int(rng.integers(8, 30)), 5, rng)
        f = svd(x)
        attained = sum_sq_corr(x, f.left_vectors[:, 0])
        assert attained == pytest.approx(f.sigma1_sq, abs=1e-9)


def test_sum_sq_corr_spectral_identity_many_pairs():
    # sum_i corr(X_i, y)^2 == sum_k sigma_k^2 (U_k . y*)^2, 10000 random pairs
    rng = np.random.default_rng(29)
    for _ in range(10_000):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(1, min(n, 7)))
        x = random_sample_matrix(n, p, rng)
        y = standardize(rng.standard_normal(n)).values
        f = svd(x)
        proj = f.left_vectors.T @ y
        via_svd = float(np.sum(f.singular_values**2 * proj**2))
        assert sum_sq_corr(x, y) == pytest.approx(via_svd, abs=1e-9)


def test_sum_sq_corr_length_mismatch():
    rng = np.random.default_rng(2)
    x = random_sample_matrix(8, 2, rng)
    with pytest.raises(DimensionMismatchError):
        sum_sq_corr(x, np.arange(9.0))


def test_sample_sphere_norm_and_symmetry():
    rng = np.random.default_rng(41)
    trials, n = 2000, 8
    coord_mean = RunningMoments()
    for _ in range(trials):
        v = rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12
        coord_mean.update(v)
    # each coordinate has mean 0 and variance 1/n; 4-sigma CLT band
    assert abs(coord_mean.mean) < 4.0 * math.sqrt(1.0 / (n * trials))
    got = sample_sphere(n, np.random.default_rng(41))
    assert abs(float(np.linalg.norm(got)) - 1.0) < 1e-12
    with pytest.raises(InvalidShapeError):
        sample_sphere(1, rng)


def test_running_moments_matches_numpy():
    rng = np.random.default_rng(55)
    data = rng.standard_normal(10_001) * 3.0 + 2.0
    m = RunningMoments()
    for chunk in np.array_split(data, 13):
        m.update(chunk)
    assert m.count == data.size
    assert m.mean == pytest.approx(float(data.mean()), rel=1e-12)
    assert m.std == pytest.approx(float(data.std(ddof=1)), rel=1e-12)
    assert m.stderr == pytest.approx(float(data.std(ddof=1)) / math.sqrt(data.size), rel=1e-12)


def test_running_moments_merge_equals_single_pass():
    rng = np.random.default_rng(56)
    data = rng.standard_normal(5000)
    whole = RunningMoments()
    whole.update(data)
    a, b = RunningMoments(), RunningMoments()
    a.update(data[:1234])
    b.update(data[1234:])
    a.merge(b)
    assert a.count == whole.count
    assert a.mean == pytest.approx(whole.mean, rel=1e-13)
    assert a.variance == pytest.approx(whole.variance, rel=1e-12)


def test_expected_sum_sq_formula():
    assert expected_sum_sq(11, 5) == pytest.approx(0.5, abs=0)
    assert expected_sum_sq(201, 20) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(InvalidShapeError):
        expected_sum_sq(5, 5)
    with pytest.raises(InvalidShapeError):
        expected_sum_sq(5, 0)


def test_mc_minimal_case_matches_exact_average():
    # n=3, p=1: every standardized response has corr^2 exactly ... varying,
    # but the sphere average is p/(n-1) = 0.5
    rng = np.random.default_rng(8)
    x = random_sample_matrix(3, 1, rng)
    est = expected_sum_sq_mc(x, trials=20_000, seed=101)
    assert abs(est.mean - 0.5) < 3.0 * est.stderr
    assert est.trials == 20_000 and est.seed == 101


MC_GRID = [(11, 5, 202), (50, 10, 203), (101, 20, 204)]


@pytest.mark.parametrize("n,p,seed", MC_GRID)
def test_mc_grid_matches_analytic_average(n, p, seed):
    rng = np.random.default_rng(seed)
    x = random_sample_matrix(n, p, rng)
    est = expected_sum_sq_mc(x, trials=100_000, seed=seed)
    z = abs(est.mean - expected_sum_sq(n, p)) / est.stderr
    if z > 3.0:
        pytest.fail(f"MC mean {est.mean} is {z:.1f} sigma from {expected_sum_sq(n, p)}")
    # sanity band on the spread itself: variance of the chi-square mixture is
    # O(p / (n-1)^2), so the sample variance must stay within a factor ~10
    var_hat = (est.stderr**2) * est.trials
    assert var_hat <= 10.0 * (p / (n - 1)) ** 2 * (2.0 / p) + 1e-12


def test_mc_shard_determinism_and_agreement():
    rng = np.random.default_rng(77)
    x = random_sample_matrix(40, 6, rng)
    one = expected_sum_sq_mc(x, trials=30_000, seed=9, shards=3)
    two = expected_sum_sq_mc(x, trials=30_000, seed=9, shards=3)
    assert one.mean == two.mean and one.stderr == two.stderr  # bit-identical
    other = expected_sum_sq_mc(x, trials=30_000, seed=9, shards=5)
    assert other.mean != one.mean  # different substreams
    sigma = math.hypot(one.stderr, other.stderr)
    assert abs(one.mean - other.mean) < 4.0 * sigma
    truth = expected_sum_sq(40, 6)
    assert abs(one.mean - truth) < 4.0 * one.stderr
    assert abs(other.mean - truth) < 4.0 * other.stderr


def test_mc_argument_validation():
    rng = np.random.default_rng(1)
    x = random_sample_matrix(6, 2, rng)
    with pytest.raises(InvalidShapeError):
        expected_sum_sq_mc(x, trials=1, seed=0)
    with pytest.raises(InvalidShapeError):
        expected_sum_sq_mc(x, trials=100, seed=0, shards=0)
    with pytest.raises(InvalidShapeError):
        expected_sum_sq_mc(x, trials=100, seed=0, shards=101)


def test_chisq_mixture_compare_deterministic_and_small():
    rng = np.random.default_rng(90)
    x = random_sample_matrix(200, 5, rng)
    d1 = chisq_mixture_compare(x, trials=4000, seed=12)
    d2 = chisq_mixture_compare(x, trials=4000, seed=12)
    assert d1 == d2
    assert 0.0 <= d1 < 0.05  # large-n regime: the mixture is a close fit
    with pytest.raises(InvalidShapeError):
        chisq_mixture_compare(x, trials=10, seed=0)


def _duplicated_column_design(n: int, rng: np.random.Generator) -> SampleMatrix:
    cols = [standardize(rng.standard_normal(n)).values for _ in range(2)]
    return SampleMatrix(np.column_stack([cols[0], cols[1], cols[0]]))


SAMPLER_DESIGNS = [
    ("n11_p5", lambda rng: random_sample_matrix(11, 5, rng)),
    ("n7_p6_full", lambda rng: random_sample_matrix(7, 6, rng)),  # n - 1 = p
    ("n40_p3", lambda rng: random_sample_matrix(40, 3, rng)),
    ("n12_dup", lambda rng: _duplicated_column_design(12, rng)),
]


@pytest.mark.parametrize("name,make", SAMPLER_DESIGNS, ids=[d[0] for d in SAMPLER_DESIGNS])
def test_exact_law_sampler_matches_direct_simulator(name, make):
    # differential test: the O(p) exact-law draws against full sphere draws in R^n
    x = make(np.random.default_rng(314))
    trials = 40_000
    sigma_sq = _gram_route(x)[0] ** 2
    law = np.concatenate(
        list(_law_sum_sq_batches(sigma_sq, x.n, trials, np.random.default_rng(1)))
    )
    direct = np.concatenate(list(_direct_sum_sq_batches(x, trials, np.random.default_rng(2))))
    assert law.size == direct.size == trials
    assert np.all(law >= 0.0) and np.all(law <= svd(x).sigma1_sq * (1.0 + 1e-12))
    result = stats.ks_2samp(law, direct)
    assert result.pvalue > 0.01, f"{name}: KS {result.statistic:.4f}, p={result.pvalue:.3g}"


def test_direct_simulator_draws_do_not_depend_on_batch_size():
    x = random_sample_matrix(30, 4, np.random.default_rng(6))
    one = np.concatenate(list(_direct_sum_sq_batches(x, 1000, np.random.default_rng(3))))
    # 8 * 30 * 7 bytes: seven rows per batch
    small = np.concatenate(
        list(_direct_sum_sq_batches(x, 1000, np.random.default_rng(3), batch_bytes=1680))
    )
    np.testing.assert_allclose(small, one, rtol=1e-12, atol=1e-15)


def test_mc_very_large_n_memory_stays_bounded():
    # O(trials * p) memory: a full sphere draw would need 8 * 10^6 bytes per trial
    n, p = 10**6, 3
    x = random_sample_matrix(n, p, np.random.default_rng(808))
    tracemalloc.start()
    try:
        est = expected_sum_sq_mc(x, trials=20_000, seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert abs(est.mean - expected_sum_sq(n, p)) < 4.0 * est.stderr


def test_chisq_mixture_compare_is_the_asymptotic_law():
    # at n=11, p=5 the exact law and the large-n mixture differ by construction
    x = random_sample_matrix(11, 5, np.random.default_rng(91))
    assert chisq_mixture_compare(x, trials=20_000, seed=4) > 0.05
