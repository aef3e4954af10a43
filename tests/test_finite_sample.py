"""Sample correlations, the Gram-route singular values, and sphere-average simulation.

A design here is a plain C-ordered n x p array of standardized columns.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from effectaudit import (
    EigenDecomposition,
    RunningMoments,
    SymMatrix,
    chisq_mixture_compare,
    expected_sum_sq,
    expected_sum_sq_mc,
    standardize,
    svd,
)
from effectaudit import finite_sample
from effectaudit.finite_sample import (
    _MIXTURE_BYTES_PER_TRIAL,
    _QR_ROWS,
    SINGULAR_VALUE_CUTOFF,
    _ks_statistic,
    _law_sum_sq_batches,
    _qr_ratios,
    _spectrum_certifies_rank,
    sphere_singular_values,
)
from effectaudit.errors import ConstantVectorError, InvalidShapeError


def test_standardize_small_fixture():
    s = standardize([[1.0, 2.0, 3.0]])
    root2 = math.sqrt(2.0)
    assert s.shape == (1, 3)
    np.testing.assert_allclose(s[0], [-1 / root2, 0.0, 1 / root2], atol=1e-15)
    assert abs(float(s.sum())) < 1e-15
    assert abs(float(np.linalg.norm(s)) - 1.0) < 1e-15


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((3, 40))
    once = standardize(v)
    twice = standardize(once)
    np.testing.assert_allclose(twice, once, atol=1e-15)


def test_standardize_rejects_constant_and_bad_shape():
    with pytest.raises(ConstantVectorError):
        standardize([np.full(10, 3.7)])
    with pytest.raises(ConstantVectorError):
        standardize(np.zeros((1, 5)))
    with pytest.raises(ConstantVectorError):
        standardize([np.full(8, 1.0) + 1e-16 * np.arange(8.0)])
    with pytest.raises(InvalidShapeError):
        standardize(np.ones(5))
    with pytest.raises(InvalidShapeError):
        standardize(np.ones((2, 2, 2)))
    with pytest.raises(InvalidShapeError):
        standardize(np.array([[1.0]]))


def sample_matrix_from_raw(data: np.ndarray) -> np.ndarray:
    """Standardize each column of raw data into a C-ordered design."""
    return np.array(standardize(np.asarray(data, dtype=float).T).T, order="C")


def random_sample_matrix(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Random standardized matrix: independent normal entries, columns
    standardized.  The n x p oracle behind ``sphere_singular_values``."""
    return sample_matrix_from_raw(rng.standard_normal((n, p)))


def gram_eigen(x: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of X^T X, exactly symmetrized."""
    return SymMatrix.symmetrized(x.T @ x).eigen


def singular_values(x: np.ndarray) -> np.ndarray:
    """The singular values of a design, as ``svd`` decides them."""
    return svd(x.T, slice(None), gram_eigen(x))


def sum_sq_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Sum over columns of corr(X_i, y)^2 for a raw response: ||X^T standardize(y)||^2."""
    c = x.T @ standardize([y])[0]
    return float(np.dot(c, c))


def top_left_vector(x: np.ndarray) -> tuple[np.ndarray, float]:
    """(u_1, sigma_1^2): u_1 = X v_1 / sigma_1, with sigma_1 from ``svd``."""
    dec = gram_eigen(x)
    sigma1 = float(svd(x.T, slice(None), dec)[0])
    return x @ dec.vectors[:, 0] / sigma1, sigma1**2


def standardize_one(v: np.ndarray) -> np.ndarray:
    """The per-vector standardization that batched rows must reproduce bit for bit."""
    centered = v - v.mean()
    return centered / float(np.linalg.norm(centered))


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 127, 128, 129, 200, 1000, 8191, 8192, 8193, 65537])
@pytest.mark.parametrize("k", [1, 3, 21])
def test_batched_standardize_matches_each_row_alone_bit_for_bit(n, k):
    rng = np.random.default_rng(n * 100 + k)
    # offsets and scales far from 0 and 1, so centering and scaling round
    raw = rng.standard_normal((k, n)) * rng.uniform(0.1, 1e3, (k, 1)) + rng.uniform(-1e4, 1e4, (k, 1))
    got = standardize(raw)
    assert got.shape == (k, n) and got.flags.c_contiguous
    assert not np.shares_memory(got, raw)
    want = np.stack([standardize_one(r) for r in raw])
    assert got.tobytes() == want.tobytes()
    # each row gets the bits of a one-row call, also on a strided column of
    # an n x k design
    for j in range(k):
        assert standardize([raw.T[:, j]]).tobytes() == want[j].tobytes()
    if n > k:
        assert sample_matrix_from_raw(raw.T).tobytes() == np.column_stack(want).tobytes()


def test_batched_standardize_names_every_constant_row():
    raw = np.array([[1.0, 2.0, 4.0], [3.0, 3.0, 3.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ConstantVectorError) as exc:
        standardize(raw)
    assert exc.value.rows == (1, 3)
    with pytest.raises(ConstantVectorError) as exc:
        standardize(raw[1:2])
    assert exc.value.rows == (0,)
    with pytest.raises(InvalidShapeError):
        standardize(np.ones((4, 1)))


def sample_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Sample correlation as the inner product of standardized vectors."""
    return float(np.dot(*standardize([x, y])))


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


def test_svd_reconstruction_and_orthonormality():
    # the reported singular values and the Gram eigenvectors factor X: the
    # oracle left vectors X V / sigma are orthonormal and rebuild X
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(4, 40))
        p = int(rng.integers(1, min(n, 9)))
        x = random_sample_matrix(n, p, rng)
        v = gram_eigen(x).vectors
        s = singular_values(x)
        assert not s.flags.writeable
        assert np.all(np.diff(s) <= 1e-15)  # descending
        u = x @ v / s
        recon = (u * s) @ v.T
        assert np.max(np.abs(recon - x)) < 1e-9
        assert np.max(np.abs(u.T @ u - np.eye(p))) < 1e-9
        assert np.max(np.abs(v.T @ v - np.eye(p))) < 1e-9
        # standardized columns force trace(X^T X) = p
        assert float(np.sum(s**2)) == pytest.approx(p, abs=1e-8)


def test_svd_duplicated_column_reports_exact_zero():
    rng = np.random.default_rng(3)
    col = standardize([rng.standard_normal(12)])[0]
    s = singular_values(np.column_stack([col, col]))
    np.testing.assert_allclose(s, [math.sqrt(2.0), 0.0], atol=1e-12)
    assert s[1] == 0.0


def gram_schmidt_route(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The rank rule as a per-column Gram-Schmidt loop: the reference for the QR route.

    Returns the singular values (exact zeros from the first collapsed
    direction on) and the kept left vectors.
    """
    dec = gram_eigen(x)
    sigma = np.sqrt(np.maximum(dec.values, 0.0))
    left: list[np.ndarray] = []
    for k in range(x.shape[1]):
        if sigma[k] <= SINGULAR_VALUE_CUTOFF:
            break
        u = x @ dec.vectors[:, k]
        u /= sigma[k]
        for w in left:
            u -= np.dot(w, u) * w
        norm = float(np.linalg.norm(u))
        if norm < 0.5:
            break
        left.append(u / norm)
    out = np.zeros(x.shape[1])
    out[: len(left)] = sigma[: len(left)]
    return out, left


def near_singular_design(n: int, p: int, copies: int, noise: float, seed: int) -> np.ndarray:
    """Normal columns, the last ``copies`` of which repeat earlier ones plus ``noise``."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, p))
    for j in range(p - copies, p):
        raw[:, j] = raw[:, int(rng.integers(0, j))] + noise * rng.standard_normal(n)
    return sample_matrix_from_raw(raw)


@given(
    n=st.integers(min_value=2, max_value=5000),
    p=st.integers(min_value=1, max_value=12),
    copies=st.integers(min_value=0, max_value=11),
    log_noise=st.sampled_from([None, -17.0, -14.0, -12.0, -9.0, -7.0, -5.0]),
    rows=st.sampled_from([1, 2, 3, 7, 64, _QR_ROWS]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_rank_rule_equals_the_gram_schmidt_loop(n, p, copies, log_noise, rows, seed):
    # bit for bit, on designs that are rank-deficient by the loop, and for
    # row blocks smaller than, equal to and larger than n
    p = min(p, n - 1)
    copies = min(copies, p - 1)
    noise = 0.0 if log_noise is None else 10.0**log_noise
    x = near_singular_design(n, p, copies, noise, seed)
    with mock.patch.object(finite_sample, "_QR_ROWS", rows):
        got = singular_values(x)
    assert np.array_equal(got, gram_schmidt_route(x)[0])


BLOCK_DESIGNS = [
    ("below", _QR_ROWS - 1, 6, 2),
    ("equal", _QR_ROWS, 6, 2),
    ("one_above", _QR_ROWS + 1, 6, 2),
    ("multiple", 2 * _QR_ROWS, 6, 2),
    ("p1", 50, 1, 0),
    ("p1_two_blocks", _QR_ROWS + 1, 1, 0),
]


@pytest.mark.parametrize("name,n,p,copies", BLOCK_DESIGNS, ids=[d[0] for d in BLOCK_DESIGNS])
@pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-5])
def test_rank_rule_at_row_block_boundaries(name, n, p, copies, noise):
    x = near_singular_design(n, p, copies, noise, seed=n + p)
    want, left = gram_schmidt_route(x)
    assert np.array_equal(singular_values(x), want)
    if noise == 1e-9:  # exact copies up to rounding: the loop drops them
        assert len(left) == p - copies


@pytest.mark.parametrize("name,n,p,copies", BLOCK_DESIGNS, ids=[d[0] for d in BLOCK_DESIGNS])
@pytest.mark.parametrize("outcome", [0, 1, -1])
def test_rank_rule_reads_the_predictor_rows_of_a_wider_table(name, n, p, copies, outcome):
    # as an audit calls it: the design's columns are rows of a table that also
    # holds the outcome, first, second or last
    x = near_singular_design(n, p, copies, 1e-9, seed=n + p)
    y = standardize([np.random.default_rng(n).standard_normal(n)])[0]
    table = np.insert(x.T, outcome % (p + 1), y, axis=0)
    pred = [i for i in range(p + 1) if i != outcome % (p + 1)]
    with forced_qr():
        got = svd(table, pred, gram_eigen(x))
    assert np.array_equal(got, gram_schmidt_route(x)[0])


@pytest.mark.parametrize("n", [12, _QR_ROWS + 1])
@pytest.mark.parametrize("p", [2, 5])
def test_rank_rule_every_column_duplicated(n, p):
    col = standardize([np.random.default_rng(n * p).standard_normal(n)])[0]
    x = np.column_stack([col] * p)
    sv = singular_values(x)
    assert np.array_equal(sv, gram_schmidt_route(x)[0])
    assert sv[0] == pytest.approx(math.sqrt(p), abs=1e-12)
    assert np.all(sv[1:] == 0.0)


def forced_qr():
    """Make every rank decision run the blocked QR, whatever the spectrum says."""
    return mock.patch.object(finite_sample, "_spectrum_certifies_rank", return_value=False)


def counted_qr():
    return mock.patch("numpy.linalg.qr", wraps=np.linalg.qr)


def guard_ratio(n: int, p: int) -> float:
    """lambda_min / lambda_max at the certificate's guard."""
    return finite_sample._RANK_GUARD * (n + p) * p * p * np.finfo(float).eps


@given(
    n=st.integers(min_value=2, max_value=5000),
    p=st.integers(min_value=1, max_value=12),
    copies=st.integers(min_value=0, max_value=2),
    log_noise=st.sampled_from([None, -9.0, -5.0, -3.0, -2.0, -1.0]),
    rows=st.sampled_from([1, 7, 64, _QR_ROWS]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_spectrum_certificate_agrees_with_the_qr(n, p, copies, log_noise, rows, seed):
    p = min(p, n - 1)
    copies = min(copies, p - 1)
    noise = 0.0 if log_noise is None else 10.0**log_noise
    x = near_singular_design(n, p, copies, noise, seed)
    want = gram_schmidt_route(x)[0]
    assert np.array_equal(singular_values(x), want)
    with forced_qr(), mock.patch.object(finite_sample, "_QR_ROWS", rows):
        assert np.array_equal(singular_values(x), want)
    dec = gram_eigen(x)
    values = dec.values
    if not _spectrum_certifies_rank(values, n):
        return
    # certified: the QR keeps every direction, within the derivation's bound
    ratios = _qr_ratios(x.T, slice(None), dec.vectors, np.sqrt(values))
    delta = 10 * (n + p) * p * p * np.finfo(float).eps * values[0]  # C = 10
    t = delta / values[-1]
    assert t <= 1e-3
    assert np.all(np.abs(ratios**2 - 1.0) <= t + t * t / (1.0 - t))
    assert np.all(np.abs(ratios - 1.0) <= 1e-3)


def correlated_pair_design(n: int, p: int, rho: float, seed: int) -> np.ndarray:
    """Orthonormal standardized columns, the last one turned to correlation
    rho with the first: Gram eigenvalues 1 + rho, 1 - rho and p - 2 ones."""
    raw = np.random.default_rng(seed).standard_normal((n, p))
    u = np.linalg.qr(raw - raw.mean(axis=0))[0]
    u[:, -1] = rho * u[:, 0] + math.sqrt(1.0 - rho * rho) * u[:, -1]
    return u


@pytest.mark.parametrize("n,p", [(50, 2), (300, 5), (_QR_ROWS + 1, 4)])
@pytest.mark.parametrize("side", [1 + 1e-3, 1 - 1e-3], ids=["above", "below"])
def test_guard_boundary_decides_the_route(n, p, side):
    # lambda_min / lambda_max = (1 - rho) / (1 + rho) = side * guard ratio
    g = side * guard_ratio(n, p)
    x = correlated_pair_design(n, p, (1.0 - g) / (1.0 + g), seed=n + p)
    values = gram_eigen(x).values
    assert values[-1] / values[0] == pytest.approx(g, rel=1e-4)
    with counted_qr() as qr:
        sv = singular_values(x)
    if side > 1:
        assert qr.call_count == 0
    else:
        assert qr.call_count == -(-n // _QR_ROWS)
    assert np.array_equal(sv, gram_schmidt_route(x)[0])
    assert np.count_nonzero(sv) == p


def test_guard_is_inclusive_and_holds_only_for_p_up_to_a_row_block():
    n, p = 100, 3
    guard = guard_ratio(n, p) * 2.0
    assert _spectrum_certifies_rank(np.array([2.0, 1.0, guard]), n)
    assert not _spectrum_certifies_rank(np.array([2.0, 1.0, np.nextafter(guard, 0.0)]), n)
    assert _spectrum_certifies_rank(np.ones(_QR_ROWS), 10**4)
    assert not _spectrum_certifies_rank(np.ones(_QR_ROWS + 1), 10**4)


# Full-rank designs the spectrum certifies, with the QR forced so that it is
# still checked across row blocks.
FORCED_QR_DESIGNS = [d for d in BLOCK_DESIGNS if d[3] == 0] + [
    ("full_rank", 50, 6, 0),
    ("full_rank_blocks", 2 * _QR_ROWS + 1, 6, 0),
]


@pytest.mark.parametrize(
    "name,n,p,copies", FORCED_QR_DESIGNS, ids=[d[0] for d in FORCED_QR_DESIGNS]
)
def test_forced_qr_rank_at_row_block_boundaries(name, n, p, copies):
    x = near_singular_design(n, p, copies, 0.0, seed=n + p)
    assert _spectrum_certifies_rank(gram_eigen(x).values, n)
    with forced_qr(), counted_qr() as qr:
        sv = singular_values(x)
    assert qr.call_count == -(-n // _QR_ROWS)
    assert np.array_equal(sv, gram_schmidt_route(x)[0])


SVD_DESIGNS = [
    ("full_rank", 40, 5, 0, 0.0),
    ("full_rank_blocks", _QR_ROWS + 7, 5, 0, 0.0),
    ("duplicated", 40, 5, 2, 0.0),
    ("near_duplicated", 300, 6, 3, 1e-10),
    ("resolved_near_duplicate", 300, 4, 1, 1e-5),
    ("p1", 9, 1, 0, 0.0),
]


@pytest.mark.parametrize(
    "name,n,p,copies,noise", SVD_DESIGNS, ids=[d[0] for d in SVD_DESIGNS]
)
def test_svd_left_vectors_orthonormal_standardized_and_reconstructing(name, n, p, copies, noise):
    # the loop's kept left vectors, with the reported singular values and the
    # Gram eigenvectors, rebuild X: the directions reported as zeros carry no mass
    x = near_singular_design(n, p, copies, noise, seed=p * 101 + copies)
    s = singular_values(x)
    want, left = gram_schmidt_route(x)
    assert np.array_equal(s, want)
    r = len(left)
    u, v = np.column_stack(left), gram_eigen(x).vectors[:, :r]
    assert np.max(np.abs(u.T @ u - np.eye(r))) < 1e-9
    assert np.max(np.abs(u.mean(axis=0))) < 1e-10
    assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-10
    assert np.max(np.abs((u * s[:r]) @ v.T - x)) < 1e-7


def test_singular_values_memory_is_one_row_block():
    # the rank rule holds no n x p array: the loop kept 24 MB of left vectors here
    x = random_sample_matrix(10**6, 3, np.random.default_rng(909))
    tracemalloc.start()
    try:
        sv = singular_values(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert float(np.sum(sv**2)) == pytest.approx(3.0, abs=1e-8)


def test_forced_qr_memory_is_one_row_block():
    # the spectrum certifies this design; forced, the QR still holds one block
    x = random_sample_matrix(10**6, 3, np.random.default_rng(909))
    tracemalloc.start()
    try:
        with forced_qr():
            sv = singular_values(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert np.array_equal(sv, np.sqrt(gram_eigen(x).values))


def test_sum_sq_corr_dual_route_and_spectral_cap():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(5, 30))
        p = int(rng.integers(1, min(n, 7)))
        x = random_sample_matrix(n, p, rng)
        y = rng.standard_normal(n)
        direct = sum(np.corrcoef(x[:, j], y)[0, 1] ** 2 for j in range(p))
        assert sum_sq_corr(x, y) == pytest.approx(direct, abs=1e-10)
        assert sum_sq_corr(x, y) <= singular_values(x)[0] ** 2 + 1e-9


def test_sum_sq_corr_attained_at_top_left_vector():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = random_sample_matrix(int(rng.integers(8, 30)), 5, rng)
        u1, sigma1_sq = top_left_vector(x)
        assert sum_sq_corr(x, u1) == pytest.approx(sigma1_sq, abs=1e-9)


def test_sum_sq_corr_spectral_identity_many_pairs():
    # sum_i corr(X_i, y)^2 == sum_k sigma_k^2 (U_k . y*)^2, 10000 random pairs,
    # with U = X V / sigma
    rng = np.random.default_rng(29)
    for _ in range(10_000):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(1, min(n, 7)))
        x = random_sample_matrix(n, p, rng)
        y = standardize([rng.standard_normal(n)])[0]
        dec = gram_eigen(x)
        s = svd(x.T, slice(None), dec)
        proj = (x @ dec.vectors / s).T @ y
        via_svd = float(np.sum(s**2 * proj**2))
        assert sum_sq_corr(x, y) == pytest.approx(via_svd, abs=1e-9)


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
    est = expected_sum_sq_mc(singular_values(x), x.shape[0], trials=20_000, seed=101)
    assert abs(est.mean - 0.5) < 3.0 * est.stderr
    assert est.trials == 20_000 and est.seed == 101


MC_GRID = [(11, 5, 202), (50, 10, 203), (101, 20, 204)]


@pytest.mark.parametrize("n,p,seed", MC_GRID)
def test_mc_grid_matches_analytic_average(n, p, seed):
    rng = np.random.default_rng(seed)
    x = random_sample_matrix(n, p, rng)
    est = expected_sum_sq_mc(singular_values(x), x.shape[0], trials=100_000, seed=seed)
    z = abs(est.mean - expected_sum_sq(n, p)) / est.stderr
    if z > 3.0:
        pytest.fail(f"MC mean {est.mean} is {z:.1f} sigma from {expected_sum_sq(n, p)}")
    # sanity band on the spread itself: variance of the chi-square mixture is
    # O(p / (n-1)^2), so the sample variance must stay within a factor ~10
    var_hat = (est.stderr**2) * est.trials
    assert var_hat <= 10.0 * (p / (n - 1)) ** 2 * (2.0 / p) + 1e-12


def test_mc_seed_determinism_and_agreement():
    rng = np.random.default_rng(77)
    x = random_sample_matrix(40, 6, rng)
    one = expected_sum_sq_mc(singular_values(x), x.shape[0], trials=30_000, seed=9)
    again = random_sample_matrix(40, 6, np.random.default_rng(77))
    two = expected_sum_sq_mc(singular_values(again), again.shape[0], 30_000, 9)
    assert one.mean == two.mean and one.stderr == two.stderr  # bit-identical
    other = expected_sum_sq_mc(singular_values(x), x.shape[0], trials=30_000, seed=10)
    assert other.mean != one.mean  # different streams
    sigma = math.hypot(one.stderr, other.stderr)
    assert abs(one.mean - other.mean) < 4.0 * sigma
    truth = expected_sum_sq(40, 6)
    assert abs(one.mean - truth) < 4.0 * one.stderr
    assert abs(other.mean - truth) < 4.0 * other.stderr


def test_mc_stderr_survives_a_huge_n():
    # values of order p / (n - 1) near 1e-300 square to below the float range
    n, p = 10**300, 5
    est = expected_sum_sq_mc(sphere_singular_values(n, p, np.random.default_rng(1)), n, 1000, 1)
    assert math.isfinite(est.stderr) and est.stderr > 0.0
    z = (est.mean - expected_sum_sq(n, p)) / est.stderr
    assert math.isfinite(z) and abs(z) < 5.0


def test_mc_argument_validation():
    rng = np.random.default_rng(1)
    x = random_sample_matrix(6, 2, rng)
    with pytest.raises(InvalidShapeError):
        expected_sum_sq_mc(singular_values(x), x.shape[0], trials=1, seed=0)
    for sigma, n in (([1.0, 1.0], 2), ([], 5), ([[1.0]], 5)):  # n <= p, no values, not 1-D
        with pytest.raises(InvalidShapeError):
            expected_sum_sq_mc(np.array(sigma), n, trials=100, seed=0)
        with pytest.raises(InvalidShapeError):
            chisq_mixture_compare(np.array(sigma), n, trials=1000, seed=0)


def test_chisq_mixture_compare_deterministic_and_small():
    rng = np.random.default_rng(90)
    x = random_sample_matrix(200, 5, rng)
    est1, d1 = chisq_mixture_compare(singular_values(x), x.shape[0], trials=4000, seed=12)
    est2, d2 = chisq_mixture_compare(singular_values(x), x.shape[0], trials=4000, seed=12)
    assert d1 == d2 and est1 == est2
    assert 0.0 <= d1 < 0.05  # large-n regime: the mixture is a close fit
    with pytest.raises(InvalidShapeError):
        chisq_mixture_compare(singular_values(x), x.shape[0], trials=10, seed=0)


@pytest.mark.parametrize("p", [1, 3, 7, 50])
@pytest.mark.parametrize("trials", [1000, 4096, 12345])
def test_chisq_mixture_compare_streams_the_one_shot_draws(p, trials, monkeypatch):
    # the sample is the exact-law stream of spawn key 0; the batched mixture
    # equals one (trials, p) normal draw of spawn key 1, squared, bit for bit
    x = random_sample_matrix(60, p, np.random.default_rng(p))
    seen = []
    monkeypatch.setattr(finite_sample, "_ks_statistic", lambda a, b: seen.append((a, b)) or 0.0)
    chisq_mixture_compare(singular_values(x), x.shape[0], trials, seed=21)
    (sim, mix), = seen
    sigma_sq = singular_values(x) ** 2
    rng_sim = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(0,)))
    rng_mix = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(1,)))
    one_sim = np.concatenate(list(_law_sum_sq_batches(sigma_sq, x.shape[0], trials, rng_sim)))
    one_mix = (rng_mix.standard_normal((trials, p)) ** 2 @ sigma_sq) / (x.shape[0] - 1)
    assert np.array_equal(sim, one_sim)
    assert np.array_equal(mix, one_mix)


@pytest.mark.parametrize("p", [1, 3, 50])
@pytest.mark.parametrize("trials", [1000, 4096, 12345])
def test_chisq_mixture_compare_estimate_is_expected_sum_sq_mc(p, trials):
    # one sample feeds both statistics: the estimate has the bits of the mean
    # estimator's for the same seed
    x = random_sample_matrix(60, p, np.random.default_rng(p + 100))
    sv = singular_values(x)
    estimate, _ = chisq_mixture_compare(sv, x.shape[0], trials, seed=33)
    assert estimate == expected_sum_sq_mc(sv, x.shape[0], trials, seed=33)


def test_squared_normals_follow_the_chi_square_law():
    # the mixture's chi-square(1) terms are squared standard normals; against
    # numpy's chi-square sampler at 10^5 draws each, the two-sample KS
    # distance stays below the critical value c(alpha) sqrt(2 / m) at
    # alpha = 1e-3, c(alpha) = sqrt(-log(alpha / 2) / 2)
    m = 10**5
    rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1,)))
    squared = rng.standard_normal(m) ** 2
    gamma = np.random.default_rng(6).chisquare(1.0, size=m)
    critical = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / m)
    assert _ks_statistic(squared, gamma) < critical
    # a chi-square of 1.05 degrees of freedom is told apart at this size
    assert _ks_statistic(squared, np.random.default_rng(6).chisquare(1.05, size=m)) > critical


def test_chisq_mixture_compare_memory_per_trial_is_bounded():
    # the bytes per trial behind simulate-sphere's --trials cap, at p = 50;
    # one (trials, p) mixture draw held about 457 bytes per trial here
    x = random_sample_matrix(60, 50, np.random.default_rng(50))
    trials = 10**5
    sigma = singular_values(x)
    tracemalloc.start()
    try:
        chisq_mixture_compare(sigma, x.shape[0], trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _MIXTURE_BYTES_PER_TRIAL * trials, f"{peak / trials:.1f} bytes per trial"


def _duplicated_column_design(n: int, rng: np.random.Generator) -> np.ndarray:
    cols = standardize(rng.standard_normal((2, n)))
    return np.column_stack([cols[0], cols[1], cols[0]])


# Bytes of responses per batch in the direct sphere simulator, which draws a
# full n-vector per trial; its row count shrinks as n grows.
_DIRECT_BATCH_BYTES = 16 * 2**20


def _direct_sum_sq_batches(
    x: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    batch_bytes: int = _DIRECT_BATCH_BYTES,
):
    """Yield batches of sum_sq_corr values by drawing each response in R^n.

    The O(trials * n * p) reference simulator behind the exact-law sampler.
    Rows are drawn row-major, so the draws do not depend on ``batch_bytes``,
    which only caps the memory of one batch.
    """
    n = x.shape[0]
    rows = max(1, batch_bytes // (8 * n))
    done = 0
    while done < trials:
        m = min(rows, trials - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)  # uniform on the sphere
        g -= g.mean(axis=1, keepdims=True)
        g /= np.linalg.norm(g, axis=1, keepdims=True)  # standardized response
        c = g @ x
        yield (c * c).sum(axis=1)
        done += m


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
    sigma_sq = singular_values(x) ** 2
    law = np.concatenate(
        list(_law_sum_sq_batches(sigma_sq, x.shape[0], trials, np.random.default_rng(1)))
    )
    direct = np.concatenate(list(_direct_sum_sq_batches(x, trials, np.random.default_rng(2))))
    assert law.size == direct.size == trials
    assert np.all(law >= 0.0) and np.all(law <= sigma_sq[0] * (1.0 + 1e-12))
    result = stats.ks_2samp(law, direct)
    assert result.pvalue > 0.01, f"{name}: KS {result.statistic:.4f}, p={result.pvalue:.3g}"


# Ten KS tests (five shapes, two laws) at alpha = 1e-3 each: a correct
# sampler fails one of them by chance with probability at most 1%.
BARTLETT_ALPHA = 1e-3


@pytest.mark.parametrize("n,p", [(11, 5), (7, 6), (40, 3), (300, 20), (2000, 5)])
def test_bartlett_spectrum_matches_drawn_designs(n, p):
    # differential test: lambda_max and lambda_min of the drawn spectrum
    # against those of n x p designs drawn in full
    designs = 2000
    rng_b, rng_d = np.random.default_rng(n + p), np.random.default_rng(n * p)
    bartlett = np.array([sphere_singular_values(n, p, rng_b) ** 2 for _ in range(designs)])
    direct = np.array([gram_eigen(random_sample_matrix(n, p, rng_d)).values
                       for _ in range(designs)])
    for k, law in ((0, "lambda_max"), (-1, "lambda_min")):
        result = stats.ks_2samp(bartlett[:, k], direct[:, k])
        assert result.pvalue > BARTLETT_ALPHA, (
            f"{law} at n={n}, p={p}: KS {result.statistic:.4f}, p={result.pvalue:.3g}")


def test_sphere_singular_values_are_a_standardized_spectrum():
    for n, p in ((2, 1), (7, 6), (10**9, 50), (10**300, 4)):
        sv = sphere_singular_values(n, p, np.random.default_rng(p))
        assert sv.shape == (p,) and np.all(np.diff(sv) <= 0.0) and sv[-1] > 0.0
        # unit diagonal: trace of the correlation matrix is p
        assert float(np.sum(sv**2)) == pytest.approx(p, rel=1e-12)
        again = sphere_singular_values(n, p, np.random.default_rng(p))
        assert sv.tobytes() == again.tobytes()
    # at n = 10^300 the columns are orthogonal up to rounding
    assert np.max(np.abs(sv - 1.0)) < 1e-12


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
        est = expected_sum_sq_mc(singular_values(x), x.shape[0], trials=20_000, seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert abs(est.mean - expected_sum_sq(n, p)) < 4.0 * est.stderr


def test_chisq_mixture_compare_is_the_asymptotic_law():
    # at n=11, p=5 the exact law and the large-n mixture differ by construction
    x = random_sample_matrix(11, 5, np.random.default_rng(91))
    _, distance = chisq_mixture_compare(singular_values(x), x.shape[0], trials=20_000, seed=4)
    assert distance > 0.05


def _ks_samples(kind: str, n1: int, n2: int, rng: np.random.Generator):
    a = rng.standard_normal(n1)
    if kind == "continuous":
        return a, rng.standard_normal(n2) + 0.02
    if kind == "tied":  # many equal values within and across the samples
        return np.round(a, 2), np.round(rng.standard_normal(n2), 2)
    if kind == "identical":
        return a, rng.permutation(a)
    return a, rng.standard_normal(n2) + 100.0  # disjoint


KS_EQUAL_SIZES = [1000, 9999, 10000, 10001, 50000]  # both sides of scipy's exact-mode cutoff
KS_UNEQUAL_SIZES = [(1000, 1500), (9999, 10001), (10000, 7), (3, 50000), (12000, 30001)]


@pytest.mark.parametrize("kind", ["continuous", "tied", "identical", "disjoint"])
@pytest.mark.parametrize("n", KS_EQUAL_SIZES)
def test_ks_statistic_equals_scipy_equal_sizes(n, kind):
    a, b = _ks_samples(kind, n, n, np.random.default_rng(n))
    d = _ks_statistic(a, b)
    assert d == float(stats.ks_2samp(a, b).statistic)
    if kind == "identical":
        assert d == 0.0
    if kind == "disjoint":
        assert d == 1.0


@pytest.mark.parametrize("kind", ["continuous", "tied", "disjoint"])
@pytest.mark.parametrize("n1,n2", KS_UNEQUAL_SIZES)
def test_ks_statistic_equals_scipy_unequal_sizes(n1, n2, kind):
    a, b = _ks_samples(kind, n1, n2, np.random.default_rng(n1 * 7 + n2))
    assert _ks_statistic(a, b) == float(stats.ks_2samp(a, b).statistic)
    assert _ks_statistic(b, a) == float(stats.ks_2samp(b, a).statistic)
