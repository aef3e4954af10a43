"""Validated matrix types and spectral primitives."""

import numpy as np
import pytest

from effectaudit import (
    SecondMomentMatrix,
    SymMatrix,
    equicorrelation,
    validate_correlation,
)
from effectaudit.errors import (
    CorrelationValidationError,
    DiagonalNotUnitError,
    EntryOutOfRangeError,
    NotPositiveSemiDefiniteError,
    NotSymmetricError,
    RhoOutOfRangeError,
)


def random_correlation(rng, p, k=None):
    """Gram matrix B^T B rescaled to unit diagonal."""
    k = k or p + 2
    b = rng.standard_normal((k, p))
    g = b.T @ b
    d = np.sqrt(np.diag(g))
    r = g / np.outer(d, d)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


def test_sym_matrix_rejects_nonsquare_and_asymmetric():
    with pytest.raises(NotSymmetricError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(NotSymmetricError):
        SymMatrix(np.array([[1.0, 0.5], [0.5 + 1e-16, 1.0]]))
    with pytest.raises(NotSymmetricError):
        SymMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_sym_matrix_symmetrized_and_immutable():
    a = np.array([[1.0, 0.3], [0.30000000001, 1.0]])
    m = SymMatrix.symmetrized(a)
    assert np.array_equal(m.entries, m.entries.T)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 2.0


def test_validate_correlation_accepts_identity():
    m = validate_correlation(SymMatrix(np.eye(3)))
    assert m.dim == 3
    assert m.off_diagonal_abs_mass() == 0.0


def test_validate_correlation_lists_every_violation():
    # bad diagonal, out-of-range entry, and (from the -0.9 equicorrelation
    # block) a negative eigenvalue, all reported together
    a = np.full((3, 3), -0.9)
    np.fill_diagonal(a, 1.0)
    a[0, 0] = 1.5
    a[1, 2] = a[2, 1] = -1.2
    with pytest.raises(CorrelationValidationError) as exc:
        validate_correlation(SymMatrix(a))
    kinds = {type(v) for v in exc.value.violations}
    assert kinds == {DiagonalNotUnitError, EntryOutOfRangeError, NotPositiveSemiDefiniteError}


def test_validate_correlation_negative_eigenvalue_value():
    # all off-diagonal entries -0.9 at p=3: minimum eigenvalue is 1 + 2(-0.9) = -0.8
    a = np.full((3, 3), -0.9)
    np.fill_diagonal(a, 1.0)
    with pytest.raises(CorrelationValidationError) as exc:
        validate_correlation(SymMatrix(a))
    (viol,) = exc.value.violations
    assert isinstance(viol, NotPositiveSemiDefiniteError)
    assert viol.min_eigenvalue == pytest.approx(-0.8, abs=1e-12)


def test_validate_correlation_psd_tolerance_boundary():
    # eigenvalue -5e-9 passes the default 1e-8 tolerance, fails a 1e-9 one
    a = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
    shift = 5e-9
    b = a + np.full((3, 3), -shift / 3 * 2)  # pushes lambda_min just below 0
    np.fill_diagonal(b, 1.0)
    lam = np.linalg.eigvalsh(b)[0]
    assert -1e-8 < lam < 0.0
    validate_correlation(SymMatrix.symmetrized(b), psd_tolerance=1e-8)
    with pytest.raises(CorrelationValidationError):
        validate_correlation(SymMatrix.symmetrized(b), psd_tolerance=1e-10)


def test_validate_matches_eigensolver_on_random_grams():
    """Acceptance is exactly lambda_min >= -tolerance, over 1,000 random matrices."""
    rng = np.random.default_rng(42)
    tol = 1e-8
    for i in range(1000):
        p = int(rng.integers(2, 8))
        if i % 3 == 0:
            # equicorrelation with rho pushed below the PSD range: invalid
            rho = -1.0 / (p - 1) - rng.uniform(0.01, 0.5) if p > 1 else -0.5
            a = np.full((p, p), rho)
            np.fill_diagonal(a, 1.0)
        else:
            a = random_correlation(rng, p)
        lam_min = np.linalg.eigvalsh(a)[0]
        m = SymMatrix.symmetrized(a)
        if lam_min >= -tol:
            validate_correlation(m, tol)
        else:
            with pytest.raises(CorrelationValidationError):
                validate_correlation(m, tol)


def test_sym_eigen_equicorrelation_spectrum():
    # closed form: 1 + (p-1) rho once, 1 - rho with multiplicity p-1
    dec = equicorrelation(5, 0.2).base.eigen
    expected = np.array([1.8, 0.8, 0.8, 0.8, 0.8])
    assert np.allclose(dec.values, expected, atol=1e-12)


def test_sym_eigen_reconstruction_and_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = int(rng.integers(1, 12))
        a = random_correlation(rng, p)
        m = SymMatrix.symmetrized(a)
        dec = m.eigen
        assert np.all(np.diff(dec.values) <= 0)  # descending
        recon = (dec.vectors * dec.values) @ dec.vectors.T
        scale = max(1.0, np.abs(m.entries).max())
        assert np.abs(recon - m.entries).max() <= 1e-9 * scale
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(p)).max() <= 1e-9


def test_sym_eigen_deterministic():
    a = random_correlation(np.random.default_rng(3), 6)
    # two objects: one object returns its one cached decomposition
    d1 = SymMatrix.symmetrized(a).eigen
    d2 = SymMatrix.symmetrized(a).eigen
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.vectors, d2.vectors)


def test_equicorrelation_range():
    with pytest.raises(RhoOutOfRangeError):
        equicorrelation(2, -1.5)
    with pytest.raises(RhoOutOfRangeError):
        equicorrelation(3, 1.1)
    # boundary rho = -1/(p-1) is PSD (lambda_min = 0)
    m = equicorrelation(4, -1.0 / 3.0)
    assert np.linalg.eigvalsh(m.entries)[0] >= -1e-12
    # p=1 ignores rho
    assert equicorrelation(1, 0.7).entries.shape == (1, 1)


def test_second_moment_rejects_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveSemiDefiniteError):
        SecondMomentMatrix(SymMatrix(a))
