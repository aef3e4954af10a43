"""Validated symmetric-matrix types and spectral primitives.

Everything downstream (bound checks, audits) routes through the types here so
that invariants -- exact symmetry, unit diagonals, positive semidefiniteness --
are established once and then trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceFailureError,
    CorrelationValidationError,
    DiagonalNotUnitError,
    EffectAuditError,
    EntryOutOfRangeError,
    NotPositiveSemiDefiniteError,
    NotSymmetricError,
    RhoOutOfRangeError,
)

DEFAULT_PSD_TOLERANCE = 1e-8
UNIT_DIAGONAL_TOLERANCE = 1e-12
ENTRY_RANGE_TOLERANCE = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense square matrix, exactly symmetric, finite entries.

    Symmetry is checked bit-for-bit at construction; use :meth:`symmetrized`
    for inputs that are only symmetric up to rounding.  The eigendecomposition
    is computed on first use and kept: every bound reads this one spectrum.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NotSymmetricError("matrix contains non-finite entries")
        if not np.array_equal(a, a.T):
            raise NotSymmetricError("matrix is not exactly symmetric")
        object.__setattr__(self, "entries", _readonly(a))

    @classmethod
    def symmetrized(cls, a: np.ndarray) -> "SymMatrix":
        a = np.asarray(a, dtype=float)
        return cls((a + a.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    # Memoizing is safe: the dataclass is frozen and ``entries`` is read-only.
    @cached_property
    def eigen(self) -> "EigenDecomposition":
        """Full symmetric eigendecomposition (LAPACK ``eigh``), eigenvalues descending."""
        try:
            vals, vecs = np.linalg.eigh(self.entries)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(str(exc)) from exc
        return EigenDecomposition(vals[::-1], vecs[:, ::-1])


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Correlation matrix: unit diagonal, entries in [-1, 1].

    Construction enforces the cheap invariants (diagonal and range).  Positive
    semidefiniteness is established by :func:`validate_correlation` (numeric
    eigenvalue check) or :func:`equicorrelation` (analytic); building one
    directly asserts the caller already knows the matrix is PSD.
    """

    base: SymMatrix

    def __post_init__(self):
        violations = _cheap_correlation_violations(self.base)
        if violations:
            raise CorrelationValidationError(violations)

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim

    def off_diagonal_abs_mass(self) -> float:
        """Sum of |entries| over all off-diagonal positions."""
        a = self.entries
        return float(np.abs(a).sum() - np.abs(np.diag(a)).sum())


@dataclass(frozen=True, eq=False)
class SecondMomentMatrix:
    """Matrix of second moments E(X_i X_j): symmetric positive semidefinite.

    The eigenvalues are those of ``base.eigen``, the base matrix's one
    decomposition.
    """

    base: SymMatrix

    def __post_init__(self):
        lam_min = self.min_eigenvalue
        if lam_min < -DEFAULT_PSD_TOLERANCE:
            raise NotPositiveSemiDefiniteError(lam_min, DEFAULT_PSD_TOLERANCE)

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def min_eigenvalue(self) -> float:
        return self.base.eigen.min_value

    @property
    def max_eigenvalue(self) -> float:
        return self.base.eigen.max_value


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factorization A = Q diag(values) Q^T.

    ``values`` are sorted descending; column k of ``vectors`` pairs with
    ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "vectors", _readonly(self.vectors))

    @property
    def max_value(self) -> float:
        return float(self.values[0])

    @property
    def min_value(self) -> float:
        return float(self.values[-1])


def _cheap_correlation_violations(m: SymMatrix) -> list[EffectAuditError]:
    a = m.entries
    found: list[EffectAuditError] = []
    diag = np.diag(a)
    for i in np.flatnonzero(np.abs(diag - 1.0) > UNIT_DIAGONAL_TOLERANCE):
        found.append(DiagonalNotUnitError(int(i), float(diag[i])))
    bad = np.abs(a) > 1.0 + ENTRY_RANGE_TOLERANCE
    np.fill_diagonal(bad, False)
    for i, j in zip(*np.nonzero(bad)):
        if i < j:
            found.append(EntryOutOfRangeError(int(i), int(j), float(a[i, j])))
    return found


def validate_correlation(m: SymMatrix) -> CorrelationMatrix:
    """Check all correlation-matrix invariants and return the validated type.

    Raises :class:`CorrelationValidationError` whose ``violations`` list holds
    one record per broken invariant: off-unit diagonal entries, out-of-range
    off-diagonal entries, and a minimum eigenvalue below ``-DEFAULT_PSD_TOLERANCE``.
    """
    # The constructor makes the cheap checks; their violations come first.
    try:
        corr, violations = CorrelationMatrix(m), []
    except CorrelationValidationError as exc:
        corr, violations = None, exc.violations
    lam_min = m.eigen.min_value
    if lam_min < -DEFAULT_PSD_TOLERANCE:
        violations.append(NotPositiveSemiDefiniteError(lam_min, DEFAULT_PSD_TOLERANCE))
    if violations:
        raise CorrelationValidationError(violations)
    return corr


def equicorrelation(p: int, rho: float) -> CorrelationMatrix:
    """Correlation matrix with every off-diagonal entry equal to ``rho``.

    Valid for rho in [-1/(p-1), 1]; the spectrum is known in closed form
    (1 + (p-1) rho once, 1 - rho with multiplicity p-1), so no numeric PSD
    check is needed.  For p = 1 the matrix is [[1.0]] and rho is irrelevant.
    """
    if p < 1:
        raise RhoOutOfRangeError(f"p must be at least 1, got {p}")
    if p > 1:
        lo = -1.0 / (p - 1)
        if not (lo - 1e-12 <= rho <= 1.0 + 1e-12):
            raise RhoOutOfRangeError(
                f"rho = {rho!r} outside [{lo!r}, 1.0] for p = {p}"
            )
    a = np.full((p, p), float(rho))
    np.fill_diagonal(a, 1.0)
    return CorrelationMatrix(SymMatrix(a))
