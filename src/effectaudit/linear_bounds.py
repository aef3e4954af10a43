"""Feasibility bounds for collections of claimed correlations and coefficients.

Three families of checks, all of the form "many simultaneously large effects
force strong interdependence":

* sum of |corr(X_i, y)| against sqrt(p + cross-correlation mass)
  (Van der Corput's inequality applied to standardized variables);
* sum of corr(X_i, y)^2 against the top eigenvalue of the correlation matrix;
* squared norm of least-squares coefficients against 1 / lambda_min of the
  second-moment matrix.

Each check returns a :class:`BoundReport` rather than a bare bool so callers
can see the slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidShapeError,
    TauOutOfRangeError,
    ValueOutOfRangeError,
)
from .matrix_core import CorrelationMatrix, SecondMomentMatrix

FEASIBILITY_TOLERANCE = 1e-9

# Relative eigenvalue threshold below which a second-moment matrix is treated
# as numerically singular and the coefficient-norm bound degenerates to +inf.
RANK_TOLERANCE = 1e-12


class BoundKind(str, Enum):
    VDC = "vdc"
    EIGEN = "eigen"
    REGRESSION = "regression"
    MULTI_OUTCOME = "multi_outcome"


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check: lhs must not exceed rhs."""

    kind: BoundKind
    lhs: float
    rhs: float
    satisfied: bool
    slack: float

    @classmethod
    def from_sides(cls, kind: BoundKind, lhs: float, rhs: float) -> "BoundReport":
        return cls(
            kind=kind,
            lhs=float(lhs),
            rhs=float(rhs),
            satisfied=bool(lhs <= rhs + FEASIBILITY_TOLERANCE),
            slack=float(rhs - lhs),
        )


@dataclass(frozen=True, eq=False)
class ClaimSet:
    """Claimed absolute correlations with one outcome, optionally with the
    cross-correlation matrix of the explanatory variables."""

    tau: np.ndarray
    cross: CorrelationMatrix | None = None

    def __post_init__(self):
        t = np.asarray(self.tau, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise DimensionMismatchError("tau must be a non-empty 1-D array")
        for i in np.flatnonzero(~((t >= 0.0) & (t <= 1.0))):  # NaN fails both
            raise TauOutOfRangeError(float(t[i]), int(i))
        if self.cross is not None and self.cross.dim != t.size:
            raise DimensionMismatchError(
                f"cross matrix is {self.cross.dim}x{self.cross.dim}, "
                f"but {t.size} claims were given"
            )
        tt = np.array(t)
        tt.flags.writeable = False
        object.__setattr__(self, "tau", tt)

    @property
    def p(self) -> int:
        return int(self.tau.size)


@dataclass(frozen=True, eq=False)
class RegressionSolution:
    """Least-squares coefficients with the spectral norm bound ||beta||^2 <= 1/lambda_min."""

    beta: np.ndarray
    norm_sq: float
    bound: float
    lambda_min: float

    def __post_init__(self):
        b = np.array(self.beta, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class TightnessInstance:
    """Equicorrelated construction on which the correlation-sum bound is tight.

    With off-diagonal correlation tau^2 among the p explanatory variables and
    y proportional to their sum, every corr(X_i, y) equals ``implied_corr``,
    which approaches tau from above as p grows.  Only the closed-form
    spectrum is kept; ``equicorrelation(p, tau**2)`` builds the matrix itself.
    """

    p: int
    tau: float
    implied_corr: float
    off_diagonal: float  # tau^2
    sum_sq_corr: float  # p * implied_corr^2; equals lambda_max in real arithmetic
    lambda_max: float  # top eigenvalue of the equicorrelation matrix
    gap: float  # lambda_max - sum_sq_corr


def _check_corr_vector(corr_xy: np.ndarray, cross: CorrelationMatrix) -> np.ndarray:
    c = np.asarray(corr_xy, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise DimensionMismatchError("corr_xy must be a non-empty 1-D array")
    for i in np.flatnonzero(~(np.abs(c) <= 1.0 + 1e-12)):  # NaN fails too
        raise ValueOutOfRangeError("corr_xy", float(c[i]), "outside [-1, 1]", int(i))
    if cross.dim != c.size:
        raise DimensionMismatchError(
            f"corr_xy has length {c.size}, cross is {cross.dim}x{cross.dim}"
        )
    return c


def _check_p_tau(p: int, tau: float) -> None:
    if p < 1:
        raise DimensionMismatchError(f"p must be at least 1, got {p}")
    if not 0.0 <= tau <= 1.0:
        raise TauOutOfRangeError(tau)


def _check_eps(eps: float) -> None:
    # eps is one minus a correlation; in [0, 2], sqrt(2 eps) stays finite.
    if not 0.0 <= eps <= 2.0:  # NaN fails too
        raise InvalidShapeError(f"eps must be finite and in [0, 2], got {eps!r}")


def vdc_check(corr_xy: np.ndarray, cross: CorrelationMatrix) -> BoundReport:
    """Check sum |corr(X_i, y)| <= sqrt(p + sum_{i != j} |cross_ij|).

    Holds for any joint distribution (including the empirical one), so a
    violation means the claimed numbers cannot coexist.
    """
    c = _check_corr_vector(corr_xy, cross)
    lhs = float(np.abs(c).sum())
    rhs = math.sqrt(c.size + cross.off_diagonal_abs_mass())
    return BoundReport.from_sides(BoundKind.VDC, lhs, rhs)


def eigen_bound_check(corr_xy: np.ndarray, cross: CorrelationMatrix) -> BoundReport:
    """Check sum corr(X_i, y)^2 <= lambda_max(cross)."""
    c = _check_corr_vector(corr_xy, cross)
    lhs = float(np.dot(c, c))
    rhs = cross.base.eigen.max_value
    return BoundReport.from_sides(BoundKind.EIGEN, lhs, rhs)


def min_cross_mass(p: int, tau: float) -> float:
    """Cross-correlation mass forced by p claims of size at least tau.

    If |corr(X_i, y)| >= tau for all i, then sum_{i != j} |corr(X_i, X_j)|
    >= p (tau^2 p - 1).  Returned unclipped: a non-positive value means the
    claims are vacuously compatible with uncorrelated variables.
    """
    _check_p_tau(p, tau)
    return p * (tau**2 * p - 1.0)


def claims_cross_mass(tau: np.ndarray) -> float:
    """Cross-correlation mass forced by claims |corr(X_i, y)| >= tau_i.

    The sum bound sum_i |corr(X_i, y)| <= sqrt(p + mass) gives
    mass >= (sum_i tau_i)^2 - p, which uses every claim and is never below
    ``min_cross_mass(p, min(tau))``.  Equal claims are computed by that
    function's formula, p (tau^2 p - 1), so their value does not depend on a
    summation order.  Returned unclipped, like :func:`min_cross_mass`.
    """
    t = np.asarray(tau, dtype=float)
    lo, hi = float(t.min()), float(t.max())
    if lo == hi:
        return min_cross_mass(t.size, lo)
    if not (0.0 <= lo and hi <= 1.0):  # NaN fails too
        raise TauOutOfRangeError(hi if 0.0 <= lo else lo)
    return float(t.sum()) ** 2 - t.size


def multi_outcome_min_mass(p: int, tau: float, eps: float) -> float:
    """Cross-correlation mass forced by claims on p nearly-identical outcomes.

    When all pairs of outcomes correlate at least 1 - eps and each
    |corr(X_i, Y_i)| >= tau, the mass bound becomes
    p ((tau - sqrt(2 eps))^2 p - 1).  For tau < sqrt(2 eps) the derivation's
    lower bound on corr(X_i, Y_1) turns negative and the formula carries no
    information; callers should treat that case as degenerate (see
    :func:`multi_outcome_degenerate`).
    """
    _check_p_tau(p, tau)
    _check_eps(eps)
    return p * ((tau - math.sqrt(2.0 * eps)) ** 2 * p - 1.0)


def multi_outcome_degenerate(tau: float, eps: float) -> bool:
    """True when the multi-outcome bound is uninformative (tau < sqrt(2 eps))."""
    _check_eps(eps)
    return tau < math.sqrt(2.0 * eps)


def fit_least_squares(m: SecondMomentMatrix, c: np.ndarray) -> RegressionSolution:
    """Solve m beta = c and attach the norm bound ||beta||^2 <= 1/lambda_min(m).

    ``m`` is the second-moment matrix E(X X^T) and ``c`` the cross-moment
    vector E(y X) for a unit-variance y under the same distribution (the
    caller's responsibility).  A numerically singular ``m`` (lambda_min at or
    below RANK_TOLERANCE relative to lambda_max) yields a bound of +inf: with
    a zero eigenvalue the norm bound is trivially infinite.  Its coefficients
    are the minimum-norm solution with every direction at or below that same
    cutoff dropped, so beta has no part along a direction the bound calls
    singular.
    """
    cv = np.asarray(c, dtype=float)
    if cv.ndim != 1 or cv.size != m.dim:
        raise DimensionMismatchError(
            f"c has shape {cv.shape}, expected ({m.dim},)"
        )
    lam_min, lam_max = m.min_eigenvalue, m.max_eigenvalue
    cutoff = RANK_TOLERANCE * max(1.0, lam_max)
    if lam_min <= cutoff:
        bound = math.inf
        if lam_max <= cutoff:  # every direction is singular
            beta = np.zeros(m.dim)
        else:  # lstsq drops the singular values at or below rcond * sigma_max
            beta = np.linalg.lstsq(m.entries, cv, rcond=cutoff / lam_max)[0]
    else:
        beta = np.linalg.solve(m.entries, cv)
        bound = 1.0 / lam_min
    norm_sq = float(np.dot(beta, beta))
    return RegressionSolution(beta=beta, norm_sq=norm_sq, bound=bound, lambda_min=lam_min)


def tightness_instance(p: int, tau: float) -> TightnessInstance:
    """Build the equicorrelated instance where the correlation-sum bound is tight.

    implied_corr = (1 + (p-1) tau^2) / sqrt(p + p (p-1) tau^2), which lies in
    [tau, 1] and decreases toward tau as p grows.
    """
    _check_p_tau(p, tau)
    t = float(tau)
    lambda_max = 1.0 + (p - 1) * t**2
    implied = lambda_max / math.sqrt(p + p * (p - 1) * t**2)
    sum_sq = p * implied**2
    return TightnessInstance(
        p=p,
        tau=t,
        implied_corr=implied,
        off_diagonal=t**2,
        sum_sq_corr=sum_sq,
        lambda_max=lambda_max,
        gap=lambda_max - sum_sq,
    )
