"""Finite-sample correlation identities and Monte Carlo verification.

Sample correlation is an inner product of standardized vectors (centered,
unit length, hence orthogonal to the all-ones direction).  For a matrix of
standardized columns the sum of squared correlations with any response
decomposes over the singular values,

    sum_i corr(X_i, y)^2 = sum_k sigma_k^2 (U_k^T y*)^2 <= sigma_1^2,

and averages to p / (n - 1) over responses drawn uniformly from the sphere.
For such a response, y* is uniform on the unit sphere of the (n - 1)-
dimensional subspace orthogonal to the all-ones vector, so its coordinates
along the p left singular vectors and the rest of that subspace are a
normalized Gaussian vector.  The statistic therefore has the exact law

    sum_k sigma_k^2 z_k^2 / (sum_k z_k^2 + chi^2_{n-1-p}),

with z_k iid N(0, 1) and an independent chi-square (identically 0 when
n - 1 = p).  The Monte Carlo routines draw from this law directly: one draw
costs O(p) time and memory, whatever n is, and zero singular values of
rank-deficient designs carry exactly zero weight.  The chi-square mixture
(1/(n-1)) sum_k sigma_k^2 xi_k that :func:`chisq_mixture_compare` measures
against is only the large-n limit of this law; at small n the two differ by
construction (a KS distance near 0.09 at n=11, p=5).  That distance is the
two-sample Kolmogorov-Smirnov statistic, computed here in numpy; it equals
scipy's ``ks_2samp(...).statistic`` bit for bit, including the exact-mode
rounding to a multiple of 1/lcm(n1, n2) when neither sample has more than
10000 values.

The singular values come from the design's one Gram-matrix eigendecomposition.
The rank they imply is decided by a QR of X V accumulated over fixed row
blocks, so reading them holds no n x p array beyond the data.  Left singular
vectors are built only by :func:`svd`, on request.

This module provides the exact pieces (standardize, svd, sum_sq_corr) and the
stochastic ones (mean estimation, a chi-square mixture comparison), all
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConstantVectorError,
    ConvergenceFailureError,
    DimensionMismatchError,
    InvalidShapeError,
    NotStandardizedError,
)
from .matrix_core import SymMatrix

COLUMN_MEAN_TOLERANCE = 1e-10
COLUMN_NORM_TOLERANCE = 1e-10
CONSTANT_REL_TOLERANCE = 1e-14
SINGULAR_VALUE_CUTOFF = 1e-12

# Trials per vectorized batch in the Monte Carlo loops.  Part of the
# determinism contract: a fixed seed always replays the same batch
# boundaries and therefore the same accumulator arithmetic.
_BATCH = 4096

# Rows per block of the QR that decides the rank: one block's X V product is
# the largest array the rank decision holds.  On a 20000 x 50 design, 2048 to
# 8192 rows took 34-36 ms and 1024 rows 44 ms.
_QR_ROWS = 2048

# Memory one request may hold where it grows with an option, and what one
# chisq_mixture_compare call holds per trial (tracemalloc peak over trials:
# 57 bytes at 10^5 trials and p = 50, 56 at 10^6, whatever p is).
# simulate-sphere refuses more trials than fit.
MEMORY_BUDGET = 2**30
_MIXTURE_BYTES_PER_TRIAL = 64
MAX_MIXTURE_TRIALS = MEMORY_BUDGET // _MIXTURE_BYTES_PER_TRIAL

# What simulate-sphere holds per cell of its random n x p design (the raw
# draw, its standardized copy and the Gram route; tracemalloc peak through
# the CLI over n * p: 32-33 bytes at n * p = 10^6 to 3 * 10^6, p = 1 to 10).
# simulate-sphere refuses a larger design than fits.
_SPHERE_BYTES_PER_CELL = 64
MAX_SPHERE_CELLS = MEMORY_BUDGET // _SPHERE_BYTES_PER_CELL

# Largest sample for which scipy's ks_2samp (method "auto") computes the
# exact p-value, rounding the statistic to a multiple of 1/lcm(n1, n2).
_KS_EXACT_MAX_N = 10000


@dataclass(frozen=True, eq=False)
class StandardizedVector:
    """Vector with mean 0 and unit Euclidean norm."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(np.asarray(self.values, dtype=float))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """n x p data matrix whose columns are standardized, with n > p >= 1.

    The Gram matrix and the Gram-route factors behind :func:`svd` (singular
    values with the rank applied, and right vectors) are computed on first
    use and kept, so every consumer of one design shares them.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise InvalidShapeError(f"expected 2-D data, got shape {a.shape}")
        n, p = a.shape
        if p < 1 or n <= p:
            raise InvalidShapeError(f"need n > p >= 1, got n={n}, p={p}")
        means = a.mean(axis=0)
        if np.any(np.abs(means) > COLUMN_MEAN_TOLERANCE):
            raise NotStandardizedError("columns are not centered")
        norms = np.linalg.norm(a, axis=0)
        if np.any(np.abs(norms - 1.0) > COLUMN_NORM_TOLERANCE):
            raise NotStandardizedError("columns do not have unit norm")
        a = np.array(a)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_raw(cls, data: np.ndarray) -> "SampleMatrix":
        """Standardize each column of raw data."""
        d = np.asarray(data, dtype=float)
        if d.ndim != 2:
            raise InvalidShapeError(f"expected 2-D data, got shape {d.shape}")
        cols = [standardize(d[:, j]).values for j in range(d.shape[1])]
        return cls(np.column_stack(cols))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]

    # Memoizing is safe: the dataclass is frozen and ``entries`` is read-only.
    @cached_property
    def gram(self) -> SymMatrix:
        """X^T X, exactly symmetrized: the columns' sample correlation matrix."""
        return SymMatrix.symmetrized(self.entries.T @ self.entries)

    @cached_property
    def _svd_parts(self) -> tuple[np.ndarray, np.ndarray]:
        return _gram_route(self)

    @property
    def singular_values(self) -> np.ndarray:
        """The descending, read-only singular values of :func:`svd`, without its left vectors."""
        return self._svd_parts[0]


@dataclass(frozen=True, eq=False)
class SvdFactorization:
    """X = sum_k sigma_k U_k V_k^T with orthonormal U and V columns.

    ``singular_values`` are descending; zeros mark directions below the
    rank cutoff, whose left vectors are an arbitrary orthonormal completion
    (chosen orthogonal to the all-ones vector as well).
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        for name in ("singular_values", "left_vectors", "right_vectors"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def sigma1_sq(self) -> float:
        return float(self.singular_values[0] ** 2)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Mean estimate with its standard error, trial count, and seed."""

    mean: float
    stderr: float
    trials: int
    seed: int


@dataclass
class RunningMoments:
    """Single-pass accumulator for count, mean, and centered second moment.

    Batches combine by the standard parallel-update formula, so results are
    independent of how trials are split into batches of the same order.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            return
        b_count = int(v.size)
        b_mean = float(v.mean())
        b_m2 = float(((v - b_mean) ** 2).sum())
        total = self.count + b_count
        delta = b_mean - self.mean
        self.mean += delta * b_count / total
        self.m2 += b_m2 + delta * delta * self.count * b_count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        if self.count < 1:
            return 0.0
        return self.std / math.sqrt(self.count)


def standardize(x: np.ndarray) -> StandardizedVector:
    """Center and scale to unit norm; idempotent on already-standardized input.

    Raises :class:`ConstantVectorError` when the centered vector's norm is at
    most 1e-14 times the input's norm (constant vectors, including zero).
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise InvalidShapeError(f"expected a 1-D vector of length >= 2, got shape {v.shape}")
    centered = v - v.mean()
    norm = float(np.linalg.norm(centered))
    if norm <= CONSTANT_REL_TOLERANCE * float(np.linalg.norm(v)):
        raise ConstantVectorError("vector is constant up to rounding")
    return StandardizedVector(centered / norm)


def _pad_orthonormal(
    basis: list[np.ndarray], n: int, count: int
) -> list[np.ndarray]:
    """Deterministically extend ``basis`` by ``count`` orthonormal vectors.

    Candidates are canonical unit vectors, orthogonalized against the current
    basis and the all-ones direction so padded vectors standardize to
    themselves.
    """
    ones = np.full(n, 1.0 / math.sqrt(n))
    out: list[np.ndarray] = []
    have = list(basis) + [ones]
    e = 0
    while len(out) < count:
        if e >= n:
            raise ConvergenceFailureError("could not complete an orthonormal basis")
        cand = np.zeros(n)
        cand[e] = 1.0
        e += 1
        for _ in range(2):  # two Gram-Schmidt sweeps for orthogonality to machine precision
            for u in have:
                cand = cand - np.dot(u, cand) * u
        norm = float(np.linalg.norm(cand))
        if norm > 1e-6:
            cand /= norm
            out.append(cand)
            have.append(cand)
    return out


def _gram_route(x: SampleMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right vectors of :func:`svd`, with the rank decided.

    Read from the design's one eigendecomposition, ``x.gram.eigen``:
    sigma_k = sqrt(lambda_k).  The rank is the first k at which X V_k
    collapses: |R_kk| / sigma_k < 0.5, where R is the triangular factor of
    X V (|R_kk| is the norm of X V_k less its projection onto X V_0 .. X V_{k-1}).
    Directions with sigma_k <= 1e-12 are not tested; they and every one from
    the rank on are exact zeros in the returned singular values.  R is accumulated
    over blocks of ``_QR_ROWS`` rows, so no n x p product is held, and no
    left vector is built.  Callers read the memoized ``x._svd_parts``
    instead of calling this again.
    """
    a = x.entries
    n, p = a.shape
    dec = x.gram.eigen
    v = dec.vectors
    sigma = np.sqrt(np.maximum(dec.values, 0.0))

    k = int(np.count_nonzero(sigma > SINGULAR_VALUE_CUTOFF))
    vk = v[:, :k]
    r = np.empty((0, k))
    for start in range(0, n, _QR_ROWS):
        r = np.linalg.qr(np.vstack([r, a[start:start + _QR_ROWS] @ vk]), mode="r")
    # A collapsed sigma_k is eigensolver noise: the direction has no real mass.
    collapsed = np.flatnonzero(np.abs(np.diagonal(r)) / sigma[:k] < 0.5)
    rank = int(collapsed[0]) if collapsed.size else k

    sigma_out = np.zeros(p)
    sigma_out[:rank] = sigma[:rank]
    sigma_out.flags.writeable = False
    return sigma_out, v


def svd(x: SampleMatrix) -> SvdFactorization:
    """Singular value decomposition via the p x p Gram matrix.

    Singular values, right vectors and the rank are the design's memoized
    Gram-route factors: right vectors come from the symmetric eigensolver on
    X^T X (n > p, small p), and directions whose singular value falls below
    1e-12, or whose X V_k collapses (the Gram route cannot resolve singular
    values near sqrt(machine eps)), are reported as exact zeros.  Left vectors
    exist only here: the Q of one reduced QR of X V_r / sigma_r, with column
    signs making diag(R) positive (the Gram-Schmidt orthonormalization of
    X V_k / sigma_k), followed by an orthonormal completion for the zeros.
    """
    sigma, v = x._svd_parts
    rank = int(np.count_nonzero(sigma))
    q, r = np.linalg.qr(x.entries @ v[:, :rank] / sigma[:rank])
    q *= np.sign(np.diagonal(r))
    pad = _pad_orthonormal(list(q.T), x.n, x.p - rank)
    return SvdFactorization(
        singular_values=sigma,
        left_vectors=np.column_stack([q, *pad]),
        right_vectors=v,
    )


def sum_sq_corr(x: SampleMatrix, y: np.ndarray) -> float:
    """Sum over columns of corr(X_i, y)^2 for a raw response vector."""
    ys = standardize(y)
    if ys.n != x.n:
        raise DimensionMismatchError(f"y has length {ys.n}, X has {x.n} rows")
    c = x.entries.T @ ys.values
    return float(np.dot(c, c))


def random_sample_matrix(n: int, p: int, rng: np.random.Generator) -> SampleMatrix:
    """Random standardized matrix: independent normal entries, columns standardized."""
    if p < 1 or n <= p:
        raise InvalidShapeError(f"need n > p >= 1, got n={n}, p={p}")
    return SampleMatrix.from_raw(rng.standard_normal((n, p)))


def _law_sum_sq_batches(
    sigma_sq: np.ndarray, n: int, trials: int, rng: np.random.Generator
):
    """Yield batches of sum_sq_corr values for sphere-uniform responses.

    Draws from the exact law sum_k sigma_k^2 z_k^2 / (sum_k z_k^2 + chi^2_{n-1-p})
    given the squared singular values of an n-row design; a batch of m trials
    takes m x p memory.
    """
    p = sigma_sq.size
    dof = n - 1 - p
    done = 0
    while done < trials:
        m = min(_BATCH, trials - done)
        z = rng.standard_normal((m, p))
        z *= z
        total = z.sum(axis=1)
        if dof > 0:
            total += rng.chisquare(dof, size=m)
        yield (z @ sigma_sq) / total
        done += m


def expected_sum_sq(n: int, p: int) -> float:
    """Exact sphere-average of the summed squared correlations: p / (n - 1)."""
    if p < 1 or n <= p:
        raise InvalidShapeError(f"need n > p >= 1, got n={n}, p={p}")
    return p / (n - 1)


def expected_sum_sq_mc(x: SampleMatrix, trials: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo estimate of E(sum_i corr(X_i, y)^2) under sphere-uniform y.

    Trials are drawn from the exact law of the statistic (see the module
    docstring), so the cost is O(trials * p) after the design's one spectral
    step.  A fixed ``seed`` reproduces the estimate bit for bit.
    """
    if trials < 2:
        raise InvalidShapeError(f"need at least 2 trials, got {trials}")
    sigma_sq = x.singular_values ** 2
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    moments = RunningMoments()
    for batch in _law_sum_sq_batches(sigma_sq, x.n, trials, rng):
        moments.update(batch)
    return MonteCarloEstimate(
        mean=moments.mean, stderr=moments.stderr, trials=trials, seed=int(seed)
    )


def chisq_mixture_compare(x: SampleMatrix, trials: int, seed: int) -> float:
    """Kolmogorov-Smirnov distance between simulated sums and the chi-square mixture.

    Compares per-trial values of sum_i corr(X_i, y)^2 under sphere-uniform y,
    drawn from the exact finite-sample law, against draws of
    (1/(n-1)) sum_k sigma_k^2 xi_k with xi_k iid chi-square(1).  The mixture is
    the asymptotic (large-n) law, so the distance measures that approximation
    as well as sampling noise: it is near 0.09 at n=11, p=5 however many
    trials are drawn.  Returns the two-sample KS statistic, computed in numpy
    by :func:`_ks_statistic` and equal to scipy's two-sample statistic,
    including its exact-mode rounding at 10000 trials or fewer; no pass/fail
    judgement is made here.  Both samples are drawn in batches of ``_BATCH``
    trials; memory is about 56 bytes per trial, whatever p is.
    """
    if trials < 1000:
        raise InvalidShapeError(f"need at least 1000 trials for a stable distance, got {trials}")
    rng_sim = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    rng_mix = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    sigma_sq = x.singular_values ** 2
    sim = np.empty(trials)
    mix = np.empty(trials)
    done = 0
    for batch in _law_sum_sq_batches(sigma_sq, x.n, trials, rng_sim):
        m = batch.size
        sim[done:done + m] = batch
        # Row-major draws: the same values as one (trials, p) draw.
        mix[done:done + m] = rng_mix.chisquare(1.0, size=(m, sigma_sq.size)) @ sigma_sq
        done += m
    mix /= x.n - 1
    return _ks_statistic(sim, mix)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.

    Reproduces ``scipy.stats.ks_2samp(a, b).statistic`` (two-sided, method
    "auto") bit for bit: the empirical CDFs are divided separately, and when
    neither sample exceeds 10000 values the statistic is rounded to the
    nearest multiple of 1/lcm(n1, n2), as scipy's exact mode does.
    """
    a = np.sort(a)
    b = np.sort(b)
    n1, n2 = a.size, b.size
    # The CDF difference at a's points, then at b's: the extremes over the
    # union, without holding an (n1 + n2)-sized array.
    hi, lo = -np.inf, np.inf
    for points in (a, b):
        diff = np.searchsorted(a, points, side="right") / n1
        diff -= np.searchsorted(b, points, side="right") / n2
        hi = max(hi, float(diff.max()))
        lo = min(lo, float(diff.min()))
    d = max(hi, float(np.clip(-lo, 0.0, 1.0)))
    if max(n1, n2) <= _KS_EXACT_MAX_N:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = round(d * lcm) / lcm
    return d
