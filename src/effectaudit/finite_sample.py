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
construction (a KS distance near 0.09 at n=11, p=5).

This module provides the exact pieces (standardize, svd, sum_sq_corr) and the
stochastic ones (sphere sampling, mean estimation, a chi-square mixture
comparison), all deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import (
    ConstantVectorError,
    ConvergenceFailureError,
    DimensionMismatchError,
    InvalidShapeError,
    NotStandardizedError,
)

COLUMN_MEAN_TOLERANCE = 1e-10
COLUMN_NORM_TOLERANCE = 1e-10
CONSTANT_REL_TOLERANCE = 1e-14
SINGULAR_VALUE_CUTOFF = 1e-12
TRACE_TOLERANCE = 1e-8

# Trials per vectorized batch in the Monte Carlo loops.  Part of the
# determinism contract: a fixed (seed, shards) pair always replays the same
# batch boundaries and therefore the same accumulator arithmetic.
_BATCH = 4096

# Bytes of responses per batch in the direct sphere simulator, which draws a
# full n-vector per trial; its row count shrinks as n grows.
_DIRECT_BATCH_BYTES = 16 * 2**20


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
    """n x p data matrix whose columns are standardized, with n > p >= 1."""

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

    Batches merge by the standard parallel-update formula, so results are
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
        self._combine(b_count, b_mean, b_m2)

    def merge(self, other: "RunningMoments") -> None:
        self._combine(other.count, other.mean, other.m2)

    def _combine(self, b_count: int, b_mean: float, b_m2: float) -> None:
        if b_count == 0:
            return
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


def sample_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Sample correlation as the inner product of standardized vectors."""
    xs = standardize(x)
    ys = standardize(y)
    if xs.n != ys.n:
        raise DimensionMismatchError(f"lengths differ: {xs.n} vs {ys.n}")
    return float(np.dot(xs.values, ys.values))


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


def _gram_route(x: SampleMatrix) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Singular values, kept left vectors and right vectors of :func:`svd`.

    Left vectors are returned only for the directions kept above the cutoff;
    the rest of ``singular_values`` is exact zeros.
    """
    a = x.entries
    p = a.shape[1]
    gram = a.T @ a
    try:
        lam, vecs = np.linalg.eigh((gram + gram.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    order = np.argsort(lam)[::-1]
    lam = np.maximum(lam[order], 0.0)
    v = vecs[:, order]
    sigma = np.sqrt(lam)

    left: list[np.ndarray] = []
    for k in range(p):
        if sigma[k] <= SINGULAR_VALUE_CUTOFF:
            break
        u = a @ v[:, k]
        u /= sigma[k]
        for w in left:  # re-orthonormalize against previously kept vectors
            u -= np.dot(w, u) * w
        norm = float(np.linalg.norm(u))
        if norm < 0.5:
            # sigma[k] is eigensolver noise: the direction has no real mass.
            break
        u /= norm
        left.append(u)

    r = len(left)
    sigma_out = np.zeros(p)
    sigma_out[:r] = sigma[:r]
    return sigma_out, left, v


def svd(x: SampleMatrix) -> SvdFactorization:
    """Singular value decomposition via the p x p Gram matrix.

    Right vectors come from the symmetric eigensolver on X^T X (n > p, small
    p); left vectors are X V_k / sigma_k, re-orthonormalized by one
    Gram-Schmidt pass.  Directions whose singular value falls below 1e-12, or
    whose recovered left vector collapses (the Gram route cannot resolve
    singular values near sqrt(machine eps)), are reported as exact zeros and
    their left vectors filled in by an orthonormal completion.
    """
    sigma, left, v = _gram_route(x)
    left.extend(_pad_orthonormal(left, x.n, x.p - len(left)))
    return SvdFactorization(
        singular_values=sigma,
        left_vectors=np.column_stack(left),
        right_vectors=v,
    )


def sum_sq_corr(x: SampleMatrix, y: np.ndarray) -> float:
    """Sum over columns of corr(X_i, y)^2 for a raw response vector."""
    ys = standardize(y)
    if ys.n != x.n:
        raise DimensionMismatchError(f"y has length {ys.n}, X has {x.n} rows")
    c = x.entries.T @ ys.values
    return float(np.dot(c, c))


def sample_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere in R^n (normalized Gaussian vector)."""
    if n < 2:
        raise InvalidShapeError(f"need n >= 2, got {n}")
    while True:
        g = rng.standard_normal(n)
        norm = float(np.linalg.norm(g))
        if norm > 0.0:
            return g / norm


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


def _direct_sum_sq_batches(
    x: SampleMatrix,
    trials: int,
    rng: np.random.Generator,
    batch_bytes: int = _DIRECT_BATCH_BYTES,
):
    """Yield batches of sum_sq_corr values by drawing each response in R^n.

    The O(trials * n * p) reference simulator behind the exact-law sampler.
    Rows are drawn row-major, so the draws do not depend on ``batch_bytes``,
    which only caps the memory of one batch.
    """
    a = x.entries
    n = x.n
    rows = max(1, batch_bytes // (8 * n))
    done = 0
    while done < trials:
        m = min(rows, trials - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)  # uniform on the sphere
        g -= g.mean(axis=1, keepdims=True)
        g /= np.linalg.norm(g, axis=1, keepdims=True)  # standardized response
        c = g @ a
        yield (c * c).sum(axis=1)
        done += m


def expected_sum_sq(n: int, p: int) -> float:
    """Exact sphere-average of the summed squared correlations: p / (n - 1)."""
    if p < 1 or n <= p:
        raise InvalidShapeError(f"need n > p >= 1, got n={n}, p={p}")
    return p / (n - 1)


def expected_sum_sq_mc(
    x: SampleMatrix, trials: int, seed: int, shards: int = 1
) -> MonteCarloEstimate:
    """Monte Carlo estimate of E(sum_i corr(X_i, y)^2) under sphere-uniform y.

    Trials are drawn from the exact law of the statistic (see the module
    docstring), so the cost is O(trials * p) after one O(n * p^2) spectral
    step.  Trials split across ``shards`` independent substreams derived from
    ``seed``; a fixed (seed, shards) pair reproduces the estimate bit for bit
    regardless of execution order.
    """
    if trials < 2:
        raise InvalidShapeError(f"need at least 2 trials, got {trials}")
    if shards < 1 or shards > trials:
        raise InvalidShapeError(f"bad shard count {shards} for {trials} trials")
    sigma_sq = _gram_route(x)[0] ** 2
    base, extra = divmod(trials, shards)
    moments = RunningMoments()
    for shard in range(shards):
        shard_trials = base + (1 if shard < extra else 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard,)))
        shard_moments = RunningMoments()
        for batch in _law_sum_sq_batches(sigma_sq, x.n, shard_trials, rng):
            shard_moments.update(batch)
        moments.merge(shard_moments)
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
    trials are drawn.  Returns the two-sample KS statistic; no pass/fail
    judgement is made here.
    """
    if trials < 1000:
        raise InvalidShapeError(f"need at least 1000 trials for a stable distance, got {trials}")
    rng_sim = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    rng_mix = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    sigma_sq = _gram_route(x)[0] ** 2
    sim = np.concatenate(list(_law_sum_sq_batches(sigma_sq, x.n, trials, rng_sim)))
    xi = rng_mix.chisquare(1.0, size=(trials, sigma_sq.size))
    mix = (xi @ sigma_sq) / (x.n - 1)
    return float(stats.ks_2samp(sim, mix).statistic)
