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
(1/(n-1)) sum_k sigma_k^2 xi_k, with each xi_k a squared standard normal, is
only the large-n limit of this law; at small n the two differ by construction
(a KS distance near 0.09 at n=11, p=5).  :func:`chisq_mixture_compare` draws
the exact law once and reports both the sample's mean, with the bits
:func:`expected_sum_sq_mc` gives for the same seed, and its distance to the
mixture.  That distance is the two-sample Kolmogorov-Smirnov statistic,
computed here in numpy; it equals scipy's ``ks_2samp(...).statistic`` bit for
bit, including the exact-mode rounding to a multiple of 1/lcm(n1, n2) when
neither sample has more than 10000 values.

The singular values are the square roots of the eigenvalues of X^T X, which an
audit reads from one Gram product of its standardized table; :func:`svd`
decides how many of them are real.  When the smallest clears a guard derived
from the rounding errors involved, that spectrum alone certifies full rank;
otherwise the rank is decided by a QR of X V accumulated over fixed row blocks,
so no n x p array is held beyond the data.  The sphere simulation draws a
random design's spectrum by Bartlett's decomposition, in O(p^2) draws whatever
n is.

This module provides the exact pieces (standardize, svd) and the stochastic
ones (a random spectrum, mean estimation, and mean estimation with a
chi-square mixture comparison), all deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstantVectorError, InvalidShapeError
from .matrix_core import EigenDecomposition, SymMatrix

CONSTANT_REL_TOLERANCE = 1e-14
SINGULAR_VALUE_CUTOFF = 1e-12

# numpy's pairwise mean of a row a errs by at most (log2 n + 14) u ||a|| / sqrt(n)
# (u = eps / 2), so one centering pass leaves a component along the all-ones
# direction of s <= (log2 n + 16) u ||a|| / ||centered a||.  That moves a correlation
# of two such rows by at most s_1^2 + s_2^2 + s_1 s_2 <= 3 max(s)^2, within eps
# while s <= sqrt(eps / 3).  Rows whose bound exceeds that, only those with means
# above a few 10^6 sd, are centered again (the corrected two-pass algorithm of
# Chan, Golub and LeVeque, 1983).
_RECENTER = np.finfo(float).eps / 2 / math.sqrt(np.finfo(float).eps / 3)

# A row whose squared norm falls outside this range may have overflowed, or lost
# bits to underflow once centered (a row that is not constant keeps at least
# 1e-28 of it), so it is first scaled by a power of two to a largest entry in
# [0.5, 1).  That scaling is exact and standardizing is scale-invariant.
_NORM_SQ_RANGE = (2.0**-600, 2.0**600)

# Trials per vectorized batch in the Monte Carlo loops.  Part of the
# determinism contract: a fixed seed always replays the same batch
# boundaries and therefore the same accumulator arithmetic.
_BATCH = 4096

# Rows per block of the QR that decides the rank: one block's X V product is
# the largest array the rank decision holds.  On a 20000 x 50 design, 2048 to
# 8192 rows took 34-36 ms and 1024 rows 44 ms.
_QR_ROWS = 2048

# The spectrum certifies full rank when
#
#     lambda_min >= _RANK_GUARD * (n + p) * p^2 * eps * lambda_max,
#
# for then the QR below would keep every direction: each |R_kk| / sigma_k is
# within 1e-3 of 1, far from the 0.5 cut.  Derivation (eps = machine epsilon,
# norms are 2-norms; lambda_k, V are the computed eigenpairs of the Gram
# matrix G, so sigma_k^2 = lambda_k; lambda_max >= 1 up to rounding because
# the p columns have unit norm and trace(X^T X) = p):
#
# 1. Forming and symmetrizing G = fl(X^T X): |G - X^T X| <= (n + 1) eps
#    |X|^T |X| entrywise, and || |X|^T |X| || <= || |X| ||_F^2 = p, so the
#    error is at most (n + 1) p eps lambda_max.
# 2. eigh is backward stable: V = W + F with W exactly orthogonal,
#    W Lambda W^T = G + E, ||E|| <= c p eps lambda_max, ||F|| <= c p eps.
# 3. V's loss of orthogonality: V^T (G + E) V = Lambda + K Lambda + Lambda K^T
#    + K Lambda K^T with K = F^T W, ||K|| <= ||F||: at most 3 c p eps lambda_max.
# 4. Householder QR: the product B = fl(X V) is X V plus at most p^2 eps in
#    norm, and the blocked QR returns the exact R of B + D with
#    ||d_j|| <= c (n + p) p eps ||b_j|| per column (Higham, Accuracy and
#    Stability of Numerical Algorithms, Thm 19.4: c (m + p) p eps for a block
#    of m rows stacked under the running p x p factor, summed over the
#    blocks; the sum stays below c (n + p) p eps only while p <= _QR_ROWS, so
#    wider designs are never certified).  So R^T R - B^T B is at most
#    3 c (n + p) p eps s s^T entrywise, with s_j = ||b_j|| and
#    ||s||^2 = trace(B^T B) ~ p: at most 3 c (n + p) p^2 eps in norm.
#
# Together R^T R = Lambda + Delta with ||Delta|| <= delta = C (n + p) p^2 eps
# lambda_max, where C = 10 covers the modest constants c of these bounds.  The
# Schur complement of the leading k - 1 block of R^T R gives
#
#     |R_kk^2 / lambda_k - 1| <= ||Delta|| / lambda_k
#                                + ||Delta||^2 / (lambda_k (lambda_min - ||Delta||)),
#
# so with t = delta / lambda_min <= 1e-3, guaranteed by the guard
# _RANK_GUARD = 1000 C, |R_kk^2 / lambda_k - 1| <= t + t^2 / (1 - t) < 1.002e-3
# and |R_kk / sigma_k - 1| < 5.1e-4.  The bound is loose: on normal designs
# with one near-duplicate column, (n, p) from (50, 5) to (20000, 50) and
# (3000, 200) and lambda_min from 4e-15 to 0.9, |R_kk / sigma_k - 1| stayed
# below 6 eps / lambda_min.
_RANK_GUARD = 1e4

# Memory one request may hold where it grows with an option, and what one
# chisq_mixture_compare call holds per trial: the sample and the mixture, then
# the KS step's merged copy, its merge order and its counts; each batch's
# draws are freed before that step (tracemalloc peak over trials: 58.7 bytes
# at 10^5 trials, 58.1 at 10^6, at p = 5 and p = 50; the two stable sorts'
# merge buffers, from malloc and so not traced, hold at most 8 more).
# simulate-sphere refuses more trials than fit.
MEMORY_BUDGET = 2**30
_MIXTURE_BYTES_PER_TRIAL = 64
MAX_MIXTURE_TRIALS = MEMORY_BUDGET // _MIXTURE_BYTES_PER_TRIAL

# simulate-sphere holds p x p arrays, then one _BATCH x p batch of draws at a
# time, whatever n is (tracemalloc peak through the CLI: 32 bytes per p^2 at
# p = 2000, 10 per _BATCH * p at p = 1000), about 540 MB at MAX_SPHERE_P; its
# chi-square draws of up to n - 1 degrees of freedom stay finite far below
# MAX_SPHERE_N.
MAX_SPHERE_P = 4095
MAX_SPHERE_N = 10**300

# Largest sample for which scipy's ks_2samp (method "auto") computes the
# exact p-value, rounding the statistic to a multiple of 1/lcm(n1, n2).
_KS_EXACT_MAX_N = 10000


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


def standardize(x: np.ndarray) -> np.ndarray:
    """Center each row of a (k, n) array and scale it to unit norm, into a
    new C-ordered (k, n) array; idempotent on already-standardized rows.

    Each row gets the bits of a one-row call on it: a contiguous row's mean is
    numpy's pairwise sum, and its norm is ``sqrt(np.dot(r, r))``, which is what
    ``np.linalg.norm`` computes for 1-D input.  A row near either end of the
    float range is rescaled first (see ``_NORM_SQ_RANGE``), and a row whose
    mean may survive one centering pass (see ``_RECENTER``) is centered again.
    Raises :class:`ConstantVectorError` when a centered row's norm is at most
    1e-14 times the input row's norm (constant rows, including zero); its
    ``rows`` lists every such row.
    """
    a = np.array(x, dtype=float, order="C")
    if a.ndim != 2 or a.shape[1] < 2:
        raise InvalidShapeError(f"expected (k, n) rows with n >= 2, got shape {a.shape}")
    with np.errstate(over="ignore"):
        raw_sq = np.array(list(map(np.dot, a, a)))
    lo, hi = _NORM_SQ_RANGE
    for i in np.flatnonzero(~((lo <= raw_sq) & (raw_sq <= hi))):
        a[i] = np.ldexp(a[i], -math.frexp(np.abs(a[i]).max())[1])
        raw_sq[i] = np.dot(a[i], a[i])
    means = a.mean(axis=1)
    raw_norms = np.sqrt(raw_sq)
    a -= means[:, np.newaxis]
    norms = np.sqrt(list(map(np.dot, a, a)))
    constant = np.flatnonzero(norms <= CONSTANT_REL_TOLERANCE * raw_norms)
    if constant.size:
        raise ConstantVectorError(
            f"rows {constant.tolist()} are constant up to rounding", rows=tuple(constant.tolist())
        )
    for i in np.flatnonzero(_RECENTER * (math.log2(a.shape[1]) + 16) * raw_norms > norms):
        a[i] -= a[i].mean()
        norms[i] = math.sqrt(np.dot(a[i], a[i]))
    a /= norms[:, np.newaxis]
    return a


def _spectrum_certifies_rank(values: np.ndarray, n: int) -> bool:
    """Whether the descending Gram eigenvalues of an n-row design clear the
    ``_RANK_GUARD`` test, so that the QR rank test would keep all p directions."""
    p = values.size
    if p > _QR_ROWS:
        return False
    guard = _RANK_GUARD * (n + p) * p * p * np.finfo(float).eps * values[0]
    return bool(values[-1] >= guard)


def _qr_ratios(rows: np.ndarray, pred, vk: np.ndarray, sigma_k: np.ndarray) -> np.ndarray:
    """|R_jj| / sigma_j for the triangular factor R of X V_k, X^T = ``rows[pred]``.

    |R_jj| is the norm of X V_j less its projection onto X V_0 .. X V_{j-1}.
    R is accumulated over blocks of ``_QR_ROWS`` rows of X; no n x p array is held.
    """
    r = np.empty((0, vk.shape[1]))
    for start in range(0, rows.shape[1], _QR_ROWS):
        # np.linalg.qr copies its input twice, so the old R and each stacked
        # block are dropped as soon as they are read.
        stacked = np.vstack([r, rows[pred, start:start + _QR_ROWS].T @ vk])
        del r
        r = np.linalg.qr(stacked, mode="r")
        del stacked
    return np.abs(np.diagonal(r)) / sigma_k


def svd(rows: np.ndarray, pred, dec: EigenDecomposition) -> np.ndarray:
    """Read-only descending singular values sigma_k = sqrt(lambda_k) of X, with
    exact zeros from the rank on, as ``np.linalg.svd(X, compute_uv=False)`` gives
    them: X^T = ``rows[pred]`` (``pred`` a slice or a list) and ``dec`` is the
    eigendecomposition of X^T X.  The rank is the first k at which X V_k
    collapses: |R_kk| / sigma_k < 0.5, where R is the triangular factor of
    X V (see :func:`_qr_ratios`).  Directions with sigma_k <= 1e-12 are not
    tested; they and every one from the rank on are exact zeros.  When the
    spectrum also passes :func:`_spectrum_certifies_rank`, no ratio can fall
    below 0.5, so the rank is p and ``rows`` is not read.
    """
    p = dec.values.size
    v = dec.vectors
    sigma = np.sqrt(np.maximum(dec.values, 0.0))

    k = int(np.count_nonzero(sigma > SINGULAR_VALUE_CUTOFF))
    if k == p and _spectrum_certifies_rank(dec.values, rows.shape[1]):
        rank = p
    else:
        # A collapsed sigma_k is eigensolver noise: the direction has no real mass.
        collapsed = np.flatnonzero(_qr_ratios(rows, pred, v[:, :k], sigma[:k]) < 0.5)
        rank = int(collapsed[0]) if collapsed.size else k

    sigma_out = np.zeros(p)
    sigma_out[:rank] = sigma[:rank]
    sigma_out.flags.writeable = False
    return sigma_out


def sphere_singular_values(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Singular values of an n x p design of standard normal entries, each column
    standardized, drawn in O(p^2) memory: the design's centered cross-product is
    Wishart_p(n - 1, I), and Bartlett's decomposition draws it as L L^T, with L lower
    triangular, L_ii = sqrt(chi^2_{n-1-i}) and N(0, 1) below; scaling L's rows to unit
    norm makes L L^T the correlation matrix.
    """
    lower = np.tril(rng.standard_normal((p, p)), -1)
    lower[np.diag_indices(p)] = np.sqrt(rng.chisquare((n - 1.0) - np.arange(p)))
    lower /= np.sqrt(np.einsum("ij,ij->i", lower, lower))[:, np.newaxis]
    values = SymMatrix.symmetrized(lower @ lower.T).eigen.values
    return np.sqrt(np.maximum(values, 0.0))


def _law_sum_sq_batches(
    sigma_sq: np.ndarray, n: int, trials: int, rng: np.random.Generator
):
    """Yield batches of sum_sq_corr values for sphere-uniform responses.

    Draws from the exact law sum_k sigma_k^2 z_k^2 / (sum_k z_k^2 + chi^2_{n-1-p})
    given the squared singular values of an n-row design; a batch of m trials
    takes m x p memory.
    """
    p = sigma_sq.size
    if sigma_sq.ndim != 1 or not 1 <= p < n:
        raise InvalidShapeError(f"need n > p >= 1 singular values, got n={n}, {sigma_sq.shape}")
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


def _law_estimate(
    sigma_sq: np.ndarray, n: int, trials: int, seed: int, sample: np.ndarray | None = None
) -> MonteCarloEstimate:
    """Mean of ``trials`` exact-law draws from ``seed``'s spawn-0 stream; each
    batch is also copied into ``sample`` when one is given.

    The values, of order p / (n - 1), are accumulated divided by 2^e, the power
    of two of that order, so their squared deviations do not underflow however
    large n is.  Scaling by a power of two is exact, so wherever nothing
    underflowed unscaled the estimate has the same bits.
    """
    e = math.frexp(expected_sum_sq(n, sigma_sq.size))[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    moments = RunningMoments()
    done = 0
    for batch in _law_sum_sq_batches(sigma_sq, n, trials, rng):
        if sample is not None:
            sample[done:done + batch.size] = batch
            done += batch.size
        moments.update(np.ldexp(batch, -e))
    return MonteCarloEstimate(
        mean=math.ldexp(moments.mean, e),
        stderr=math.ldexp(moments.stderr, e),
        trials=trials,
        seed=int(seed),
    )


def expected_sum_sq_mc(
    singular_values: np.ndarray, n: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of E(sum_i corr(X_i, y)^2) under sphere-uniform y.

    Trials are drawn from the exact law of the statistic (see the module
    docstring), so the cost is O(trials * p) whatever n is.  A fixed ``seed``
    reproduces the estimate bit for bit.
    """
    if trials < 2:
        raise InvalidShapeError(f"need at least 2 trials, got {trials}")
    sigma_sq = np.asarray(singular_values, dtype=float) ** 2
    return _law_estimate(sigma_sq, n, trials, seed)


def chisq_mixture_compare(
    singular_values: np.ndarray, n: int, trials: int, seed: int
) -> tuple[MonteCarloEstimate, float]:
    """Monte Carlo mean of the exact law, and its Kolmogorov-Smirnov distance
    to the chi-square mixture, from one sample.

    The sample is the one :func:`expected_sum_sq_mc` draws for ``seed``, so the
    estimate has its bits.  It is compared against draws of
    (1/(n-1)) sum_k sigma_k^2 xi_k, where each xi_k ~ chi-square(1) is a squared
    standard normal, drawn from ``seed``'s spawn-1 stream in the row-major
    order of one (trials, p) draw.  The mixture is the asymptotic (large-n)
    law, so the distance measures that approximation as well as sampling
    noise: it is near 0.09 at n=11, p=5 however many trials are drawn.  The
    distance is the two-sample KS statistic, computed in numpy by
    :func:`_ks_statistic` and equal to scipy's, including its exact-mode
    rounding at 10000 trials or fewer; no pass/fail judgement is made here.
    Both samples are drawn in batches of ``_BATCH`` trials; memory is about
    59 bytes per trial, whatever p is.
    """
    if trials < 1000:
        raise InvalidShapeError(f"need at least 1000 trials for a stable distance, got {trials}")
    sigma_sq = np.asarray(singular_values, dtype=float) ** 2
    sample = np.empty(trials)
    estimate = _law_estimate(sigma_sq, n, trials, seed, sample)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    mixture = np.empty(trials)
    for start in range(0, trials, _BATCH):
        xi = rng.standard_normal((min(_BATCH, trials - start), sigma_sq.size))
        xi *= xi
        mixture[start:start + xi.shape[0]] = xi @ sigma_sq
        del xi  # before the next batch, and before the KS step
    mixture /= n - 1
    return estimate, _ks_statistic(sample, mixture)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.

    Reproduces ``scipy.stats.ks_2samp(a, b).statistic`` (two-sided, method
    "auto") bit for bit: the empirical CDFs are divided separately, and when
    neither sample exceeds 10000 values the statistic is rounded to the
    nearest multiple of 1/lcm(n1, n2), as scipy's exact mode does.
    """
    n1, n2 = a.size, b.size
    # Each CDF is read as a cumulative count at the last index of each tie
    # run of the merged samples.  A stable sort of the two sorted runs merges
    # them, and its order says which sample each value came from.  Arrays are
    # freed as soon as they are read, and the counts take the narrowest
    # unsigned type that holds n1 + n2, so besides its inputs the step holds
    # about 21 bytes per value (tracemalloc, n1 = n2 = 10^5).
    merged = np.concatenate([a, b])
    merged[:n1].sort()
    merged[n1:].sort()
    from_a = np.argsort(merged, kind="stable") < n1
    merged.sort(kind="stable")
    ends = np.empty(merged.size, bool)
    np.not_equal(merged[1:], merged[:-1], out=ends[:-1])
    ends[-1] = True
    del merged
    count_type = np.min_scalar_type(ends.size)
    count_a = np.cumsum(from_a, dtype=count_type)
    del from_a
    count_b = np.arange(1, ends.size + 1, dtype=count_type)
    count_b -= count_a
    count_a = count_a[ends]
    count_b = count_b[ends]
    diff = count_a / n1
    del count_a
    diff -= count_b / n2
    d = max(float(diff.max()), float(np.clip(-diff.min(), 0.0, 1.0)))
    if max(n1, n2) <= _KS_EXACT_MAX_N:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = round(d * lcm) / lcm
    return d
