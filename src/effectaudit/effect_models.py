"""Aggregate behavior of many independent effects on one outcome.

Two toy models that show why fields of large effects are implausible:

* multiplicative: N effects, each active with probability q and multiplying
  the outcome by m when active.  The total log effect has standard deviation
  sqrt(N q (1-q)) |log m|, so even modest per-effect multipliers imply huge
  swings once N is large.
* additive on the logistic scale: k inputs each contributing delta to the
  log-odds, for a total of k delta; flipping all inputs from "half against"
  to "half in favor" moves the outcome probability from sigmoid(-total/2) to
  sigmoid(+total/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShapeError
from .finite_sample import MonteCarloEstimate, RunningMoments

_SIM_BATCH = 65536


@dataclass(frozen=True)
class MultiplicativeField:
    """N independent multiplicative effects, each active with probability q."""

    count: int
    multiplier: float
    activation_prob: float = 0.5

    def __post_init__(self):
        if self.count < 1:
            raise InvalidShapeError(f"count must be at least 1, got {self.count}")
        if not self.multiplier > 0.0:
            raise InvalidShapeError(f"multiplier must be positive, got {self.multiplier!r}")
        if not 0.0 < self.activation_prob < 1.0:
            raise InvalidShapeError(
                f"activation probability must lie in (0, 1), got {self.activation_prob!r}"
            )


@dataclass(frozen=True)
class LogisticField:
    """k causal inputs, each adding delta on the log-odds scale."""

    count: int
    per_effect_logit: float

    def __post_init__(self):
        if self.count < 1:
            raise InvalidShapeError(f"count must be at least 1, got {self.count}")
        if not math.isfinite(self.per_effect_logit):
            raise InvalidShapeError(
                f"per_effect_logit must be finite, got {self.per_effect_logit!r}"
            )


@dataclass(frozen=True)
class AggregateSummary:
    """Spread of the total multiplicative effect: one-sd band around neutral."""

    sd_log: float
    low_multiplier: float
    high_multiplier: float


def aggregate_sd_log(field: MultiplicativeField) -> float:
    """Standard deviation of the total log effect: sqrt(N q (1-q)) |log m|."""
    q = field.activation_prob
    return math.sqrt(field.count * q * (1.0 - q)) * abs(math.log(field.multiplier))


def multiplier_range(field: MultiplicativeField) -> AggregateSummary:
    """One-sd multiplier band; low and high are exact reciprocals."""
    sd = aggregate_sd_log(field)
    return AggregateSummary(
        sd_log=sd,
        low_multiplier=math.exp(-sd),
        high_multiplier=math.exp(sd),
    )


def simulate_multiplicative(
    field: MultiplicativeField, trials: int, seed: int, shards: int = 1
) -> MonteCarloEstimate:
    """Estimate the sd of the total log effect by simulation.

    Each trial activates effects independently and records the centered total
    log effect; the estimate's ``mean`` is the sample standard deviation of
    those totals.  Because the estimand is an sd rather than a mean,
    ``stderr`` is the normal-theory standard error of a sample standard
    deviation, sd / sqrt(2 (trials - 1)); totals are sums of independent
    activations, so the normal approximation is accurate for any
    non-trivial count.  Deterministic for a fixed (seed, shards) pair.
    """
    if trials < 2:
        raise InvalidShapeError(f"need at least 2 trials, got {trials}")
    if shards < 1 or shards > trials:
        raise InvalidShapeError(f"bad shard count {shards} for {trials} trials")
    log_m = math.log(field.multiplier)
    center = field.count * field.activation_prob * log_m
    base, extra = divmod(trials, shards)
    moments = RunningMoments()
    for shard in range(shards):
        shard_trials = base + (1 if shard < extra else 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard,)))
        shard_moments = RunningMoments()
        done = 0
        while done < shard_trials:
            m = min(_SIM_BATCH, shard_trials - done)
            active = rng.binomial(field.count, field.activation_prob, size=m)
            shard_moments.update(active * log_m - center)
            done += m
        moments.merge(shard_moments)
    sd = moments.std
    return MonteCarloEstimate(
        mean=sd,
        stderr=sd / math.sqrt(2.0 * (trials - 1)),
        trials=trials,
        seed=int(seed),
    )


def logistic_total(field: LogisticField) -> float:
    """Total log-odds effect: count * per_effect_logit."""
    return field.count * field.per_effect_logit


def probability_swing(total_logit: float) -> tuple[float, float]:
    """Outcome probabilities at -total/2 and +total/2 on the log-odds scale.

    The pair sums to exactly 1 (the second entry is computed as the
    complement of the first), and negating the input swaps the pair exactly.
    """
    t = abs(total_logit) / 2.0
    small = math.exp(-t) / (1.0 + math.exp(-t))
    big = 1.0 - small
    if total_logit >= 0.0:
        return (small, big)
    return (big, small)
