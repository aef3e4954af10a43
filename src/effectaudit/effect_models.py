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

from .errors import InvalidShapeError


def _check_count(count: int) -> None:
    if count < 1:
        raise InvalidShapeError(f"count must be at least 1, got {count}")


@dataclass(frozen=True)
class MultiplicativeField:
    """N independent multiplicative effects, each active with probability q."""

    count: int
    multiplier: float
    activation_prob: float = 0.5

    def __post_init__(self):
        _check_count(self.count)
        if not (self.multiplier > 0.0 and math.isfinite(self.multiplier)):
            raise InvalidShapeError(
                f"multiplier must be positive and finite, got {self.multiplier!r}"
            )
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
        _check_count(self.count)
        if not math.isfinite(self.per_effect_logit):
            raise InvalidShapeError(
                f"per_effect_logit must be finite, got {self.per_effect_logit!r}"
            )
        if not math.isfinite(self.count * self.per_effect_logit):
            raise InvalidShapeError(
                f"total logit {self.count} x {self.per_effect_logit!r} overflows a float"
            )


@dataclass(frozen=True)
class AggregateSummary:
    """A multiplicative field and the spread of its total effect: the one-sd
    band around neutral."""

    count: int
    multiplier: float
    activation_prob: float
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
    try:
        high = math.exp(sd)
    except OverflowError:
        raise InvalidShapeError(
            f"one-sd multiplier band exp({sd!r}) overflows a float"
        ) from None
    return AggregateSummary(
        count=field.count,
        multiplier=field.multiplier,
        activation_prob=field.activation_prob,
        sd_log=sd,
        low_multiplier=math.exp(-sd),
        high_multiplier=high,
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
