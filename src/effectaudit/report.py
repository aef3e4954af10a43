"""Diagnostic report structure, JSON round-trip, and text rendering.

One envelope type serves every audit mode; inactive sections are explicit
nulls in JSON so the schema never changes shape.  JSON rendering is strict
(never NaN or Infinity), deterministic (fixed key order, shortest-round-trip
floats), and ``parse_report(render_report(r)) == r`` exactly.  One encoder and
one decoder walk the dataclasses; ``_JSON_PATH`` places the few fields whose
JSON position differs from their dataclass position.  ``_json_text`` writes
the exact bytes of ``json.dumps(..., indent=2, allow_nan=False)``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

from .effect_models import AggregateSummary
from .finite_sample import MonteCarloEstimate
from .info_bounds import MIReport
from .linear_bounds import FEASIBILITY_TOLERANCE, BoundReport, TightnessInstance

TOOL_NAME = "effectaudit"


@dataclass(frozen=True)
class DatasetAuditSection:
    """An audit of one dataset, in O(p) numbers.

    ``spectrum`` holds the eigenvalues of the predictors' correlation matrix,
    descending, and ``rank`` how many of them are real.  The singular values
    are ``sqrt(max(spectrum[k], 0))`` for k < rank and 0 from there on; the
    worst-case sum of squared correlations is ``spectrum[0]``, and lambda_min
    is ``spectrum[-1]``.
    """

    n: int
    p: int
    outcome: str
    predictors: list[str]
    outcome_correlations: list[float]
    spectrum: list[float]
    rank: int
    vdc: BoundReport
    eigen: BoundReport
    regression: BoundReport
    beta: list[float]
    expected_sum_sq: float
    mc: MonteCarloEstimate


@dataclass(frozen=True)
class MassRequirement:
    """Cross-correlation mass a set of claims forces on the explanatory variables."""

    cross_mass: float
    avg_abs_cross: float | None  # cross_mass / (p (p-1)); None when p == 1
    vacuous: bool  # requirement is <= 0: the sum bound forces no cross mass
    feasible: bool  # average |cross-correlation| <= 1 is achievable


@dataclass(frozen=True)
class MultiOutcomeRequirement:
    eps: float
    threshold: float  # tau_min - sqrt(2 eps)
    cross_mass: float
    avg_abs_cross: float | None
    vacuous: bool
    degenerate: bool  # threshold < 0: the bound carries no information
    feasible: bool


@dataclass(frozen=True)
class ClaimsSection:
    p: int
    tau: list[float]
    tau_min: float
    eps: float | None
    cross_supplied: bool
    base_requirement: MassRequirement
    multi_outcome_requirement: MultiOutcomeRequirement | None
    cross_mass_actual: float | None
    vdc: BoundReport | None
    eigen: BoundReport | None
    multi_outcome: BoundReport | None
    feasible: bool


@dataclass(frozen=True)
class SphereSection:
    n: int
    p: int
    trials: int
    singular_values: list[float]
    sigma1_sq: float
    expected_sum_sq: float
    mc: MonteCarloEstimate
    ks_distance: float


@dataclass(frozen=True)
class LogisticSection:
    count: int
    per_effect_logit: float
    total_logit: float
    swing_low: float
    swing_high: float


@dataclass(frozen=True)
class DiagnosticReport:
    """Envelope for every diagnostic mode; exactly one section is populated."""

    version: str
    mode: str
    seed: int | None
    dataset: DatasetAuditSection | None = None
    claims: ClaimsSection | None = None
    sphere: SphereSection | None = None
    aggregate: AggregateSummary | None = None
    logistic: LogisticSection | None = None
    mi: MIReport | None = None
    tightness: TightnessInstance | None = None


# Where the JSON layout departs from the dataclass layout: a field's key path
# inside its parent's object.
_JSON_PATH = {
    **{(DatasetAuditSection, k): ("bounds", k) for k in ("vdc", "eigen", "regression")},
    **{(ClaimsSection, k): ("bounds", k) for k in ("vdc", "eigen", "multi_outcome")},
}

# Fields where +inf means "no finite bound" (a singular design's regression
# bound).  Strict JSON has no infinity, so they are written as null.
_INF_AS_NULL = {(BoundReport, "rhs"), (BoundReport, "slack")}


@functools.cache
def _json_fields(cls: type) -> tuple[tuple, ...]:
    """Serialization plan of a dataclass, built once from its type hints.

    One (name, JSON path, encode, decode, null) tuple per field: encode and
    decode convert non-null values; null is what a JSON null reads back as.
    """
    hints = get_type_hints(cls)
    plan = []
    for f in fields(cls):
        tp = hints[f.name]
        if type(None) in get_args(tp):  # X | None
            tp = get_args(tp)[0]
        encode = decode = null = None
        if is_dataclass(tp):
            encode, decode = _to_dict, functools.partial(_from_dict, tp)
        elif isinstance(tp, type) and issubclass(tp, Enum):
            encode, decode = operator.attrgetter("value"), tp
        elif get_origin(tp) is tuple:
            encode, decode = list, tuple
        elif (cls, f.name) in _INF_AS_NULL:
            encode, null = (lambda v: None if v == math.inf else v), math.inf
        plan.append((f.name, _JSON_PATH.get((cls, f.name), (f.name,)), encode, decode, null))
    return tuple(plan)


def _to_dict(obj) -> dict:
    """JSON object of a report dataclass, in the ``_JSON_PATH`` layout.

    Nested dataclasses, enums and tuples are converted; list fields pass
    through as they are, since the report builders fill them from
    ``ndarray.tolist()`` with Python floats already.
    """
    out: dict = {}
    for name, path, encode, _, _ in _json_fields(type(obj)):
        v = getattr(obj, name)
        if v is not None and encode is not None:
            v = encode(v)
        functools.reduce(lambda o, k: o.setdefault(k, {}), path[:-1], out)[path[-1]] = v
    return out


def _from_dict(cls: type, d: dict):
    """Inverse of :func:`_to_dict`."""
    kwargs = {}
    for name, path, _, decode, null in _json_fields(cls):
        v = functools.reduce(operator.getitem, path, d)
        if v is None:
            v = null
        elif decode is not None:
            v = decode(v)
        kwargs[name] = v
    return cls(**kwargs)


def _fmt(v: float) -> str:
    return repr(float(v))


def _bound_lines(label: str, b: BoundReport) -> list[str]:
    verdict = "satisfied" if b.satisfied else "VIOLATED"
    return [
        f"  {label}: lhs = {_fmt(b.lhs)}  rhs = {_fmt(b.rhs)}  "
        f"[{verdict}, slack = {_fmt(b.slack)}]"
    ]


def _clamp_display(v: float) -> float:
    """Clamp tiny negative rounding residue for display only."""
    return 0.0 if -1e-12 <= v < 0.0 else v


def render_text(r: DiagnosticReport) -> str:
    lines = [f"{TOOL_NAME} report (version {r.version}, mode {r.mode})"]
    if r.seed is not None:
        lines.append(f"seed: {r.seed}")
    if r.dataset is not None:
        d = r.dataset
        lines.append(f"dataset: n = {d.n}, p = {d.p}, outcome = {d.outcome!r}")
        lines.append(f"predictors: {', '.join(d.predictors)}")
        lines += _bound_lines("sum |corr|   vs sqrt(p + cross mass)", d.vdc)
        lines += _bound_lines("sum corr^2   vs lambda_max", d.eigen)
        lines += _bound_lines("||beta||^2   vs 1/lambda_min", d.regression)
        lines.append(f"  worst-case sum of squared correlations: {_fmt(d.spectrum[0])}")
        lines.append(
            f"  sphere average of sum corr^2: exact {_fmt(d.expected_sum_sq)}, "
            f"simulated {_fmt(d.mc.mean)} (stderr {_fmt(d.mc.stderr)}, "
            f"{d.mc.trials} trials)"
        )
        ok = d.vdc.satisfied and d.eigen.satisfied and d.regression.satisfied
        lines.append(f"verdict: {'all bounds satisfied' if ok else 'BOUND VIOLATED'}")
    if r.claims is not None:
        c = r.claims
        lines.append(f"claims: p = {c.p}, tau_min = {_fmt(c.tau_min)}")
        req = c.base_requirement
        # Uncorrelated variables (cross = I, lambda_max = 1) allow exactly
        # sum tau_i^2 <= 1, by the eigenvalue bound; for equal claims that
        # is the vacuous mass requirement.
        sum_sq = math.fsum(t * t for t in c.tau)
        if req.vacuous and sum_sq <= 1.0 + FEASIBILITY_TOLERANCE:
            lines.append("  claims are compatible with uncorrelated variables")
        elif req.vacuous:
            lines.append(
                f"  claims force no cross-correlation mass, but sum tau^2 = {_fmt(sum_sq)} > 1: "
                f"not compatible with uncorrelated variables"
            )
        else:
            lines.append(
                f"  claims jointly require cross-correlation mass >= {_fmt(req.cross_mass)}"
            )
            if req.avg_abs_cross is not None:
                lines.append(
                    f"  claims jointly require average |cross-correlation| >= "
                    f"{_fmt(req.avg_abs_cross)}"
                )
        mo = c.multi_outcome_requirement
        if mo is not None:
            if mo.degenerate:
                lines.append(
                    f"  multi-outcome bound degenerate (tau_min < sqrt(2 eps)); "
                    f"no requirement at eps = {_fmt(mo.eps)}"
                )
            elif mo.vacuous:
                lines.append(
                    f"  multi-outcome requirement at eps = {_fmt(mo.eps)} is vacuous"
                )
            else:
                lines.append(
                    f"  with outcomes correlated >= 1 - {_fmt(mo.eps)}: "
                    f"cross mass >= {_fmt(mo.cross_mass)}"
                )
        if c.cross_mass_actual is not None:
            lines.append(f"  actual cross-correlation mass: {_fmt(c.cross_mass_actual)}")
        for label, b in (("vdc", c.vdc), ("eigen", c.eigen), ("multi-outcome", c.multi_outcome)):
            if b is not None:
                lines += _bound_lines(label, b)
        lines.append(f"verdict: {'feasible' if c.feasible else 'INFEASIBLE'}")
    if r.sphere is not None:
        s = r.sphere
        lines.append(f"sphere simulation: n = {s.n}, p = {s.p}, trials = {s.trials}")
        lines.append(f"  exact mean of sum corr^2: {_fmt(s.expected_sum_sq)}")
        lines.append(
            f"  simulated mean: {_fmt(s.mc.mean)} (stderr {_fmt(s.mc.stderr)})"
        )
        lines.append(f"  worst case (top squared singular value): {_fmt(s.sigma1_sq)}")
        lines.append(f"  KS distance to chi-square mixture: {_fmt(s.ks_distance)}")
    if r.aggregate is not None:
        a = r.aggregate
        lines.append(
            f"aggregate: {a.count} effects x {_fmt(a.multiplier)} "
            f"(activation probability {_fmt(a.activation_prob)})"
        )
        lines.append(f"  sd of total log effect: {_fmt(a.sd_log)} (~ {a.sd_log:.2f})")
        lines.append(
            f"  one-sd multiplier band: {_fmt(a.low_multiplier)} to "
            f"{_fmt(a.high_multiplier)} (~ {a.low_multiplier:.2g} to {a.high_multiplier:.2g})"
        )
    if r.logistic is not None:
        lg = r.logistic
        lines.append(
            f"logistic: {lg.count} inputs x {_fmt(lg.per_effect_logit)} on the log-odds scale"
        )
        lines.append(f"  total logit: {_fmt(lg.total_logit)}")
        lines.append(
            f"  probability swing: {_fmt(lg.swing_low)} to {_fmt(lg.swing_high)} "
            f"(~ {lg.swing_low:.2f} to {lg.swing_high:.2f})"
        )
    if r.mi is not None:
        m = r.mi
        lines.append(f"mutual information ({m.units}), outcome index {m.outcome_index}")
        lines.append(f"  H(y) = {_fmt(_clamp_display(m.h_y))}")
        per = ", ".join(_fmt(_clamp_display(v)) for v in m.per_var_mi)
        lines.append(f"  I(X_i; y): {per}")
        red = ", ".join(_fmt(_clamp_display(v)) for v in m.per_var_leaveout_mi)
        lines.append(f"  I(X_i; X_-i): {red}")
        lines.append(
            f"  sum I(X_i; y) = {_fmt(_clamp_display(m.lhs))}  vs  "
            f"H(y) + sum I(X_i; X_-i) = {_fmt(_clamp_display(m.rhs))}"
        )
        lines.append(
            f"verdict: {'satisfied' if m.satisfied else 'VIOLATED'} "
            f"(slack = {_fmt(m.slack)})"
        )
    if r.tightness is not None:
        t = r.tightness
        lines.append(f"tightness construction: p = {t.p}, tau = {_fmt(t.tau)}")
        lines.append(f"  off-diagonal correlation: {_fmt(t.off_diagonal)}")
        lines.append(f"  implied corr(X_i, y): {_fmt(t.implied_corr)}")
        lines.append(
            f"  sum corr^2 = {_fmt(t.sum_sq_corr)}  vs  lambda_max = {_fmt(t.lambda_max)} "
            f"(gap {_fmt(t.gap)})"
        )
    return "\n".join(lines) + "\n"


_quote = json.encoder.encode_basestring_ascii


def _write_json(o, out: list[str], nl: str) -> None:
    """Append the ``json.dumps(o, indent=2, allow_nan=False)`` text of ``o`` to ``out``.

    ``nl`` is the newline and indent of ``o``'s own level.  Values are tested
    in the order of ``json``'s encoder: str, None, True, False, int, float
    (subclasses too, written by ``int.__repr__`` and ``float.__repr__``),
    list or tuple, dict.  A list of exact floats is joined in one call once
    its sum shows every value finite.  A non-finite float raises ``json``'s
    own ``ValueError``, and a value of any other type ``json``'s own
    ``TypeError``; a key that is not a str raises ``TypeError`` too, as
    reports hold none.
    """
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) == {float} and math.isfinite(sum(o)):
            out.append("[" + inner + ("," + inner).join(map(float.__repr__, o)) + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + _quote(k) + ": ")
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, for an
    object of str keys and JSON values; see :func:`_write_json`."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def render_report(r: DiagnosticReport, output_format: str = "json") -> str:
    """Serialize a report; 'json' round-trips losslessly, 'text' is for humans."""
    if output_format == "json":
        return _json_text({"tool": TOOL_NAME, **_to_dict(r)}) + "\n"
    if output_format == "text":
        return render_text(r)
    raise ValueError(f"output format must be 'json' or 'text', got {output_format!r}")


def parse_report(serialized: str) -> DiagnosticReport:
    """Inverse of JSON rendering: parse_report(render_report(r)) == r."""
    return _from_dict(DiagnosticReport, json.loads(serialized))
