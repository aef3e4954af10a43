"""Correctness checks on one CLI response.

``check_response`` returns None for a correct response and a short reason
otherwise.  Every check rests on a stated property of the program (exit-code
contract, strict JSON, report round trip) or on mathematics the benchmark
computes itself (the bounds are theorems on real data, the exact sphere mean
p/(n-1), the closed-form claims verdicts).
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

TIGHTNESS_GAP = 1e-9

# README's Monte Carlo policy: a disagreement beyond 4 standard errors is a
# failure.  A pass makes many independent Monte Carlo checks, so the 4-sigma
# false-failure probability is held for the pass as a whole (Bonferroni),
# not for each request; with one check the threshold is exactly 4.
_FOUR_SIGMA_TAIL = 2.0 * NormalDist().cdf(-4.0)


def mc_z_limit(checks_per_pass: int) -> float:
    return NormalDist().inv_cdf(1.0 - _FOUR_SIGMA_TAIL / (2.0 * max(1, checks_per_pass)))


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _verdict_ok(doc: dict) -> bool:
    """The verdict a report states, as the exit code must reflect it."""
    mode = doc["mode"]
    if mode == "dataset-audit":
        return all(b["satisfied"] for b in doc["dataset"]["bounds"].values())
    if mode == "claims":
        return doc["claims"]["feasible"]
    if mode == "mi-check":
        return doc["mi"]["satisfied"]
    return True


def _mc_reason(section: dict, n: int, p: int, z_limit: float) -> str | None:
    mc = section["mc"]
    exact = p / (n - 1)
    if mc["stderr"] <= 0.0:
        return f"Monte Carlo stderr is {mc['stderr']!r}"
    z = (mc["mean"] - exact) / mc["stderr"]
    if abs(z) > z_limit:
        return f"Monte Carlo mean is {z:.2f} stderr from p/(n-1) (limit {z_limit:.2f})"
    return None


def check_response(req: dict, code: int, stdout: str, z_limit: float = 4.0,
                   report_api=None) -> str | None:
    """Why the response to ``req`` is wrong, or None.

    ``report_api`` is the program's ``(parse_report, render_report)`` pair,
    used for the round-trip check.
    """
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        doc = strict_json(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    try:
        verdict = _verdict_ok(doc)
    except (KeyError, TypeError) as exc:
        return f"report lacks its verdict: {exc!r}"
    if code != (0 if verdict else 1):
        return f"exit code {code} does not match verdict {verdict}"
    if report_api is not None:
        parse_report, render_report = report_api
        if render_report(parse_report(stdout), "json") != stdout:
            return "render_report(parse_report(out)) differs from out"

    cmd, expect = req["cmd"], req["expect"]
    if cmd == "audit":
        if code != 0:
            return "audit of real-valued data violated a bound"
        return _mc_reason(doc["dataset"], expect["n"], expect["p"], z_limit)
    if cmd == "simulate-sphere":
        ks = doc["sphere"]["ks_distance"]
        if not (math.isfinite(ks) and 0.0 <= ks <= 1.0):
            return f"ks_distance {ks!r} outside [0, 1]"
        return _mc_reason(doc["sphere"], expect["n"], expect["p"], z_limit)
    if cmd == "check-claims":
        if doc["claims"]["feasible"] != expect["feasible"]:
            return f"claims verdict {doc['claims']['feasible']}, expected {expect['feasible']}"
    elif cmd == "mi-check":
        if not doc["mi"]["satisfied"]:
            return "mutual-information bound reported violated"
    elif cmd == "tightness":
        gap = doc["tightness"]["gap"]
        if not abs(gap) <= TIGHTNESS_GAP:
            return f"tightness gap {gap!r} exceeds {TIGHTNESS_GAP}"
    return None
