"""Command-line interface.

Exit codes: 0 when every bound is satisfied (or the run is informational),
1 when a bound is violated or claims are infeasible, 2 on input or usage
errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .effect_models import (
    LogisticField,
    MultiplicativeField,
    logistic_total,
    multiplier_range,
    probability_swing,
)
from .errors import EffectAuditError
from .finite_sample import (
    MAX_MIXTURE_TRIALS,
    MAX_SPHERE_N,
    MAX_SPHERE_P,
    chisq_mixture_compare,
    expected_sum_sq,
    expected_sum_sq_mc,
    sphere_singular_values,
)
from .info_bounds import mi_piranha_check
from .linear_bounds import ClaimSet, tightness_instance
from .pipeline import (
    MAX_CLAIMS,
    AuditConfig,
    audit_claims,
    audit_dataset,
    load_claims_json,
    load_csv_file,
    load_joint_json,
    load_matrix_csv,
)
from .report import DiagnosticReport, LogisticSection, SphereSection, render_report


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="effectaudit",
        description="Feasibility diagnostics for collections of claimed effects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_audit = sub.add_parser("audit", help="audit one CSV dataset against every bound")
    p_audit.add_argument("csv", help="CSV file with a header row")
    p_audit.add_argument("--outcome", required=True, help="outcome column name")
    p_audit.add_argument("--trials", type=int, default=100_000)
    p_audit.add_argument("--seed", type=int, default=0)
    add_format(p_audit)

    p_claims = sub.add_parser("check-claims", help="joint feasibility of claimed correlations")
    p_claims.add_argument("--tau", type=float, help="uniform claimed |correlation|")
    p_claims.add_argument("--p", type=int, help="number of claims at --tau")
    p_claims.add_argument("--claims", help="claims JSON file (tau array, optional cross/eps)")
    p_claims.add_argument("--eps", type=float, help="outcomes correlate at least 1 - eps")
    p_claims.add_argument("--cross", help="CSV of the explanatory correlation matrix")
    add_format(p_claims)

    p_sphere = sub.add_parser(
        "simulate-sphere", help="sphere-average of summed squared correlations"
    )
    p_sphere.add_argument("--n", type=int, required=True)
    p_sphere.add_argument("--p", type=int, required=True)
    p_sphere.add_argument("--trials", type=int, required=True)
    p_sphere.add_argument("--seed", type=int, required=True)
    add_format(p_sphere)

    p_agg = sub.add_parser("aggregate", help="spread of many multiplicative effects")
    p_agg.add_argument("--count", type=int, required=True)
    p_agg.add_argument("--multiplier", type=float, required=True)
    p_agg.add_argument("--activation-prob", type=float, default=0.5)
    add_format(p_agg)

    p_log = sub.add_parser("aggregate-logistic", help="total of many log-odds effects")
    p_log.add_argument("--count", type=int, required=True)
    p_log.add_argument("--delta", type=float, required=True)
    add_format(p_log)

    p_mi = sub.add_parser("mi-check", help="summed mutual-information bound for a joint pmf")
    p_mi.add_argument("joint", help="joint pmf JSON file")
    p_mi.add_argument("--outcome-index", type=int, default=None,
                      help="overrides the file's outcome_index")
    p_mi.add_argument("--units", choices=("nats", "bits"), default="nats")
    add_format(p_mi)

    p_tight = sub.add_parser("tightness", help="equality-achieving correlation construction")
    p_tight.add_argument("--p", type=int, required=True)
    p_tight.add_argument("--tau", type=float, required=True)
    add_format(p_tight)

    return parser


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise EffectAuditError(f"--seed must be a non-negative integer, got {seed}")


def _stage_seeds(seed: int, count: int) -> list[int]:
    """Derive per-stage integer seeds from one user seed, deterministically."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(v) for v in state]


def _cmd_audit(args: argparse.Namespace) -> tuple[DiagnosticReport, int]:
    _check_seed(args.seed)
    cfg = AuditConfig(outcome_column=args.outcome, trials=args.trials, seed=args.seed)
    report = audit_dataset(load_csv_file(args.csv), cfg)
    d = report.dataset
    ok = d.vdc.satisfied and d.eigen.satisfied and d.regression.satisfied
    return report, (0 if ok else 1)


def _cmd_check_claims(args: argparse.Namespace) -> tuple[DiagnosticReport, int]:
    if args.claims is not None:
        if args.tau is not None or args.p is not None:
            raise EffectAuditError("give either --claims or --tau/--p, not both")
        # --cross replaces the file's matrix, as --eps replaces its eps.
        claims, file_eps = load_claims_json(args.claims, read_cross=args.cross is None)
    else:
        if args.tau is None or args.p is None:
            raise EffectAuditError("need --tau and --p when no --claims file is given")
        if args.p < 1:
            raise EffectAuditError(f"--p must be at least 1, got {args.p}")
        if args.p > MAX_CLAIMS:
            # Every claim is held and reported; refuse before allocating any.
            raise EffectAuditError(f"--p must be at most {MAX_CLAIMS}, got {args.p}")
        claims = ClaimSet(tau=np.full(args.p, args.tau))
        file_eps = None
    if args.cross is not None:
        claims = ClaimSet(tau=claims.tau, cross=load_matrix_csv(args.cross))
    eps = args.eps if args.eps is not None else file_eps
    report = audit_claims(claims, eps=eps)
    return report, (0 if report.claims.feasible else 1)


def _cmd_simulate_sphere(args: argparse.Namespace) -> tuple[DiagnosticReport, int]:
    if args.n <= args.p or args.p < 1:
        raise EffectAuditError(f"need n > p >= 1, got n={args.n}, p={args.p}")
    if args.p > MAX_SPHERE_P:  # refused before any p x p array is drawn
        raise EffectAuditError(f"--p must be at most {MAX_SPHERE_P}, got {args.p}")
    if args.n > MAX_SPHERE_N:
        raise EffectAuditError(f"--n must be at most {MAX_SPHERE_N:.0e}, got {args.n}")
    if args.trials > MAX_MIXTURE_TRIALS:
        # The KS comparison holds every trial; refuse before drawing anything.
        raise EffectAuditError(
            f"--trials must be at most {MAX_MIXTURE_TRIALS}, got {args.trials}"
        )
    _check_seed(args.seed)
    seed_matrix, seed_mc, seed_ks = _stage_seeds(args.seed, 3)
    sv = sphere_singular_values(args.n, args.p, np.random.default_rng(seed_matrix))
    mc = expected_sum_sq_mc(sv, args.n, args.trials, seed_mc)
    ks = chisq_mixture_compare(sv, args.n, args.trials, seed_ks)
    section = SphereSection(
        n=args.n,
        p=args.p,
        trials=args.trials,
        singular_values=sv.tolist(),
        sigma1_sq=float(sv[0] ** 2),
        expected_sum_sq=expected_sum_sq(args.n, args.p),
        mc=mc,
        ks_distance=ks,
    )
    report = DiagnosticReport(
        version=__version__, mode="sphere-simulation", seed=args.seed, sphere=section
    )
    return report, 0


def _cmd_aggregate(args: argparse.Namespace) -> tuple[DiagnosticReport, int]:
    field = MultiplicativeField(
        count=args.count, multiplier=args.multiplier, activation_prob=args.activation_prob
    )
    report = DiagnosticReport(
        version=__version__, mode="aggregate", seed=None, aggregate=multiplier_range(field)
    )
    return report, 0


def _cmd_aggregate_logistic(args: argparse.Namespace) -> tuple[DiagnosticReport, int]:
    field = LogisticField(count=args.count, per_effect_logit=args.delta)
    total = logistic_total(field)
    low, high = probability_swing(total)
    section = LogisticSection(
        count=field.count,
        per_effect_logit=field.per_effect_logit,
        total_logit=total,
        swing_low=low,
        swing_high=high,
    )
    report = DiagnosticReport(
        version=__version__, mode="aggregate-logistic", seed=None, logistic=section
    )
    return report, 0


def _cmd_mi_check(args: argparse.Namespace) -> tuple[DiagnosticReport, int]:
    joint, file_outcome = load_joint_json(args.joint)
    outcome = args.outcome_index if args.outcome_index is not None else file_outcome
    mi = mi_piranha_check(joint, outcome, units=args.units)
    report = DiagnosticReport(version=__version__, mode="mi-check", seed=None, mi=mi)
    return report, (0 if mi.satisfied else 1)


def _cmd_tightness(args: argparse.Namespace) -> tuple[DiagnosticReport, int]:
    report = DiagnosticReport(
        version=__version__,
        mode="tightness",
        seed=None,
        tightness=tightness_instance(args.p, args.tau),
    )
    return report, 0


_COMMANDS = {
    "audit": _cmd_audit,
    "check-claims": _cmd_check_claims,
    "simulate-sphere": _cmd_simulate_sphere,
    "aggregate": _cmd_aggregate,
    "aggregate-logistic": _cmd_aggregate_logistic,
    "mi-check": _cmd_mi_check,
    "tightness": _cmd_tightness,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, status = _COMMANDS[args.command](args)
        # Strict JSON: a non-finite number in a report is a ValueError here.
        out = render_report(report, args.format)
    except (EffectAuditError, OSError, ValueError, OverflowError) as exc:
        print(f"effectaudit: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
