"""Feasibility diagnostics for collections of claimed effects.

Bounds of the form "p explanatory variables cannot all correlate strongly
with one outcome unless they are strongly interdependent", in four flavors
(absolute correlation sums, squared-correlation sums against the spectrum,
regression coefficient norms, and summed mutual information), plus
finite-sample identities with Monte Carlo verification and calculators for
the aggregate behavior of many multiplicative or log-odds effects.
"""

__version__ = "0.1.0"

from . import errors
from .effect_models import (
    AggregateSummary,
    LogisticField,
    MultiplicativeField,
    aggregate_sd_log,
    logistic_total,
    multiplier_range,
    probability_swing,
)
from .finite_sample import (
    MonteCarloEstimate,
    RunningMoments,
    chisq_mixture_compare,
    expected_sum_sq,
    expected_sum_sq_mc,
    standardize,
    svd,
)
from .info_bounds import (
    DiscreteJoint,
    MIReport,
    entropy,
    mi_piranha_check,
    mutual_information,
)
from .linear_bounds import (
    BoundKind,
    BoundReport,
    ClaimSet,
    RegressionSolution,
    TightnessInstance,
    claims_cross_mass,
    eigen_bound_check,
    fit_least_squares,
    min_cross_mass,
    multi_outcome_degenerate,
    multi_outcome_min_mass,
    tightness_instance,
    vdc_check,
)
from .matrix_core import (
    CorrelationMatrix,
    EigenDecomposition,
    SecondMomentMatrix,
    SymMatrix,
    equicorrelation,
    validate_correlation,
)
from .pipeline import (
    Dataset,
    audit_claims,
    audit_dataset,
    load_claims_json,
    load_csv,
    load_csv_file,
    load_joint_json,
    load_matrix_csv,
)
from .report import DiagnosticReport, parse_report, render_report

__all__ = [
    "__version__",
    "errors",
    # matrix core
    "SymMatrix",
    "CorrelationMatrix",
    "SecondMomentMatrix",
    "EigenDecomposition",
    "validate_correlation",
    "equicorrelation",
    # linear bounds
    "BoundKind",
    "BoundReport",
    "ClaimSet",
    "RegressionSolution",
    "TightnessInstance",
    "vdc_check",
    "eigen_bound_check",
    "claims_cross_mass",
    "min_cross_mass",
    "multi_outcome_min_mass",
    "multi_outcome_degenerate",
    "fit_least_squares",
    "tightness_instance",
    # info bounds
    "DiscreteJoint",
    "MIReport",
    "entropy",
    "mutual_information",
    "mi_piranha_check",
    # finite sample
    "MonteCarloEstimate",
    "RunningMoments",
    "standardize",
    "svd",
    "expected_sum_sq",
    "expected_sum_sq_mc",
    "chisq_mixture_compare",
    # effect models
    "MultiplicativeField",
    "LogisticField",
    "AggregateSummary",
    "aggregate_sd_log",
    "multiplier_range",
    "logistic_total",
    "probability_swing",
    # pipeline and reports
    "Dataset",
    "DiagnosticReport",
    "load_csv",
    "load_csv_file",
    "load_matrix_csv",
    "load_claims_json",
    "load_joint_json",
    "audit_dataset",
    "audit_claims",
    "render_report",
    "parse_report",
]
