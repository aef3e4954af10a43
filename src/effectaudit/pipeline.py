"""Dataset ingestion and end-to-end audits.

``load_csv`` accepts one fixed dialect: UTF-8, one header row, comma
separators, '.' decimal points, no quoting.  ``audit_dataset`` standardizes
columns, computes sample correlations, and runs every applicable bound;
``audit_claims`` works from claimed correlation magnitudes alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    ConstantColumnError,
    ConstantVectorError,
    CsvParseError,
    DimensionMismatchError,
    InvalidJointError,
    InvalidShapeError,
    MissingValueError,
    RaggedRowError,
    TooFewRowsError,
    UnknownColumnError,
)
from .finite_sample import (
    SampleMatrix,
    expected_sum_sq,
    expected_sum_sq_mc,
    standardize,
    svd,
)
from .info_bounds import DiscreteJoint
from .linear_bounds import (
    FEASIBILITY_TOLERANCE,
    BoundKind,
    BoundReport,
    ClaimSet,
    eigen_bound_check,
    fit_least_squares,
    min_cross_mass,
    multi_outcome_degenerate,
    multi_outcome_min_mass,
    vdc_check,
)
from .matrix_core import (
    CorrelationMatrix,
    SecondMomentMatrix,
    SymMatrix,
    validate_correlation,
)
from .report import (
    ClaimsSection,
    DatasetAuditSection,
    DiagnosticReport,
    MassRequirement,
    MultiOutcomeRequirement,
)

MIN_ROWS = 3


@dataclass(frozen=True, eq=False)
class Dataset:
    """Named numeric columns of equal length, no missing or non-finite cells."""

    column_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.column_names) != len(self.columns):
            raise DimensionMismatchError("names and columns differ in count")
        cols = []
        for c in self.columns:
            a = np.array(np.asarray(c, dtype=float))
            if a.ndim != 1:
                raise InvalidShapeError("columns must be 1-D")
            if not np.all(np.isfinite(a)):
                raise InvalidShapeError("columns must be finite")
            a.flags.writeable = False
            cols.append(a)
        lengths = {c.size for c in cols}
        if len(lengths) != 1:
            raise DimensionMismatchError("columns differ in length")
        if cols[0].size < MIN_ROWS:
            raise TooFewRowsError(f"need at least {MIN_ROWS} rows, got {cols[0].size}")
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "columns", tuple(cols))

    @property
    def n(self) -> int:
        return self.columns[0].size


@dataclass(frozen=True)
class AuditConfig:
    outcome_column: str | int = -1
    trials: int = 100_000
    seed: int = 0
    psd_tolerance: float = 1e-8
    entropy_units: str = "nats"
    output_format: str = "text"

    def __post_init__(self):
        if self.trials < 2:
            raise InvalidShapeError(f"need at least 2 trials, got {self.trials}")
        if self.entropy_units not in ("nats", "bits"):
            raise ValueError(f"bad entropy units {self.entropy_units!r}")
        if self.output_format not in ("json", "text"):
            raise ValueError(f"bad output format {self.output_format!r}")


def _parse_cell(cell: str, row: int, col: int) -> float:
    s = cell.strip()
    if s == "":
        raise MissingValueError(row, col)
    try:
        v = float(s)
    except ValueError:
        raise CsvParseError(row, col, f"not a number: {s!r}") from None
    if math.isnan(v):
        raise MissingValueError(row, col)
    if math.isinf(v):
        raise CsvParseError(row, col, f"non-finite value: {s!r}")
    return v


def _split_rows(data: bytes) -> list[list[str]]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvParseError(0, 0, f"not valid UTF-8: {exc}") from None
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    return [line.split(",") for line in lines]


def load_csv(data: bytes) -> Dataset:
    """Parse a CSV byte stream (header row, comma-separated numeric cells).

    Error positions are 1-based and count the header as row 1.
    """
    rows = _split_rows(data)
    if not rows:
        raise TooFewRowsError("file is empty")
    header = [name.strip() for name in rows[0]]
    if any(name == "" for name in header):
        raise CsvParseError(1, header.index("") + 1, "empty column name")
    if len(set(header)) != len(header):
        dupe = next(name for i, name in enumerate(header) if name in header[:i])
        raise CsvParseError(1, header.index(dupe) + 1, f"duplicate column name {dupe!r}")
    body = rows[1:]
    if len(body) < MIN_ROWS:
        raise TooFewRowsError(f"need at least {MIN_ROWS} data rows, got {len(body)}")
    width = len(header)
    values = np.empty((len(body), width))
    for i, row in enumerate(body):
        if len(row) != width:
            raise RaggedRowError(i + 2, width, len(row))
        for j, cell in enumerate(row):
            values[i, j] = _parse_cell(cell, i + 2, j + 1)
    return Dataset(
        column_names=tuple(header),
        columns=tuple(values[:, j] for j in range(width)),
    )


def load_csv_file(path: str | os.PathLike) -> Dataset:
    with open(path, "rb") as fh:
        return load_csv(fh.read())


def load_matrix_csv(path: str | os.PathLike) -> CorrelationMatrix:
    """Read a square correlation matrix from CSV (header row is ignored).

    The matrix is symmetrized exactly, then fully validated.
    """
    with open(path, "rb") as fh:
        rows = _split_rows(fh.read())
    if len(rows) < 2:
        raise TooFewRowsError("matrix file needs a header row and at least one data row")
    width = len(rows[0])
    body = rows[1:]
    if len(body) != width:
        raise InvalidShapeError(
            f"matrix must be square: header has {width} columns, found {len(body)} rows"
        )
    values = np.empty((width, width))
    for i, row in enumerate(body):
        if len(row) != width:
            raise RaggedRowError(i + 2, width, len(row))
        for j, cell in enumerate(row):
            values[i, j] = _parse_cell(cell, i + 2, j + 1)
    return validate_correlation(SymMatrix.symmetrized(values))


def load_claims_json(path: str | os.PathLike) -> tuple[ClaimSet, float | None]:
    """Read a claims file: {"tau": [...], "cross": path or null, "eps": real or null}.

    A relative ``cross`` path is resolved against the claims file's directory.
    Returns the claim set and the file's eps (None when absent).
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or "tau" not in raw:
        raise InvalidJointError("claims file must be a JSON object with a 'tau' array")
    cross = None
    cross_path = raw.get("cross")
    if cross_path is not None:
        if not os.path.isabs(cross_path):
            cross_path = os.path.join(os.path.dirname(os.fspath(path)), cross_path)
        cross = load_matrix_csv(cross_path)
    eps = raw.get("eps")
    return ClaimSet(tau=np.asarray(raw["tau"], dtype=float), cross=cross), (
        None if eps is None else float(eps)
    )


def load_joint_json(path: str | os.PathLike) -> tuple[DiscreteJoint, int]:
    """Read a joint pmf file: alphabet_sizes, outcome_index, atoms [{tuple, prob}]."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for key in ("alphabet_sizes", "outcome_index", "atoms"):
        if not isinstance(raw, dict) or key not in raw:
            raise InvalidJointError(f"joint pmf file is missing {key!r}")
    pmf = {}
    for atom in raw["atoms"]:
        if "tuple" not in atom or "prob" not in atom:
            raise InvalidJointError("each atom needs 'tuple' and 'prob'")
        key = tuple(int(i) for i in atom["tuple"])
        if key in pmf:
            raise InvalidJointError(f"duplicate atom {key!r}")
        pmf[key] = float(atom["prob"])
    joint = DiscreteJoint(alphabet_sizes=tuple(raw["alphabet_sizes"]), pmf=pmf)
    return joint, int(raw["outcome_index"])


def _resolve_outcome(ds: Dataset, outcome: str | int) -> int:
    if isinstance(outcome, str):
        try:
            return ds.column_names.index(outcome)
        except ValueError:
            raise UnknownColumnError(
                f"no column named {outcome!r}; have {list(ds.column_names)}"
            ) from None
    idx = int(outcome)
    if idx < 0:
        idx += len(ds.column_names)
    if not 0 <= idx < len(ds.column_names):
        raise UnknownColumnError(f"column index {outcome} out of range")
    return idx


def audit_dataset(ds: Dataset, cfg: AuditConfig) -> DiagnosticReport:
    """Run every correlation bound against one dataset.

    Columns are standardized, so the empirical second-moment matrix of the
    predictors is exactly their sample correlation matrix and the regression
    bound applies to the standardized coefficients.
    """
    y_idx = _resolve_outcome(ds, cfg.outcome_column)
    pred_idx = [i for i in range(len(ds.column_names)) if i != y_idx]
    p = len(pred_idx)
    if p < 1:
        raise InvalidShapeError("need at least one predictor besides the outcome")
    if ds.n <= p:
        raise InvalidShapeError(f"need more rows than predictors: n={ds.n}, p={p}")

    std_cols = []
    for i in pred_idx + [y_idx]:
        try:
            std_cols.append(standardize(ds.columns[i]).values)
        except ConstantVectorError:
            raise ConstantColumnError(ds.column_names[i]) from None
    x = SampleMatrix(np.column_stack(std_cols[:-1]))
    y_std = std_cols[-1]

    corr_xy = x.entries.T @ y_std
    gram = x.entries.T @ x.entries
    cross = validate_correlation(SymMatrix.symmetrized(gram), cfg.psd_tolerance)

    vdc = vdc_check(corr_xy, cross)
    eigen = eigen_bound_check(corr_xy, cross)
    second_moment = SecondMomentMatrix(cross.base, cfg.psd_tolerance)
    fit = fit_least_squares(second_moment, corr_xy)
    regression = BoundReport.from_sides(BoundKind.REGRESSION, fit.norm_sq, fit.bound)

    spectrum = np.linalg.eigvalsh(cross.entries)[::-1]
    fac = svd(x)
    mc = expected_sum_sq_mc(x, cfg.trials, cfg.seed)

    section = DatasetAuditSection(
        n=ds.n,
        p=p,
        outcome=ds.column_names[y_idx],
        predictors=[ds.column_names[i] for i in pred_idx],
        predictor_correlations=[[float(v) for v in row] for row in cross.entries],
        outcome_correlations=[float(v) for v in corr_xy],
        spectrum=[float(v) for v in spectrum],
        vdc=vdc,
        eigen=eigen,
        regression=regression,
        beta=[float(v) for v in fit.beta],
        lambda_min=fit.lambda_min,
        singular_values=[float(v) for v in fac.singular_values],
        sigma1_sq=fac.sigma1_sq,
        expected_sum_sq=expected_sum_sq(ds.n, p),
        mc=mc,
    )
    return DiagnosticReport(
        version=__version__, mode="dataset-audit", seed=cfg.seed, dataset=section
    )


def _mass_requirement(mass: float, p: int) -> tuple[float | None, bool, bool]:
    """(average |cross| required, vacuous, feasible) for a mass requirement."""
    avg = None if p < 2 else mass / (p * (p - 1))
    vacuous = mass <= 0.0
    feasible = vacuous or avg is None or avg <= 1.0 + FEASIBILITY_TOLERANCE
    return avg, vacuous, feasible


def audit_claims(claims: ClaimSet, eps: float | None = None) -> DiagnosticReport:
    """Check whether a set of claimed correlation magnitudes is jointly feasible.

    Without a cross matrix the report states the cross-correlation mass the
    claims force (using the weakest claim, so the requirement is valid for
    heterogeneous claim sets); claims are infeasible outright only when the
    required average |cross-correlation| exceeds 1.  With a cross matrix the
    sum and eigenvalue bounds are checked directly.  When ``eps`` is given the
    nearly-identical-outcomes variant is reported as well; it never enters the
    verdict when degenerate (tau_min < sqrt(2 eps)).
    """
    p = claims.p
    tau_min = float(np.min(claims.tau))
    base_mass = min_cross_mass(p, tau_min)
    base_avg, base_vac, base_feasible = _mass_requirement(base_mass, p)

    mo_req = None
    mo_bound = None
    if eps is not None:
        if not math.isfinite(eps) or eps < 0.0:
            raise InvalidShapeError(f"eps must be finite and non-negative, got {eps!r}")
        degenerate = multi_outcome_degenerate(tau_min, eps)
        mo_mass = multi_outcome_min_mass(p, tau_min, eps)
        mo_avg, mo_vac, mo_feasible = _mass_requirement(mo_mass, p)
        if degenerate:
            mo_feasible = True
        mo_req = MultiOutcomeRequirement(
            eps=float(eps),
            threshold=tau_min - math.sqrt(2.0 * eps),
            cross_mass=mo_mass,
            avg_abs_cross=mo_avg,
            vacuous=mo_vac,
            degenerate=degenerate,
            feasible=mo_feasible,
        )

    vdc = None
    eigen = None
    cross_mass_actual = None
    if claims.cross is not None:
        vdc = vdc_check(claims.tau, claims.cross)
        eigen = eigen_bound_check(claims.tau, claims.cross)
        cross_mass_actual = claims.cross.off_diagonal_abs_mass()
        if mo_req is not None and not mo_req.degenerate:
            mo_bound = BoundReport.from_sides(
                BoundKind.MULTI_OUTCOME, mo_req.cross_mass, cross_mass_actual
            )

    if claims.cross is not None:
        feasible = vdc.satisfied and eigen.satisfied
        if mo_bound is not None:
            feasible = feasible and mo_bound.satisfied
    else:
        # The multi-outcome requirement, when applicable, replaces the
        # single-outcome one (the claims then concern distinct outcomes).
        feasible = mo_req.feasible if mo_req is not None else base_feasible

    section = ClaimsSection(
        p=p,
        tau=[float(v) for v in claims.tau],
        tau_min=tau_min,
        eps=None if eps is None else float(eps),
        cross_supplied=claims.cross is not None,
        base_requirement=MassRequirement(
            cross_mass=base_mass,
            avg_abs_cross=base_avg,
            vacuous=base_vac,
            feasible=base_feasible,
        ),
        multi_outcome_requirement=mo_req,
        cross_mass_actual=cross_mass_actual,
        vdc=vdc,
        eigen=eigen,
        multi_outcome=mo_bound,
        feasible=bool(feasible),
    )
    return DiagnosticReport(version=__version__, mode="claims", seed=None, claims=section)
