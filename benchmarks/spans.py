"""In-memory span recorder around the names the CLI and pipeline call.

The recorder replaces module attributes with timing wrappers and puts the
originals back on ``restore``.  Only names that ``effectaudit.cli`` and
``effectaudit.pipeline`` bind are wrapped, so nothing under ``src/``
changes; a name that a later version no longer binds is skipped, and the
metrics built from it are reported as absent.  ``numpy.linalg.eigh`` and
``eigvalsh`` are counted per request, not timed, so their time stays in the
self time of whoever called them.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# Layer of each wrapped name; the span is named "<layer>.<name>".
WRAPPED = {
    "cli": ["main"],
    "pipeline": ["load_csv_file", "load_joint_json", "audit_dataset", "audit_claims"],
    "info_bounds": ["DiscreteJoint", "mi_piranha_check"],
    "matrix_core": ["validate_correlation", "SecondMomentMatrix"],
    "linear_bounds": ["vdc_check", "eigen_bound_check", "fit_least_squares"],
    "finite_sample": ["standardize", "svd", "expected_sum_sq_mc", "chisq_mixture_compare"],
    "effect_models": ["MultiplicativeField", "LogisticField", "logistic_total",
                      "multiplier_range", "probability_swing"],
    "report": ["render_report"],
}
MODULES = ("effectaudit.cli", "effectaudit.pipeline")
EIG_NAMES = ("eigh", "eigvalsh")


# Work counts taken from a wrapped call's result.
COUNTERS = {
    "pipeline.load_csv_file": ("pipeline.csv_cells", lambda ds: ds.n * len(ds.column_names)),
    "info_bounds.DiscreteJoint": ("pipeline.joint_atoms", lambda j: int(np.count_nonzero(j.table))),
    "finite_sample.expected_sum_sq_mc": ("finite_sample.mc_trials", lambda mc: mc.trials),
    "finite_sample.standardize": ("finite_sample.standardize_calls", lambda _: 1),
    "report.render_report": ("report.bytes_out", lambda s: len(s.encode("utf-8"))),
}

# Per-layer times: metric -> (span names, "total" or "self").
TIMES = {
    "cli.self_s": (["cli.main"], "self"),
    "pipeline.load_csv_s": (["pipeline.load_csv_file"], "total"),
    "pipeline.load_joint_json_s": (["pipeline.load_joint_json"], "total"),
    "pipeline.audit_dataset_self_s": (["pipeline.audit_dataset"], "self"),
    "pipeline.audit_claims_s": (["pipeline.audit_claims"], "total"),
    "matrix_core.validate_correlation_s": (["matrix_core.validate_correlation"], "total"),
    "matrix_core.second_moment_s": (["matrix_core.SecondMomentMatrix"], "total"),
    "linear_bounds.vdc_check_s": (["linear_bounds.vdc_check"], "total"),
    "linear_bounds.eigen_bound_check_s": (["linear_bounds.eigen_bound_check"], "total"),
    "linear_bounds.fit_least_squares_s": (["linear_bounds.fit_least_squares"], "total"),
    "finite_sample.mc_s": (["finite_sample.expected_sum_sq_mc"], "total"),
    "finite_sample.ks_s": (["finite_sample.chisq_mixture_compare"], "total"),
    "finite_sample.svd_s": (["finite_sample.svd"], "total"),
    "finite_sample.standardize_s": (["finite_sample.standardize"], "total"),
    "info_bounds.joint_build_s": (["info_bounds.DiscreteJoint"], "total"),
    "info_bounds.mi_check_s": (["info_bounds.mi_piranha_check"], "total"),
    "effect_models.s": ([f"effect_models.{n}" for n in WRAPPED["effect_models"]], "total"),
    "report.render_s": (["report.render_report"], "total"),
}


class SpanRecorder:
    """Spans are tuples (name, start, end, parent index, request id), kept in
    memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[tuple[str, int], int] = Counter()
        self.eig_calls: Counter[int] = Counter()
        self.request = -1
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if counter is not None:
                self.counts[counter[0], self.request] += counter[1](result)
            return result

        return wrapper

    def _count_eig(self, fn):
        def wrapper(*args, **kwargs):
            self.eig_calls[self.request] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for layer, names in WRAPPED.items():
                for attr in names:
                    if hasattr(module, attr):
                        name = f"{layer}.{attr}"
                        self._replace(module, attr, self._wrap(name, getattr(module, attr)))
                        self.wrapped.add(name)
        for attr in EIG_NAMES:
            self._replace(np.linalg, attr, self._count_eig(getattr(np.linalg, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        One thread runs every request, so sibling spans never overlap and
        the children's cover is the sum of their durations.
        """
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def span_parents(rec: SpanRecorder) -> dict[str, list[str]]:
    """For each span name, the names of the spans it was called under."""
    parents = defaultdict(set)
    for name, _, _, parent, _ in rec.spans:
        parents[name].add(rec.spans[parent][0] if parent >= 0 else None)
    return {name: sorted(p or "-" for p in ps) for name, ps in sorted(parents.items())}


def layer_metrics(rec: SpanRecorder, round_of: dict[int, int], cmd_of: dict[int, str]) -> dict:
    """Per-layer metrics per pass of the request sequence (median over passes).

    ``round_of`` and ``cmd_of`` map each traced request id to its pass and
    its subcommand.  A metric whose wrapped names were all absent is left out.
    """
    rounds = sorted(set(round_of.values()))
    self_t = rec.self_times()
    per_round: dict[str, dict[int, float]] = defaultdict(lambda: dict.fromkeys(rounds, 0.0))
    for (name, start, end, _, req), own in zip(rec.spans, self_t):
        r = round_of[req]
        per_round[name, "total"][r] += end - start
        per_round[name, "self"][r] += own
    for (name, req), value in rec.counts.items():
        per_round[name, "count"][round_of[req]] += value

    def median(key) -> float:
        return statistics.median(per_round[key].values())

    def total(key) -> float:
        return sum(per_round[key].values())

    metrics: dict[str, float] = {}
    for metric, (names, mode) in TIMES.items():
        present = [n for n in names if n in rec.wrapped]
        if present:
            metrics[metric] = statistics.median(
                sum(per_round[n, mode][r] for n in present) for r in rounds)
    for span, (metric, _) in COUNTERS.items():
        if span in rec.wrapped:
            metrics[metric] = median((metric, "count"))
    if "pipeline.load_csv_file" in rec.wrapped:
        seconds = total(("pipeline.load_csv_file", "total"))
        cells = total(("pipeline.csv_cells", "count"))
        metrics["pipeline.csv_mcells_per_s"] = cells / seconds / 1e6 if seconds > 0 else 0.0
    if "finite_sample.expected_sum_sq_mc" in rec.wrapped:
        trials = total(("finite_sample.mc_trials", "count"))
        seconds = total(("finite_sample.expected_sum_sq_mc", "total"))
        metrics["finite_sample.mc_us_per_trial"] = seconds / trials * 1e6 if trials else 0.0
    audits = [req for req, cmd in cmd_of.items() if cmd == "audit"]
    if audits:
        metrics["linalg.eig_calls_per_audit"] = (
            sum(rec.eig_calls[req] for req in audits) / len(audits))
    return metrics
