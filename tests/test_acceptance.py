"""Acceptance gate: end-to-end checks of every advertised behavior.

Each criterion prints exactly one PASS or FAIL line (visible even under
pytest's capture) and enforces its stated numeric tolerance and, where one
applies, its time budget.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from effectaudit import (
    BoundKind,
    BoundReport,
    DiscreteJoint,
    SecondMomentMatrix,
    SymMatrix,
    eigen_bound_check,
    fit_least_squares,
    mi_piranha_check,
    standardize,
    validate_correlation,
    vdc_check,
)
from effectaudit.cli import main

from test_finite_sample import random_sample_matrix, sum_sq_corr, top_left_vector

HERE = os.path.dirname(os.path.abspath(__file__))
KS_FIXTURE = os.path.join(HERE, "data", "ks_threshold.json")

LN2 = math.log(2.0)


@contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nacceptance {num:02d} FAIL: {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"\nacceptance {num:02d} PASS: {desc}", flush=True)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_claim_check_equality(capsys, tmp_path):
    with criterion(capsys, 1, "four claims at 0.5 with uncorrelated predictors sit exactly on the bound"):
        cross = tmp_path / "identity4.csv"
        cross.write_text("a,b,c,d\n1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
        start = time.perf_counter()
        code, out = run_cli(
            capsys,
            "check-claims", "--tau", "0.5", "--p", "4",
            "--cross", str(cross), "--format", "json",
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        bounds = json.loads(out)["claims"]["bounds"]
        assert abs(bounds["vdc"]["lhs"] - 2.0) <= 1e-9
        assert abs(bounds["vdc"]["rhs"] - 2.0) <= 1e-9
        assert bounds["vdc"]["satisfied"] is True
        assert abs(bounds["eigen"]["lhs"] - 1.0) <= 1e-9
        assert abs(bounds["eigen"]["rhs"] - 1.0) <= 1e-9
        assert elapsed < 1.0


def test_criterion_02_tightness_at_ten_thousand(capsys):
    with criterion(capsys, 2, "equality construction at p=10000, tau=0.3 meets its advertised numbers"):
        start = time.perf_counter()
        code, out = run_cli(
            capsys, "tightness", "--p", "10000", "--tau", "0.3", "--format", "json"
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        t = json.loads(out)["tightness"]
        assert abs(t["implied_corr"] - 0.3) <= 1e-3
        assert abs(t["sum_sq_corr"] - t["lambda_max"]) <= 1e-6
        assert elapsed < 5.0


def test_criterion_03_no_random_dataset_violates_bounds(capsys):
    with criterion(capsys, 3, "10000 random datasets (n=200, p=2..20): zero violations of the three bounds"):
        rng = np.random.default_rng(20260814)
        n = 200
        start = time.perf_counter()
        for _ in range(10_000):
            p = int(rng.integers(2, 21))
            mix = rng.standard_normal((p + 1, p + 1))
            raw = rng.standard_normal((n, p + 1)) @ mix.T
            cols = standardize(raw.T)
            x = np.column_stack(cols[:p])
            y = cols[p]
            corr_xy = x.T @ y
            cross = validate_correlation(SymMatrix.symmetrized(x.T @ x))
            assert vdc_check(corr_xy, cross).satisfied
            assert eigen_bound_check(corr_xy, cross).satisfied
            fit = fit_least_squares(SecondMomentMatrix(cross.base), corr_xy)
            reg = BoundReport.from_sides(BoundKind.REGRESSION, fit.norm_sq, fit.bound)
            assert reg.satisfied  # lhs <= rhs + 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0


def test_criterion_04_no_random_joint_violates_mi_bound(capsys):
    with criterion(capsys, 4, "1000 random joints (2..5 vars, alphabets <= 4): MI bound never violated"):
        rng = np.random.default_rng(99)
        for i in range(1000):
            nv = int(rng.integers(2, 6))
            sizes = tuple(int(s) for s in rng.integers(2, 5, size=nv))
            w = rng.random(sizes)
            if i % 2 == 0:  # exercise zero cells too
                mask = rng.random(sizes) < 0.5
                if not mask.any():
                    mask.flat[0] = True
                w = w * mask
            joint = DiscreteJoint.from_table(w / w.sum())
            rep = mi_piranha_check(joint, int(rng.integers(0, nv)))
            assert rep.satisfied
            assert rep.lhs <= rep.rhs + 1e-12

        # equality case: outcome is the pair of two independent fair bits
        pair = DiscreteJoint(
            alphabet_sizes=(2, 2, 4),
            pmf={(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 2): 0.25, (1, 1, 3): 0.25},
        )
        rep = mi_piranha_check(pair, 2)
        assert abs(rep.lhs - 2 * LN2) <= 1e-12
        assert abs(rep.rhs - 2 * LN2) <= 1e-12


def test_criterion_05_sphere_simulation_matches_exact_mean(capsys):
    with criterion(capsys, 5, "sphere simulation (n=11, p=5, 100000 trials, seed 7) agrees with p/(n-1)"):
        start = time.perf_counter()
        code, out = run_cli(
            capsys,
            "simulate-sphere", "--n", "11", "--p", "5",
            "--trials", "100000", "--seed", "7", "--format", "json",
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        s = json.loads(out)["sphere"]
        assert s["expected_sum_sq"] == 0.5
        z = abs(s["mc"]["mean"] - 0.5) / s["mc"]["stderr"]
        if z > 3.0:
            with capsys.disabled():
                print(f"\nacceptance 05 note: simulated mean is {z:.2f} sigma out", flush=True)
        assert z <= 4.0
        assert elapsed < 30.0


def test_criterion_06_worst_case_response_attains_top_singular_value(capsys):
    with criterion(capsys, 6, "100 random designs: top left vector attains sigma1^2 and no response exceeds it"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            n = int(rng.integers(8, 60))
            p = int(rng.integers(2, min(n - 1, 10)))
            x = random_sample_matrix(n, p, rng)
            u1, sigma1_sq = top_left_vector(x)
            assert abs(sum_sq_corr(x, u1) - sigma1_sq) <= 1e-9
            for _ in range(20):
                y = rng.standard_normal(n)
                assert sum_sq_corr(x, y) <= sigma1_sq + 1e-9


def test_criterion_07_aggregate_multiplier_spread(capsys):
    with criterion(capsys, 7, "100 multiplicative effects of 1.13 spread to sd_log 0.611, one-sd factor 1.84"):
        code, out = run_cli(
            capsys, "aggregate", "--count", "100", "--multiplier", "1.13", "--format", "json"
        )
        assert code == 0
        a = json.loads(out)["aggregate"]
        # independent route: variance of K log(1.13) summed over the binomial pmf
        log_m = math.log(1.13)
        pmf = [math.comb(100, k) * 0.5**100 for k in range(101)]
        mean_k = sum(k * w for k, w in enumerate(pmf))
        var_k = sum((k - mean_k) ** 2 * w for k, w in enumerate(pmf))
        sd_oracle = math.sqrt(var_k) * log_m
        assert abs(a["sd_log"] - sd_oracle) <= 1e-12
        assert f"{a['sd_log']:.3g}" == "0.611"
        assert f"{a['high_multiplier']:.3g}" == "1.84"
        assert abs(a["high_multiplier"] - math.exp(sd_oracle)) <= 1e-12


def test_criterion_08_logistic_field_probability_swing(capsys):
    with criterion(capsys, 8, "20 logit effects of 0.5 total exactly 10 and swing 0.00669 to 0.99331"):
        code, out = run_cli(
            capsys, "aggregate-logistic", "--count", "20", "--delta", "0.5", "--format", "json"
        )
        assert code == 0
        lg = json.loads(out)["logistic"]
        assert lg["total_logit"] == 10.0
        assert round(lg["swing_low"], 5) == 0.00669
        assert round(lg["swing_high"], 5) == 0.99331
        assert lg["swing_low"] + lg["swing_high"] == 1.0


def test_criterion_09_distribution_matches_chisq_mixture(capsys):
    with criterion(capsys, 9, "sum of squared correlations at n=200 matches the chi-square mixture (KS)"):
        with open(KS_FIXTURE, "r", encoding="utf-8") as fh:
            fixture = json.load(fh)
        code, out = run_cli(
            capsys,
            "simulate-sphere",
            "--n", str(fixture["n"]), "--p", str(fixture["p"]),
            "--trials", str(fixture["trials"]), "--seed", "7", "--format", "json",
        )
        assert code == 0
        distance = json.loads(out)["sphere"]["ks_distance"]
        assert distance < fixture["threshold"]


def test_criterion_10_reports_are_reproducible_bytes(capsys):
    with criterion(capsys, 10, "repeat simulation runs with one seed produce byte-identical JSON reports"):
        sphere_args = (
            "simulate-sphere", "--n", "11", "--p", "5",
            "--trials", "100000", "--seed", "7", "--format", "json",
        )
        first = run_cli(capsys, *sphere_args)
        second = run_cli(capsys, *sphere_args)
        assert first == second and first[0] == 0

        ks_args = (
            "simulate-sphere", "--n", "200", "--p", "5",
            "--trials", "10000", "--seed", "7", "--format", "json",
        )
        third = run_cli(capsys, *ks_args)
        fourth = run_cli(capsys, *ks_args)
        assert third == fourth and third[0] == 0
