"""Exit codes, output formats, and determinism of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from effectaudit import cli, errors, finite_sample, parse_report, pipeline
from effectaudit.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
BOUNDARY_CSV = os.path.join(HERE, "data", "boundary.csv")
DUPLICATED_CSV = os.path.join(HERE, "data", "duplicated_column.csv")


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_audit_satisfied_exit_zero(capsys):
    code, out, err = run(
        capsys, "audit", BOUNDARY_CSV, "--outcome", "y", "--trials", "500", "--format", "json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["mode"] == "dataset-audit"
    assert payload["dataset"]["bounds"]["vdc"]["satisfied"] is True


def test_audit_unknown_outcome_exit_two(capsys):
    code, out, err = run(capsys, "audit", BOUNDARY_CSV, "--outcome", "nope", "--trials", "500")
    assert code == 2 and out == ""
    assert "error" in err


def test_audit_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "audit", "/does/not/exist.csv", "--outcome", "y")
    assert code == 2 and "error" in err


def test_audit_bad_csv_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n4,5\n")
    code, _, err = run(capsys, "audit", str(bad), "--outcome", "b")
    assert code == 2 and "row 3" in err


def test_check_claims_vacuous_exit_zero(capsys):
    code, out, _ = run(capsys, "check-claims", "--tau", "0.3", "--p", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["claims"]["base_requirement"]["vacuous"] is True


@pytest.mark.parametrize("tau,degenerate", [("0.5", False), ("0.4999999999999999", True)])
def test_check_claims_tau_at_sqrt_two_eps(capsys, tau, degenerate):
    # sqrt(2 eps) is exactly 0.5 at eps = 0.125; one ulp below it the
    # multi-outcome requirement degenerates
    code, out, err = run(
        capsys, "check-claims", "--tau", tau, "--p", "3", "--eps", "0.125", "--format", "json"
    )
    assert code == 0 and err == ""
    req = json.loads(out)["claims"]["multi_outcome_requirement"]
    assert req["degenerate"] is degenerate
    assert req["vacuous"] is True
    if not degenerate:
        assert req["threshold"] == 0.0


def test_check_claims_violated_exit_one(capsys, tmp_path):
    cross = tmp_path / "identity.csv"
    cross.write_text("a,b,c\n1,0,0\n0,1,0\n0,0,1\n")
    code, out, _ = run(
        capsys,
        "check-claims", "--tau", "0.9", "--p", "3", "--cross", str(cross), "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["claims"]["feasible"] is False
    assert payload["claims"]["bounds"]["vdc"]["satisfied"] is False


def test_check_claims_file_with_eps_override(capsys, tmp_path):
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps({"tau": [0.5] * 10, "eps": 0.1}))
    code, out, _ = run(
        capsys, "check-claims", "--claims", str(claims), "--eps", "0.005", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["claims"]["multi_outcome_requirement"]["eps"] == 0.005
    assert payload["claims"]["multi_outcome_requirement"]["cross_mass"] == pytest.approx(6.0)


def test_check_claims_without_cross_no_longer_reads_as_uncorrelated(capsys, tmp_path):
    # The same claims against the identity matrix are infeasible (exit 1).
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps({"tau": [0.2] + [0.6] * 9}))
    code, out, _ = run(capsys, "check-claims", "--claims", str(claims))
    assert code == 0
    assert "compatible with uncorrelated variables" not in out
    assert "average |cross-correlation| >= 0.2373" in out
    identity = tmp_path / "identity.csv"
    identity.write_text(",".join(f"x{i}" for i in range(10)) + "\n" + "".join(
        ",".join("1" if i == j else "0" for j in range(10)) + "\n" for i in range(10)))
    code, out, _ = run(capsys, "check-claims", "--claims", str(claims), "--cross", str(identity))
    assert code == 1 and "INFEASIBLE" in out


def test_check_claims_conflicting_sources_exit_two(capsys, tmp_path):
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps({"tau": [0.5]}))
    code, _, err = run(capsys, "check-claims", "--claims", str(claims), "--tau", "0.3")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "check-claims", "--tau", "0.3")
    assert code == 2 and "--p" in err


def test_check_claims_malformed_json_exit_two(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "check-claims", "--claims", str(broken))
    assert code == 2 and "error" in err


def test_simulate_sphere_deterministic_bytes(capsys):
    args = (
        "simulate-sphere", "--n", "11", "--p", "5",
        "--trials", "2000", "--seed", "7", "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical on repeat
    rep = parse_report(out1)
    assert rep.sphere.expected_sum_sq == 0.5
    assert abs(rep.sphere.mc.mean - 0.5) < 6 * rep.sphere.mc.stderr


@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("text", "txt")])
def test_simulate_sphere_renders_its_seeded_golden(capsys, fmt, ext):
    # A computed run, so the Monte Carlo mean and the KS distance are pinned.
    code, out, _ = run(capsys, "simulate-sphere", "--n", "200", "--p", "5", "--trials", "2000",
                       "--seed", "1", "--format", fmt)
    with open(os.path.join(HERE, "data", "golden", f"sphere_seeded.{ext}"), encoding="utf-8") as fh:
        assert code == 0 and out == fh.read()


def test_simulate_sphere_seed_changes_output(capsys):
    base = ("simulate-sphere", "--n", "11", "--p", "5", "--trials", "2000", "--format", "json")
    _, out7, _ = run(capsys, *base, "--seed", "7")
    _, out8, _ = run(capsys, *base, "--seed", "8")
    assert out7 != out8


def test_simulate_sphere_bad_shape_exit_two(capsys):
    code, _, err = run(capsys, "simulate-sphere", "--n", "5", "--p", "5", "--trials", "100", "--seed", "0")
    assert code == 2 and "n > p" in err


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_audit_negative_seed_named(capsys, seed):
    code, out, err = run(capsys, "audit", BOUNDARY_CSV, "--outcome", "y", "--seed", seed)
    assert code == 2 and out == ""
    assert f"--seed must be a non-negative integer, got {seed}" in err


def test_audit_one_trial_exit_two_after_the_csv_is_read(capsys):
    code, out, err = run(capsys, "audit", BOUNDARY_CSV, "--outcome", "y", "--trials", "1")
    assert code == 2 and out == ""
    assert err == "effectaudit: error: need at least 2 trials, got 1\n"
    # the Monte Carlo step owns the check, so a missing file is named first
    code, _, err = run(capsys, "audit", "/does/not/exist.csv", "--outcome", "y", "--trials", "1")
    assert code == 2 and "exist.csv" in err


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_simulate_sphere_negative_seed_named(capsys, seed):
    argv = ("simulate-sphere", "--n", "50", "--p", "3", "--trials", "1000", "--seed", seed)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"--seed must be a non-negative integer, got {seed}" in err


def no_draw(*_args):
    raise AssertionError("a spectrum was drawn for a request above a cap")


def test_simulate_sphere_trials_cap_exit_two_before_drawing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sphere_singular_values", no_draw)
    over = cli.MAX_MIXTURE_TRIALS + 1
    argv = ("simulate-sphere", "--n", "50", "--p", "3", "--trials", str(over), "--seed", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"--trials must be at most {cli.MAX_MIXTURE_TRIALS}, got {over}" in err


def test_simulate_sphere_trials_cap_is_inclusive(capsys, monkeypatch):
    # a small stand-in cap, so both sides of it run quickly
    monkeypatch.setattr(cli, "MAX_MIXTURE_TRIALS", 1000)
    base = ("simulate-sphere", "--n", "50", "--p", "3", "--seed", "1")
    assert run(capsys, *base, "--trials", "1000")[0] == 0
    code, _, err = run(capsys, *base, "--trials", "1001")
    assert code == 2 and "--trials must be at most 1000, got 1001" in err


def test_simulate_sphere_design_cap_exit_two_before_drawing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sphere_singular_values", no_draw)
    p_over, n_over = cli.MAX_SPHERE_P + 1, cli.MAX_SPHERE_N + 1
    for n, p, message in (
        (p_over + 1, p_over, f"--p must be at most {cli.MAX_SPHERE_P}, got {p_over}"),
        (n_over, 3, f"--n must be at most 1e+300, got {n_over}"),
    ):
        argv = ("simulate-sphere", "--n", str(n), "--p", str(p), "--trials", "1000", "--seed", "1")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err


def test_simulate_sphere_design_cap_is_inclusive(capsys, monkeypatch):
    # small stand-in caps, so both sides of them run quickly; the n cap itself
    # is drawn at 10^300
    monkeypatch.setattr(cli, "MAX_SPHERE_P", 3)
    base = ("simulate-sphere", "--n", "50", "--trials", "1000", "--seed", "1")
    assert run(capsys, *base, "--p", "3")[0] == 0
    code, _, err = run(capsys, *base, "--p", "4")
    assert code == 2 and "--p must be at most 3, got 4" in err
    top = ("simulate-sphere", "--n", str(cli.MAX_SPHERE_N), "--p", "3", "--trials", "1000",
           "--seed", "1", "--format", "json")
    code, out, _ = run(capsys, *top)
    assert code == 0
    sphere = json.loads(out)["sphere"]
    assert sphere["n"] == 10**300 and sphere["expected_sum_sq"] == 3e-300
    assert all(math.isfinite(v) and v > 0 for v in sphere["singular_values"])


def sphere_peak(n: int, p: int, trials: int) -> int:
    argv = ["simulate-sphere", "--n", str(n), "--p", str(p), "--trials", str(trials), "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_simulate_sphere_memory_does_not_grow_with_n(capsys):
    # the spectrum is drawn in O(p^2); an n x p design at n = 10^9 would be 400 GB
    small, large = sphere_peak(1000, 50, 1000), sphere_peak(10**9, 50, 1000)
    capsys.readouterr()
    assert large <= 1.1 * small, f"{large} bytes at n = 10^9, {small} at n = 1000"


def test_simulate_sphere_p_cap_keeps_the_memory_budget(capsys):
    # the bytes behind the --p cap: p x p arrays, then _BATCH x p batches
    p = 600
    peak = sphere_peak(10**6, p, 5000)
    capsys.readouterr()
    per_p2, per_batch_p = 40, 20

    def bound(q: int) -> int:
        return per_p2 * q * q + per_batch_p * finite_sample._BATCH * q

    assert peak <= bound(p), f"{peak} bytes at p = {p}"
    assert bound(cli.MAX_SPHERE_P) <= finite_sample.MEMORY_BUDGET


def test_sample_matrix_is_on_no_cli_path(capsys):
    assert not hasattr(finite_sample, "SampleMatrix")
    for argv in (
        ["audit", BOUNDARY_CSV, "--outcome", "y", "--trials", "500"],
        ["audit", BOUNDARY_CSV, "--outcome", "x1", "--trials", "500"],
        ["audit", DUPLICATED_CSV, "--outcome", "y", "--trials", "500"],
        ["simulate-sphere", "--n", "50", "--p", "3", "--trials", "1000", "--seed", "1"],
    ):
        assert run(capsys, *argv)[0] == 0, argv


def test_check_claims_p_cap_exit_two_before_allocating(capsys):
    over = cli.MAX_CLAIMS + 1
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "check-claims", "--tau", "0.5", "--p", str(over))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"--p must be at most {cli.MAX_CLAIMS}, got {over}" in err
    # the claim vector alone would be 8 bytes per claim
    assert peak < 2**20, f"{peak} bytes held before refusing"


def test_check_claims_p_cap_is_inclusive(capsys, monkeypatch):
    # a small stand-in cap, so both sides of it run quickly
    monkeypatch.setattr(cli, "MAX_CLAIMS", 50)
    assert run(capsys, "check-claims", "--tau", "0.1", "--p", "50")[0] == 0
    code, _, err = run(capsys, "check-claims", "--tau", "0.1", "--p", "51")
    assert code == 2 and "--p must be at most 50, got 51" in err


def test_claims_file_obeys_the_claims_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_CLAIMS", 3)
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps({"tau": [0.1] * 3}))
    assert run(capsys, "check-claims", "--claims", str(claims))[0] == 0
    claims.write_text(json.dumps({"tau": [0.1] * 4}))
    code, out, err = run(capsys, "check-claims", "--claims", str(claims))
    assert code == 2 and out == ""
    assert f"{claims}: 4 claims is over the cap of 3" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_claims_memory_per_claim_is_bounded(capsys, fmt):
    # the bytes per claim behind the --p cap, with the longest repr a tau in
    # [0, 1] can have (23 characters)
    claims = 20000
    argv = ("check-claims", "--tau", "1.2345678901234567e-100", "--p", str(claims),
            "--eps", "0.01", "--format", fmt)
    assert run(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < pipeline._CLAIM_BYTES * claims, f"{peak / claims:.1f} bytes per claim"


NESTED = "[" * 100_000 + "]" * 100_000

# Files nested too deeply for json.loads; "compact-joint" reaches the compact
# reader's parse of the text around its atoms array (the file is over 2 kB).
NESTED_FILES = {
    "joint": ("mi-check", '{"alphabet_sizes":%s,"outcome_index":0,"atoms":[]}' % NESTED),
    "compact-joint": ("mi-check", '{"alphabet_sizes":%s,"outcome_index":0,'
                                  '"atoms":[{"tuple":[0],"prob":1}]}' % NESTED),
    "claims": ("check-claims", '{"tau":%s}' % NESTED),
}


@pytest.mark.parametrize("name", NESTED_FILES)
def test_deeply_nested_json_exit_two(capsys, tmp_path, name):
    command, text = NESTED_FILES[name]
    path = tmp_path / "nested.json"
    path.write_text(text)
    argv = (command, str(path)) if command == "mi-check" else (command, "--claims", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"effectaudit: error: {path}: JSON nested too deeply to read\n"
    assert "Traceback" not in err


# A value nested 400 deep echoes as 400 '[' before its number; the message
# shows the first errors.ECHO_CHARS characters of it.
DEEP = "[" * 400 + "2" + "]" * 400
LONG_VALUE_FILES = {
    "joint": ("mi-check", '{"alphabet_sizes":[%s],"outcome_index":0,"atoms":[]}' % DEEP,
              "bad alphabet sizes "),
    "claims": ("check-claims", '{"tau":[0.5,%s]}' % DEEP, "claims 'tau'[1] must be a number, got "),
}


@pytest.mark.parametrize("name", LONG_VALUE_FILES)
def test_error_messages_cut_a_long_value(capsys, tmp_path, name):
    command, text, message = LONG_VALUE_FILES[name]
    path = tmp_path / "long.json"
    path.write_text(text)
    argv = (command, str(path)) if command == "mi-check" else (command, "--claims", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"effectaudit: error: {message}{'[' * errors.ECHO_CHARS}...\n"


def test_echo_cuts_after_echo_chars():
    assert errors.echo("x" * errors.ECHO_CHARS) == "x" * errors.ECHO_CHARS
    assert errors.echo("x" * (errors.ECHO_CHARS + 1)) == "x" * errors.ECHO_CHARS + "..."


def test_many_atom_openings_do_not_size_the_compact_reader(capsys, tmp_path):
    # 10^5 variables of one value pass the cell cap; 10^5 atom openings with
    # 10^5 indices each would be 80 GB of indices.  json.loads then stops at
    # the missing ',' after the first atom.
    sizes = ",".join(["1"] * 10**5)
    atoms = '{"tuple":[0],"prob":1}' * 10**5
    path = tmp_path / "joint.json"
    path.write_text('{"alphabet_sizes":[%s],"outcome_index":0,"atoms":[%s]}' % (sizes, atoms))
    size = os.path.getsize(path)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "mi-check", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("effectaudit: error: Expecting ',' delimiter") and err.count("\n") == 1
    assert peak < 4 * size, f"{peak / size:.2f} bytes per file byte"


def test_aggregate_text_output(capsys):
    code, out, _ = run(capsys, "aggregate", "--count", "100", "--multiplier", "1.13")
    assert code == 0
    assert "(~ 0.61)" in out and "1.84" in out


def test_aggregate_validation_exit_two(capsys):
    code, _, err = run(capsys, "aggregate", "--count", "0", "--multiplier", "1.1")
    assert code == 2 and "count" in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_check_claims_non_finite_eps_exit_two(capsys, eps):
    code, out, err = run(capsys, "check-claims", "--tau", "0.3", "--p", "4", "--eps", eps)
    assert code == 2 and out == ""
    assert "eps must be finite" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("eps", ["1e308", "2.0000000000000004", "-1e-300"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_check_claims_eps_outside_zero_two_exit_two(capsys, tmp_path, source, eps, fmt):
    # eps is 1 - a correlation; past 2, sqrt(2 eps) could overflow, and the
    # JSON report would fail on the -inf threshold while text printed it
    if source == "flag":
        argv = ["--tau", "0.5", "--p", "3", f"--eps={eps}"]
    else:
        claims = tmp_path / "claims.json"
        claims.write_text(f'{{"tau": [0.5, 0.5, 0.5], "eps": {eps}}}')
        argv = ["--claims", str(claims)]
    code, out, err = run(capsys, "check-claims", *argv, "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"effectaudit: error: eps must be finite and in [0, 2], got {float(eps)!r}\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_claims_eps_of_two_is_in_range(capsys, fmt):
    code, out, err = run(capsys, "check-claims", "--tau", "0.5", "--p", "3", "--eps", "2",
                         "--format", fmt)
    assert code == 0 and err == "" and out


@pytest.mark.parametrize("delta",["nan", "inf", "-inf", "1e308"])
def test_aggregate_logistic_non_finite_delta_exit_two(capsys, delta):
    code, out, err = run(capsys, "aggregate-logistic", "--count", "3", f"--delta={delta}")
    assert code == 2 and out == ""
    assert ("overflows" if delta == "1e308" else "per_effect_logit must be finite") in err


@pytest.mark.parametrize(
    "count,multiplier,message",
    [
        ("100", "inf", "multiplier must be positive and finite"),
        ("100", "nan", "multiplier must be positive and finite"),
        ("100000", "1e300", "overflows"),
        ("1" + "0" * 400, "1.1", "too large"),
    ],
)
def test_aggregate_non_finite_or_overflowing_exit_two(capsys, count, multiplier, message):
    code, out, err = run(capsys, "aggregate", "--count", count, "--multiplier", multiplier)
    assert code == 2 and out == ""
    assert message in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_audit_singular_design_writes_null_bound(capsys):
    code, out, err = run(
        capsys, "audit", DUPLICATED_CSV, "--outcome", "y", "--trials", "500", "--format", "json"
    )
    assert code == 0 and err == ""
    regression = json.loads(out, parse_constant=_reject_constant)["dataset"]["bounds"]["regression"]
    assert regression["rhs"] is None and regression["slack"] is None
    assert regression["satisfied"] is True
    assert parse_report(out).dataset.regression.rhs == math.inf


def test_non_finite_report_exits_two(capsys, monkeypatch):
    def nan_report(args):
        report, status = cli._cmd_tightness(args)
        return replace(report, tightness=replace(report.tightness, gap=math.nan)), status

    monkeypatch.setitem(cli._COMMANDS, "tightness", nan_report)
    code, out, err = run(capsys, "tightness", "--p", "4", "--tau", "0.3", "--format", "json")
    assert code == 2 and out == ""
    assert "not JSON compliant" in err


def test_claims_file_nan_tau_named_at_its_index(capsys, tmp_path):
    claims = tmp_path / "claims.json"
    claims.write_text('{"tau": [0.3, NaN, 0.2]}')
    code, out, err = run(capsys, "check-claims", "--claims", str(claims))
    assert code == 2 and out == ""
    assert "tau[1] = nan outside [0, 1]" in err


def test_aggregate_logistic_fixture(capsys):
    code, out, _ = run(
        capsys, "aggregate-logistic", "--count", "20", "--delta", "0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["logistic"]["total_logit"] == 10.0
    assert round(payload["logistic"]["swing_low"], 5) == 0.00669
    assert round(payload["logistic"]["swing_high"], 5) == 0.99331


def joint_file(tmp_path, name="joint.json", outcome=2):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "alphabet_sizes": [2, 2, 4],
                "outcome_index": outcome,
                "atoms": [
                    {"tuple": [0, 0, 0], "prob": 0.25},
                    {"tuple": [0, 1, 1], "prob": 0.25},
                    {"tuple": [1, 0, 2], "prob": 0.25},
                    {"tuple": [1, 1, 3], "prob": 0.25},
                ],
            }
        )
    )
    return str(path)


def test_mi_check_equality_case(capsys, tmp_path):
    code, out, _ = run(capsys, "mi-check", joint_file(tmp_path), "--units", "bits", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mi"]["h_y"] == pytest.approx(2.0)
    assert payload["mi"]["lhs"] == pytest.approx(2.0)
    assert payload["mi"]["slack"] == pytest.approx(0.0, abs=1e-12)


def test_mi_check_outcome_override(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "mi-check", joint_file(tmp_path, outcome=2), "--outcome-index", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["mi"]["outcome_index"] == 0


def test_mi_check_bad_outcome_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "mi-check", joint_file(tmp_path), "--outcome-index", "9")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("prob,tuple_,message", [
    ("NaN", "[0,0]", "non-finite probability nan at (0, 0)"),
    ("0.5", "[1.7,1]", "atom (1.7, 1) has a non-integer index"),
])
def test_mi_check_bad_atom_exit_two(capsys, tmp_path, prob, tuple_, message):
    path = tmp_path / "joint.json"
    path.write_text('{"alphabet_sizes":[2,2],"outcome_index":1,"atoms":['
                    '{"tuple":%s,"prob":%s},{"tuple":[1,1],"prob":0.5}]}' % (tuple_, prob))
    code, out, err = run(capsys, "mi-check", str(path))
    assert code == 2 and out == ""
    assert message in err


def test_tightness_json(capsys):
    code, out, _ = run(capsys, "tightness", "--p", "100", "--tau", "0.3", "--format", "json")
    assert code == 0
    payload = json.loads(out)["tightness"]
    assert payload["lambda_max"] == pytest.approx(1 + 99 * 0.09, abs=1e-12)
    assert payload["gap"] == pytest.approx(0.0, abs=1e-9)


def test_tightness_bad_tau_exit_two(capsys):
    code, _, err = run(capsys, "tightness", "--p", "10", "--tau", "1.5")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv,message", [
    (["check-claims", "--tau", "1.5", "--p", "3"], "tau[0] = 1.5 outside [0, 1]"),
    (["tightness", "--p", "3", "--tau", "inf"], "tau = inf outside [0, 1]"),
])
def test_bad_tau_named_with_its_range(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_audit_csv_outside_dialect_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,1_000\n4,5\n")
    code, out, err = run(capsys, "audit", str(bad), "--outcome", "b")
    assert code == 2 and out == ""
    assert "row 3, column 2: not a plain ASCII number: '1_000'" in err


@pytest.mark.parametrize("body,message", [
    ("\n \n\t\n", "matrix file needs a header row and at least one data row"),
    ("\n1,0.1\n", "row 2: expected 2 cells, got 1"),
], ids=["all-blank", "blank-first-row"])
def test_cross_csv_with_blank_body_exit_two_without_warnings(tmp_path, body, message):
    # numpy's reader skips blank lines and may warn; neither may show
    cross = tmp_path / "cross.csv"
    cross.write_text("a,b\n" + body)
    [(code, out, err)] = run_fresh([["check-claims", "--tau", "0.5", "--p", "2",
                                     "--cross", str(cross)]])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "audit")[0] == 2  # missing required arguments


def test_version_flag_exits_zero(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and "effectaudit" in out


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [
            sys.executable, "-m", "effectaudit.cli",
            "check-claims", "--tau", "0.5", "--p", "4", "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["tool"] == "effectaudit"
    assert payload["claims"]["base_requirement"]["vacuous"] is True


def test_installed_script_if_present():
    from shutil import which

    exe = which("effectaudit")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "tightness", "--p", "10", "--tau", "0.5"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "tightness construction" in proc.stdout


@pytest.mark.parametrize("content,key", [
    ('{"tau":[0.3,0.4],"eps":[1]}', "'eps'"),
    ('{"tau":{"a":1}}', "'tau'"),
    ('{"tau":[0.3,0.4],"cross":5}', "'cross'"),
    ('{"tau":[0.3,0.4],"eps":true}', "'eps'"),
    ('{"tau":[0.3,0.4],"eps":"0.01"}', "'eps'"),
], ids=["eps-array", "tau-object", "cross-number", "eps-bool", "eps-string"])
def test_claims_file_wrong_type_exit_two(capsys, tmp_path, content, key):
    claims = tmp_path / "claims.json"
    claims.write_text(content)
    code, out, err = run(capsys, "check-claims", "--claims", str(claims))
    assert code == 2 and out == ""
    assert f"claims {key} must be" in err


@pytest.mark.parametrize("file_cross", ["invalid.csv", "missing.csv"])
def test_check_claims_cross_flag_replaces_the_files_matrix(capsys, tmp_path, file_cross):
    # The file's matrix is never read when --cross is given: an invalid or
    # missing one does not change the verdict, which comes from --cross alone.
    (tmp_path / "invalid.csv").write_text("a,b\n1,2.0\n2.0,1\n")
    cross = tmp_path / "cross.csv"
    cross.write_text("a,b\n1,0.9\n0.9,1\n")
    # The file's keys are still type-checked.
    wrong_type = tmp_path / "wrong_type.json"
    wrong_type.write_text(json.dumps({"tau": [0.9, 0.9], "cross": 5}))
    code, out, err = run(capsys, "check-claims", "--claims", str(wrong_type), "--cross", str(cross))
    assert code == 2 and out == "" and "claims 'cross' must be" in err
    with_file = tmp_path / "with_file.json"
    with_file.write_text(json.dumps({"tau": [0.9, 0.9], "cross": file_cross, "eps": 0.01}))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"tau": [0.9, 0.9], "eps": 0.01}))
    code, out, err = run(capsys, "check-claims", "--claims", str(with_file), "--cross", str(cross),
                         "--format", "json")
    assert code in (0, 1) and err == ""
    assert (code, out, err) == run(capsys, "check-claims", "--claims", str(plain),
                                   "--cross", str(cross), "--format", "json")
    assert json.loads(out)["claims"]["cross_supplied"] is True
    if file_cross == "invalid.csv":
        code, _, err = run(capsys, "check-claims", "--claims", str(with_file))
        assert code == 2 and "entry [0,1] = 2.0 outside [-1, 1]" in err


# The source tree of the package under test, for child interpreters.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# Runs each argv of a JSON list through cli.main in one interpreter and prints
# [[exit code, stdout, stderr], ...] as JSON.  With "block-scipy", any import
# of scipy fails, as on a machine where it is not installed.
_RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "block-scipy":
    sys.modules["scipy"] = None
from effectaudit.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def run_fresh(requests: list[list[str]], block_scipy: bool = False) -> list[tuple]:
    """(exit code, stdout, stderr) of each request, all served by one new process."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, "block-scipy" if block_scipy else "-",
         json.dumps(requests)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return [tuple(r) for r in json.loads(proc.stdout)]


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, effectaudit.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.strip() == "[]"


def claims_file(tmp_path) -> str:
    cross = tmp_path / "cross.csv"
    cross.write_text("c1,c2,c3\n1.0,0.2,0.1\n0.2,1.0,0.3\n0.1,0.3,1.0\n")
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps({"tau": [0.5, 0.6, 0.7], "cross": "cross.csv", "eps": 0.05}))
    return str(claims)


def test_every_subcommand_runs_without_scipy(capsys, tmp_path):
    joint, claims = joint_file(tmp_path), claims_file(tmp_path)
    requests = [
        ["audit", BOUNDARY_CSV, "--outcome", "y", "--trials", "2000", "--format", "json"],
        ["audit", DUPLICATED_CSV, "--outcome", "y", "--trials", "2000"],
        # 1000 trials: scipy's exact-mode rounding; 12000: its asymptotic mode
        ["simulate-sphere", "--n", "50", "--p", "3", "--trials", "1000", "--seed", "1",
         "--format", "json"],
        ["simulate-sphere", "--n", "11", "--p", "5", "--trials", "12000", "--seed", "2"],
        ["check-claims", "--tau", "0.3", "--p", "4", "--format", "json"],
        ["check-claims", "--claims", claims],
        ["aggregate", "--count", "20", "--multiplier", "1.1", "--format", "json"],
        ["aggregate-logistic", "--count", "20", "--delta", "0.5"],
        ["mi-check", joint, "--units", "bits", "--format", "json"],
        ["tightness", "--p", "10", "--tau", "0.3"],
    ]
    blocked = run_fresh(requests, block_scipy=True)
    for argv, (code, out, err) in zip(requests, blocked):
        assert code in (0, 1), (argv, err)
        assert (code, out, err) == run(capsys, *argv), argv


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_cached_parser_carries_no_state_between_requests(tmp_path):
    joint, claims = joint_file(tmp_path), claims_file(tmp_path)
    requests = [
        ["mi-check", joint, "--outcome-index", "1"],
        ["mi-check", joint],
        ["check-claims", "--claims", claims],
        ["check-claims", "--tau", "0.3", "--p", "4"],
        ["check-claims", "--tau", "0.3", "--p", "four"],
    ]
    sequence = run_fresh(requests + requests[:1])
    assert sequence[4][0] == 2 and "invalid int value" in sequence[4][2]
    alone = [run_fresh([argv])[0] for argv in requests]
    assert sequence == alone + alone[:1]


def test_mi_check_json_route_refuses_a_file_over_its_cap(capsys, tmp_path):
    # A sparse file of zero bytes: the compact reader declines it, and
    # json.loads would hold about 16 bytes per byte of it.
    joint = tmp_path / "joint.json"
    with open(joint, "wb") as fh:
        fh.truncate(pipeline.MAX_JSON_JOINT_BYTES + 1)
    code, out, err = run(capsys, "mi-check", str(joint))
    assert code == 2 and out == ""
    assert (
        f"{pipeline.MAX_JSON_JOINT_BYTES + 1} bytes is over the "
        f"{pipeline.MAX_JSON_JOINT_BYTES}-byte cap for a joint file not in the compact layout"
    ) in err
    assert 'json.dumps(obj, separators=(",", ":"))' in err


# Linux carries ru_maxrss across fork and exec, so a child of the test process
# starts at the test process's high-water mark, and a rise below it reads as 0.
# VmHWM, the peak of the child's own address space, starts afresh at exec.
_MAXRSS_RUNNER = """
import os, resource, sys
from effectaudit.cli import main

def peak():
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as fh:
            return int(fh.read().split("VmHWM:")[1].split()[0])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

before = peak()
code = main(sys.argv[1:])
print(code, before, peak())
"""


def maxrss_rise(*argv):
    """The exit code, stderr and peak-RSS rise (KiB) of main(argv) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAXRSS_RUNNER, *argv],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    code, before, after = map(int, proc.stdout.split())
    return code, proc.stderr, after - before


def test_mi_check_refuses_a_file_over_the_cap_before_reading_it(tmp_path):
    # Judged by its first bytes and its size: reading the sparse file whole
    # would raise the high-water mark by 64 MiB.
    joint = tmp_path / "joint.json"
    with open(joint, "wb") as fh:
        fh.truncate(pipeline.MAX_JSON_JOINT_BYTES + 1)
    code, err, rise = maxrss_rise("mi-check", str(joint))
    assert code == 2 and "-byte cap for a joint file not in the compact layout" in err
    assert rise < 8 * 1024, f"ru_maxrss rose by {rise} KiB"


def test_mi_check_refuses_a_compact_file_over_its_cap_before_reading_it(tmp_path):
    # Its atoms array opens in its first bytes, so only MAX_COMPACT_JOINT_BYTES
    # judges it; reading the sparse file whole would raise the high-water mark
    # by 128 MiB.
    joint = tmp_path / "joint.json"
    size = pipeline.MAX_COMPACT_JOINT_BYTES + 1
    with open(joint, "wb") as fh:
        fh.write(b'{"alphabet_sizes":[2],"outcome_index":0,"atoms":[{"tuple":[')
        fh.truncate(size)
    code, err, rise = maxrss_rise("mi-check", str(joint))
    assert code == 2 and (
        f"{joint}: {size} bytes is over the {size - 1}-byte cap for a joint file in the "
        "compact layout"
    ) in err
    assert rise < 8 * 1024, f"ru_maxrss rose by {rise} KiB"


def test_mi_check_json_route_cap_is_inclusive(capsys, tmp_path, monkeypatch):
    # At the cap the file is read, and its own fault is reported.
    monkeypatch.setattr(pipeline, "MAX_JSON_JOINT_BYTES", 64)
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({"alphabet_sizes": [2], "outcome_index": 0}).ljust(64))
    assert os.path.getsize(joint) == 64
    code, _, err = run(capsys, "mi-check", str(joint))
    assert code == 2 and "missing 'atoms'" in err
    joint.write_text(json.dumps({"alphabet_sizes": [2], "outcome_index": 0}).ljust(65))
    code, _, err = run(capsys, "mi-check", str(joint))
    assert code == 2 and "65 bytes is over the 64-byte cap" in err


# Each CSV, matrix and claims file: the argv around its path, the pipeline cap
# that judges it, how the message names it, and a file with a fault of its own.
CAPPED_INPUTS = {
    "csv": (["audit", "{}", "--outcome", "y"], "MAX_CSV_BYTES", "CSV file",
            "a,y\n1,2\n", "need at least 3 data rows, got 1"),
    "matrix": (["check-claims", "--tau", "0.5", "--p", "2", "--cross", "{}"], "MAX_CSV_BYTES",
               "CSV file", "a,b\n1,0.5\n", "matrix must be square"),
    "claims": (["check-claims", "--claims", "{}"], "MAX_CLAIMS_BYTES", "claims file",
               '{"taus": [0.5]}', "claims file must be a JSON object with a 'tau' array"),
}


def capped_argv(kind, path):
    return [str(path) if arg == "{}" else arg for arg in CAPPED_INPUTS[kind][0]]


@pytest.mark.parametrize("kind", CAPPED_INPUTS)
def test_input_file_over_its_cap_exits_two(capsys, tmp_path, kind):
    # a sparse file one byte over the cap is judged by its size alone
    _, cap_name, what, _, _ = CAPPED_INPUTS[kind]
    cap = getattr(pipeline, cap_name)
    path = tmp_path / "input"
    with open(path, "wb") as fh:
        fh.truncate(cap + 1)
    code, out, err = run(capsys, *capped_argv(kind, path))
    assert code == 2 and out == ""
    assert f"{path}: {cap + 1} bytes is over the {cap}-byte cap for a {what}" in err


@pytest.mark.parametrize("kind", CAPPED_INPUTS)
def test_input_file_cap_is_inclusive(capsys, tmp_path, monkeypatch, kind):
    # at the cap the file is read, and its own fault is reported
    _, cap_name, what, text, fault = CAPPED_INPUTS[kind]
    monkeypatch.setattr(pipeline, cap_name, 64)
    path = tmp_path / "input"
    path.write_text(text.ljust(64))
    code, _, err = run(capsys, *capped_argv(kind, path))
    assert code == 2 and fault in err
    path.write_text(text.ljust(65))
    code, _, err = run(capsys, *capped_argv(kind, path))
    assert code == 2 and f"{path}: 65 bytes is over the 64-byte cap for a {what}" in err


@pytest.mark.parametrize("kind", ["csv", "claims"])
def test_input_file_over_its_cap_is_refused_before_it_is_read(tmp_path, kind):
    # reading the sparse file whole would raise the high-water mark by 32 or 64 MiB
    path = tmp_path / "input"
    with open(path, "wb") as fh:
        fh.truncate(getattr(pipeline, CAPPED_INPUTS[kind][1]) + 1)
    code, err, rise = maxrss_rise(*capped_argv(kind, path))
    assert code == 2 and "-byte cap for a" in err
    assert rise < 8 * 1024, f"ru_maxrss rose by {rise} KiB"


def write_digit_csv(path, rows: int, width: int, header: str) -> None:
    """A CSV of random one-digit cells under a given header line."""
    digits = np.random.default_rng(rows).integers(ord("0"), ord("9") + 1, (rows, 2 * width),
                                                  dtype=np.uint8)
    digits[:, 1::2] = ord(",")
    digits[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(digits.tobytes())


def test_audit_refuses_a_csv_wider_than_the_cap_once_its_header_is_read(tmp_path):
    # n = 4002 rows of p = 4000 predictors and the outcome, one digit each:
    # 32 MB, under MAX_CSV_BYTES.  Audited in full, it took this tool past
    # 1.5 GB; refused at its header, which is read before the file is
    # decoded, it holds the file's bytes alone.
    width = 4001
    assert width > pipeline.MAX_AUDIT_P
    path = tmp_path / "wide.csv"
    write_digit_csv(path, 4002, width, ",".join(f"x{j}" for j in range(width - 1)) + ",y")
    assert os.path.getsize(path) <= pipeline.MAX_CSV_BYTES
    code, err, rise = maxrss_rise("audit", str(path), "--outcome", "y")
    assert code == 2
    assert f"CSV header has {width} columns; at most {pipeline.MAX_AUDIT_P} fit" in err
    assert rise * 1024 < 1.5 * os.path.getsize(path), f"ru_maxrss rose by {rise} KiB"


@pytest.mark.parametrize("kind", ["csv", "matrix"])
def test_width_cap_is_inclusive(capsys, tmp_path, monkeypatch, kind):
    # a small stand-in cap, so both sides of it run quickly; a matrix is
    # refused before its body is parsed, so an unparsable body is not reached
    monkeypatch.setattr(pipeline, "MAX_AUDIT_P", 3)
    path = tmp_path / "input"
    if kind == "csv":
        path.write_text("a,b,y\n1,2,3\n2,1,5\n3,3,4\n4,5,1\n")
        assert run(capsys, *capped_argv(kind, path))[0] == 0
        path.write_text("a,b,c,y\ngoat\n")
    else:
        path.write_text("a,b,c\n1,0.1,0.1\n0.1,1,0.1\n0.1,0.1,1\n")
        assert run(capsys, "check-claims", "--tau", "0.1", "--p", "3", "--cross", str(path))[0] == 0
        path.write_text("a,b,c,d\ngoat\n")
    code, out, err = run(capsys, *capped_argv(kind, path))
    what = "CSV header" if kind == "csv" else "matrix header"
    assert code == 2 and out == ""
    assert f"{what} has 4 columns; at most 3 fit the 1024 MiB memory budget" in err
