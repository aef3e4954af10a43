"""Exit codes, output formats, and determinism of the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from effectaudit import parse_report
from effectaudit.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
BOUNDARY_CSV = os.path.join(HERE, "data", "boundary.csv")


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


def test_simulate_sphere_seed_changes_output(capsys):
    base = ("simulate-sphere", "--n", "11", "--p", "5", "--trials", "2000", "--format", "json")
    _, out7, _ = run(capsys, *base, "--seed", "7")
    _, out8, _ = run(capsys, *base, "--seed", "8")
    assert out7 != out8


def test_simulate_sphere_bad_shape_exit_two(capsys):
    code, _, err = run(capsys, "simulate-sphere", "--n", "5", "--p", "5", "--trials", "100", "--seed", "0")
    assert code == 2 and "n > p" in err


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


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_aggregate_logistic_non_finite_delta_exit_two(capsys, delta):
    code, out, err = run(capsys, "aggregate-logistic", "--count", "3", f"--delta={delta}")
    assert code == 2 and out == ""
    assert "per_effect_logit must be finite" in err


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


def test_tightness_json(capsys):
    code, out, _ = run(capsys, "tightness", "--p", "100", "--tau", "0.3", "--format", "json")
    assert code == 0
    payload = json.loads(out)["tightness"]
    assert payload["lambda_max"] == pytest.approx(1 + 99 * 0.09, abs=1e-12)
    assert payload["gap"] == pytest.approx(0.0, abs=1e-9)


def test_tightness_bad_tau_exit_two(capsys):
    code, _, err = run(capsys, "tightness", "--p", "10", "--tau", "1.5")
    assert code == 2 and "error" in err


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
