"""CSV/JSON loading, dataset audits, claims audits, and report round-trips."""

import itertools
import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectaudit import (
    ClaimSet,
    Dataset,
    DiscreteJoint,
    audit_claims,
    audit_dataset,
    equicorrelation,
    load_claims_json,
    load_csv,
    load_csv_file,
    load_joint_json,
    load_matrix_csv,
    mi_piranha_check,
    parse_report,
    render_report,
)
from effectaudit.effect_models import AggregateSummary
from effectaudit.linear_bounds import TightnessInstance
from effectaudit.report import DiagnosticReport, LogisticSection, SphereSection
from effectaudit import __version__, pipeline
from effectaudit.cli import main
from effectaudit.errors import (
    ConstantColumnError,
    CorrelationValidationError,
    CsvParseError,
    DimensionMismatchError,
    DuplicateColumnError,
    InvalidJointError,
    InvalidShapeError,
    MissingValueError,
    RaggedRowError,
    TooFewRowsError,
    UnknownColumnError,
)
from effectaudit import report as report_module
from effectaudit.finite_sample import (
    MonteCarloEstimate,
    expected_sum_sq,
    expected_sum_sq_mc,
    svd,
)
from effectaudit.linear_bounds import (
    BoundKind,
    BoundReport,
    eigen_bound_check,
    fit_least_squares,
    vdc_check,
)
from effectaudit.matrix_core import SecondMomentMatrix, SymMatrix, validate_correlation
from effectaudit.pipeline import _parse_body, _parse_cell, _split_lines
from effectaudit.report import DatasetAuditSection

from test_finite_sample import standardize_one

HERE = os.path.dirname(os.path.abspath(__file__))
BOUNDARY_CSV = os.path.join(HERE, "data", "boundary.csv")
# boundary.csv with x1 duplicated: a singular design, so the regression bound is +inf.
DUPLICATED_CSV = os.path.join(HERE, "data", "duplicated_column.csv")
GOLDEN_REPORT = os.path.join(HERE, "data", "boundary_report.json")
# Rendered bytes of every report in round_trip_reports(), one file per mode and format.
GOLDEN_DIR = os.path.join(HERE, "data", "golden")


def csv_bytes(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


GOOD = csv_bytes("a,b,y", "1,2,3", "4,5,6", "7,8,10", "2,1,0")


def test_load_csv_happy_path():
    ds = load_csv(GOOD)
    assert ds.column_names == ("a", "b", "y")
    assert ds.n == 4
    np.testing.assert_allclose(ds.table[2], [3.0, 6.0, 10.0, 0.0])
    assert not ds.table.flags.writeable


def test_load_csv_trailing_blank_lines_ok():
    ds = load_csv(GOOD + b"\n\n")
    assert ds.n == 4


def test_load_csv_missing_value_positions():
    with pytest.raises(MissingValueError) as exc:
        load_csv(csv_bytes("a,b", "1,2", "3,", "5,6"))
    assert exc.value.row == 3 and exc.value.col == 2
    with pytest.raises(MissingValueError) as exc:
        load_csv(csv_bytes("a,b", "1,2", "NaN,4", "5,6"))
    assert exc.value.row == 3 and exc.value.col == 1


def test_load_csv_parse_errors():
    with pytest.raises(CsvParseError) as exc:
        load_csv(csv_bytes("a,b", "1,2", "3,goat", "5,6"))
    assert (exc.value.row, exc.value.col) == (3, 2)
    with pytest.raises(CsvParseError):
        load_csv(csv_bytes("a,b", "1,2", "inf,4", "5,6"))
    with pytest.raises(CsvParseError):
        load_csv(csv_bytes("a,b", "1,2", "-inf,4", "5,6"))
    with pytest.raises(CsvParseError):
        load_csv(b"\xff\xfe broken")


def test_load_csv_header_errors():
    with pytest.raises(CsvParseError):
        load_csv(csv_bytes("a,,c", "1,2,3", "4,5,6", "7,8,9"))
    with pytest.raises(CsvParseError):
        load_csv(csv_bytes("a,b,a", "1,2,3", "4,5,6", "7,8,9"))


def test_load_csv_shape_errors():
    with pytest.raises(TooFewRowsError):
        load_csv(b"")
    with pytest.raises(TooFewRowsError):
        load_csv(csv_bytes("a,b", "1,2", "3,4"))
    with pytest.raises(RaggedRowError) as exc:
        load_csv(csv_bytes("a,b", "1,2", "3,4,5", "6,7"))
    assert (exc.value.row, exc.value.expected, exc.value.got) == (3, 2, 3)


def big_csv_lines(rows=5000, width=5):
    """A header and ``rows`` data lines of distinct, exactly representable values."""
    header = ",".join(f"c{j}" for j in range(width))
    return [header] + [",".join(f"{i}.{j}5" for j in range(width)) for i in range(rows)]


# (bad cell or whole line, error type, (row, col) or (row, expected, got)).
# The fault sits in lines[4998], the 4998th of 5000 data lines: row 4999 with the header as row 1.
DEEP_FAULTS = {
    "missing": ("", MissingValueError, (4999, 4)),
    "nan": ("NaN", MissingValueError, (4999, 4)),
    "inf": ("inf", CsvParseError, (4999, 4)),
    "not a number": ("goat", CsvParseError, (4999, 4)),
    "underscore": ("1_000", CsvParseError, (4999, 4)),
    "non-ASCII digit": ("\u0667", CsvParseError, (4999, 4)),
    "longer row": ("1,2,3,4,5,6", RaggedRowError, (4999, 5, 6)),
    "shorter row": ("1,2,3,4", RaggedRowError, (4999, 5, 4)),
}


def _position(exc):
    if isinstance(exc, RaggedRowError):
        return exc.row, exc.expected, exc.got
    return exc.row, exc.col


@pytest.mark.parametrize("kind", sorted(DEEP_FAULTS))
def test_load_csv_locates_a_fault_deep_in_a_large_file(kind):
    bad, error, where = DEEP_FAULTS[kind]
    lines = big_csv_lines()
    if issubclass(error, RaggedRowError):
        lines[4998] = bad
    else:
        cells = lines[4998].split(",")
        cells[3] = bad
        lines[4998] = ",".join(cells)
    with pytest.raises(error) as exc:
        load_csv(csv_bytes(*lines))
    assert _position(exc.value) == where


def test_load_csv_earlier_fault_wins_over_later_ragged_row():
    lines = big_csv_lines()
    lines[4000] += ",7"
    lines[10] = lines[10].replace("9.25", "9.2x5")
    with pytest.raises(CsvParseError) as exc:
        load_csv(csv_bytes(*lines))
    assert (exc.value.row, exc.value.col) == (11, 3)
    lines = big_csv_lines()
    lines[10] += ",7"
    lines[4000] = lines[4000].replace("3999.25", "1_0")
    with pytest.raises(RaggedRowError) as exc:
        load_csv(csv_bytes(*lines))
    assert (exc.value.row, exc.value.got) == (11, 6)


def test_load_csv_values_equal_float_of_each_cell():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-5, 6, size=(300, 4))
    lines = ["a,b,c,d"] + [",".join(f" {v!r}" if j == 1 else repr(v) for j, v in enumerate(row))
                           for row in values.tolist()]
    ds = load_csv(csv_bytes(*lines))
    np.testing.assert_array_equal(ds.table.T, values)


def parse_body(lines: list[str], width: int) -> np.ndarray:
    """``_parse_body`` on the route that ``_split_lines`` picks for a file of these lines."""
    _, plain = _split_lines("\n".join(["h", *lines]).encode("utf-8"))
    return _parse_body(lines, width, plain)


def cell_walk(lines: list[str], width: int) -> np.ndarray:
    """Reference parser: the row-major cell walk alone, without the C reader."""
    values = np.empty((len(lines), width))
    for i, line in enumerate(lines):
        row = line.split(",")
        if len(row) != width:
            raise RaggedRowError(i + 2, width, len(row))
        for j, cell in enumerate(row):
            values[i, j] = _parse_cell(cell, i + 2, j + 1)
    return values


# Plain ASCII numbers in the spellings ``float`` accepts, padded with spaces or
# tabs; a small pool of fixed spellings makes ties common.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:.6f}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "0", "-0", "+0", "-0.0", "4.9e-324", "-5e-324", "2.2250738585072014e-308", "1e-310",
        "1e308", "-1e308", "1.7976931348623157e308", "1e-400", "-1e-400", "+1.5", "+7",
        ".5", "-.5", "1.", "+1.", "1E5", "1e+05", "007", "0.1",
    ]),
)
PAD = st.sampled_from(["", "", " ", "  ", "\t", " \t "])
CELLS = st.tuples(PAD, NUMBERS, PAD).map("".join)


def bodies(min_width=1):
    """(lines, width) of a well-formed body."""
    return st.integers(min_width, 6).flatmap(lambda w: st.tuples(
        st.lists(st.lists(CELLS, min_size=w, max_size=w), min_size=1, max_size=12)
        .map(lambda rows: [",".join(r) for r in rows]),
        st.just(w),
    ))


@settings(max_examples=200, deadline=None)
@given(bodies())
def test_parse_body_equals_the_cell_walk_bit_for_bit(body):
    lines, width = body
    # a well-formed body never reaches the cell walk
    with mock.patch("effectaudit.pipeline._parse_cell", side_effect=AssertionError("walked")):
        got = parse_body(lines, width)
    want = cell_walk(lines, width)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# "\xa01": numpy's reader accepts a non-breaking space as padding, the dialect does not.
CELL_FAULTS = ["", "NaN", "inf", "-inf", "1e400", "goat", "1_000", "\xa01"]
LINE_FAULTS = ["short row", "long row", "blank line"]


@settings(max_examples=200, deadline=None)
@given(bodies(min_width=2), st.sampled_from(CELL_FAULTS + LINE_FAULTS), st.data())
def test_parse_body_raises_what_the_cell_walk_raises(body, fault, data):
    lines, width = body
    i = data.draw(st.integers(0, len(lines) - 1), label="row")
    cells = lines[i].split(",")
    if fault == "short row":
        lines[i] = ",".join(cells[:-1])
    elif fault == "long row":
        lines[i] += ",1"
    elif fault == "blank line":
        lines[i] = ""
    else:
        cells[data.draw(st.integers(0, width - 1), label="col")] = fault
        lines[i] = ",".join(cells)
    assert_raises_like_the_cell_walk(lines, width)


@pytest.mark.parametrize("lines,width", [([""], 1), (["", ""], 2), (["", "", ""], 3)])
def test_parse_body_of_blank_lines_warns_nothing(lines, width):
    # numpy's reader warns "input contained no data" on such a body
    assert_raises_like_the_cell_walk(lines, width)


def assert_raises_like_the_cell_walk(lines: list[str], width: int) -> None:
    """``_parse_body`` raises the cell walk's error type and message, and warns nothing."""
    with pytest.raises((CsvParseError, MissingValueError, RaggedRowError)) as want:
        cell_walk(lines, width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(type(want.value)) as got:
            parse_body(lines, width)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# Line breaks that str.splitlines honours, ASCII and not; cells of the dialect
# and outside it; blank lines, Unicode spaces among them, that end a file.
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1e", "\x85", "\u2028"])
ROUTE_CELLS = st.sampled_from(["1", " 2.5", "-3e4\t", "1_000", "\xa01", "\u0661", "", "x"])
BLANKS = st.lists(st.sampled_from(["", " ", "\t", "\u3000", "\xa0"]), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["a,b", "x_1,y", "\u00e9t\u00e9,y", "_,\u2603"]),
    st.lists(st.lists(ROUTE_CELLS, min_size=1, max_size=3).map(",".join), max_size=6),
    BLANKS, BREAKS, st.booleans(),
)
def test_split_lines_route_is_the_line_by_line_test(header, body, blanks, brk, bom):
    # the one test of the text picks the loadtxt route exactly when every data
    # line is ASCII without '_', whatever the header, the line breaks and the
    # blank lines that end the file hold
    text = brk.join([header, *body, *blanks])
    lines, plain = _split_lines(("\ufeff" if bom else "").encode() + text.encode("utf-8"))
    assert lines[0] == header
    body = lines[1:]
    assert plain == (all(map(str.isascii, body)) and not any("_" in line for line in body))


def test_load_csv_drops_bom_and_keeps_header_characters():
    ds = load_csv(b"\xef\xbb\xbf" + csv_bytes("x_1,\u00e9t\u00e9,y", "1,2,3", "4,5,6", "7,8,10"))
    assert ds.column_names == ("x_1", "\u00e9t\u00e9", "y")
    # a BOM anywhere else is a non-ASCII character in a cell
    with pytest.raises(CsvParseError) as exc:
        load_csv(csv_bytes("a,b", "1,2", "3,\ufeff4", "5,6"))
    assert (exc.value.row, exc.value.col) == (3, 2)


def test_load_matrix_csv_rejects_cells_outside_the_dialect(tmp_path):
    path = tmp_path / "cross.csv"
    path.write_text("c1,c2\n1.0,0.2\n0.2,1_0\n")
    with pytest.raises(CsvParseError) as exc:
        load_matrix_csv(path)
    assert (exc.value.row, exc.value.col) == (3, 2)


def test_load_csv_file_fixture():
    ds = load_csv_file(BOUNDARY_CSV)
    assert ds.column_names == ("x1", "x2", "x3", "x4", "y")
    assert ds.n == 8


def test_load_csv_file_memory_per_file_byte(tmp_path):
    # 3.1 bytes per byte of this file: its bytes, the decoded text and its
    # lines.  A joined copy of the body, and line strings kept alive while the
    # columns were copied, made it 4.1.
    path = tmp_path / "wide.csv"
    rng = np.random.default_rng(5)
    np.savetxt(path, rng.standard_normal((4000, 50)), fmt="%.6f", delimiter=",",
               header=",".join(f"x_{j}" for j in range(50)), comments="")
    size = os.path.getsize(path)
    load_csv_file(path)
    tracemalloc.start()
    try:
        ds = load_csv_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.table.shape == (50, 4000)
    assert peak <= 3.5 * size, f"{peak / size:.2f} bytes per file byte"


def test_load_matrix_csv(tmp_path):
    path = tmp_path / "cross.csv"
    path.write_text("c1,c2\n1.0,0.21\n0.19,1.0\n")  # asymmetric: symmetrized to 0.2
    m = load_matrix_csv(path)
    assert m.entries[0, 1] == pytest.approx(0.2, abs=1e-15)
    assert m.entries[0, 1] == m.entries[1, 0]

    bad_shape = tmp_path / "rect.csv"
    bad_shape.write_text("c1,c2\n1.0,0.2\n")
    with pytest.raises(InvalidShapeError):
        load_matrix_csv(bad_shape)

    bad_diag = tmp_path / "diag.csv"
    bad_diag.write_text("c1,c2\n2.0,0.1\n0.1,1.0\n")
    with pytest.raises(CorrelationValidationError):
        load_matrix_csv(bad_diag)


def test_load_claims_json(tmp_path):
    cross = tmp_path / "cross.csv"
    cross.write_text("c1,c2\n1.0,0.3\n0.3,1.0\n")
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps({"tau": [0.4, 0.5], "cross": "cross.csv", "eps": 0.01}))
    cs, eps = load_claims_json(claims)
    assert cs.p == 2 and eps == 0.01
    assert cs.cross is not None and cs.cross.entries[0, 1] == pytest.approx(0.3)

    no_cross = tmp_path / "plain.json"
    no_cross.write_text(json.dumps({"tau": [0.4, 0.5]}))
    cs2, eps2 = load_claims_json(no_cross)
    assert cs2.cross is None and eps2 is None

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"eps": 0.1}))
    with pytest.raises(InvalidJointError):
        load_claims_json(broken)


@pytest.mark.parametrize("content,key", [
    ({"tau": [0.3, 0.4], "eps": [1]}, "'eps'"),
    ({"tau": [0.3, 0.4], "eps": True}, "'eps'"),
    ({"tau": [0.3, 0.4], "eps": "0.01"}, "'eps'"),
    ({"tau": {"a": 1}}, "'tau'"),
    ({"tau": 0.3}, "'tau'"),
    ({"tau": [0.3, "0.4"]}, "'tau'[1]"),
    ({"tau": [0.3, False]}, "'tau'[1]"),
    ({"tau": [[0.3], 0.4]}, "'tau'[0]"),
    ({"tau": [0.3, 0.4], "cross": 5}, "'cross'"),
    ({"tau": [0.3, 0.4], "cross": ["c.csv"]}, "'cross'"),
], ids=["eps-array", "eps-bool", "eps-string", "tau-object", "tau-scalar", "tau-string",
        "tau-bool", "tau-nested", "cross-number", "cross-array"])
def test_load_claims_json_rejects_wrong_types(tmp_path, content, key):
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps(content))
    with pytest.raises(InvalidJointError, match=re.escape(f"claims {key} must be")):
        load_claims_json(claims)


def test_load_joint_json(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(
        json.dumps(
            {
                "alphabet_sizes": [2, 2],
                "outcome_index": 1,
                "atoms": [
                    {"tuple": [0, 0], "prob": 0.5},
                    {"tuple": [1, 1], "prob": 0.5},
                ],
            }
        )
    )
    joint, outcome = load_joint_json(path)
    assert outcome == 1
    assert joint.alphabet_sizes == (2, 2)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"alphabet_sizes": [2], "atoms": []}))
    with pytest.raises(InvalidJointError):
        load_joint_json(missing)

    dupes = tmp_path / "dupes.json"
    dupes.write_text(
        json.dumps(
            {
                "alphabet_sizes": [2],
                "outcome_index": 0,
                "atoms": [
                    {"tuple": [0], "prob": 0.5},
                    {"tuple": [0], "prob": 0.5},
                ],
            }
        )
    )
    with pytest.raises(InvalidJointError):
        load_joint_json(dupes)


def write_joint(path, atoms, sizes=(2, 2)):
    path.write_text(json.dumps({"alphabet_sizes": list(sizes), "outcome_index": 1,
                                "atoms": atoms}))
    return path


def test_load_joint_json_rejects_malformed_atoms(tmp_path):
    for atoms in ([[0, 0]], [{"tuple": [0, 0]}], [3], "xy"):
        with pytest.raises(InvalidJointError, match="'tuple' and 'prob'"):
            load_joint_json(write_joint(tmp_path / "bad.json", atoms))
    with pytest.raises(InvalidJointError, match="not a sequence"):
        load_joint_json(write_joint(tmp_path / "bad.json", [{"tuple": 0, "prob": 1.0}]))
    with pytest.raises(InvalidJointError, match="not a number"):
        load_joint_json(write_joint(tmp_path / "bad.json", [{"tuple": [0, 0], "prob": "x"}]))
    for outcome in (None, 1.7, "1"):
        path = tmp_path / "outcome.json"
        path.write_text(json.dumps({"alphabet_sizes": [2], "outcome_index": outcome,
                                    "atoms": [{"tuple": [0], "prob": 1.0}]}))
        with pytest.raises(InvalidJointError, match="outcome_index must be an integer"):
            load_joint_json(path)


@pytest.mark.parametrize("content,message", [
    ({"alphabet_sizes": [2, 2], "outcome_index": True,
      "atoms": [{"tuple": [0, 0], "prob": 0.5}, {"tuple": [1, 1], "prob": 0.5}]},
     "outcome_index must be an integer, got True"),
    ({"alphabet_sizes": [2, 2], "outcome_index": False,
      "atoms": [{"tuple": [0, 0], "prob": 0.5}, {"tuple": [1, 1], "prob": 0.5}]},
     "outcome_index must be an integer, got False"),
    ({"alphabet_sizes": [2, 2], "outcome_index": 1,
      "atoms": [{"tuple": [0, 0], "prob": 0.5}, {"tuple": [True, 0], "prob": 0.5}]},
     "atoms[1] 'tuple' must hold integers, got [true, 0]"),
    ({"alphabet_sizes": [2, 2], "outcome_index": 1,
      "atoms": [{"tuple": [0, False], "prob": 0.5}, {"tuple": [1, 1], "prob": 0.5}]},
     "atoms[0] 'tuple' must hold integers, got [0, false]"),
    ({"alphabet_sizes": [2, 2], "outcome_index": 1,
      "atoms": [{"tuple": [0, 0], "prob": 0}, {"tuple": [1, 1], "prob": True}]},
     "atoms[1] 'prob' must be a number, got true"),
    ({"alphabet_sizes": [True, 2], "outcome_index": 1,
      "atoms": [{"tuple": [0, 0], "prob": 0.5}, {"tuple": [0, 1], "prob": 0.5}]},
     "alphabet_sizes[0] must be an integer, got true"),
], ids=["outcome-true", "outcome-false", "tuple", "tuple-false", "prob", "alphabet-size"])
def test_joint_json_booleans_exit_two(tmp_path, capsys, content, message):
    # each of these files was read as a valid joint, a boolean taken for 1 or 0
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(content))
    code = main(["mi-check", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err


def compact_joint_text(sizes, outcome, cells, probs, key_order=None) -> str:
    """A joint file in the compact layout; ``probs`` are already spelled."""
    atoms = ",".join('{"tuple":[%s],"prob":%s}' % (",".join(map(str, c)), p)
                     for c, p in zip(cells, probs))
    values = {"alphabet_sizes": "[%s]" % ",".join(map(str, sizes)),
              "outcome_index": str(outcome), "atoms": "[%s]" % atoms}
    keys = key_order or ("alphabet_sizes", "outcome_index", "atoms")
    return "{%s}" % ",".join('"%s":%s' % (key, values[key]) for key in keys)


def joint_outcome(path):
    """The table bytes and outcome load_joint_json gives, or its error's type and message."""
    try:
        joint, outcome = load_joint_json(path)
    except Exception as exc:  # every kind the CLI reports with exit 2
        return type(exc), str(exc)
    return joint.alphabet_sizes, joint.table.tobytes(), outcome


def json_loads_outcome(path):
    """joint_outcome through the json.loads route alone."""
    with mock.patch.object(pipeline, "_read_compact_joint", return_value=None):
        return joint_outcome(path)


PROB_SPELLINGS = [
    repr,
    "{:.17g}".format,
    lambda p: "{:.6e}".format(p).replace("e+", "e"),  # 2.500000e-01, 1.000000e00
    "{:.3f}".format,
    "{:.0f}".format,
]


@st.composite
def compact_joints(draw):
    """Compact joint files: k = 1..6 variables of 1..4 values, dense or sparse,
    atoms in random order, probabilities spelled as repr or in fixed,
    exponent or integer notation (which may miss the mass tolerance)."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.array(list(itertools.product(*map(range, sizes))))
    keep = rng.random(len(cells)) < draw(st.sampled_from([1.0, 0.5, 0.05]))
    keep[rng.integers(len(cells))] = True
    cells = rng.permutation(cells[keep])
    weights = rng.integers(0, 1000, len(cells)) * (rng.random(len(cells)) < 0.9)
    weights[0] += 1
    spell = draw(st.sampled_from(PROB_SPELLINGS))
    probs = [spell(float(p)) for p in weights / weights.sum()]
    order = draw(st.permutations(["alphabet_sizes", "outcome_index", "atoms"]))
    return compact_joint_text(sizes, draw(st.integers(0, k - 1)), cells.tolist(), probs, order)


# Bytes and spellings a mutation inserts: JSON the compact reader must leave
# to json.loads, and text that is not JSON at all.
MUTATION_SNIPPETS = [
    "-", "+", "E", "e", ".", "0", "7", ",", " ", "\n", "\t", "\r", '"', "\\", "[", "]", "{", "}",
    ":", "|", "-0", "01", "00", ".5", "5.", "5.e3", "1e400", "1e-400", "9" * 20, "1" * 400,
    "true", "false", "null", "nan", "NaN", "Infinity", "inf", "\u00e9", "\ufeff",
    ',"x":1', '{"tuple":[0],"prob":0},', '"atoms":[{"tuple":[0],"prob":1}]',
]


def mutate(text: str, data) -> str:
    """Insert a snippet, overwrite a stretch, or delete a stretch at a random point."""
    kind = data.draw(st.sampled_from(["insert", "replace", "delete"]))
    at = data.draw(st.integers(0, len(text) - 1))
    width = data.draw(st.integers(1, 3))
    if kind == "delete":
        return text[:at] + text[at + width:]
    snippet = data.draw(st.sampled_from(MUTATION_SNIPPETS))
    return text[:at] + snippet + text[at + (width if kind == "replace" else 0):]


@settings(max_examples=300, deadline=None)
@given(compact_joints(), st.integers(0, 2), st.sampled_from([1, 40, pipeline._CHUNK_BYTES]),
       st.data())
def test_compact_reader_equals_the_json_loads_route(tmp_path_factory, text, mutations, chunk,
                                                    data):
    # a 1-byte chunk cuts the atoms at every separator, 40 bytes at some
    for _ in range(mutations):
        text = mutate(text, data)
    path = tmp_path_factory.mktemp("joint") / "joint.json"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(pipeline, "_CHUNK_BYTES", chunk):
        if mutations == 0:
            assert pipeline._read_compact_joint(path.read_bytes()) is not None
        assert joint_outcome(path) == json_loads_outcome(path)


BASE_SIZES = (2, 3)
BASE_CELLS = [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
BASE_PROBS = ["0.25", "0.25", "0.125", "0.125", "0.25", "0"]
BASE_TEXT = compact_joint_text(BASE_SIZES, 1, BASE_CELLS, BASE_PROBS)


def with_prob(spelling: str, at: int = 5) -> str:
    probs = list(BASE_PROBS)
    probs[at] = spelling
    return compact_joint_text(BASE_SIZES, 1, BASE_CELLS, probs)


# Files the compact reader must leave to json.loads, one for each way its
# byte tests could otherwise read them differently.
NOT_COMPACT = {
    "utf8-bom": b"\xef\xbb\xbf" + BASE_TEXT.encode(),
    "utf16": BASE_TEXT.encode("utf-16"),
    "utf16-le-no-bom": BASE_TEXT.encode("utf-16-le"),
    "minus-zero-prob": with_prob("-0"),
    "minus-zero-float-prob": with_prob("-0.0"),
    "minus-zero-index": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[-0,2]'),
    "minus-zero-first-index": BASE_TEXT.replace('"tuple":[0,0]', '"tuple":[-0,0]'),
    "negative-prob": with_prob("-0.25", at=0),
    "leading-zero-index": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[01,2]'),
    "leading-zero-first-index": BASE_TEXT.replace('"tuple":[0,0]', '"tuple":[00,0]'),
    "leading-zero-prob": with_prob("00.25", at=0),
    "leading-zeros-prob": with_prob("00", at=5),
    "dot-first": with_prob(".25", at=0),
    "dot-last": with_prob("0.", at=5),
    "dot-before-exponent": with_prob("2.e-1", at=0),
    "plus-sign": with_prob("+0.25", at=0),
    "plus-exponent": with_prob("2.5e+1", at=0),
    "capital-exponent": with_prob("2.5E-1", at=0),
    "capital-exponent-no-sign": compact_joint_text(BASE_SIZES, 1, [[1, 1]], ["1E0"]),
    "space": with_prob(" 0.25", at=0),
    "newline": with_prob("0.25\n", at=0),
    # the reader's own lines use '\n' and '|', so neither may come from the file
    "newline-between-atoms": BASE_TEXT.replace('},{"tuple":[0,1]', '\n0,1]'),
    "pipe-before-prob": BASE_TEXT.replace('[0,1],"prob":0.25', '[0,1|0.25'),
    "true": with_prob("true"),
    "nan": with_prob("NaN"),
    "infinity": with_prob("Infinity"),
    # json.loads names a probability beyond the float range by its atom
    "overflow-prob": with_prob("1e400"),
    "integer-prob-beyond-float": with_prob("1" * 400),
    "comma-in-prob": BASE_TEXT.replace('"tuple":[1,2],"prob":0', '"tuple":[1],"prob":2,0'),
    "short-tuple": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[1]'),
    "long-tuple": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[1,2,0]'),
    "empty-index": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[,2]'),
    "fraction-index": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[1.0,2]'),
    "exponent-index": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[1e0,2]'),
    "fraction-first-index": BASE_TEXT.replace('"tuple":[0,0]', '"tuple":[0.0,0]'),
    "exponent-last-index": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[1,2e0]'),
    "fraction-one-variable": compact_joint_text((3,), 0, [[0], [1.5]], ["0.5", "0.5"]),
    "index-beyond-int64": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[%d,2]' % 2**63),
    "second-atoms-array": BASE_TEXT[:-1] + ',"x":{"atoms":[{"tuple":[0,0],"prob":1}]}}',
    "duplicate-atoms-key": BASE_TEXT[:-1] + ',"atoms":[]}',
    "nested-atoms": '{"alphabet_sizes":{"atoms":[{"tuple":[0,0],"prob":1}]},'
                    '"outcome_index":1,"atoms":[]}',
    "backslash-outside": BASE_TEXT.replace('"outcome_index"', '"outcome\\u005findex"'),
    "extra-key": BASE_TEXT[:-1] + ',"note":"x"}',
    "boolean-outcome": BASE_TEXT.replace('"outcome_index":1', '"outcome_index":true'),
    "float-alphabet-size": BASE_TEXT.replace('"alphabet_sizes":[2,3]', '"alphabet_sizes":[2.0,3]'),
    "empty-atoms": compact_joint_text(BASE_SIZES, 1, [], []),
    "pretty-printed": json.dumps(json.loads(BASE_TEXT), indent=2),
    "atoms-not-closed": BASE_TEXT[:-2],
}


@pytest.mark.parametrize("content", NOT_COMPACT.values(), ids=NOT_COMPACT.keys())
def test_compact_reader_leaves_other_files_to_json_loads(tmp_path, content):
    path = tmp_path / "joint.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert pipeline._read_compact_joint(path.read_bytes()) is None
    assert joint_outcome(path) == json_loads_outcome(path)


# Compact files the reader takes; an invalid joint among them raises its own error.
COMPACT = {
    "base": BASE_TEXT,
    "exponent": with_prob("2.5e-1", at=0),
    "exponent-leading-zeros": with_prob("2.5e-01", at=0),
    "integer-exponent": with_prob("25e-2", at=0),
    "zero-exponent": with_prob("0e5"),
    "integer-prob": compact_joint_text(BASE_SIZES, 1, [[1, 1]], ["1"]),
    "key-order": compact_joint_text(BASE_SIZES, 1, BASE_CELLS, BASE_PROBS,
                                    ("atoms", "outcome_index", "alphabet_sizes")),
    "outer-whitespace": BASE_TEXT.replace('"alphabet_sizes":[2,3]', ' "alphabet_sizes" : [2, 3] ')
                        + "\n",
    "one-variable": compact_joint_text((3,), 0, [[0], [2]], ["0.5", "0.5"]),
    "subnormal": with_prob("5e-324"),
    "index-out-of-range": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[1,3]'),
    "duplicate-atom": BASE_TEXT.replace('"tuple":[1,2]', '"tuple":[1,1]'),
    "mass-off": with_prob("0.5"),
    "alphabet-too-large": BASE_TEXT.replace('"alphabet_sizes":[2,3]', '"alphabet_sizes":[2,3000000]'),
    "alphabet-size-zero": BASE_TEXT.replace('"alphabet_sizes":[2,3]', '"alphabet_sizes":[0,3]'),
    "outcome-out-of-range": BASE_TEXT.replace('"outcome_index":1', '"outcome_index":7'),
}


@pytest.mark.parametrize("content", COMPACT.values(), ids=COMPACT.keys())
def test_compact_reader_reads_the_compact_layout(tmp_path, content):
    path = tmp_path / "joint.json"
    path.write_text(content)
    assert pipeline._read_compact_joint(path.read_bytes()) is not None
    assert joint_outcome(path) == json_loads_outcome(path)


@pytest.mark.parametrize("content", [*COMPACT.values(), *NOT_COMPACT.values()],
                         ids=[*COMPACT.keys(), *NOT_COMPACT.keys()])
def test_compact_reader_cut_at_every_atom_equals_the_json_loads_route(tmp_path, content):
    path = tmp_path / "joint.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with mock.patch.object(pipeline, "_CHUNK_BYTES", 1):
        compact = pipeline._read_compact_joint(path.read_bytes())
        assert (compact is not None) == (content in COMPACT.values())
        assert joint_outcome(path) == json_loads_outcome(path)


@pytest.mark.parametrize("chunk,pieces", [(1, 6), (20, 3), (10**6, 1)])
def test_chunks_end_where_an_atom_separator_begins(tmp_path, chunk, pieces):
    # each chunk runs from an atom's first index to a probability's last digit
    path = tmp_path / "joint.json"
    path.write_text(BASE_TEXT)
    atoms = ['%s],"prob":%s' % (",".join(map(str, c)), p) for c, p in zip(BASE_CELLS, BASE_PROBS)]
    per_chunk = len(atoms) // pieces
    expected = ['},{"tuple":['.join(atoms[i:i + per_chunk]).encode()
                for i in range(0, len(atoms), per_chunk)]
    with mock.patch.object(pipeline, "_CHUNK_BYTES", chunk), \
            mock.patch.object(pipeline, "_compact_atoms", wraps=pipeline._compact_atoms) as spy:
        assert pipeline._read_compact_joint(path.read_bytes()) is not None
    assert [c.args for c in spy.call_args_list] == [(body, 2) for body in expected]


def test_integer_prob_beyond_float_names_its_atom(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(NOT_COMPACT["integer-prob-beyond-float"])
    with pytest.raises(InvalidJointError, match=r"^probability at \(1, 2\) is beyond the float range$"):
        load_joint_json(path)


def test_compact_reader_leaves_deep_nesting_to_json_loads(tmp_path):
    # json.loads of the text around the atoms raises RecursionError, not ValueError
    path = tmp_path / "joint.json"
    nested = "[" * 100_000 + "2" + "]" * 100_000
    path.write_text(BASE_TEXT.replace('"alphabet_sizes":[2,3]', '"alphabet_sizes":' + nested))
    assert pipeline._read_compact_joint(path.read_bytes()) is None
    with pytest.raises(InvalidJointError, match="JSON nested too deeply to read"):
        load_joint_json(path)


FLOAT_INDICES = ("fraction-index", "exponent-index", "fraction-first-index",
                 "exponent-last-index", "fraction-one-variable")


@pytest.mark.parametrize("name", FLOAT_INDICES)
def test_float_indices_never_reach_the_reader(tmp_path, name):
    # numpy's int reader once warned about a float and truncated it, so the
    # byte tests, not the reader, must reject '.' and 'e' in an index
    path = tmp_path / "joint.json"
    path.write_text(NOT_COMPACT[name])
    with mock.patch.object(pipeline.np, "loadtxt", side_effect=AssertionError("loadtxt")):
        assert pipeline._read_compact_joint(path.read_bytes()) is None


def test_a_reader_warning_sends_the_file_to_json_loads(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(BASE_TEXT)
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("float in an integer field", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    assert pipeline._read_compact_joint(path.read_bytes()) is not None
    with mock.patch.object(pipeline.np, "loadtxt", warning_loadtxt):
        assert pipeline._read_compact_joint(path.read_bytes()) is None
        assert joint_outcome(path) == json_loads_outcome(path)


def write_compact_joint(path, sizes):
    cells = list(itertools.product(*map(range, sizes)))
    probs = [repr(1 / len(cells))] * len(cells)
    path.write_text(compact_joint_text(sizes, 0, cells, probs))
    return path


def test_compact_joint_atoms_never_reach_json_loads(tmp_path):
    path = write_compact_joint(tmp_path / "joint.json", (4, 4, 4))
    expected = json_loads_outcome(path)
    loads = json.loads

    def outer_only_loads(text, **kwargs):
        assert "tuple" not in text
        return loads(text, **kwargs)

    with mock.patch.object(pipeline.json, "loads", outer_only_loads):
        joint, outcome = load_joint_json(path)
    assert (joint.alphabet_sizes, joint.table.tobytes(), outcome) == expected


def test_compact_reader_memory_is_the_file_and_the_result(tmp_path):
    # several chunks; the one-piece parse held about 7 bytes per byte of file
    sizes = (6,) * 6
    path = write_compact_joint(tmp_path / "joint.json", sizes)
    size = os.path.getsize(path)
    assert size > 2 * pipeline._CHUNK_BYTES
    load_joint_json(path)
    tracemalloc.start()
    try:
        joint, _ = load_joint_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    atoms, k = 6**6, len(sizes)
    assert joint.table.size == atoms
    assert peak <= size + 8 * (k + 1) * atoms + 8 * 2**20, f"{peak / size:.2f} bytes per file byte"


def test_joint_over_the_json_cap_is_read_only_in_the_compact_layout(tmp_path, monkeypatch):
    sizes = (5, 5, 5)
    cells = list(itertools.product(*map(range, sizes)))
    good = write_compact_joint(tmp_path / "good.json", sizes)
    bad = tmp_path / "bad.json"  # compact, but its probabilities sum to 1.25
    bad.write_text(compact_joint_text(sizes, 0, cells, ["0.01"] * len(cells)))
    loose = tmp_path / "loose.json"  # json.dumps' default separators
    loose.write_text(json.dumps(json.loads(good.read_text())))
    bad_message = json_loads_outcome(bad)[1]
    monkeypatch.setattr(pipeline, "MAX_JSON_JOINT_BYTES", 100)
    assert load_joint_json(good)[0].table.size == len(cells)
    # the compact route names the fault of an invalid compact joint, not the cap
    with pytest.raises(InvalidJointError) as exc:
        load_joint_json(bad)
    assert str(exc.value) == bad_message and "sum" in bad_message
    with pytest.raises(InvalidJointError, match="-byte cap for a joint file not in the compact"):
        load_joint_json(loose)
    # a non-finite probability leaves a compact file to json.loads, so its size decides
    overflow = tmp_path / "overflow.json"
    overflow.write_text(compact_joint_text(sizes, 0, cells, ["1e400"] * len(cells)))
    with pytest.raises(InvalidJointError, match="-byte cap for a joint file not in the compact"):
        load_joint_json(overflow)


@pytest.mark.parametrize("content", [NOT_COMPACT["pretty-printed"], with_prob("0.5"), BASE_TEXT],
                         ids=["pretty-printed", "compact-mass-off", "compact"])
def test_a_joint_file_is_opened_once_and_never_stated(tmp_path, content):
    # one open and one fstat, whichever route parses the file and whether or not it is valid
    path = tmp_path / "joint.json"
    path.write_text(content)
    with mock.patch("builtins.open", wraps=open) as opened, \
            mock.patch.object(pipeline.os, "stat", wraps=os.stat) as stat:
        joint_outcome(path)
    assert [c.args[0] for c in opened.call_args_list] == [path]
    assert stat.call_count == 0


@pytest.mark.parametrize("load", [load_joint_json, load_claims_json])
def test_crlf_json_is_read_with_universal_newlines(tmp_path, load):
    # a decode error gives the position that a text-mode read gives
    path = tmp_path / "input.json"
    path.write_bytes(b'{\r\n"tau": [0.5],\r\n"eps": oops}\r\n')
    with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as text_mode:
        json.loads(fh.read())
    with pytest.raises(json.JSONDecodeError) as got:
        load(path)
    assert str(got.value) == str(text_mode.value)


def test_audit_dataset_boundary_equalities():
    ds = load_csv_file(BOUNDARY_CSV)
    rep = audit_dataset(ds, "y", trials=2000, seed=3)
    d = rep.dataset
    assert rep.mode == "dataset-audit" and d is not None
    assert (d.n, d.p, d.outcome) == (8, 4, "y")
    # orthonormal predictors with y = sum X_i / sqrt(p): every bound is tight
    assert d.vdc.lhs == pytest.approx(2.0, abs=1e-6)
    assert d.vdc.rhs == pytest.approx(2.0, abs=1e-6)
    assert d.eigen.lhs == pytest.approx(d.eigen.rhs, abs=1e-6)
    assert d.regression.lhs == pytest.approx(d.regression.rhs, abs=1e-6)
    assert d.vdc.satisfied and d.eigen.satisfied and d.regression.satisfied
    assert d.expected_sum_sq == pytest.approx(4 / 7, abs=1e-15)
    np.testing.assert_allclose(d.outcome_correlations, [0.5] * 4, atol=1e-12)
    np.testing.assert_allclose(d.spectrum, [1.0] * 4, atol=1e-9)
    assert d.mc.trials == 2000 and rep.seed == 3


def random_design(rng: np.random.Generator, n: int, p: int) -> Dataset:
    """p correlated predictors (one shared factor) and an outcome built from them."""
    factor = rng.standard_normal((n, 1))
    x = rng.standard_normal((n, p)) + rng.uniform(0.0, 2.0) * factor
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    names = tuple(f"x{i}" for i in range(p)) + ("y",)
    return Dataset(column_names=names, table=np.vstack([x.T, y]))


def test_audit_dataset_reads_one_spectrum():
    # spectrum, the eigen bound's rhs and lambda_min come from one decomposition
    rng = np.random.default_rng(16)
    for _ in range(60):
        ds = random_design(rng, 200, int(rng.integers(2, 21)))
        d = audit_dataset(ds, "y", trials=2).dataset
        assert d.spectrum[0] == d.eigen.rhs
        assert d.spectrum[-1] == d.lambda_min
        assert d.sigma1_sq == pytest.approx(d.spectrum[0], rel=1e-12)


@pytest.fixture
def eig_calls(monkeypatch):
    """Count np.linalg.eigh and eigvalsh calls made while the test runs."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


@pytest.mark.parametrize("design", ["random", "singular"])
def test_audit_dataset_decomposes_once(eig_calls, design):
    if design == "random":
        ds = random_design(np.random.default_rng(17), 200, 12)
    else:
        ds = load_csv_file(DUPLICATED_CSV)
    audit_dataset(ds, "y", trials=1000)
    assert eig_calls == {"eigh": 1, "eigvalsh": 0}


def test_regression_coefficients_use_the_bounds_cutoff():
    # a near-duplicate column (noise 1e-6): lambda_min, about 5e-13, is at or
    # below the bound's cutoff, so the bound is +inf and beta must have no
    # part along that direction
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5000, 3))
    x[:, 2] = x[:, 0] + 1e-6 * rng.standard_normal(5000)
    y = x @ [0.3, -0.2, 0.1] + rng.standard_normal(5000)
    ds = Dataset(column_names=("a", "b", "c", "y"), table=np.column_stack([x, y]).T)
    d = audit_dataset(ds, "y", trials=2).dataset
    assert d.regression.rhs == math.inf and d.regression.lhs < 1.0
    dropped = np.linalg.eigh(d.predictor_correlations)[1][:, 0]
    assert abs(dropped @ d.beta) < 1e-6


@pytest.mark.parametrize("argv", [
    ["simulate-sphere", "--n", "200", "--p", "5", "--trials", "2000", "--seed", "1"],
    ["check-claims", "--tau", "0.3", "--p", "3", "--cross", "CROSS"],
    # --cross replaces the file's matrix, which is then not read
    ["check-claims", "--claims", "CLAIMS", "--cross", "CROSS"],
])
def test_cli_request_decomposes_once(eig_calls, tmp_path, capsys, argv):
    cross = tmp_path / "cross.csv"
    cross.write_text("a,b,c\n1,0.2,0.1\n0.2,1,0.3\n0.1,0.3,1\n")
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps({"tau": [0.3, 0.3, 0.3], "cross": "cross.csv"}))
    paths = {"CROSS": str(cross), "CLAIMS": str(claims)}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) in (0, 1)
    assert capsys.readouterr().err == ""
    assert eig_calls == {"eigh": 1, "eigvalsh": 0}


def test_audit_dataset_outcome_selection_and_errors():
    ds = load_csv(GOOD)
    by_default = audit_dataset(ds, trials=100)  # last column
    assert by_default.dataset.outcome == "y"
    by_index = audit_dataset(ds, 2, trials=100)
    assert by_index.dataset.outcome == "y"
    with pytest.raises(UnknownColumnError):
        audit_dataset(ds, "nope", trials=100)
    with pytest.raises(UnknownColumnError):
        audit_dataset(ds, 7, trials=100)


def test_audit_dataset_constant_column_named():
    ds = Dataset(
        column_names=("a", "flat", "y"),
        table=[[1.0, 2, 3, 5], [2.0, 2, 2, 2], [0.0, 1, 0, 2]],
    )
    with pytest.raises(ConstantColumnError) as exc:
        audit_dataset(ds, trials=100)
    assert "flat" in str(exc.value)


@pytest.mark.parametrize("columns,message", [
    ([[1.0, 2, 3], [1.0, 2, 3, 4]], "table must be 2-D, one row of equal length per column"),
    (np.ones(3), "table must be 2-D, one row of equal length per column"),
    (np.ones((2, 3, 1)), "table must be 2-D, one row of equal length per column"),
    (([1.0, 2, 3], [1.0, math.inf, 3]), "columns must be finite"),
    (([1.0, 2, 3], [1.0, math.nan, 3]), "columns must be finite"),
    (([1.0, 2], [3.0, 4]), "need at least 3 rows, got 2"),
])
def test_dataset_messages(columns, message):
    names = tuple(f"c{i}" for i in range(len(columns)))
    with pytest.raises((InvalidShapeError, TooFewRowsError)) as exc:
        Dataset(column_names=names, table=columns)
    assert str(exc.value) == message


def test_dataset_names_one_row_each():
    with pytest.raises(DimensionMismatchError, match="names and columns differ in count"):
        Dataset(column_names=("a", "b", "extra"), table=np.ones((2, 5)))
    with pytest.raises(DimensionMismatchError, match="names and columns differ in count"):
        Dataset(column_names=("a",), table=np.ones((2, 5)))


def test_dataset_refuses_a_repeated_name():
    # ("a", "a", "y") used to audit the first "a" and list "y" among the
    # outcome's predictors
    table = np.random.default_rng(3).standard_normal((3, 20))
    with pytest.raises(DuplicateColumnError, match=r"^duplicate column name 'a'$") as exc:
        Dataset(column_names=("a", "a", "y"), table=table)
    assert exc.value.name == "a"
    # the first name that repeats an earlier one, as load_csv names it
    with pytest.raises(DuplicateColumnError, match=r"^duplicate column name 'b'$"):
        Dataset(column_names=("a", "b", "b", "a"), table=np.ones((4, 3)))
    # load_csv keeps its own message, which carries the header position
    with pytest.raises(CsvParseError, match=r"^row 1, column 2: duplicate column name 'b'$"):
        load_csv(csv_bytes("a,b,b,a", "1,2,3,4", "2,3,4,5", "3,4,5,7"))


def test_dataset_keeps_one_read_only_table_of_its_own():
    given = np.arange(12.0).reshape(4, 3)
    for table in (given.T, tuple(given.T), given.T.tolist()):
        ds = Dataset(column_names=("a", "b", "c"), table=table)
        assert ds.table.shape == (3, 4) and ds.table.flags.c_contiguous
        assert not ds.table.flags.writeable and not np.shares_memory(ds.table, given)
        assert ds.table.tolist() == given.T.tolist()
    assert load_csv(GOOD).table.tolist() == [[1.0, 4, 7, 2], [2.0, 5, 8, 1], [3.0, 6, 10, 0]]


def per_column_audit_json(ds: Dataset, outcome: str, trials: int, seed: int) -> str:
    """An audit's JSON bytes by the per-column route: each column standardized
    alone, the correlations read from the Gram matrix of the table they form,
    the lists built float by float, and the report written by
    ``json.dumps(indent=2)``."""
    y_idx = ds.column_names.index(outcome)
    pred_idx = [i for i in range(len(ds.column_names)) if i != y_idx]
    table = np.stack([standardize_one(np.array(c)) for c in ds.table])
    gram = table @ table.T
    corr_xy = np.array([gram[i, y_idx] for i in pred_idx])
    block = np.array([[gram[i, j] for j in pred_idx] for i in pred_idx])
    cross = validate_correlation(SymMatrix.symmetrized(block))
    fit = fit_least_squares(SecondMomentMatrix(cross.base), corr_xy)
    sv = svd(table, pred_idx, cross.base.eigen)
    section = DatasetAuditSection(
        n=ds.n,
        p=len(pred_idx),
        outcome=ds.column_names[y_idx],
        predictors=[ds.column_names[i] for i in pred_idx],
        predictor_correlations=[[float(v) for v in row] for row in cross.entries],
        outcome_correlations=[float(v) for v in corr_xy],
        spectrum=[float(v) for v in cross.base.eigen.values],
        vdc=vdc_check(corr_xy, cross),
        eigen=eigen_bound_check(corr_xy, cross),
        regression=BoundReport.from_sides(BoundKind.REGRESSION, fit.norm_sq, fit.bound),
        beta=[float(v) for v in fit.beta],
        lambda_min=fit.lambda_min,
        singular_values=[float(v) for v in sv],
        sigma1_sq=float(sv[0] ** 2),
        expected_sum_sq=expected_sum_sq(ds.n, len(pred_idx)),
        mc=expected_sum_sq_mc(sv, ds.n, trials, seed),
    )
    rep = DiagnosticReport(version=__version__, mode="dataset-audit", seed=seed,
                           dataset=section)
    obj = {"tool": "effectaudit", **report_module._to_dict(rep)}
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("outcome", ["y", "x7", "x0"])
def test_audit_report_bytes_match_the_per_column_route(outcome):
    # The goldens are small; a BLAS that forms X^T X differently for another
    # layout of X moves report bytes only on larger designs like this one.
    rng = np.random.default_rng(24)
    n, p = 2000, 20
    x = 0.6 * rng.standard_normal((n, 1)) + rng.standard_normal((n, p)) * rng.uniform(0.5, 50, p)
    y = x @ rng.uniform(-0.5, 0.5, p) + rng.standard_normal(n)
    names = [f"x{j}" for j in range(p)] + ["y"]
    text = ",".join(names) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in np.column_stack([x, y]))
    ds = load_csv(text.encode())
    got = render_report(audit_dataset(ds, outcome, trials=3000, seed=7), "json")
    assert got == per_column_audit_json(ds, outcome, 3000, 7)


@pytest.mark.parametrize("outcome", [-1, 0, 25])
def test_audit_dataset_memory_is_one_copy_of_the_table(outcome):
    # The standardized rows alone: the Gram product is width x width, and the
    # rank test reads the predictors' rows a block at a time.  With the
    # predictors copied out for a design matrix this was two copies.
    rng = np.random.default_rng(51)
    n, width = 20_000, 51
    ds = Dataset(column_names=tuple(f"c{j}" for j in range(width)),
                 table=rng.standard_normal((width, n)))
    audit_dataset(ds, outcome, trials=200)
    tracemalloc.start()
    try:
        audit_dataset(ds, outcome, trials=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ds.table.nbytes, f"{peak / ds.table.nbytes:.2f} tables"


def offset_dataset(n: int, width: int, offset: float, spread: float, seed: int) -> Dataset:
    """Correlated normal columns times ``spread``, each moved by +-``offset``
    and rounded to float64 there."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((width, n)).T @ rng.standard_normal((width, width)) * spread
    signs = rng.choice([-1.0, 1.0], width)
    return Dataset(column_names=tuple(f"c{j}" for j in range(width)),
                   table=raw.T + (signs * offset)[:, np.newaxis])


@given(
    k=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=5, max_value=300),
    p=st.integers(min_value=1, max_value=4),
    outcome=st.sampled_from([0, -1]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_audit_correlations_are_accurate_at_any_offset(k, n, p, outcome, seed):
    # Reference: the same rounded floats, centered twice and scaled in long
    # double.  Bound: a dot product of two unit vectors errs by at most
    # gamma_n < 1.01 n u (u = eps / 2, the unit roundoff), each standardized
    # entry carries a few u from centering and scaling, and a residual mean
    # left below the re-centering test moves a correlation by at most eps:
    # under (1.01 n + 12) u, within (n + 10) eps.  One centering pass erred by
    # 5.7e-13 at 1e10.
    ds = offset_dataset(n, p + 1, 10.0**k, 1.0, seed)
    rep = audit_dataset(ds, outcome, trials=2).dataset
    table = ds.table.astype(np.longdouble)
    table -= table.mean(axis=1, keepdims=True)
    table -= table.mean(axis=1, keepdims=True)
    table /= np.sqrt((table * table).sum(axis=1, keepdims=True))
    ref = table @ table.T
    y = outcome % (p + 1)
    pred = [i for i in range(p + 1) if i != y]
    tol = (n + 10) * np.finfo(float).eps
    got_cross = np.array(rep.predictor_correlations, dtype=np.longdouble)
    assert np.max(np.abs(got_cross - ref[np.ix_(pred, pred)])) <= tol
    got_xy = np.array(rep.outcome_correlations, dtype=np.longdouble)
    assert np.max(np.abs(got_xy - ref[pred, y])) <= tol


def test_audit_names_a_column_at_an_offset_of_1e14_spreads():
    # 0.5 around 1e14: the centered norm is about 5e-15 of the raw norm,
    # within the 1e-14 of rounding that makes a column constant
    rng = np.random.default_rng(14)
    a, far, y = rng.standard_normal((3, 200))
    ds = Dataset(column_names=("a", "far", "y"), table=[a, 1e14 + 0.5 * far, y])
    with pytest.raises(ConstantColumnError, match="'far'"):
        audit_dataset(ds, "y", trials=2)


SCALE_COLUMNS = np.random.default_rng(600).standard_normal((5, 300))
SCALE_REPORT = render_report(
    audit_dataset(Dataset(column_names=("a", "b", "c", "d", "y"), table=SCALE_COLUMNS),
                  "y", trials=200, seed=1),
    "json",
)


@given(k=st.integers(min_value=-1000, max_value=1018), column=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_audit_report_is_unchanged_by_a_power_of_two_scale(k, column):
    # Scaling by 2^k is exact and correlations are scale-invariant, so the
    # bytes must not move, even where squared entries overflow or underflow.
    cols = SCALE_COLUMNS.copy()
    cols[column] = np.ldexp(cols[column], k)
    ds = Dataset(column_names=("a", "b", "c", "d", "y"), table=cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = audit_dataset(ds, "y", trials=200, seed=1)
    assert render_report(rep, "json") == SCALE_REPORT


@pytest.mark.parametrize("value", [1e-300, 2.0**-1000, 5e-324, 1e300])
def test_audit_names_a_constant_column_of_extreme_values(value):
    a, y = np.random.default_rng(3).standard_normal((2, 50))
    ds = Dataset(column_names=("a", "tiny", "y"), table=[a, np.full(50, value), y])
    with pytest.raises(ConstantColumnError, match="'tiny'"):
        audit_dataset(ds, "y", trials=2)


def test_audit_dataset_names_a_constant_predictor_before_a_constant_outcome():
    # the outcome comes first in the table, but predictors are named first
    ds = Dataset(
        column_names=("y", "a", "flat", "also_flat"),
        table=[[5.0, 5, 5, 5], [1.0, 2, 3, 5], [2.0, 2, 2, 2], [0.0, 0, 0, 0]],
    )
    with pytest.raises(ConstantColumnError, match="'flat'"):
        audit_dataset(ds, "y", trials=100)
    with pytest.raises(ConstantColumnError, match="'y'"):
        audit_dataset(Dataset(column_names=("y", "a"), table=[[5.0, 5, 5, 5], [1.0, 2, 3, 5]]),
                      "y", trials=100)


def test_audit_dataset_shape_guards():
    ds = Dataset(
        column_names=("a", "b", "c", "y"),
        table=[[1, 2, 3], [3, 1, 2], [2, 3, 1], [1, 3, 2]],
    )
    with pytest.raises(InvalidShapeError):
        audit_dataset(ds, trials=100)  # n = 3 <= p = 3


def test_audit_claims_vacuous_without_cross():
    rep = audit_claims(ClaimSet(tau=np.full(4, 0.3)))
    c = rep.claims
    assert rep.mode == "claims" and rep.seed is None
    assert c.base_requirement.cross_mass == pytest.approx(4 * (0.09 * 4 - 1), abs=1e-12)
    assert c.base_requirement.vacuous and c.base_requirement.feasible
    assert c.feasible
    assert c.vdc is None and c.cross_mass_actual is None


def test_audit_claims_twelve_at_03_fixture():
    rep = audit_claims(ClaimSet(tau=np.full(12, 0.3)))
    req = rep.claims.base_requirement
    assert req.cross_mass == pytest.approx(0.96, abs=1e-12)
    assert req.avg_abs_cross == pytest.approx(0.96 / 132, abs=1e-15)
    assert not req.vacuous and req.feasible and rep.claims.feasible


def test_audit_claims_heterogeneous_uses_every_claim():
    # (0.9 + 0.3 + 0.5)^2 - 3, not the weakest claim's 3 (0.09 * 3 - 1)
    rep = audit_claims(ClaimSet(tau=np.array([0.9, 0.3, 0.5])))
    assert rep.claims.tau_min == pytest.approx(0.3)
    assert rep.claims.base_requirement.cross_mass == pytest.approx(1.7**2 - 3, abs=1e-12)


CONTRADICTION = [0.2] + [0.6] * 9  # compatible with uncorrelated variables by tau_min alone


def test_audit_claims_without_cross_agree_with_the_identity():
    # With cross = I the claims are infeasible (vdc 5.6 > sqrt(10), eigen
    # 3.28 > 1), so without it they must not read as compatible with I.
    req = audit_claims(ClaimSet(tau=np.array(CONTRADICTION))).claims.base_requirement
    assert req.cross_mass == pytest.approx(5.6**2 - 10, abs=1e-12)
    assert req.avg_abs_cross == pytest.approx(21.36 / 90, abs=1e-12)
    assert not req.vacuous
    identity = audit_claims(ClaimSet(tau=np.array(CONTRADICTION), cross=equicorrelation(10, 0.0)))
    assert not identity.claims.feasible


@pytest.mark.parametrize("tau,compatible", [
    (CONTRADICTION, False),
    ([1.0, 0.1], False),  # sum bound vacuous (1.1 < sqrt 2), but sum tau^2 = 1.01
    ([0.7, 0.7], True),   # sum tau^2 = 0.98
    ([0.6, 0.8], True),   # sum tau^2 = 1 up to rounding
    ([0.5] * 4, True),
])
def test_compatible_sentence_follows_sum_of_squares(tau, compatible):
    text = render_report(audit_claims(ClaimSet(tau=np.array(tau))), "text")
    assert ("compatible with uncorrelated variables" in text
            and "not compatible" not in text) == compatible
    fits_identity = audit_claims(
        ClaimSet(tau=np.array(tau), cross=equicorrelation(len(tau), 0.0))
    ).claims.eigen.satisfied
    assert fits_identity == compatible


def test_compatible_sentence_names_the_sum_of_squares():
    text = render_report(audit_claims(ClaimSet(tau=np.array([1.0, 0.1]))), "text")
    assert "claims force no cross-correlation mass, but sum tau^2 = 1.01 > 1" in text


def test_audit_claims_with_cross_violation():
    identity = equicorrelation(3, 0.0)
    rep = audit_claims(ClaimSet(tau=np.full(3, 0.9), cross=identity))
    c = rep.claims
    assert c.vdc.lhs == pytest.approx(2.7, abs=1e-12)
    assert c.vdc.rhs == pytest.approx(math.sqrt(3), abs=1e-12)
    assert not c.vdc.satisfied
    assert not c.feasible
    assert c.cross_mass_actual == pytest.approx(0.0, abs=0)


def test_audit_claims_with_cross_satisfied():
    cross = equicorrelation(4, 0.09)  # the tightness construction at tau = 0.3
    rep = audit_claims(ClaimSet(tau=np.full(4, 0.3), cross=cross))
    assert rep.claims.vdc.satisfied and rep.claims.eigen.satisfied
    assert rep.claims.feasible


def test_audit_claims_eps_degenerate_never_blocks():
    rep = audit_claims(ClaimSet(tau=np.full(5, 0.3)), eps=0.1)
    mo = rep.claims.multi_outcome_requirement
    assert mo.degenerate  # 0.3 < sqrt(0.2)
    assert mo.feasible and rep.claims.feasible
    assert rep.claims.multi_outcome is None


def test_audit_claims_eps_requirement_checked_against_cross():
    identity = equicorrelation(10, 0.0)
    rep = audit_claims(ClaimSet(tau=np.full(10, 0.5), cross=identity), eps=0.005)
    c = rep.claims
    assert c.multi_outcome_requirement.cross_mass == pytest.approx(6.0, abs=1e-9)
    assert c.multi_outcome.lhs == pytest.approx(6.0, abs=1e-9)
    assert c.multi_outcome.rhs == pytest.approx(0.0, abs=0)
    assert not c.multi_outcome.satisfied
    assert not c.feasible


def test_audit_claims_eps_validation():
    with pytest.raises(InvalidShapeError):
        audit_claims(ClaimSet(tau=np.full(3, 0.4)), eps=-0.1)


def sphere_report() -> DiagnosticReport:
    return DiagnosticReport(
        version=__version__,
        mode="sphere",
        seed=7,
        sphere=SphereSection(
            n=11,
            p=5,
            trials=1000,
            singular_values=[1.2, 1.0, 0.9, 0.8, 0.7],
            sigma1_sq=1.44,
            expected_sum_sq=0.5,
            mc=MonteCarloEstimate(mean=0.49, stderr=0.003, trials=1000, seed=7),
            ks_distance=0.02,
        ),
    )


def other_mode_reports() -> list[DiagnosticReport]:
    return [
        sphere_report(),
        DiagnosticReport(
            version=__version__,
            mode="aggregate",
            seed=None,
            aggregate=AggregateSummary(
                count=100,
                multiplier=1.13,
                activation_prob=0.5,
                sd_log=0.6110881636212455,
                low_multiplier=1 / 1.8424351792999991,
                high_multiplier=1.8424351792999991,
            ),
        ),
        DiagnosticReport(
            version=__version__,
            mode="logistic",
            seed=None,
            logistic=LogisticSection(
                count=20,
                per_effect_logit=0.5,
                total_logit=10.0,
                swing_low=0.006692850924284856,
                swing_high=0.9933071490757152,
            ),
        ),
        DiagnosticReport(
            version=__version__,
            mode="mi-check",
            seed=None,
            mi=mi_piranha_check(
                DiscreteJoint(alphabet_sizes=(2, 2), pmf={(0, 0): 0.5, (1, 1): 0.5}), 1
            ),
        ),
        DiagnosticReport(
            version=__version__,
            mode="tightness",
            seed=None,
            tightness=TightnessInstance(
                p=100,
                tau=0.3,
                implied_corr=0.31479103942973133,
                off_diagonal=0.09,
                sum_sq_corr=9.91,
                lambda_max=9.91,
                gap=0.0,
            ),
        ),
    ]


def round_trip_reports() -> dict[str, DiagnosticReport]:
    """One report per mode and variant, keyed by its golden file's stem."""
    ds = load_csv_file(BOUNDARY_CSV)
    sphere, aggregate, logistic, mi, tightness = other_mode_reports()
    return {
        "dataset": audit_dataset(ds, "y", trials=500, seed=1),
        "dataset_singular": audit_dataset(
            load_csv_file(DUPLICATED_CSV), "y", trials=500, seed=1
        ),
        "claims_vacuous": audit_claims(ClaimSet(tau=np.full(4, 0.3))),
        "claims_eps": audit_claims(ClaimSet(tau=np.full(5, 0.5)), eps=0.005),
        "claims_cross_eps": audit_claims(
            ClaimSet(tau=np.full(4, 0.3), cross=equicorrelation(4, 0.09)), eps=0.004
        ),
        "sphere": sphere,
        "aggregate": aggregate,
        "logistic": logistic,
        "mi": mi,
        "tightness": tightness,
    }


def test_report_round_trip_every_mode():
    reports = round_trip_reports()
    assert reports["dataset_singular"].dataset.regression.rhs == math.inf
    for rep in reports.values():
        assert parse_report(render_report(rep, "json")) == rep


def test_render_report_refuses_non_finite_json():
    rep = round_trip_reports()["tightness"]
    bad = replace(rep, tightness=replace(rep.tightness, gap=math.nan))
    with pytest.raises(ValueError):
        render_report(bad, "json")
    assert "gap nan" in render_report(bad, "text")


@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("text", "txt")])
def test_every_mode_renders_its_golden_bytes(fmt, ext):
    for name, rep in round_trip_reports().items():
        with open(os.path.join(GOLDEN_DIR, f"{name}.{ext}"), "r", encoding="utf-8") as fh:
            assert render_report(rep, fmt) == fh.read(), name


def test_report_json_schema_top_level():
    payload = json.loads(render_report(audit_claims(ClaimSet(tau=np.full(3, 0.2))), "json"))
    assert payload["tool"] == "effectaudit"
    assert set(payload) == {
        "tool",
        "version",
        "mode",
        "seed",
        "dataset",
        "claims",
        "sphere",
        "aggregate",
        "logistic",
        "mi",
        "tightness",
    }
    assert payload["dataset"] is None and payload["claims"] is not None


def test_golden_report_regenerates_byte_identical():
    ds = load_csv_file(BOUNDARY_CSV)
    rep = audit_dataset(ds, "y", trials=2000, seed=3)
    with open(GOLDEN_REPORT, "r", encoding="utf-8") as fh:
        assert render_report(rep, "json") == fh.read()


def test_text_rendering_headlines():
    texts = [render_report(r, "text") for r in other_mode_reports()]
    agg = texts[1]
    assert "0.6110881636212455" in agg and "(~ 0.61)" in agg
    logi = texts[2]
    assert "(~ 0.01 to 0.99)" in logi and "total logit: 10" in logi
    ds_text = render_report(
        audit_dataset(load_csv_file(BOUNDARY_CSV), "y", trials=500),
        "text",
    )
    assert "all bounds satisfied" in ds_text
    bad = render_report(
        audit_claims(ClaimSet(tau=np.full(3, 0.9), cross=equicorrelation(3, 0.0))),
        "text",
    )
    assert "INFEASIBLE" in bad
    with pytest.raises(ValueError):
        render_report(sphere_report(), "yaml")
