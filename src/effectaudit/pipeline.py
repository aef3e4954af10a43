"""Dataset ingestion and end-to-end audits.

``load_csv`` accepts one fixed dialect: UTF-8 (a leading BOM is dropped), one
header row, comma separators, '.' decimal points, no quoting; data cells are
plain ASCII numbers without '_'.  ``audit_dataset`` standardizes
columns, computes sample correlations, and runs every applicable bound;
``audit_claims`` works from claimed correlation magnitudes alone.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field

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
    echo,
)
from .finite_sample import (
    MEMORY_BUDGET,
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
    claims_cross_mass,
    eigen_bound_check,
    fit_least_squares,
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

# What a check-claims request holds per claim, from the claim vector through
# the rendered report (tracemalloc peak over claims at 10^4 and 10^5 claims:
# 112 bytes at tau = 0.5 and 152 at a 23-character tau, as JSON; 40 as
# text).  check-claims refuses more claims than fit in MEMORY_BUDGET.
_CLAIM_BYTES = 256
MAX_CLAIMS = MEMORY_BUDGET // _CLAIM_BYTES

# What each loader holds per byte of its file, as a tracemalloc peak over the
# file size on the worst spelling measured (2-32 MB files, 2-vCPU Xeon, numpy
# 2.4): 13.3 for json.loads of a joint (k = 1, 10^5 atoms; 7.9-8.5 at k = 2 to
# 18), 26.4 for a CSV (one column of two-digit cells; 17.0 for a matrix of
# one-digit cells, 3.0-5.9 with repr cells), 12.2 for a claims file ("0"
# claims).  A file over MEMORY_BUDGET divided by that figure rounded up to a
# power of two is refused before it is read.
MAX_JSON_JOINT_BYTES = MEMORY_BUDGET // 16
MAX_CSV_BYTES = MEMORY_BUDGET // 32
MAX_CLAIMS_BYTES = MEMORY_BUDGET // 16


@dataclass(frozen=True, eq=False)
class Dataset:
    """Named numeric columns of equal length, no missing or non-finite cells.

    ``columns`` is given as one 1-D array per name or as a (width, n) array.
    The values are kept in one read-only C-ordered (width, n) ``table``, and
    ``columns`` becomes the tuple of its rows.
    """

    column_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.column_names) != len(self.columns):
            raise DimensionMismatchError("names and columns differ in count")
        try:
            table = np.array(self.columns, dtype=float, order="C")
        except (TypeError, ValueError):  # ragged, or cells that are not numbers
            table = None
        if table is None or table.ndim != 2:
            _raise_column_fault(self.columns)
        if not np.isfinite(table).all():
            raise InvalidShapeError("columns must be finite")
        if table.shape[1] < MIN_ROWS:
            raise TooFewRowsError(f"need at least {MIN_ROWS} rows, got {table.shape[1]}")
        table.flags.writeable = False
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "columns", tuple(table))

    @property
    def n(self) -> int:
        return self.table.shape[1]


def _raise_column_fault(columns) -> None:
    """Raise the first fault of columns that do not form a (width, n) table,
    checking them one by one in order: not 1-D, then not finite, then a
    length that differs."""
    for c in columns:
        a = np.asarray(c, dtype=float)
        if a.ndim != 1:
            raise InvalidShapeError("columns must be 1-D")
        if not np.all(np.isfinite(a)):
            raise InvalidShapeError("columns must be finite")
    raise DimensionMismatchError("columns differ in length")


@dataclass(frozen=True)
class AuditConfig:
    outcome_column: str | int = -1
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 2:
            raise InvalidShapeError(f"need at least 2 trials, got {self.trials}")


def _parse_cell(cell: str, row: int, col: int) -> float:
    s = cell.strip()
    if s == "":
        raise MissingValueError(row, col)
    if not cell.isascii() or "_" in cell:
        raise CsvParseError(row, col, f"not a plain ASCII number: {echo(repr(s))}")
    try:
        v = float(s)
    except ValueError:
        raise CsvParseError(row, col, f"not a number: {echo(repr(s))}") from None
    if math.isnan(v):
        raise MissingValueError(row, col)
    if math.isinf(v):
        raise CsvParseError(row, col, f"non-finite value: {echo(repr(s))}")
    return v


def _split_lines(data: bytes) -> list[str]:
    """Decode the file (dropping a leading BOM) into lines, without trailing blank ones."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CsvParseError(0, 0, f"not valid UTF-8: {exc}") from None
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    return lines


def _parse_body(lines: list[str], width: int) -> np.ndarray:
    """Parse data lines (the header excluded) into a (rows, width) array.

    When the body is plain ASCII without '_' (which ``float`` would otherwise
    accept, as in '1_000' or non-ASCII digits), numpy's C reader converts it
    in one pass; each cell goes through the same string-to-double conversion
    as ``float``, so the values are identical.  Its result is kept only when
    it has exactly one row of ``width`` finite values per line: the reader
    skips blank lines and does not check rows against the header's width, so
    the shape check catches those.  Otherwise the cells are walked in
    row-major order, which raises the first fault; error rows count the header
    as row 1.
    """
    n = len(lines)
    # Line by line, so the test holds no copy of the body.
    if all(map(str.isascii, lines)) and not any("_" in line for line in lines):
        try:
            with warnings.catch_warnings():
                # e.g. "input contained no data" on an all-blank body
                warnings.simplefilter("ignore")
                values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None and values.shape == (n, width) and np.isfinite(values).all():
            return values
    values = np.empty((n, width))
    for i, line in enumerate(lines):
        row = line.split(",")
        if len(row) != width:
            raise RaggedRowError(i + 2, width, len(row))
        for j, cell in enumerate(row):
            values[i, j] = _parse_cell(cell, i + 2, j + 1)
    return values


def load_csv(data: bytes) -> Dataset:
    """Parse a CSV byte stream (header row, comma-separated numeric cells).

    Error positions are 1-based and count the header as row 1.
    """
    lines = _split_lines(data)
    if not lines:
        raise TooFewRowsError("file is empty")
    header = [name.strip() for name in lines[0].split(",")]
    if any(name == "" for name in header):
        raise CsvParseError(1, header.index("") + 1, "empty column name")
    if len(set(header)) != len(header):
        dupe = next(name for i, name in enumerate(header) if name in header[:i])
        raise CsvParseError(1, header.index(dupe) + 1, f"duplicate column name {echo(repr(dupe))}")
    if len(lines) - 1 < MIN_ROWS:
        raise TooFewRowsError(f"need at least {MIN_ROWS} data rows, got {len(lines) - 1}")
    values = _parse_body(lines[1:], len(header))
    del lines  # release the line strings before Dataset copies the table
    return Dataset(column_names=tuple(header), columns=values.T)


def load_csv_file(path: str | os.PathLike) -> Dataset:
    return load_csv(_read_input(path, MAX_CSV_BYTES, "CSV file"))


def _read_input(path: str | os.PathLike, cap: int, what: str, *,
                error=InvalidShapeError, head: bytes | None = None) -> bytes:
    """The bytes of the file at ``path``, from one ``open`` and one ``fstat``.

    A file over ``cap`` bytes raises ``error``, naming the file, its size and
    the cap, before it is read, unless ``head`` occurs in its first
    ``_HEAD_BYTES``; it is then read whole, and the caller judges it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > cap and (head is None or head not in fh.read(_HEAD_BYTES)):
            raise error(_over_cap(path, size, cap, what))
        fh.seek(0)
        return fh.read()


def _over_cap(path: str | os.PathLike, size: int, cap: int, what: str) -> str:
    return f"{os.fspath(path)}: {size} bytes is over the {cap}-byte cap for a {what}"


def load_matrix_csv(path: str | os.PathLike) -> CorrelationMatrix:
    """Read a square correlation matrix from CSV (header row is ignored).

    The matrix is symmetrized exactly, then fully validated.
    """
    lines = _split_lines(_read_input(path, MAX_CSV_BYTES, "CSV file"))
    if len(lines) < 2:
        raise TooFewRowsError("matrix file needs a header row and at least one data row")
    width = len(lines[0].split(","))
    if len(lines) - 1 != width:
        raise InvalidShapeError(
            f"matrix must be square: header has {width} columns, found {len(lines) - 1} rows"
        )
    values = _parse_body(lines[1:], width)
    return validate_correlation(SymMatrix.symmetrized(values))


def load_claims_json(
    path: str | os.PathLike, *, read_cross: bool = True
) -> tuple[ClaimSet, float | None]:
    """Read a claims file: {"tau": [...], "cross": path or null, "eps": real or null}.

    ``tau`` must be an array of JSON numbers, ``eps`` a number and ``cross`` a
    string; booleans and numeric strings are rejected.  A relative ``cross``
    path is resolved against the claims file's directory.  With
    ``read_cross=False`` (the caller supplies its own matrix) ``cross`` is
    type-checked but its file is not read, and the claim set has no cross
    matrix.  More than ``MAX_CLAIMS`` claims are refused, as ``--p`` is.
    Returns the claim set and the file's eps (None when absent).
    """
    raw = _json_loads(
        _read_input(path, MAX_CLAIMS_BYTES, "claims file", error=InvalidJointError), path
    )
    if not isinstance(raw, dict) or "tau" not in raw:
        raise InvalidJointError("claims file must be a JSON object with a 'tau' array")
    tau = raw["tau"]
    if not isinstance(tau, list):
        raise InvalidJointError(f"claims 'tau' must be an array, got {echo(json.dumps(tau))}")
    if len(tau) > MAX_CLAIMS:
        raise InvalidJointError(
            f"{os.fspath(path)}: {len(tau)} claims is over the cap of {MAX_CLAIMS}"
        )
    for i, t in enumerate(tau):
        if not _is_json_number(t):
            raise InvalidJointError(
                f"claims 'tau'[{i}] must be a number, got {echo(json.dumps(t))}"
            )
    eps = raw.get("eps")
    if eps is not None and not _is_json_number(eps):
        raise InvalidJointError(
            f"claims 'eps' must be a number or null, got {echo(json.dumps(eps))}"
        )
    cross = None
    cross_path = raw.get("cross")
    if cross_path is not None:
        if not isinstance(cross_path, str):
            raise InvalidJointError(
                f"claims 'cross' must be a file path or null, got {echo(json.dumps(cross_path))}"
            )
        if read_cross:
            if not os.path.isabs(cross_path):
                cross_path = os.path.join(os.path.dirname(os.fspath(path)), cross_path)
            cross = load_matrix_csv(cross_path)
    return ClaimSet(tau=np.asarray(tau, dtype=float), cross=cross), (
        None if eps is None else float(eps)
    )


def _json_loads(data: bytes, path: str | os.PathLike) -> object:
    """``json.loads`` of UTF-8 bytes with universal newlines, as a text-mode
    read gives them, with nesting too deep for its decoder reported as bad input."""
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise InvalidJointError(
            f"{os.fspath(path)}: JSON nested too deeply to read"
        ) from None


def _is_json_number(value: object) -> bool:
    """True for a parsed JSON number: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The compact atoms layout, as json.dumps(obj, separators=(",", ":")) writes it:
# "atoms":[{"tuple":[i,...],"prob":x},...].
_ATOMS_OPEN = b'"atoms":['
_ATOM_OPEN = b'{"tuple":['
_ATOM_SEP = b'},{"tuple":['
_JOINT_KEYS = {"alphabet_sizes", "outcome_index", "atoms"}
# A file over MAX_JSON_JOINT_BYTES is read in full only when its atoms array
# opens within this many bytes of its start.
_HEAD_BYTES = 2048
# The atoms array is parsed in chunks of about this many bytes, each cut
# where an atom separator begins, so the parse holds one chunk's text,
# masks and lines at a time besides the file and the result arrays.  On the
# 13.97 MB, 262,144-atom joint of the benchmark's ingest workload (2-vCPU
# Xeon, numpy 2.4) the tracemalloc peak of load_joint_json was 30 MB at
# 2^18 bytes, 35 MB at 2^20 and 54 MB at 2^22, against 104 MB in one
# piece; the CPU time, about 0.25 s, did not differ beyond noise.
_CHUNK_BYTES = 1 << 20

# Byte classes of the atoms text once its punctuation is replaced by
# separators: 0 the digit '0', 1 the digits 1-9, 2 a separator (',', '|' or
# newline), 3 '.', 4 'e', 5 '-', 6 anything else.
_ZERO, _DIGIT, _SEP, _DOT, _EXP, _MINUS, _OTHER = range(7)
_BYTE_CLASS = bytes(
    _ZERO if b == ord("0") else _DIGIT if b in b"123456789" else _SEP if b in b",|\n"
    else _DOT if b == ord(".") else _EXP if b == ord("e") else _MINUS if b == ord("-")
    else _OTHER
    for b in range(256)
)
_NOT_SEP = bytes(b for b in range(256) if b not in b",|\n")
_NEWLINE_AS_COMMA_E_AS_DOT = bytes.maketrans(b"\ne", b",.")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` object hook that rejects a key given twice (``json.loads`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


def _is_json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _compact_bytes_ok(text: bytes, k: int) -> bool:
    """The byte tests of ``_compact_atoms`` on its lines ``i,...|x``.

    A function of its own, so that its masks are freed before the lines are
    read.
    """
    # With the digits deleted, a '.' or 'e' in an index is the first byte or
    # follows a ',' or newline; in a probability it follows the '|'.
    marks = text.translate(None, b"0123456789")
    merged = marks.translate(_NEWLINE_AS_COMMA_E_AS_DOT)
    if merged[:1] == b"." or b",." in merged:
        return False
    seps = marks.translate(None, _NOT_SEP) + b"\n"
    n, rest = divmod(len(seps), k + 1)
    if rest or seps != (b"," * (k - 1) + b"|\n") * n:
        return False
    cls = text.translate(_BYTE_CLASS)
    if bytes([_OTHER]) in cls:
        return False
    c = np.frombuffer(cls, np.uint8)
    non_digit = c >= _SEP
    both = np.flatnonzero(non_digit[:-1] & non_digit[1:])
    return not (
        non_digit[0]
        or non_digit[-1]
        or (c[both] != _EXP).any()
        or np.count_nonzero(c == _MINUS) != np.count_nonzero(c[both + 1] == _MINUS)
        or (c[0] == _ZERO and c[1] <= _DIGIT)
        or ((c[:-2] == _SEP) & (c[1:-1] == _ZERO) & (c[2:] <= _DIGIT)).any()
    )


def _compact_atoms(body: bytes, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Read ``{"tuple":[i,...],"prob":x},...`` (k indices per tuple) into an
    (n, k) int64 array and an (n,) float array, or None when the text is not
    exactly that with every number in JSON's grammar.

    Each atom becomes one line ``i,...|x``, and every line must hold k - 1
    commas, then '|' (so a probability holds no comma); a newline or '|' of
    the text itself is refused, so neither can stand in for the JSON between
    two numbers.  Byte tests accept only digits, separators, '.', 'e' and
    '-'; the text starts and ends in a digit, two non-digits neighbour each
    other only after an 'e', '-' follows only 'e', no number starts with '0'
    and another digit, and '.' and 'e' appear only after a line's '|'.
    numpy's C reader then rejects what the bytes alone allow but JSON does
    not (a second '.' or 'e', an 'e' without digits) and indices beyond
    int64.  So every number is JSON's, with no sign outside an exponent (JSON
    -0 is the integer 0, where a float reader gives -0.0), and the reader's
    float conversion is the one ``float`` uses, as ``_parse_body`` relies on.
    Every test is local to an atom, so ``_chunked_atoms`` may pass the text
    in pieces that each start at an atom's first index and end at a
    probability's last digit.
    """
    if b"\n" in body or b"|" in body:
        return None
    text = body.replace(_ATOM_SEP, b"\n").replace(b'],"prob":', b"|")
    if not _compact_bytes_ok(text, k):
        return None
    lines = text.replace(b"|", b",").decode("ascii").split("\n")
    # Any warning from the reader (older numpy warned, then truncated, on
    # a float in an integer field) sends the file to json.loads instead.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                              dtype=[("t", np.int64, (k,)), ("p", float)])
    except (ValueError, Warning):
        return None
    return rows["t"], rows["p"]


def _chunked_atoms(
    data: bytes, start: int, end: int, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``_compact_atoms`` of the atoms ``data[start:end]`` (``{"tuple":[`` to
    the last ``}``), read in chunks of about ``_CHUNK_BYTES`` that each end
    where an atom separator begins.

    The result arrays are sized by the number of ``{"tuple":[`` in the
    atoms, which is trusted only when the text has room for that many atoms:
    a valid atom ``{"tuple":[i,...],"prob":x}`` takes at least 2k + 20
    bytes, so a count above (end - start) / (2k + 10) returns None before
    anything is allocated.  A chunk that fails, a count that does not match,
    or a non-finite probability (``json.loads`` names its atom) returns None too.
    """
    n = data.count(_ATOM_OPEN, start, end)
    if n * (2 * k + 10) > end - start:
        return None
    idx = np.empty((n, k), np.int64)
    probs = np.empty(n)
    filled = 0
    lo, hi = start + len(_ATOM_OPEN), end - 1
    while True:
        cut = data.find(_ATOM_SEP, lo + _CHUNK_BYTES, hi)
        atoms = _compact_atoms(data[lo:hi if cut < 0 else cut], k)
        if atoms is None or filled + len(atoms[1]) > n:
            return None
        rows = slice(filled, filled + len(atoms[1]))
        idx[rows], probs[rows] = atoms
        filled = rows.stop
        if cut < 0:
            return (idx, probs) if filled == n and np.isfinite(probs).all() else None
        lo = cut + len(_ATOM_SEP)


def _read_compact_joint(data: bytes) -> tuple[list, int, np.ndarray, np.ndarray] | None:
    """(alphabet sizes, outcome index, atom indices, probabilities) of a joint
    file's bytes in the compact layout, or None for any other file.

    The atoms array runs from the first ``"atoms":[{"tuple":[`` to the last ``}]``;
    everything outside it must be ASCII without a backslash, and is parsed
    by ``json.loads`` with the array replaced by ``[]``.  It must hold
    exactly the three keys, once each, with ``alphabet_sizes`` an array of
    integers and ``outcome_index`` an integer, so that the replaced array can
    only be the top-level ``atoms`` (a second ``"atoms":[{"tuple":[`` cannot
    hide there, and within the array it fails the byte tests).
    """
    head = data.find(_ATOMS_OPEN + _ATOM_OPEN)
    end = data.rfind(b"}]") + 1
    if head < 0 or end <= head:
        return None
    start = head + len(_ATOMS_OPEN)
    outer = data[:start] + data[end:]
    if b"\\" in outer:
        return None
    try:
        raw = json.loads(outer.decode("ascii"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError):  # json.loads below names the error
        return None
    if not (isinstance(raw, dict) and raw.keys() == _JOINT_KEYS and raw["atoms"] == []):
        return None
    sizes, outcome = raw["alphabet_sizes"], raw["outcome_index"]
    if not (isinstance(sizes, list) and sizes and all(map(_is_json_int, sizes))
            and _is_json_int(outcome)):
        return None
    atoms = _chunked_atoms(data, start, end, len(sizes))
    return None if atoms is None else (sizes, outcome, *atoms)


_JOINT_FILE = ('joint file not in the compact layout; a file written by '
               'json.dumps(obj, separators=(",", ":")) has no such cap')


def load_joint_json(path: str | os.PathLike) -> tuple[DiscreteJoint, int]:
    """Read a joint pmf file: alphabet_sizes, outcome_index, atoms [{tuple, prob}].

    The file is read once.  A file in the compact layout is parsed by
    ``_read_compact_joint``, and every other file by ``json.loads``, which
    gives the same joint or the same error.  A file larger than
    ``MAX_JSON_JOINT_BYTES`` is refused unless it is in the compact layout,
    and it is read only when its atoms array opens in its first
    ``_HEAD_BYTES``.  JSON booleans are rejected wherever an integer or
    number is expected.
    """
    data = _read_input(path, MAX_JSON_JOINT_BYTES, _JOINT_FILE, error=InvalidJointError,
                       head=_ATOMS_OPEN + _ATOM_OPEN)
    compact = _read_compact_joint(data)
    if compact is not None:
        sizes, outcome, idx, probs = compact
        return DiscreteJoint(sizes, atoms=idx, probs=probs), outcome
    if len(data) > MAX_JSON_JOINT_BYTES:
        raise InvalidJointError(_over_cap(path, len(data), MAX_JSON_JOINT_BYTES, _JOINT_FILE))
    raw = _json_loads(data, path)
    for key in ("alphabet_sizes", "outcome_index", "atoms"):
        if not isinstance(raw, dict) or key not in raw:
            raise InvalidJointError(f"joint pmf file is missing {key!r}")
    try:
        atoms = [atom["tuple"] for atom in raw["atoms"]]
        probs = [atom["prob"] for atom in raw["atoms"]]
    except (KeyError, TypeError):
        raise InvalidJointError("each atom needs 'tuple' and 'prob'") from None
    # A JSON true or false is spelled out in the text, so only then walk the atoms.
    if b"true" in data or b"false" in data:
        _reject_booleans(raw["alphabet_sizes"], atoms, probs)
    joint = DiscreteJoint(raw["alphabet_sizes"], atoms=atoms, probs=probs)
    outcome = raw["outcome_index"]
    if not _is_json_int(outcome):
        raise InvalidJointError(f"outcome_index must be an integer, got {echo(repr(outcome))}")
    return joint, outcome


def _reject_booleans(sizes: object, atoms: list, probs: list) -> None:
    """Raise on a JSON true or false among the sizes, indices or probabilities.

    Python reads them as bools, which numpy would take for 1 and 0.
    """
    if isinstance(sizes, list):
        for i, size in enumerate(sizes):
            if isinstance(size, bool):
                raise InvalidJointError(
                    f"alphabet_sizes[{i}] must be an integer, got {json.dumps(size)}"
                )
    for j, (atom, prob) in enumerate(zip(atoms, probs)):
        if isinstance(atom, list) and any(isinstance(i, bool) for i in atom):
            raise InvalidJointError(
                f"atoms[{j}] 'tuple' must hold integers, got {echo(json.dumps(atom))}"
            )
        if isinstance(prob, bool):
            raise InvalidJointError(
                f"atoms[{j}] 'prob' must be a number, got {echo(json.dumps(prob))}"
            )


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
    bound applies to the standardized coefficients.  One Gram product of the
    standardized table gives every correlation.  Every spectral quantity (PSD
    check, lambda_max, lambda_min, spectrum, singular values, Monte Carlo
    weights) comes from the one decomposition of the predictors' block.
    """
    y_idx = _resolve_outcome(ds, cfg.outcome_column)
    pred_idx = [i for i in range(len(ds.column_names)) if i != y_idx]
    p = len(pred_idx)
    if p < 1:
        raise InvalidShapeError("need at least one predictor besides the outcome")
    if ds.n <= p:
        raise InvalidShapeError(f"need more rows than predictors: n={ds.n}, p={p}")

    try:
        rows = standardize(ds.table, rows=True)
    except ConstantVectorError as exc:
        first = next(i for i in pred_idx + [y_idx] if i in exc.rows)
        raise ConstantColumnError(ds.column_names[first]) from None
    gram = rows @ rows.T
    # A Gram product of standardized rows is PSD by construction, so the PSD
    # test takes the library's default tolerance; it only absorbs rounding.
    cross = validate_correlation(SymMatrix.symmetrized(gram[np.ix_(pred_idx, pred_idx)]))
    corr_xy = gram[pred_idx, y_idx]

    vdc = vdc_check(corr_xy, cross)
    eigen = eigen_bound_check(corr_xy, cross)
    fit = fit_least_squares(SecondMomentMatrix(cross.base), corr_xy)
    regression = BoundReport.from_sides(BoundKind.REGRESSION, fit.norm_sq, fit.bound)

    spectrum = cross.base.eigen.values
    sv = svd(rows, pred_idx, cross.base.eigen)
    mc = expected_sum_sq_mc(sv, ds.n, cfg.trials, cfg.seed)

    section = DatasetAuditSection(
        n=ds.n,
        p=p,
        outcome=ds.column_names[y_idx],
        predictors=[ds.column_names[i] for i in pred_idx],
        predictor_correlations=cross.entries.tolist(),
        outcome_correlations=corr_xy.tolist(),
        spectrum=spectrum.tolist(),
        vdc=vdc,
        eigen=eigen,
        regression=regression,
        beta=fit.beta.tolist(),
        lambda_min=fit.lambda_min,
        singular_values=sv.tolist(),
        sigma1_sq=float(sv[0] ** 2),
        expected_sum_sq=expected_sum_sq(ds.n, p),
        mc=mc,
    )
    return DiagnosticReport(
        version=__version__, mode="dataset-audit", seed=cfg.seed, dataset=section
    )


def _mass_requirement(mass: float, p: int) -> MassRequirement:
    """The average |cross| that a mass requirement asks of p variables, and
    whether it is vacuous and feasible."""
    avg = None if p < 2 else mass / (p * (p - 1))
    vacuous = mass <= 0.0
    feasible = vacuous or avg is None or avg <= 1.0 + FEASIBILITY_TOLERANCE
    return MassRequirement(
        cross_mass=mass, avg_abs_cross=avg, vacuous=vacuous, feasible=feasible
    )


def audit_claims(claims: ClaimSet, eps: float | None = None) -> DiagnosticReport:
    """Check whether a set of claimed correlation magnitudes is jointly feasible.

    Without a cross matrix the report states the cross-correlation mass the
    claims force, (sum_i tau_i)^2 - p (see :func:`claims_cross_mass`); claims
    are infeasible outright only when the required average
    |cross-correlation| exceeds 1.  With a cross matrix the
    sum and eigenvalue bounds are checked directly.  When ``eps`` is given the
    nearly-identical-outcomes variant is reported as well; it never enters the
    verdict when degenerate (tau_min < sqrt(2 eps)).
    """
    p = claims.p
    tau_min = float(np.min(claims.tau))
    base = _mass_requirement(claims_cross_mass(claims.tau), p)

    mo_req = None
    mo_bound = None
    if eps is not None:
        if not math.isfinite(eps) or eps < 0.0:
            raise InvalidShapeError(f"eps must be finite and non-negative, got {eps!r}")
        degenerate = multi_outcome_degenerate(tau_min, eps)
        mo = _mass_requirement(multi_outcome_min_mass(p, tau_min, eps), p)
        mo_req = MultiOutcomeRequirement(
            eps=float(eps),
            threshold=tau_min - math.sqrt(2.0 * eps),
            cross_mass=mo.cross_mass,
            avg_abs_cross=mo.avg_abs_cross,
            vacuous=mo.vacuous,
            degenerate=degenerate,
            feasible=mo.feasible or degenerate,
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
        feasible = mo_req.feasible if mo_req is not None else base.feasible

    section = ClaimsSection(
        p=p,
        tau=claims.tau.tolist(),
        tau_min=tau_min,
        eps=None if eps is None else float(eps),
        cross_supplied=claims.cross is not None,
        base_requirement=base,
        multi_outcome_requirement=mo_req,
        cross_mass_actual=cross_mass_actual,
        vdc=vdc,
        eigen=eigen,
        multi_outcome=mo_bound,
        feasible=bool(feasible),
    )
    return DiagnosticReport(version=__version__, mode="claims", seed=None, claims=section)
