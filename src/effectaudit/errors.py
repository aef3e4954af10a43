"""Exception types shared across the package.

Input and validation failures all derive from :class:`EffectAuditError` so
callers (and the CLI) can distinguish bad input from genuine bugs.
"""

from __future__ import annotations

# Characters of an input value that an error message repeats: a longer value
# is cut there and marked with "...", so a message does not grow with the file.
ECHO_CHARS = 80


def echo(text: str) -> str:
    """``text`` cut to ``ECHO_CHARS`` characters, with "..." when it was cut."""
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


class EffectAuditError(Exception):
    """Base class for every error raised by this package."""


class NotSymmetricError(EffectAuditError):
    """Matrix input is not square or not exactly symmetric."""


class DiagonalNotUnitError(EffectAuditError):
    """A diagonal entry of a would-be correlation matrix is not 1."""

    def __init__(self, index: int, value: float):
        super().__init__(f"diagonal entry [{index},{index}] = {value!r}, expected 1.0")
        self.index = index
        self.value = value


class EntryOutOfRangeError(EffectAuditError):
    """A correlation value lies outside [-1, 1]."""

    def __init__(self, row: int, col: int, value: float):
        super().__init__(f"entry [{row},{col}] = {value!r} outside [-1, 1]")
        self.row = row
        self.col = col
        self.value = value


class ValueOutOfRangeError(EntryOutOfRangeError):
    """A named argument, or one entry of a named vector, lies outside its range.

    ``index`` is the entry's position in the vector, or None for a single
    value; ``rule`` states the range, as in "outside [-1, 1]".
    """

    def __init__(self, name: str, value: float, rule: str, index: int | None = None):
        where = name if index is None else f"{name}[{index}]"
        EffectAuditError.__init__(self, f"{where} = {value!r} {rule}")
        self.row = self.col = index
        self.index = index
        self.value = value


class TauOutOfRangeError(ValueOutOfRangeError):
    """A claimed correlation magnitude tau lies outside [0, 1]."""

    def __init__(self, value: float, index: int | None = None):
        super().__init__("tau", value, "outside [0, 1]", index)


class NotPositiveSemiDefiniteError(EffectAuditError):
    """Minimum eigenvalue falls below the allowed tolerance."""

    def __init__(self, min_eigenvalue: float, tolerance: float):
        super().__init__(
            f"minimum eigenvalue {min_eigenvalue!r} below -{tolerance!r}"
        )
        self.min_eigenvalue = min_eigenvalue
        self.tolerance = tolerance


class CorrelationValidationError(EffectAuditError):
    """Structured rejection from correlation validation.

    Carries one violation record per broken invariant so a caller sees every
    problem at once, not just the first.
    """

    def __init__(self, violations: list[EffectAuditError]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


class ConvergenceFailureError(EffectAuditError):
    """The eigensolver failed to converge."""


class RhoOutOfRangeError(EffectAuditError):
    """Equicorrelation parameter outside the positive semidefinite range."""


class DimensionMismatchError(EffectAuditError):
    """Vector/matrix dimensions do not agree."""


class EmptySubsetError(EffectAuditError):
    """A variable subset that must be non-empty is empty."""


class IndexOutOfRangeError(EffectAuditError):
    """A variable index is outside the joint distribution's range."""


class OverlappingSubsetsError(EffectAuditError):
    """Two variable subsets that must be disjoint overlap."""


class InvalidJointError(EffectAuditError):
    """Joint pmf violates a construction invariant (mass, arity, size cap, ...)."""


class ConstantVectorError(EffectAuditError):
    """Rows that are constant and cannot be standardized; ``rows`` lists them."""

    def __init__(self, message: str, rows: tuple[int, ...]):
        super().__init__(message)
        self.rows = rows


class InvalidShapeError(EffectAuditError):
    """Shape requirement violated (for example n <= p)."""


class CsvParseError(EffectAuditError):
    """A CSV cell (or the file itself) cannot be parsed.

    Rows and columns are 1-based, counting the header as row 1.
    """

    def __init__(self, row: int, col: int, reason: str):
        super().__init__(f"row {row}, column {col}: {reason}")
        self.row = row
        self.col = col
        self.reason = reason


class MissingValueError(EffectAuditError):
    """A CSV cell is empty or NaN."""

    def __init__(self, row: int, col: int):
        super().__init__(f"row {row}, column {col}: missing value")
        self.row = row
        self.col = col


class TooFewRowsError(EffectAuditError):
    """Dataset has fewer than the minimum number of rows."""


class RaggedRowError(EffectAuditError):
    """A CSV row has a different number of cells than the header."""

    def __init__(self, row: int, expected: int, got: int):
        super().__init__(f"row {row}: expected {expected} cells, got {got}")
        self.row = row
        self.expected = expected
        self.got = got


class UnknownColumnError(EffectAuditError):
    """Requested column name or index does not exist."""


class DuplicateColumnError(EffectAuditError):
    """Two columns of a dataset share a name; ``name`` is the first one repeated."""

    def __init__(self, name: str):
        super().__init__(f"duplicate column name {echo(repr(name))}")
        self.name = name


class ConstantColumnError(EffectAuditError):
    """A dataset column is constant and carries no correlation information."""

    def __init__(self, name: str):
        super().__init__(f"column {name!r} is constant")
        self.name = name
