"""Information-theoretic feasibility bounds for discrete joint distributions.

The central check: summed mutual informations with one outcome cannot exceed
the outcome entropy plus each variable's redundancy with the rest,

    sum_i I(X_i; y) <= H(y) + sum_i I(X_i; X_-i).

A joint is stored as its dense probability table, validated with vectorized
checks when it is built; all quantities are computed by exact
marginalization of that table, so joint sizes are capped (product of
alphabet sizes <= 10**6).  The atom mapping ``pmf`` is derived from the
table only when asked for.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidJointError,
    InvalidShapeError,
    OverlappingSubsetsError,
    echo,
)

MAX_JOINT_CELLS = 10**6
MASS_TOLERANCE = 1e-12
MI_TOLERANCE = 1e-12

_LN2 = math.log(2.0)

Atom = tuple[int, ...]


def _in_units(nats: float, units: str) -> float:
    if units == "nats":
        return nats
    if units == "bits":
        return nats / _LN2
    raise ValueError(f"units must be 'nats' or 'bits', got {units!r}")


def _check_sizes(alphabet_sizes: Iterable[int]) -> tuple[int, ...]:
    try:
        sizes = tuple(operator.index(s) for s in alphabet_sizes)
    except TypeError:
        raise InvalidJointError(f"bad alphabet sizes {echo(repr(alphabet_sizes))}") from None
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise InvalidJointError(f"bad alphabet sizes {echo(repr(sizes))}")
    cells = math.prod(sizes)
    if cells > MAX_JOINT_CELLS:
        raise InvalidJointError(
            f"joint has {cells} cells, exceeding the cap of {MAX_JOINT_CELLS}"
        )
    return sizes


def _bad_index(sizes: tuple[int, ...], atoms: Sequence) -> InvalidJointError:
    """The error naming the first atom, in input order, with a non-integer or
    out-of-range index."""
    for atom in atoms:
        if not all(isinstance(i, (int, np.integer)) for i in atom):
            return InvalidJointError(f"atom {echo(repr(tuple(atom)))} has a non-integer index")
        if any(not 0 <= i < s for i, s in zip(atom, sizes)):
            return InvalidJointError(
                f"atom {echo(repr(tuple(atom)))} outside alphabet ranges {echo(repr(sizes))}"
            )
    return InvalidJointError("atom indices must be integers within the alphabet ranges")


def _bad_prob(atom: Sequence, prob: float) -> InvalidJointError:
    kind = "negative" if math.isfinite(prob) else "non-finite"
    return InvalidJointError(f"{kind} probability {prob!r} at {echo(repr(tuple(atom)))}")


def _index_array(sizes: tuple[int, ...], atoms: Sequence) -> np.ndarray:
    """Atoms given as index sequences, checked for arity and converted once."""
    n, k = len(atoms), len(sizes)
    try:
        arity = np.fromiter(map(len, atoms), np.intp, count=n)
    except TypeError:
        bad = next(a for a in atoms if not hasattr(a, "__len__"))
        raise InvalidJointError(f"atom {echo(repr(bad))} is not a sequence of indices") from None
    bad = np.flatnonzero(arity != k)
    if bad.size:
        atom = atoms[bad[0]]
        raise InvalidJointError(
            f"atom {echo(repr(tuple(atom)))} has arity {len(atom)}, expected {k}"
        )
    # Python ints give an (n, k) integer array; a float, string, nested
    # sequence or int beyond int64 gives another kind or shape.
    idx = np.array(atoms)
    if idx.ndim != 2 or idx.dtype.kind not in "iub":
        raise _bad_index(sizes, atoms)
    return idx


def _atom_table(sizes: tuple[int, ...], atoms: Sequence, probs: Sequence) -> np.ndarray:
    """Validate atoms and their probabilities, then scatter them into a dense table.

    An integer array of shape (n, k) is taken as the atoms directly; any
    other atoms (index sequences) are converted once by :func:`_index_array`.
    Every check is vectorized; only a bad index or probability walks the atoms
    in Python, to name the first offender.
    """
    if isinstance(atoms, np.ndarray) and not (
        atoms.ndim == 2 and atoms.shape[1] == len(sizes) and atoms.dtype.kind in "iu"
    ):
        atoms = atoms.tolist()
    n = len(atoms)
    if len(probs) != n:
        raise InvalidJointError(f"{n} atoms but {len(probs)} probabilities")
    table = np.zeros(sizes)
    if n == 0:
        return table
    idx = atoms if isinstance(atoms, np.ndarray) else _index_array(sizes, atoms)
    if not ((idx >= 0) & (idx < np.array(sizes))).all():
        raise _bad_index(sizes, idx.tolist() if idx is atoms else atoms)
    flat = np.ravel_multi_index(tuple(idx.astype(np.intp, copy=False).T), sizes)
    if np.bincount(flat, minlength=table.size).max() > 1:
        # A stable sort keeps each cell's atoms in input order, so the first
        # repeat is the earliest position that follows an equal cell.
        order = np.argsort(flat, kind="stable")
        cells = flat[order]
        pos = order[1:][cells[1:] == cells[:-1]].min()
        raise InvalidJointError(f"duplicate atom {echo(repr(tuple(idx[pos].tolist())))}")
    try:
        p = np.asarray(probs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        p = None
    if p is None or p.shape != (n,):
        for atom, prob in zip(idx.tolist() if idx is atoms else atoms, probs):
            try:
                float(prob)
            except (TypeError, ValueError):
                raise InvalidJointError(
                    f"probability {echo(repr(prob))} at {echo(repr(tuple(atom)))} is not a number"
                ) from None
            except OverflowError:  # an integer beyond the float range
                raise InvalidJointError(
                    f"probability at {echo(repr(tuple(atom)))} is beyond the float range"
                ) from None
        raise InvalidJointError("probabilities must be numbers")
    bad = np.flatnonzero(~(np.isfinite(p) & (p >= 0.0)))
    if bad.size:
        raise _bad_prob(idx[bad[0]].tolist(), float(p[bad[0]]))
    table.reshape(-1)[flat] = p
    return table


@dataclass(frozen=True, eq=False, init=False)
class DiscreteJoint:
    """Joint pmf over num_vars finite variables, stored as its dense table.

    ``table`` (shape ``alphabet_sizes``, read-only) is the only state; every
    entropy is an exact marginalization of it.  Build it from a mapping of
    index tuples to probabilities (``pmf=``), from parallel ``atoms=`` and
    ``probs=`` sequences (an ``(n, k)`` integer array and an ``(n,)`` float
    array are read without conversion), or from a dense array with
    :meth:`from_table`.
    Omitted atoms have probability zero.  Indices must be integers within the
    alphabet, probabilities finite and non-negative, and the total mass 1.
    """

    alphabet_sizes: tuple[int, ...]
    table: np.ndarray

    def __init__(
        self,
        alphabet_sizes: Iterable[int],
        pmf: Mapping[Atom, float] | None = None,
        *,
        atoms: Sequence[Sequence[int]] | None = None,
        probs: Sequence[float] | None = None,
    ):
        if pmf is not None:
            if atoms is not None or probs is not None:
                raise TypeError("give either pmf or atoms and probs, not both")
            atoms, probs = list(pmf.keys()), list(pmf.values())
        elif atoms is None or probs is None:
            raise TypeError("need pmf, or atoms and probs")
        sizes = _check_sizes(alphabet_sizes)
        self._freeze(sizes, _atom_table(sizes, atoms, probs))

    def _freeze(self, sizes: tuple[int, ...], table: np.ndarray) -> None:
        total = float(table.sum())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise InvalidJointError(f"probabilities sum to {total!r}, expected 1")
        table.flags.writeable = False
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_table(cls, table: np.ndarray) -> "DiscreteJoint":
        """Build from a dense probability array (copied)."""
        t = np.array(table, dtype=float)
        sizes = _check_sizes(t.shape)
        bad = np.argwhere(~(np.isfinite(t) & (t >= 0.0)))
        if bad.size:
            atom = tuple(bad[0].tolist())
            raise _bad_prob(atom, float(t[atom]))
        joint = cls.__new__(cls)
        joint._freeze(sizes, t)
        return joint

    @property
    def pmf(self) -> dict[Atom, float]:
        """The atoms with non-zero probability, derived from the table on each call."""
        nonzero = np.nonzero(self.table)
        atoms = zip(*(axis.tolist() for axis in nonzero))
        return dict(zip(atoms, self.table[nonzero].tolist()))

    @property
    def num_vars(self) -> int:
        return len(self.alphabet_sizes)


@dataclass(frozen=True)
class MIReport:
    """Result of the summed-mutual-information check for one outcome, in ``units``."""

    outcome_index: int
    units: str
    per_var_mi: tuple[float, ...]
    per_var_leaveout_mi: tuple[float, ...]
    h_y: float
    lhs: float
    rhs: float
    satisfied: bool
    slack: float  # rhs - lhs


def _normalize_subset(joint: DiscreteJoint, subset: Iterable[int]) -> tuple[int, ...]:
    idx = tuple(sorted({int(i) for i in subset}))
    if not idx:
        raise EmptySubsetError("variable subset is empty")
    for i in idx:
        if not 0 <= i < joint.num_vars:
            raise IndexOutOfRangeError(
                f"variable index {i} outside 0..{joint.num_vars - 1}"
            )
    return idx


def _entropy_nats(joint: DiscreteJoint, subset: tuple[int, ...]) -> float:
    """H of the marginal over ``subset``, in nats.  Zero cells contribute 0."""
    drop = tuple(i for i in range(joint.num_vars) if i not in subset)
    marg = joint.table.sum(axis=drop) if drop else joint.table
    p = marg.ravel()
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def entropy(joint: DiscreteJoint, var_subset: Iterable[int], units: str = "nats") -> float:
    """Entropy of the marginal distribution over ``var_subset``."""
    return _in_units(_entropy_nats(joint, _normalize_subset(joint, var_subset)), units)


def mutual_information(
    joint: DiscreteJoint,
    a: Iterable[int],
    b: Iterable[int],
    units: str = "nats",
) -> float:
    """I(a; b) = H(a) + H(b) - H(a, b); symmetric by construction."""
    sa = _normalize_subset(joint, a)
    sb = _normalize_subset(joint, b)
    if set(sa) & set(sb):
        raise OverlappingSubsetsError(f"subsets {sa!r} and {sb!r} overlap")
    nats = (
        _entropy_nats(joint, sa)
        + _entropy_nats(joint, sb)
        - _entropy_nats(joint, tuple(sorted(set(sa) | set(sb))))
    )
    return _in_units(nats, units)


def mi_piranha_check(
    joint: DiscreteJoint, outcome_index: int, units: str = "nats"
) -> MIReport:
    """Check sum_i I(X_i; y) <= H(y) + sum_i I(X_i; X_-i).

    ``outcome_index`` selects y; every other variable is an X_i, and X_-i is
    the set of explanatory variables other than X_i.  Raw (unclamped) values
    enter both sides; tiny negative mutual informations from rounding are a
    display concern, not a correctness one.
    """
    if units not in ("nats", "bits"):
        raise ValueError(f"units must be 'nats' or 'bits', got {units!r}")
    if joint.num_vars < 2:
        raise InvalidShapeError("need at least one explanatory variable and one outcome")
    y = int(outcome_index)
    if not 0 <= y < joint.num_vars:
        raise IndexOutOfRangeError(
            f"outcome index {y} outside 0..{joint.num_vars - 1}"
        )
    predictors = [i for i in range(joint.num_vars) if i != y]
    # Each marginal entropy once, combined in mutual_information's order:
    # H(a) + H(b) - H(a, b).
    h = [_entropy_nats(joint, (i,)) for i in range(joint.num_vars)]
    h_y = h[y]
    per_var = tuple(h[i] + h_y - _entropy_nats(joint, (i, y)) for i in predictors)
    if len(predictors) > 1:
        h_all = _entropy_nats(joint, tuple(predictors))
        leaveout = tuple(
            h[i] + _entropy_nats(joint, tuple(j for j in predictors if j != i)) - h_all
            for i in predictors
        )
    else:
        leaveout = (0.0,)
    lhs = float(sum(per_var))
    rhs = float(h_y + sum(leaveout))
    scale = 1.0 if units == "nats" else 1.0 / _LN2
    return MIReport(
        outcome_index=y,
        units=units,
        per_var_mi=tuple(v * scale for v in per_var),
        per_var_leaveout_mi=tuple(v * scale for v in leaveout),
        h_y=h_y * scale,
        lhs=lhs * scale,
        rhs=rhs * scale,
        satisfied=bool(lhs <= rhs + MI_TOLERANCE),
        slack=rhs * scale - lhs * scale,
    )

