"""Exact entropy, mutual information, and the summed-MI feasibility bound."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectaudit import (
    DiscreteJoint,
    entropy,
    load_joint_json,
    mi_piranha_check,
    mutual_information,
)
from effectaudit import info_bounds
from effectaudit.errors import (
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidJointError,
    OverlappingSubsetsError,
)

LN2 = math.log(2.0)


def random_joint(rng, num_vars=None, max_alphabet=4, sparse=False):
    sizes = tuple(int(s) for s in rng.integers(2, max_alphabet + 1, size=num_vars))
    w = rng.random(sizes)
    if sparse:
        mask = rng.random(sizes) < 0.6
        if not mask.any():
            mask.flat[0] = True
        w = w * mask
    w = w / w.sum()
    return DiscreteJoint.from_table(w)


def fair_bits_outcome_pair():
    """Two independent fair bits with y = (X1, X2) as a four-symbol outcome."""
    pmf = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 2): 0.25, (1, 1, 3): 0.25}
    return DiscreteJoint(alphabet_sizes=(2, 2, 4), pmf=pmf)


def test_joint_construction_invariants():
    with pytest.raises(InvalidJointError):
        DiscreteJoint(alphabet_sizes=(2,), pmf={(0,): 0.5, (1,): 0.6})  # mass 1.1
    with pytest.raises(InvalidJointError):
        DiscreteJoint(alphabet_sizes=(2,), pmf={(0,): -0.1, (1,): 1.1})
    with pytest.raises(InvalidJointError):
        DiscreteJoint(alphabet_sizes=(2,), pmf={(0, 0): 1.0})  # wrong arity
    with pytest.raises(InvalidJointError):
        DiscreteJoint(alphabet_sizes=(2,), pmf={(3,): 1.0})  # symbol out of range
    with pytest.raises(InvalidJointError):
        DiscreteJoint(alphabet_sizes=(101, 101, 101), pmf={(0, 0, 0): 1.0})  # > 1e6 cells


# Each fault as (alphabet sizes, atoms, probabilities, message); the atoms are
# otherwise a valid joint.
JOINT_FAULTS = {
    "arity": ((2, 2), [(0, 0), (1,)], [0.5, 0.5], "arity 1, expected 2"),
    "range": ((2, 2), [(0, 0), (1, 2)], [0.5, 0.5], r"\(1, 2\) outside alphabet ranges"),
    "negative index": ((2, 2), [(0, 0), (-1, 1)], [0.5, 0.5], "outside alphabet ranges"),
    "duplicate": ((2, 2), [(0, 1), (1, 1), (0, 1)], [0.25, 0.5, 0.25],
                  r"duplicate atom \(0, 1\)"),
    "negative": ((2, 2), [(0, 0), (1, 1)], [-0.5, 1.5], r"negative probability -0.5 at \(0, 0\)"),
    "nan": ((2, 2), [(0, 0), (1, 1)], [math.nan, 1.0], r"non-finite probability nan at \(0, 0\)"),
    "inf": ((2, 2), [(0, 0), (1, 1)], [0.5, math.inf], r"non-finite probability inf at \(1, 1\)"),
    "non-integer index": ((2, 2), [(0, 0), (1.7, 1)], [0.5, 0.5],
                          r"\(1.7, 1\) has a non-integer index"),
    "integral float index": ((2, 2), [(0, 0), (1.0, 1)], [0.5, 0.5], "non-integer index"),
    "string index": ((2, 2), [(0, 0), ("1", 1)], [0.5, 0.5], "non-integer index"),
    "mass": ((2, 2), [(0, 0), (1, 1)], [0.5, 0.4], "sum to"),
}


@pytest.mark.parametrize("fault", sorted(JOINT_FAULTS))
def test_joint_faults_rejected_by_every_constructor(fault, tmp_path):
    sizes, atoms, probs, message = JOINT_FAULTS[fault]
    with pytest.raises(InvalidJointError, match=message):
        DiscreteJoint(alphabet_sizes=sizes, atoms=atoms, probs=probs)
    if fault != "duplicate":  # a mapping cannot hold one atom twice
        with pytest.raises(InvalidJointError, match=message):
            DiscreteJoint(alphabet_sizes=sizes, pmf=dict(zip(atoms, probs)))
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({
        "alphabet_sizes": list(sizes), "outcome_index": 0,
        "atoms": [{"tuple": list(a), "prob": p} for a, p in zip(atoms, probs)],
    }))
    with pytest.raises(InvalidJointError, match=message):
        load_joint_json(path)


ARRAY_FAULTS = ["range", "negative index", "duplicate", "negative", "nan", "inf", "mass"]


@pytest.mark.parametrize("fault", ARRAY_FAULTS)
def test_joint_faults_from_arrays_raise_what_lists_raise(fault):
    sizes, atoms, probs, _ = JOINT_FAULTS[fault]
    with pytest.raises(InvalidJointError) as from_lists:
        DiscreteJoint(alphabet_sizes=sizes, atoms=atoms, probs=probs)
    with pytest.raises(InvalidJointError) as from_arrays:
        DiscreteJoint(alphabet_sizes=sizes, atoms=np.array(atoms), probs=np.array(probs))
    assert str(from_arrays.value) == str(from_lists.value)


def first_repeat_by_walk(atoms: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The atom that a walk in input order finds already seen first."""
    seen = set()
    for atom in atoms:
        if atom in seen:
            return atom
        seen.add(atom)
    raise AssertionError("no repeat")


@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_duplicate_atom_named_is_the_first_repeat_in_input_order(sizes, data):
    cell = st.tuples(*(st.integers(0, s - 1) for s in sizes))
    atoms = data.draw(st.lists(cell, min_size=1, max_size=40))
    atoms.insert(data.draw(st.integers(0, len(atoms))), data.draw(st.sampled_from(atoms)))
    want = first_repeat_by_walk(atoms)
    probs = [1.0 / len(atoms)] * len(atoms)
    for given_atoms in (atoms, np.array(atoms)):
        with pytest.raises(InvalidJointError) as exc:
            DiscreteJoint(alphabet_sizes=sizes, atoms=given_atoms, probs=probs)
        assert str(exc.value) == f"duplicate atom {want!r}"


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_joint_from_arrays_equals_joint_from_lists(dtype):
    rng = np.random.default_rng(12)
    sizes = (3, 4, 2, 5)
    cells = rng.permutation(np.argwhere(rng.random(sizes) < 0.7))
    probs = rng.random(len(cells))
    probs /= probs.sum()
    from_lists = DiscreteJoint(alphabet_sizes=sizes, atoms=cells.tolist(), probs=probs.tolist())
    from_arrays = DiscreteJoint(alphabet_sizes=sizes, atoms=cells.astype(dtype), probs=probs)
    assert from_arrays.table.tobytes() == from_lists.table.tobytes()
    # an array of another shape or kind is read as the sequences it holds
    with pytest.raises(InvalidJointError, match="arity 3, expected 4"):
        DiscreteJoint(alphabet_sizes=sizes, atoms=cells[:, :3], probs=probs)
    with pytest.raises(InvalidJointError, match=r"\(0.0, 0.0, 0.0, 0.0\) has a non-integer"):
        DiscreteJoint(alphabet_sizes=sizes, atoms=np.zeros((1, 4)), probs=[1.0])


@pytest.mark.parametrize("sizes", [(), (2, 0), (2.0, 2), "ab"])
def test_joint_rejects_bad_alphabet_sizes(sizes):
    with pytest.raises(InvalidJointError, match="bad alphabet sizes"):
        DiscreteJoint(alphabet_sizes=sizes, pmf={(0, 0): 1.0})


def test_joint_table_from_atoms_equals_cell_by_cell():
    rng = np.random.default_rng(11)
    sizes = (3, 4, 2, 5)
    w = rng.random(sizes) * (rng.random(sizes) < 0.7)
    w /= w.sum()
    pmf = {tuple(int(i) for i in idx): float(w[idx]) for idx in zip(*np.nonzero(w))}
    expected = np.zeros(sizes)
    for atom, prob in pmf.items():
        expected[atom] = prob
    j = DiscreteJoint(alphabet_sizes=sizes, pmf=pmf)
    np.testing.assert_array_equal(j.table, expected)
    assert not j.table.flags.writeable
    assert j.pmf == pmf
    assert DiscreteJoint.from_table(j.table).pmf == j.pmf
    # the table is the joint's only state
    assert set(vars(j)) == {"alphabet_sizes", "table"}


def test_joint_pmf_leaves_out_zero_atoms():
    j = DiscreteJoint(alphabet_sizes=(2, 2), pmf={(0, 0): 0.5, (0, 1): 0.0, (1, 1): 0.5})
    assert j.pmf == {(0, 0): 0.5, (1, 1): 0.5}
    assert all(type(i) is int for atom in j.pmf for i in atom)


@pytest.mark.parametrize("bad,message", [(-0.25, "negative"), (math.nan, "non-finite"),
                                         (math.inf, "non-finite")])
def test_from_table_rejects_bad_cells(bad, message):
    t = np.full((2, 2), 0.25)
    t[1, 0] = bad
    with pytest.raises(InvalidJointError, match=rf"{message} probability .* at \(1, 0\)"):
        DiscreteJoint.from_table(t)


def test_from_table_copies_its_input():
    t = np.full((2, 2), 0.25)
    j = DiscreteJoint.from_table(t)
    t[0, 0] = 0.0
    assert j.table[0, 0] == 0.25


def test_entropy_bernoulli():
    # H(0.25, 0.75) = 0.25 log 4 + 0.75 log(4/3), summed directly
    j = DiscreteJoint(alphabet_sizes=(2,), pmf={(0,): 0.25, (1,): 0.75})
    oracle = 0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)
    assert entropy(j, [0]) == pytest.approx(oracle, abs=1e-15)
    assert entropy(j, [0]) == pytest.approx(0.562335, abs=1e-6)


def test_entropy_units_toggle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        j = random_joint(rng, num_vars=int(rng.integers(1, 4)))
        sub = [0]
        nats = entropy(j, sub, "nats")
        bits = entropy(j, sub, "bits")
        assert bits * LN2 == pytest.approx(nats, rel=1e-15, abs=1e-300)


def test_entropy_zero_cells_and_deterministic_variable():
    j = DiscreteJoint(alphabet_sizes=(3,), pmf={(1,): 1.0})
    assert entropy(j, [0]) == 0.0


def test_entropy_subset_validation():
    j = fair_bits_outcome_pair()
    with pytest.raises(EmptySubsetError):
        entropy(j, [])
    with pytest.raises(IndexOutOfRangeError):
        entropy(j, [3])


def conditional_entropy(joint, target, given):
    """H(target | given) = H(target, given) - H(given)."""
    return entropy(joint, [*target, *given]) - entropy(joint, given)


def test_conditional_entropy_uniform_three_atoms():
    # uniform on {(0,0), (0,1), (1,0)}: H(y | x) = (2/3) log 2
    j = DiscreteJoint(
        alphabet_sizes=(2, 2), pmf={(0, 0): 1 / 3, (0, 1): 1 / 3, (1, 0): 1 / 3}
    )
    assert conditional_entropy(j, [1], [0]) == pytest.approx((2 / 3) * LN2, abs=1e-12)
    assert conditional_entropy(j, [1], [0]) == pytest.approx(0.462098, abs=1e-6)


def test_conditional_entropy_reduces_entropy():
    # H(x | y, z) <= H(x | y) <= H(x) on random joints
    rng = np.random.default_rng(9)
    for i in range(1000):
        j = random_joint(rng, num_vars=3, sparse=(i % 2 == 0))
        h = entropy(j, [0])
        h_y = conditional_entropy(j, [0], [1])
        h_yz = conditional_entropy(j, [0], [1, 2])
        assert h_yz <= h_y + 1e-10
        assert h_y <= h + 1e-10
        assert h_yz >= -1e-12


def test_mutual_information_overlap_rejected():
    j = fair_bits_outcome_pair()
    with pytest.raises(OverlappingSubsetsError):
        mutual_information(j, [0, 1], [1])


def test_mutual_information_symmetric_and_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(300):
        j = random_joint(rng, num_vars=int(rng.integers(2, 5)))
        a, b = [0], [1]
        iab = mutual_information(j, a, b)
        iba = mutual_information(j, b, a)
        assert iab == pytest.approx(iba, abs=1e-12)
        assert iab >= -1e-12


def test_mutual_information_xor_is_zero():
    # y = x1 xor x2 with independent fair bits: I(X1; y) = 0
    j = DiscreteJoint(
        alphabet_sizes=(2, 2, 2),
        pmf={(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25},
    )
    assert mutual_information(j, [0], [2]) == pytest.approx(0.0, abs=1e-12)
    # but jointly the predictors determine y
    assert mutual_information(j, [0, 1], [2]) == pytest.approx(LN2, abs=1e-12)


def test_mi_check_equality_fixture():
    # y = (X1, X2): lhs = 2 log 2 equals rhs = H(y) = 2 log 2 exactly
    rep = mi_piranha_check(fair_bits_outcome_pair(), 2)
    assert rep.lhs == pytest.approx(2 * LN2, abs=1e-12)
    assert rep.rhs == pytest.approx(2 * LN2, abs=1e-12)
    assert rep.satisfied
    assert rep.rhs - rep.lhs == pytest.approx(0.0, abs=1e-12)


def test_mi_check_identical_copies():
    # X1 = X2 = y, one fair bit: lhs = 2 log 2, rhs = 3 log 2, slack log 2
    j = DiscreteJoint(alphabet_sizes=(2, 2, 2), pmf={(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    rep = mi_piranha_check(j, 2)
    assert rep.lhs == pytest.approx(2 * LN2, abs=1e-12)
    assert rep.rhs == pytest.approx(3 * LN2, abs=1e-12)
    assert rep.rhs - rep.lhs == pytest.approx(LN2, abs=1e-12)


def test_mi_check_units_and_report_consistency():
    rep = mi_piranha_check(fair_bits_outcome_pair(), 2, units="bits")
    assert rep.h_y == pytest.approx(2.0, rel=1e-15)
    assert rep.lhs == pytest.approx(sum(rep.per_var_mi), abs=1e-12)
    assert rep.rhs == pytest.approx(rep.h_y + sum(rep.per_var_leaveout_mi), abs=1e-12)


def test_mi_check_outcome_index_validation():
    with pytest.raises(IndexOutOfRangeError):
        mi_piranha_check(fair_bits_outcome_pair(), 5)


def test_mi_check_single_predictor():
    j = DiscreteJoint(alphabet_sizes=(2, 2), pmf={(0, 0): 0.5, (1, 1): 0.5})
    rep = mi_piranha_check(j, 1)
    assert rep.per_var_leaveout_mi == (0.0,)
    assert rep.satisfied


def test_mi_check_random_joints_never_violate():
    rng = np.random.default_rng(77)
    for i in range(300):
        nv = int(rng.integers(2, 5))
        j = random_joint(rng, num_vars=nv, sparse=(i % 3 == 0))
        rep = mi_piranha_check(j, int(rng.integers(0, nv)))
        assert rep.satisfied
        assert rep.lhs <= rep.rhs + 1e-12


def mi_check_by_mutual_information(joint, y, units):
    """mi_piranha_check's report with every term its own public call."""
    predictors = [i for i in range(joint.num_vars) if i != y]
    per_var = [mutual_information(joint, [i], [y]) for i in predictors]
    leaveout = [mutual_information(joint, [i], [j for j in predictors if j != i])
                for i in predictors]
    h_y = entropy(joint, [y])
    lhs, rhs = float(sum(per_var)), float(h_y + sum(leaveout))
    scale = 1.0 if units == "nats" else 1.0 / LN2
    return info_bounds.MIReport(
        outcome_index=y,
        units=units,
        per_var_mi=tuple(v * scale for v in per_var),
        per_var_leaveout_mi=tuple(v * scale for v in leaveout),
        h_y=h_y * scale,
        lhs=lhs * scale,
        rhs=rhs * scale,
        satisfied=bool(lhs <= rhs + info_bounds.MI_TOLERANCE),
        slack=rhs * scale - lhs * scale,
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.lists(st.integers(1, 3), min_size=k + 1, max_size=k + 1),
    st.integers(0, k),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["nats", "bits"]),
)))
def test_mi_check_reads_each_marginal_entropy_once(case):
    # k predictors need H(X_i), H(y), H(X_i, y), H(X_-i) and H(X_all): 3k + 2
    # entropies, combined into the same bits as one mutual_information call per term.
    sizes, y, seed, units = case
    rng = np.random.default_rng(seed)
    w = rng.random(sizes) * (rng.random(sizes) < 0.6)
    if not w.any():
        w.flat[0] = 1.0
    joint = DiscreteJoint.from_table(w / w.sum())
    expected = mi_check_by_mutual_information(joint, y, units)
    with mock.patch.object(info_bounds, "_entropy_nats", wraps=info_bounds._entropy_nats) as h:
        report = mi_piranha_check(joint, y, units)
    assert repr(report) == repr(expected)
    assert h.call_count == 3 * (len(sizes) - 1) + 2


def test_grouping_inequality_on_random_joints():
    # I(X_all; y) >= sum_i [ I(X_i; y) - I(X_i; X_-i) ]
    rng = np.random.default_rng(123)
    for _ in range(200):
        nv = int(rng.integers(3, 5))
        j = random_joint(rng, num_vars=nv)
        y = nv - 1
        preds = list(range(nv - 1))
        lhs_total = mutual_information(j, preds, [y])
        acc = 0.0
        for i in preds:
            others = [k for k in preds if k != i]
            redund = mutual_information(j, [i], others) if others else 0.0
            acc += mutual_information(j, [i], [y]) - redund
        assert lhs_total >= acc - 1e-10
