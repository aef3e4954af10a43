"""The JSON writer against the standard library's encoder."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectaudit.report import _json_text

# Strings with quotes, backslashes, control characters and non-ASCII text
# (including astral characters, which json writes as surrogate pairs).
TEXT = st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=12)
SCALARS = (
    TEXT
    | st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
        | st.dictionaries(TEXT, inner, max_size=5)
    ),
    max_leaves=40,
)


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_writer_equals_json_dumps(obj):
    assert _json_text(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": []}, {"a": {}}, [[], {}, ()], "", 0, -0.0, 1e300, 5e-324, True, None,
    {"x": [1.5, 2.0, -3.25]}, {"x": [1.0, 2, 3.0]}, {"x": [1.0, True]}, [1e308, 1e308],
    {"é \x00\"\\": "\U0001f600"}, [np.float64(0.1), 0.1], {"k": (1.0, 2.0)},
])
def test_writer_equals_json_dumps_on_edge_cases(obj):
    assert _json_text(obj) == stdlib(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("wrap", [
    lambda v: v,
    lambda v: [1.0, v],
    lambda v: {"a": {"b": [0.5, v, 2.0]}},
    lambda v: {"a": (v,)},
])
def test_writer_raises_jsons_own_error_on_non_finite_floats(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(ValueError) as ours:
        _json_text(obj)
    with pytest.raises(ValueError) as theirs:
        stdlib(obj)
    assert str(ours.value) == str(theirs.value)
    assert "not JSON compliant" in str(ours.value)


def test_writer_raises_its_own_type_error_on_other_keys_and_types():
    for obj, message in [
        ({1: 2.0}, "keys must be str, not int"),
        ({"a": {None: []}}, "keys must be str, not NoneType"),
        ({"a": np.int64(3)}, "Object of type int64 is not JSON serializable"),
        ([1.0, {1.5, 2.5}], "Object of type set is not JSON serializable"),
    ]:
        with pytest.raises(TypeError) as exc:
            _json_text(obj)
        assert str(exc.value) == message
