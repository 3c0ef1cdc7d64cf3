"""The JSON writer gives json.dumps(obj, indent=2) + "\\n", byte for byte.

Each case runs through the C-encoder writer and through its fallback (the
module's c_make_encoder binding patched to None), to a file and to stdout.
"""

import contextlib
import io
import json
import math
import re
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offnadir import dataset
from offnadir.dataset import DatasetError, _write_json

PATHS = ("c", "fallback")


class Sub(dict):
    pass


def _encoders(path_kind: str):
    """The C-encoder writer, or its fallback with the binding patched away."""
    if path_kind == "fallback":
        return mock.patch.object(dataset, "c_make_encoder", None)
    return contextlib.nullcontext()


def _written(obj, tmp_dir, path_kind: str) -> bytes:
    with _encoders(path_kind):
        path = tmp_dir / "out.json"
        _write_json(obj, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write_json(obj, "-")
    data = path.read_bytes()
    assert out.getvalue().encode("utf-8") == data
    return data


def _expected(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


STRINGS = ["", " ", "é", "☃ snow", "\ud800", "a\udfffb", "\x00\x01\x1f\x7f", 'q"\\/\n\t',
           "line\r\nbreak", "\U0001f600"]
FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1e-7, 1e16]
INTS = [0, -1, 2**53 + 1, 2**64, -(2**64) - 1, 10**30]

scalars = (
    st.none() | st.booleans() | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from(INTS) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(FLOATS) | st.sampled_from(STRINGS)
    | st.text(st.characters(exclude_categories=()), max_size=6)
)
keys = (
    st.text(st.characters(exclude_categories=()), max_size=4) | st.sampled_from(STRINGS)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.booleans() | st.none()
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(keys, inner, max_size=5)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3).map(Sub)
    ),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write_json")


@pytest.mark.parametrize("path_kind", PATHS)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(obj=values)
def test_writer_matches_json_dumps_indent_2(tmp_dir, path_kind, obj):
    assert _written(obj, tmp_dir, path_kind) == _expected(obj)


def _nested(depth: int):
    obj = [1.5, {"leaf": [], "x": {}}]
    for k in range(depth):
        obj = {"k": [obj, k], k: (), None: {}} if k % 2 else [obj, {"a": [k, -0.0]}]
    return obj


@pytest.mark.parametrize("path_kind", PATHS)
@pytest.mark.parametrize("obj", [
    None, 3, -0.0, "\ud800", [], {}, (), [[]], {"a": {}}, [{}, [], ()], ((1, 2), (3,)),
    {1: [1], 2.5: {"x": []}, None: [[None]], True: {"t": 1}, False: "f"},
    [-0.0, 5e-324, 1e308, 2**64, 2**64 + 1, -(2**65)],
    {"s": STRINGS, "nested": [STRINGS, {s: s for s in STRINGS}]},
    Sub(a=[1, Sub(b=2)], c=Sub()), OrderedDict([("z", [1]), ("a", 2)]),
    _nested(60), [list(range(300)), {str(k): k for k in range(300)}], [[k] for k in range(400)],
])
def test_writer_edge_cases(tmp_path, path_kind, obj):
    assert _written(obj, tmp_path, path_kind) == _expected(obj)


@pytest.mark.parametrize("path_kind", PATHS)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["scalar", "list", "key", "dict"])
def test_non_finite_numbers_are_a_dataset_error_naming_the_path(tmp_path, path_kind, bad, where):
    obj = {"scalar": bad, "list": [[1.0, bad]], "key": {"k": {bad: 1}},
           "dict": [{"a": [1], "b": bad}]}[where]
    path = tmp_path / "out.json"
    message = re.escape(f"cannot write {path}: Out of range float")
    with _encoders(path_kind), pytest.raises(DatasetError, match=message):
        _write_json(obj, path)
