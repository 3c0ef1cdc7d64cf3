"""The JSON writer gives json.dumps(obj, indent=2) + "\\n", byte for byte.

Each case runs through the C-encoder writer and through its fallback (the
module's c_make_encoder binding patched to None), to a file and to stdout.
A file is replaced only once it is written whole.
"""

import contextlib
import io
import json
import math
import os
import re
import stat
import sys
import threading
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offnadir import dataset
from offnadir.dataset import (
    BuildingInstance, Dataset, DatasetError, SampleRecord, _write_json, save_dataset,
)
from offnadir.geometry import Polygon2D

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


@pytest.mark.parametrize("path_kind", PATHS)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(obj=values)
def test_writer_matches_json_dumps_indent_2(module_dir, path_kind, obj):
    assert _written(obj, module_dir, path_kind) == _expected(obj)


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


def _leftovers(folder) -> list:
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize("path_kind", PATHS)
def test_a_failed_write_keeps_the_old_output_and_leaves_no_temporary_file(tmp_path, path_kind):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with _encoders(path_kind), pytest.raises(DatasetError, match="Out of range float"):
        _write_json({"a": list(range(5000)) + [math.inf]}, path)
    assert path.read_text() == "old\n"
    assert _leftovers(tmp_path) == []


@pytest.mark.parametrize("path_kind", PATHS)
@pytest.mark.parametrize("where", ["dataset", "record", "instance"])
def test_a_value_nested_past_the_recursion_limit_is_a_dataset_error(tmp_path, path_kind, where):
    deep = 0
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    square = Polygon2D(((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)))
    inst = BuildingInstance(footprint=square, extra={"deep": deep} if where == "instance" else {})
    record = SampleRecord("a", 8, 8, instances=(inst,),
                          extra={"deep": deep} if where == "record" else {})
    d = Dataset(records=(record,), extra={"deep": deep} if where == "dataset" else {})
    path = tmp_path / "out.json"
    path.write_text("old\n")
    message = re.escape(f"cannot write {path}: maximum recursion depth exceeded")
    with _encoders(path_kind), pytest.raises(DatasetError, match=message):
        save_dataset(d, path)
    assert path.read_text() == "old\n"
    assert _leftovers(tmp_path) == []


def test_an_interrupted_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def interrupted(obj, f, path):
        f.write("[")
        raise KeyboardInterrupt

    monkeypatch.setattr(dataset, "_encode", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _write_json([1], tmp_path / "out.json")
    assert list(tmp_path.iterdir()) == []


def test_a_write_replaces_the_output_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("a much longer old text than the new one\n" * 100)
    _write_json([1], path)
    assert path.read_bytes() == _expected([1])
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_symlinked_output_stays_a_symlink(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "real.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    _write_json({"k": [1.5]}, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _expected({"k": [1.5]})
    assert _leftovers(tmp_path) == _leftovers(tmp_path / "data") == []
    # a dangling link: the file it names is made, as open(link, "w") would
    target.unlink()
    _write_json([], link)
    assert link.is_symlink() and target.read_bytes() == _expected([])


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755])
def test_an_existing_output_keeps_its_permission_bits(tmp_path, mode):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    path.chmod(mode)
    _write_json([1], path)
    assert stat.S_IMODE(path.stat().st_mode) == mode


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_output_gets_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "reference.json", "w"):
            pass
        _write_json([1], tmp_path / "out.json")
    finally:
        os.umask(old)
    assert (stat.S_IMODE((tmp_path / "out.json").stat().st_mode)
            == stat.S_IMODE((tmp_path / "reference.json").stat().st_mode))


def test_a_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    _write_json({"k": [1]}, os.devnull)
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = {}
    reader = threading.Thread(target=lambda: read.update(data=fifo.read_bytes()))
    reader.start()
    _write_json({"k": [1]}, fifo)
    reader.join(timeout=10)
    assert read["data"] == _expected({"k": [1]})
    assert stat.S_ISFIFO(fifo.stat().st_mode) and _leftovers(tmp_path) == []


def test_an_output_in_a_missing_folder_is_an_os_error_that_names_it(tmp_path):
    path = tmp_path / "missing" / "out.json"
    with pytest.raises(FileNotFoundError, match=re.escape(f": '{path}'")):
        _write_json([1], path)
    assert list(tmp_path.iterdir()) == []


def test_an_output_open_could_not_write_keeps_its_bytes(tmp_path, monkeypatch):
    # os.access stands in for a read-only file, which root could still write
    path = tmp_path / "out.json"
    path.write_text("old\n")
    monkeypatch.setattr(os, "access", lambda p, mode: not (p == str(path) and mode == os.W_OK))
    with pytest.raises(PermissionError, match=re.escape(f": '{path}'")):
        _write_json([1], path)
    assert path.read_text() == "old\n" and [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_temporary_name_already_taken_is_retried_and_left_alone(tmp_path, monkeypatch):
    taken = tmp_path / ".out.json.00000000.tmp"
    taken.write_bytes(b"another writer's bytes")
    draws = iter([b"\x00" * 4, b"\x00\x00\x00\x01"])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    _write_json({"k": [1.5]}, tmp_path / "out.json")
    assert next(draws, None) is None  # both names were drawn
    assert (tmp_path / "out.json").read_bytes() == _expected({"k": [1.5]})
    assert taken.read_bytes() == b"another writer's bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.json"]
