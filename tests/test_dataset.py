import contextlib
import copy
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offnadir import dataset as dataset_module
from offnadir import synth as synth_module
from offnadir.cli import run
from offnadir.dataset import (
    BuildingInstance,
    Dataset,
    DatasetError,
    SampleRecord,
    SupervisionLevel,
    dataset_from_json,
    dataset_to_json,
    grade_sample,
    load_dataset,
    save_dataset,
    strip_annotations,
    validate_consistency,
)
from offnadir.geometry import (
    ImagePose, Polygon2D, Vec2, _canonical_ring, _first_non_simple, translate_polygon,
)
from offnadir.synth import SynthConfig, degrade_dataset, generate_scenes

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import ring_by_ring  # noqa: E402  (tests/ring_by_ring.py)
import scenes  # noqa: E402  (perfbench/scenes.py)

SQUARE = Polygon2D(((10, 10), (20, 10), (20, 20), (10, 20)))


def make_instance(offset=None, height=None, roof=False, score=None):
    r = translate_polygon(SQUARE, -offset) if (roof and offset is not None) else None
    return BuildingInstance(footprint=SQUARE, roof=r, offset=offset, height=height, score=score)


def record_of(*instances, pose=None, image_id="img-0"):
    return SampleRecord(image_id=image_id, width=64, height=64, pose=pose, instances=instances)


def test_supervision_level_order():
    assert SupervisionLevel.N < SupervisionLevel.H < SupervisionLevel.OH


def test_grade_levels():
    assert grade_sample(record_of(make_instance())) == SupervisionLevel.N
    assert grade_sample(record_of(make_instance(height=5.0))) == SupervisionLevel.H
    assert (
        grade_sample(record_of(make_instance(offset=Vec2(2, 1), height=5.0)))
        == SupervisionLevel.OH
    )
    # offset without height cannot form OH
    assert grade_sample(record_of(make_instance(offset=Vec2(2, 1)))) == SupervisionLevel.N


def test_grade_mixed_takes_weakest():
    rec = record_of(
        make_instance(offset=Vec2(2, 1), height=5.0),
        make_instance(height=3.0),
    )
    assert grade_sample(rec) == SupervisionLevel.H


def test_grade_errors_without_footprint():
    inst = BuildingInstance(footprint=None, roof=SQUARE, offset=Vec2(1, 0))
    with pytest.raises(DatasetError, match="footprint"):
        grade_sample(record_of(inst))


def test_grade_monotone_under_stripping():
    rng = np.random.default_rng(55)
    for _ in range(50):
        inst = make_instance(offset=Vec2(2, 1), height=5.0, roof=True)
        level0 = grade_sample(record_of(inst))
        stripped = strip_annotations(
            inst,
            drop_offset=bool(rng.integers(0, 2)),
            drop_height=bool(rng.integers(0, 2)),
        )
        assert grade_sample(record_of(stripped)) <= level0


def test_instance_requires_some_geometry():
    with pytest.raises(DatasetError):
        BuildingInstance(footprint=None, roof=SQUARE, offset=None)
    with pytest.raises(DatasetError):
        BuildingInstance(footprint=None, roof=None, offset=Vec2(1, 1))


def test_instance_roof_offset_consistency():
    v = Vec2(3.0, -2.0)
    ok = BuildingInstance(footprint=SQUARE, roof=translate_polygon(SQUARE, -v), offset=v)
    assert ok.roof is not None
    with pytest.raises(DatasetError, match="deviates"):
        BuildingInstance(footprint=SQUARE, roof=translate_polygon(SQUARE, Vec2(0, 1)), offset=v)
    tri = Polygon2D(((0, 0), (5, 0), (0, 5)))
    with pytest.raises(DatasetError, match="vertices"):
        BuildingInstance(footprint=SQUARE, roof=tri, offset=v)


def test_instance_scalar_validation():
    with pytest.raises(DatasetError):
        make_instance(height=-1.0)
    with pytest.raises(DatasetError):
        make_instance(score=1.5)


def test_record_validation():
    with pytest.raises(DatasetError):
        SampleRecord(image_id="x", width=0, height=64)
    far = translate_polygon(SQUARE, Vec2(500.0, 0.0))
    with pytest.raises(DatasetError, match="instance 0"):
        SampleRecord(image_id="x", width=64, height=64, instances=(BuildingInstance(far),))


def test_dataset_unique_ids():
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset(records=(record_of(), record_of()))


def test_save_load_roundtrip(tmp_path, int_scene_dataset):
    path = tmp_path / "d.json"
    save_dataset(int_scene_dataset, path)
    back = load_dataset(path)
    assert back == int_scene_dataset
    # grading preserved record by record
    for a, b in zip(back.records, int_scene_dataset.records):
        assert grade_sample(a) == grade_sample(b)
    # byte-stable across save cycles
    path2 = tmp_path / "d2.json"
    save_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_writes_and_load_reads_scores(tmp_path):
    d = Dataset(records=(record_of(make_instance(score=0.97), make_instance(score=0.0),
                                   make_instance()),))
    path = tmp_path / "scored.json"
    save_dataset(d, path)
    written = json.loads(path.read_text())["images"][0]["instances"]
    assert [inst.get("score") for inst in written] == [0.97, 0.0, None]
    assert load_dataset(path) == d


def test_roundtrip_preserves_grading_of_mixed_levels(tmp_path, int_scene_dataset):
    from offnadir.synth import degrade_dataset

    mixed = degrade_dataset(int_scene_dataset, 0.3, 0.4, seed=8)
    path = tmp_path / "mixed.json"
    save_dataset(mixed, path)
    back = load_dataset(path)
    assert [grade_sample(r) for r in back.records] == [grade_sample(r) for r in mixed.records]


def test_unknown_keys_preserved(tmp_path):
    doc = {
        "images": [
            {
                "id": "a",
                "width": 32,
                "height": 32,
                "pose": {"tan_theta": 0.5, "phi": 1.0, "scale_s": 2.0, "sensor": "sat-1"},
                "instances": [
                    {"footprint": [1, 1, 9, 1, 9, 9, 1, 9], "height": 7.5, "tag": "warehouse"}
                ],
                "city": "testville",
            }
        ],
        "metadata": {"source": "unit-test"},
        "license": "CC0",
    }
    d = dataset_from_json(doc)
    out = dataset_to_json(d)
    assert out["license"] == "CC0"
    assert out["images"][0]["city"] == "testville"
    assert out["images"][0]["pose"]["sensor"] == "sat-1"
    assert out["images"][0]["instances"][0]["tag"] == "warehouse"
    path = tmp_path / "extra.json"
    save_dataset(d, path)
    assert dataset_to_json(load_dataset(path)) == out


def _saved_datasets(int_scene_dataset):
    extra = dataset_from_json({
        "images": [{"id": "a", "width": 32, "height": 32, "tier": [1, {"x": []}],
                    "pose": {"tan_theta": 0.5, "phi": 1.0, "scale_s": 2.0, "sensor": "s"},
                    "instances": [{"footprint": [1, 1, 9, 1, 9, 9, 1, 9], "tag": {"k": [2.5]}},
                                  {"footprint": [11, 1, 19, 1, 19, 9], "note": "\u00e9"}]},
                   {"id": "b\n", "width": 8, "height": 8, "instances": []}],
        "metadata": {"source": ["unit", {"test": None}]},
        "license": "CC0", "z": {},
    })
    return [
        Dataset(),
        Dataset(metadata={"m": [1, 2]}, extra={"after": {"x": [3]}}),
        # an extra "images" key replaces the records in dataset_to_json too
        replace(extra, extra={"images": [0.5], "metadata": "last"}),
        extra,
        int_scene_dataset,
    ]


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("encoder", ["c", "fallback"])
def test_save_dataset_writes_json_dumps_of_dataset_to_json(
    tmp_path, int_scene_dataset, monkeypatch, case, encoder
):
    # each record's JSON is built as the writer reaches it, with the same bytes
    d = _saved_datasets(int_scene_dataset)[case]
    if encoder == "fallback":
        monkeypatch.setattr(dataset_module, "c_make_encoder", None)
    path = tmp_path / "d.json"
    save_dataset(d, path)
    assert path.read_bytes() == (json.dumps(dataset_to_json(d), indent=2) + "\n").encode()


class _F(float):
    """A float subclass with a repr of its own, which JSON does not use."""

    def __repr__(self):
        return f"_F({float.__repr__(self)})"


_FIXED_KEYS = ["id", "width", "height", "pose", "instances", "footprint", "roof", "offset",
               "score", "tan_theta", "phi", "scale_s", "images", "metadata"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.floats(0, 10).map(_F),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)
# extra keys, often one of the fixed keys of some level
_extras = st.dictionaries(st.sampled_from(_FIXED_KEYS) | st.text(max_size=3), _json_values,
                          max_size=3)


def _number(lo, hi):
    """An int, a float or a float subclass in [lo, hi]."""
    return st.integers(math.ceil(lo), math.floor(hi)) | st.floats(lo, hi) | st.floats(lo, hi).map(_F)


@st.composite
def _api_datasets(draw):
    """Datasets built through the public constructors: int and float-subclass
    numbers, extras that collide with fixed keys, roof-only instances, empty
    instance lists, and ids with non-ASCII and control characters."""
    ids = draw(st.lists(st.text(st.characters(exclude_categories=()), max_size=4), max_size=4,
                        unique=True))
    records = []
    for image_id in ids:
        pose = None
        if draw(st.booleans()):
            pose = ImagePose(draw(_number(0, 2)), draw(st.floats(-7, 7)), draw(_number(0.5, 3)))
        instances = []
        for _ in range(draw(st.integers(0, 3))):
            x, y, w, h = (draw(st.integers(0, 40)) for _ in range(4))
            footprint = Polygon2D(((x, y), (x + w + 1, y), (x + w + 1, y + h + 1), (x, y + h + 1)))
            offset = roof = None
            if draw(st.booleans()):
                offset = Vec2(draw(_number(-8, 8)), draw(_number(-8, 8)))
                if draw(st.booleans()):
                    roof = translate_polygon(footprint, -offset)
                    if draw(st.booleans()):
                        footprint = None  # roof only
            instances.append(BuildingInstance(
                footprint, roof, offset, draw(st.none() | _number(0, 90)),
                draw(st.none() | _number(0, 1)), draw(_extras)))
        records.append(SampleRecord(image_id, draw(st.integers(64, 200) | st.just(2**70)),
                                    draw(st.integers(64, 200)), pose, tuple(instances),
                                    draw(_extras), draw(_extras) if pose else {}))
    return Dataset(records, draw(_extras), draw(_extras))


@pytest.mark.parametrize("encoder", ["c", "fallback"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=_api_datasets())
def test_save_dataset_writes_what_json_dumps_writes(module_dir, encoder, d):
    # the record writer formats each record from its fields, yet every
    # byte, int, float subclass and colliding extra key included, is
    # json.dumps's
    path = module_dir / "d.json"
    with (mock.patch.object(dataset_module, "c_make_encoder", None) if encoder == "fallback"
          else contextlib.nullcontext()):
        save_dataset(d, path)
    assert path.read_bytes() == (json.dumps(dataset_to_json(d), indent=2) + "\n").encode()


def test_load_errors_name_the_record(tmp_path):
    doc = {
        "images": [
            {"id": "ok", "width": 16, "height": 16, "instances": []},
            {
                "id": "broken",
                "width": 16,
                "height": 16,
                "instances": [{"footprint": [0, 0, 4, 4]}],  # 2 vertices
            },
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=r"'broken', instance 0"):
        load_dataset(path)


def test_load_invariant_violations_name_the_record(tmp_path):
    base = {"footprint": [1, 1, 9, 1, 9, 9, 1, 9]}
    for bad in (
        {**base, "height": -2.0},
        {**base, "roof": [5, 5, 13, 5, 13, 13, 5, 13], "offset": [1.0, 0.0]},
    ):
        doc = {"images": [{"id": "rec-7", "width": 32, "height": 32, "instances": [bad]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=r"'rec-7', instance 0"):
            load_dataset(path)


def test_load_rejects_boolean_dimensions(tmp_path):
    for dims in ({"width": True, "height": 16}, {"width": 16, "height": False}):
        doc = {"images": [{"id": "flag", **dims, "instances": []}]}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=r"'flag'.*integers"):
            load_dataset(path)
        with pytest.raises(DatasetError, match=r"'flag'.*integers"):
            SampleRecord(image_id="flag", **dims)


def test_load_rejects_huge_coordinates_despite_huge_dimensions(tmp_path):
    # a 1e300-px image admits vertices near 1e300, but a crossed hexagon at
    # 1e155 would overflow the simplicity check and pass it
    hexagon = ((0, 0), (4, 0), (4, 3), (1, -1), (0, 3), (-1, 1))
    flat = [c * 1e155 for xy in hexagon for c in xy]
    doc = {"images": [{"id": "huge", "width": 10**300, "height": 10**300,
                       "instances": [{"footprint": flat}]}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=r"'huge', instance 0.*2\*\*500"):
        load_dataset(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    # bad syntax, bad UTF-8, an int beyond the digit limit, too deep to parse
    for text in (b"{not json", b"\xff{}", b"1" * 5000, b"[" * 100_000):
        path.write_bytes(text)
        with pytest.raises(DatasetError):
            load_dataset(path)
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "missing.json")


def _valid_document():
    return {"images": [{
        "id": "img", "width": 32, "height": 32,
        "pose": {"tan_theta": 0.5, "phi": 0.0, "scale_s": 1.0},
        "instances": [{"footprint": [10, 10, 20, 10, 20, 20, 10, 20],
                       "roof": [5, 10, 15, 10, 15, 20, 5, 20],
                       "offset": [5, 0], "height": 10.0, "score": 0.5}],
    }]}


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _parent(doc, path)[path[-1]] = value


IMAGE = ("images", 0)
INSTANCE = IMAGE + ("instances", 0)


@pytest.mark.parametrize("path, value, where", [
    (IMAGE + ("instances",), 5, r"'img': instances must be an array"),
    (IMAGE + ("pose", "tan_theta"), [1], r"'img', pose tan_theta: float\(\) argument"),
    (IMAGE + ("pose", "phi"), 10**400, r"'img', pose phi: int too large"),
    (INSTANCE + ("offset",), ["a", 1], r"'img', instance 0: could not convert"),
    (INSTANCE + ("offset",), [math.nan, 0], r"'img', instance 0: Vec2 .* finite"),
    (INSTANCE + ("footprint", 0), 10**400, r"'img', instance 0: int too large"),
    (INSTANCE + ("roof", 1), [1], r"'img', instance 0 \(roof\): float\(\) argument"),
    (INSTANCE + ("height",), 10**400, r"'img', instance 0: int too large"),
    (INSTANCE + ("score",), {}, r"'img', instance 0: float\(\) argument"),
], ids=["instances-not-array", "pose-list", "pose-huge-int", "offset-string", "offset-nan",
        "footprint-huge-int", "roof-list", "height-huge-int", "score-object"])
def test_load_turns_malformed_values_into_dataset_errors(tmp_path, capsys, path, value, where):
    doc = _valid_document()
    dataset_from_json(doc)  # loads before the mutation
    _set(doc, path, value)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=where):
        load_dataset(file)
    assert run(["grade", "--in", str(file)]) == 2
    assert capsys.readouterr().err.startswith("error: image 'img'")


NUMBER_POSITIONS = {
    "footprint-x": (INSTANCE + ("footprint", 0), "10"),
    "roof-y": (INSTANCE + ("roof", 1), "10"),
    "offset-dx": (INSTANCE + ("offset", 0), "5"),
    "offset-dy": (INSTANCE + ("offset", 1), "0"),
    "height": (INSTANCE + ("height",), "10.0"),
    "score": (INSTANCE + ("score",), "0.5"),
    "tan_theta": (IMAGE + ("pose", "tan_theta"), "0.5"),
    "phi": (IMAGE + ("pose", "phi"), "0"),
    "scale_s": (IMAGE + ("pose", "scale_s"), "1"),
}


@pytest.mark.parametrize("kind", ["boolean", "string"])
@pytest.mark.parametrize("position", sorted(NUMBER_POSITIONS))
def test_load_rejects_booleans_and_strings_as_numbers(tmp_path, capsys, position, kind):
    path, numeric_string = NUMBER_POSITIONS[position]
    doc = _valid_document()
    _set(doc, path, True if kind == "boolean" else numeric_string)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=r"^image 'img'.*must be a JSON number, got "):
        load_dataset(file)
    assert run(["grade", "--in", str(file)]) == 2
    assert capsys.readouterr().err.startswith("error: image 'img'")


@pytest.mark.parametrize("image_id", [5, None, True, ["img"]])
def test_load_rejects_non_string_image_ids(tmp_path, capsys, image_id):
    doc = _valid_document()
    _set(doc, IMAGE + ("id",), image_id)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=r"^images\[0\]: id must be a string, got "):
        load_dataset(file)
    assert run(["grade", "--in", str(file)]) == 2
    assert capsys.readouterr().err.startswith("error: images[0]: id must be a string")


def test_frame_check_takes_dimensions_too_large_for_a_float():
    doc = _valid_document()
    _set(doc, IMAGE + ("width",), 10**400)
    _set(doc, IMAGE + ("height",), 10**400)
    assert dataset_from_json(doc).records[0].width == 10**400
    _set(doc, IMAGE + ("height",), 8)  # the footprint reaches y = 20 > 2 * 8
    with pytest.raises(DatasetError, match=r"'img', instance 0: vertex \(20.0, 20.0\) "
                       r"outside the allowed frame \[-10{400}, 20{400}\] x "):
        dataset_from_json(doc)
    _set(doc, IMAGE + ("width",), 32)
    with pytest.raises(DatasetError, match=r"frame \[-32\.0, 64\.0\] x \[-8\.0, 16\.0\]$"):
        dataset_from_json(doc)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**63, 2**1024]),
    st.floats(),  # NaN and infinities included
    st.lists(st.integers(-40, 40) | st.floats(), max_size=40),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fuzzed_document_loads_or_raises_dataset_error(data):
    doc = _valid_document()
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        if data.draw(st.booleans()):
            del _parent(doc, path)[path[-1]]
        else:
            _set(doc, path, data.draw(JUNK))
    try:
        dataset_from_json(doc)
    except DatasetError:
        pass  # any other exception fails the test


def _city_documents():
    """A small `city` ground truth and its predictions, as the benchmark
    makes them: two 96x96 images of five L-shaped buildings."""
    wl = scenes.WORKLOADS["city"]
    config = dict(wl.synth, image_w=96, image_h=96, n_images=2, buildings_per_image=[5, 5])
    gt = dataset_to_json(generate_scenes(SynthConfig(**config, seed=11)))
    return {"gt": gt, "pred": scenes.predictions(gt, 11)}


CITY = _city_documents()
CITY_PATHS = {name: list(_paths(doc))[1:] for name, doc in CITY.items()}
DELETE = object()
HOSTILE = [None, True, False, 0, -1, 0.5, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf,
           2**64, 10**400, "", "1", "x", [], [0], [[1, 2]], {}, {"x": 1}]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_city_document_with_one_hostile_value_loads_twice_or_raises_dataset_error(data):
    # one value set to a hostile value, or deleted; no exception but a
    # DatasetError may escape, and what loads survives a round trip
    name = data.draw(st.sampled_from(sorted(CITY)))
    path = data.draw(st.sampled_from(CITY_PATHS[name]))
    value = data.draw(st.sampled_from(HOSTILE + [DELETE]))
    doc = copy.deepcopy(CITY[name])
    if value is DELETE:
        del _parent(doc, path)[path[-1]]
    else:
        _set(doc, path, value)
    try:
        loaded = dataset_from_json(doc)
    except DatasetError:
        return
    text = json.dumps(dataset_to_json(loaded))
    assert json.dumps(dataset_to_json(dataset_from_json(json.loads(text)))) == text


def _parity_ring(rng, n):
    """Integer n-vertex star around (100, 100), often made non-simple: a
    fold-back at an edge midpoint, two swapped vertices, or a moved vertex;
    sometimes with a repeated vertex instead."""
    pts = []
    for k in range(n):
        a = 2.0 * math.pi * (k + rng.uniform(-0.2, 0.2)) / n
        r = rng.uniform(30.0, 40.0) if k % 2 == 0 else rng.uniform(15.0, 25.0)
        pts.append((round(100 + r * math.cos(a)), round(100 + r * math.sin(a))))
    roll = rng.random()
    k = rng.randrange(n)
    if roll < 0.12:
        # the midpoint of edge k, visited right after the edge: a fold-back
        (ax, ay), (bx, by) = pts[k], pts[(k + 1) % n]
        pts = [(2 * x, 2 * y) for x, y in pts]
        pts.insert(k + 2, (ax + bx, ay + by))
    elif roll < 0.24:
        j = rng.randrange(n)
        pts[k], pts[j] = pts[j], pts[k]
    elif roll < 0.3:
        pts[k] = (rng.randint(60, 140), rng.randint(60, 140))
    elif roll < 0.33:
        pts[k] = pts[(k + 2) % n]
    return pts


def _flat(pts):
    return [c for xy in pts for c in xy]


def _parity_document(rng):
    """1-3 images of 1-5 instances with rings of 3-40 vertices; some rings
    are not simple, and bad heights, roof deviations, non-simple roofs and
    frame violations are scattered before and after them."""
    images = []
    for i in range(rng.randint(1, 3)):
        instances = []
        for _ in range(rng.randint(1, 5)):
            pts = _parity_ring(rng, rng.randint(3, 40))
            if rng.random() < 0.06:
                pts = [(x + 500, y) for x, y in pts]  # beyond the frame's 2 * width
            inst = {"footprint": _flat(pts), "height": -1.0 if rng.random() < 0.06 else 10.0}
            if rng.random() < 0.4:
                dx, dy = rng.randint(-5, 5), rng.randint(-5, 5)
                roof = [(x - dx, y - dy) for x, y in pts]
                roll = rng.random()
                if roll < 0.08:
                    roof[0] = (roof[0][0] + 0.5, roof[0][1])  # deviates from footprint - offset
                elif roll < 0.16 and len(roof) > 3:
                    roof[0], roof[2] = roof[2], roof[0]  # usually crossing
                inst.update(offset=[dx, dy], roof=_flat(roof))
            instances.append(inst)
        images.append({"id": f"img-{i}", "width": 200, "height": 200, "instances": instances})
    return {"images": images}


def _load_outcome(doc, load=dataset_from_json):
    """load(doc), a Dataset, or its DatasetError's text. The reference load
    is ring_by_ring.load, which checks each ring fully as it builds it."""
    try:
        return load(doc)
    except DatasetError as e:
        return str(e)


@contextlib.contextmanager
def _counting_ring_checks():
    """The lengths of the ring lists the loader passes to _first_non_simple."""
    checked = []
    original = dataset_module._first_non_simple
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dataset_module, "_first_non_simple",
                  lambda rings: checked.append(len(rings)) or original(rings))
        yield checked


# _first_non_simple's two routes, for rings of any size and count
SIMPLICITY_ROUTES = {
    "kernel": {"_BROADCAST_MIN_VERTICES": 0},
    "loop": {"_BROADCAST_MIN_VERTICES": 2**62, "_numpy_loaded": lambda: False},
}


@contextlib.contextmanager
def _simplicity_route(route):
    from offnadir import geometry

    with pytest.MonkeyPatch.context() as m:
        for name, value in SIMPLICITY_ROUTES[route].items():
            m.setattr(geometry, name, value)
        yield


@pytest.mark.parametrize("batch_pairs", [None, 1])
def test_batched_simplicity_check_matches_per_polygon_loading(batch_pairs, monkeypatch):
    from offnadir import dataset, geometry

    if batch_pairs is not None:
        monkeypatch.setattr(geometry, "_BATCH_PAIRS", batch_pairs)

    def reference(flat):
        # every ring fully checked by Polygon2D, in document order, before
        # anything after it is parsed
        rings.append(flat)
        return Polygon2D(tuple(zip(flat[0::2], flat[1::2]))).vertices

    rng = random.Random(5150)
    outcomes = Counter()
    preempted = 0
    for _ in range(400):
        doc = _parity_document(rng)
        # one ring check per document, whether it loads or not
        with _counting_ring_checks() as checked:
            got = _load_outcome(doc)
        assert len(checked) == 1, doc
        # the ring-by-ring route, each ring fully checked on its own
        rings = []
        with monkeypatch.context() as m:
            m.setattr(ring_by_ring, "_canonical_flat", reference)
            want = _load_outcome(doc, ring_by_ring.load)
        assert rings, "the reference no longer canonicalizes through _canonical_flat"
        assert got == want, doc
        if isinstance(want, str):
            outcomes[want.split(": ", 1)[1].split(" (")[0].split(" by ")[0]] += 1
        else:
            outcomes["loaded"] += 1
        if isinstance(want, str) and "not simple" in want:
            with monkeypatch.context() as m:
                m.setattr(dataset, "_first_non_simple", lambda rings: None)
                later = _load_outcome(doc)
            # a bad height, roof deviation or frame violation the ring won over
            preempted += isinstance(later, str) and any(
                kind in later for kind in ("height must", "deviates", "allowed frame"))
    assert outcomes["loaded"] >= 20
    assert outcomes["polygon is not simple"] >= 100
    assert outcomes["height must be finite and >= 0, got -1.0"] >= 10
    assert outcomes["roof deviates from footprint - offset"] >= 10
    assert outcomes["polygon has repeated vertices"] >= 10
    assert outcomes["vertex"] >= 10  # outside the allowed frame
    assert preempted >= 50


def _canonical_rings(doc):
    """The document's rings that canonicalize, in document order."""
    rings = []
    for image in doc["images"]:
        for inst in image["instances"]:
            for key in ("footprint", "roof"):
                if key in inst:
                    flat = inst[key]
                    try:
                        rings.append(_canonical_ring(zip(flat[0::2], flat[1::2])))
                    except ValueError:
                        pass
    return rings


@pytest.mark.parametrize("broadcast_min", [None, 41])
def test_loop_route_without_numpy_matches_the_kernel_route(broadcast_min, monkeypatch):
    # numpy is loaded in the test process, so unpatched _first_non_simple
    # takes the kernel route; with the predicate false it runs _check_simple
    # ring by ring, unless a ring has _BROADCAST_MIN_VERTICES or more (41:
    # never, as parity rings have at most 40)
    from offnadir import geometry

    def first_non_simple_without_numpy(rings):
        with monkeypatch.context() as m:
            m.setattr(geometry, "_numpy_loaded", lambda: False)
            if broadcast_min is not None:
                m.setattr(geometry, "_BROADCAST_MIN_VERTICES", broadcast_min)
            return geometry._first_non_simple(rings)

    rng = random.Random(5150)
    found = 0
    for _ in range(400):
        doc = _parity_document(rng)
        rings = _canonical_rings(doc)
        want = geometry._first_non_simple(rings)
        assert first_non_simple_without_numpy(rings) == want, doc
        found += want is not None
        loaded = _load_outcome(doc)
        with monkeypatch.context() as m:
            m.setattr(dataset_module, "_first_non_simple", first_non_simple_without_numpy)
            assert _load_outcome(doc) == loaded, doc
    assert found >= 100


def test_loader_checks_the_rings_of_a_file_in_one_call():
    square = [1, 1, 9, 1, 9, 9, 1, 9]
    bowtie = [1, 1, 9, 9, 9, 1, 1, 5]
    images = [{"id": f"img-{i}", "width": 32, "height": 32,
               "instances": [{"footprint": square}] * 10} for i in range(100)]
    with _counting_ring_checks() as checked:
        dataset_from_json({"images": images})
    assert checked == [1000]
    # a non-simple ring fails that one call, which names it; the file is
    # not read again
    images[1]["instances"] = [{"footprint": bowtie}]
    with _counting_ring_checks() as checked:
        with pytest.raises(DatasetError, match="^image 'img-1', instance 0: polygon is not simple"):
            dataset_from_json({"images": images})
    assert checked == [991]
    # it wins over any later error: that error stops the pass, which then
    # checks the 981 rings read so far in one call
    images[-1] = "not an object"
    with _counting_ring_checks() as checked:
        with pytest.raises(DatasetError, match="^image 'img-1', instance 0: polygon is not simple"):
            dataset_from_json({"images": images})
    assert checked == [981]
    # without a bad ring before it, the later error stands, after the same call
    images[1]["instances"] = [{"footprint": square}]
    with _counting_ring_checks() as checked:
        with pytest.raises(DatasetError, match=r"^images\[99\] must be an object$"):
            dataset_from_json({"images": images})
    assert checked == [981]


@st.composite
def _valid_documents(draw):
    """Documents the loader accepts: star-shaped rings of 3-20 vertices in
    either winding, integer coordinates often written as JSON integers, and
    any mix of roof with offset, height, score, pose and unknown keys."""
    number = st.floats(-50.0, 50.0).map(lambda v: round(v, 2))

    def json_number(v):
        return int(v) if v == int(v) and draw(st.booleans()) else v

    def flat(points):
        return [json_number(c) for xy in points for c in xy]

    images = []
    for i in range(draw(st.integers(0, 3))):
        image = {"id": f"img-{i}", "width": 200, "height": 200}
        if draw(st.booleans()):
            image["pose"] = {"tan_theta": draw(st.floats(0.0, 2.0)), "phi": draw(number),
                             "scale_s": json_number(draw(st.floats(0.5, 4.0)))}
            if draw(st.booleans()):
                image["pose"]["sensor"] = "s"
        instances = []
        for _ in range(draw(st.integers(0, 4))):
            n = draw(st.integers(3, 20))
            angles = sorted(draw(st.lists(st.integers(0, 359), min_size=n, max_size=n,
                                          unique=True)))
            radii = draw(st.lists(st.integers(5, 40), min_size=n, max_size=n))
            points = [(100 + round(r * math.cos(math.radians(a))),
                       100 + round(r * math.sin(math.radians(a)))) for a, r in zip(angles, radii)]
            if draw(st.booleans()):
                points.reverse()
            inst = {"footprint": flat(points)}
            if draw(st.booleans()):
                dx, dy = draw(number), draw(number)
                inst.update(roof=flat([(x - dx, y - dy) for x, y in points]),
                            offset=[json_number(dx), json_number(dy)])
                if draw(st.booleans()):
                    del inst["footprint"]
            if draw(st.booleans()):
                inst["height"] = json_number(abs(draw(number)))
            if draw(st.booleans()):
                inst["score"] = draw(st.floats(0.0, 1.0))
            if draw(st.booleans()):
                inst["tag"] = draw(st.text(max_size=2))
            instances.append(inst)
        image["instances"] = instances
        images.append(image)
    return {"images": images, "metadata": {"m": 1}, "license": "CC0"}


def _built(doc) -> Dataset:
    """doc as the public constructors build it."""
    def polygon(flat):
        return None if flat is None else Polygon2D(tuple(zip(flat[0::2], flat[1::2])))

    records = []
    for image in doc["images"]:
        pose, pose_extra = None, {}
        if "pose" in image:
            pose_extra = dict(image["pose"])
            pose = ImagePose(*(float(pose_extra.pop(k)) for k in ("tan_theta", "phi", "scale_s")))
        instances = []
        for inst in image["instances"]:
            extra = dict(inst)
            offset, height, score = (extra.pop(k, None) for k in ("offset", "height", "score"))
            instances.append(BuildingInstance(
                footprint=polygon(extra.pop("footprint", None)),
                roof=polygon(extra.pop("roof", None)),
                offset=None if offset is None else Vec2(float(offset[0]), float(offset[1])),
                height=None if height is None else float(height),
                score=score, extra=extra))
        records.append(SampleRecord(image["id"], image["width"], image["height"], pose,
                                    tuple(instances), pose_extra=pose_extra))
    return Dataset(records=tuple(records), metadata=doc["metadata"],
                   extra={"license": doc["license"]})


def _floats(d: Dataset) -> set:
    """The types of every number in d's instances."""
    types = set()
    for r in d.records:
        for inst in r.instances:
            for p in (inst.footprint, inst.roof):
                if p is not None:
                    types.update(type(c) for xy in p.vertices for c in xy)
            if inst.offset is not None:
                types.update((type(inst.offset.dx), type(inst.offset.dy)))
            if inst.height is not None:
                types.add(type(inst.height))
    return types


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_valid_documents())
def test_valid_document_loads_to_the_dataset_the_public_constructors_build(doc):
    # the loader canonicalizes flat lists and checks instances in one pass
    # each, and builds instances trusted; the checking constructors agree
    try:
        expected = _built(doc)
    except ValueError as e:  # rounding made a ring that is not simple or has a repeat
        with pytest.raises(DatasetError, match=f": {re.escape(str(e))}$"):
            dataset_from_json(doc)
        return
    loaded = dataset_from_json(doc)
    assert loaded == expected
    assert _floats(loaded) <= {float}


def _workload_documents():
    """Small ground truths and predictions of each benchmark workload, made
    as the benchmark makes them, with fewer and smaller images."""
    small = {"city": dict(image_w=96, image_h=96, buildings_per_image=[5, 5]),
             "tiles": {}, "stars": dict(image_w=256, image_h=256)}
    docs = {}
    for name, wl in scenes.WORKLOADS.items():
        config = dict(wl.synth, n_images=3, **small[name])
        gt = dataset_to_json(generate_scenes(SynthConfig(**config, seed=11)))
        if wl.stars:
            gt = scenes.starify(gt, 11)
        docs[f"{name} gt"], docs[f"{name} pred"] = gt, scenes.predictions(gt, 11)
    return docs


WORKLOADS = _workload_documents()
WORKLOAD_PATHS = {name: list(_paths(doc))[1:] for name, doc in WORKLOADS.items()}


def _on_both_routes(doc):
    """doc as JSON text decoded (by the C or the pure-Python decoder), then
    loaded by the loader and by the ring-by-ring reference: each a Dataset
    or a DatasetError's text."""
    doc = json.loads(json.dumps(doc))
    return _load_outcome(doc), _load_outcome(doc, ring_by_ring.load)


def _assert_same(loaded, reference):
    # repr also tells -0.0 from 0.0 and an int from a float
    assert loaded == reference
    assert repr(loaded) == repr(reference)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_batched_route_loads_every_workload_document(name):
    loaded, reference = _on_both_routes(WORKLOADS[name])
    assert isinstance(loaded, Dataset), loaded
    _assert_same(loaded, reference)


# load and re-save each file named, where importing numpy raises ImportError
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from offnadir.dataset import load_dataset, save_dataset
for path in sys.argv[1:]:
    save_dataset(load_dataset(path), path + ".cold")
"""


def test_small_ring_documents_load_and_save_the_same_bytes_without_numpy(tmp_path):
    # `city` and `tiles` rings have 4 to 6 vertices, which the loop checks
    # when numpy is not loaded: loads with the frame test, and with the
    # +-2**500 box and the checked SampleRecord (an image 2**53 px wide),
    # import no numpy and give the bytes they give with numpy loaded
    docs = [doc for name, doc in sorted(WORKLOADS.items()) if not name.startswith("stars")]
    wide = copy.deepcopy(WORKLOADS["city gt"])
    wide["images"][0]["width"] = 2**53
    paths = []
    for k, doc in enumerate(docs + [wide]):
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(dataset_module.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.getenv("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *map(str, paths)], env=env, check=True)
    assert "numpy" in sys.modules
    for path in paths:
        save_dataset(load_dataset(path), path.with_suffix(".warm"))
        assert path.with_suffix(".json.cold").read_bytes() == path.with_suffix(".warm").read_bytes()


def test_batched_route_refuses_a_ring_whose_half_area_rounds_to_zero():
    # twice its area is 2**-1074, half of that rounds to 0; the simplicity
    # check finds no violation, so only the area check refuses the ring
    tiny = 2.0**-537
    doc = {"images": [{"id": "a", "width": 8, "height": 8,
                       "instances": [{"footprint": [0, 0, tiny, 0, 0, tiny]}]}]}
    assert _first_non_simple((((0.0, 0.0), (tiny, 0.0), (0.0, tiny)),)) is None
    loaded, reference = _on_both_routes(doc)
    assert loaded == reference == "image 'a', instance 0: polygon has zero area"


@pytest.mark.parametrize("n", [3, 4, 5, 17])
def test_batched_route_refuses_every_repeated_vertex(n):
    # the loader's valid path runs no set() test: the area or the
    # simplicity check, on either of its routes, refuses every ring with a
    # repeated vertex, and _canonical names it as the reference does
    ring = [(round(100 + 50 * math.cos(2 * math.pi * k / n), 3),
             round(100 + 50 * math.sin(2 * math.pi * k / n), 3)) for k in range(n)]
    for route in SIMPLICITY_ROUTES:
        with _simplicity_route(route):
            for i, j in itertools.permutations(range(n), 2):
                pts = list(ring)
                pts[j] = pts[i]
                images = [{"id": "a", "width": 200, "height": 200,
                           "instances": [{"footprint": _flat(pts)}]}]
                loaded, reference = _on_both_routes({"images": images})
                _assert_same(loaded, reference)
                assert loaded == "image 'a', instance 0: polygon has repeated vertices"


def test_batched_route_checks_the_frame_with_its_bounds_included():
    # SampleRecord's frame is [-w, 2w] x [-h, 2h]
    doc = {"images": [{"id": "a", "width": 10, "height": 8,
                       "instances": [{"footprint": [-10, -8, 20, -8, 20, 16, -10, 16]}]}]}
    for route in SIMPLICITY_ROUTES:
        with _simplicity_route(route):
            loaded, reference = _on_both_routes(doc)
            assert isinstance(loaded, Dataset), loaded
            _assert_same(loaded, reference)
            for k, beyond in enumerate((-10.000000000000002, -8.000000000000002,
                                        20.000000000000004, 16.000000000000004)):
                bad = copy.deepcopy(doc)
                bad["images"][0]["instances"][0]["footprint"][(0, 1, 2, 5)[k]] = beyond
                _assert_same(*_on_both_routes(bad))
                assert "outside the allowed frame" in _load_outcome(bad)
    # from 2**53 on, SampleRecord compares with int bounds, which a float
    # bound rounds: -(2**53 + 3) becomes -(2**53 + 4)
    size = 2**53 + 3
    doc = {"images": [{"id": "a", "width": size, "height": size,
                       "instances": [{"footprint": [-(size + 1), 0, 0, 0, 0, 10]}]}]}
    _assert_same(*_on_both_routes(doc))
    assert "outside the allowed frame" in _load_outcome(doc)


@pytest.mark.parametrize("size", [0, -1, True, 1.5, 2**53, 10**400, None, "8"])
def test_batched_route_checks_the_size_of_an_image_without_rings(size):
    for key in ("width", "height"):
        doc = {"images": [{"id": "a", "width": 8, "height": 8, "instances": []}]}
        doc["images"][0][key] = size
        _assert_same(*_on_both_routes(doc))


def _edge_document(edge: str):
    """One instance, footprint - offset == roof, with the values of EDGES[edge]
    (null being as good as absent) at an edge of _check_instance's checks."""
    inst = {"footprint": [10, 10, 20, 10, 20, 20, 10, 20], "roof": [0, 0, 10, 0, 10, 10, 0, 10],
            "offset": [10, 10], "height": 5.0, "score": 0.5}
    inst.update(EDGES[edge])
    return {"images": [{"id": "a", "width": 64, "height": 64, "instances": [inst]}]}


EDGES = {
    "score 1.0000000000000002": {"score": 1.0000000000000002},
    "score -0.0": {"score": -0.0},
    "score 1": {"score": 1},
    "height -5e-324": {"height": -5e-324},
    "height NaN": {"height": math.nan},
    "height Infinity": {"height": math.inf},
    # a roof this far away would be beyond the frame
    "offset [1e308, -1e308]": {"offset": [1e308, -1e308], "roof": None},
    "offset [2**1024, 0]": {"offset": [2**1024, 0], "roof": None},
    "offset [1, 2, 3]": {"offset": [1, 2, 3], "roof": None},
    "offset [Infinity, 0]": {"offset": [math.inf, 0], "roof": None},
    # roof x0 - (footprint x0 - dx) is 1e-6 - 0.0, exactly the tolerance
    "roof off by 1e-6": {"roof": [1e-6, 0, 10, 0, 10, 10, 0, 10]},
    "roof off by the next float": {"roof": [math.nextafter(1e-6, 1.0), 0, 10, 0, 10, 10, 0, 10]},
    "roof wound opposite": {"roof": [0, 10, 10, 10, 10, 0, 0, 0]},
    # the footprint's four vertices less the offset, and one more or one fewer
    "roof with one vertex more": {"roof": [0, 0, 10, 0, 10, 10, 0, 10, -5, 5]},
    "roof with one vertex fewer": {"roof": [0, 0, 10, 0, 10, 10]},
    "roof and offset only": {"footprint": None},
    "roof only": {"footprint": None, "offset": None},
}
EDGES_LOADED = {"score -0.0", "score 1", "offset [1e308, -1e308]", "roof off by 1e-6",
                "roof wound opposite", "roof and offset only"}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_batched_route_agrees_at_the_instance_edges(edge):
    doc = json.loads(json.dumps(_edge_document(edge)))
    loaded, reference = _on_both_routes(doc)
    _assert_same(loaded, reference)
    assert isinstance(loaded, Dataset) == (edge in EDGES_LOADED), loaded


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batched_route_loads_as_the_ring_by_ring_route(data):
    # valid documents, workload documents with one hostile value or one
    # deleted, parity documents and instance edges: equal datasets or the
    # same error
    source = data.draw(st.sampled_from(["valid", "hostile", "parity", "edge"]))
    if source == "edge":
        doc = _edge_document(data.draw(st.sampled_from(sorted(EDGES))))
    elif source == "valid":
        doc = data.draw(_valid_documents())
    elif source == "hostile":
        name = data.draw(st.sampled_from(sorted(WORKLOADS)))
        path = data.draw(st.sampled_from(WORKLOAD_PATHS[name]))
        value = data.draw(st.sampled_from(HOSTILE + [DELETE]))
        doc = copy.deepcopy(WORKLOADS[name])
        if value is DELETE:
            del _parent(doc, path)[path[-1]]
        else:
            _set(doc, path, value)
    else:
        doc = _parity_document(random.Random(data.draw(st.integers(0, 2**32))))
    _assert_same(*_on_both_routes(doc))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_stripped_instances_equal_the_checked_constructions(synth_seed, drop_offset, drop_height,
                                                           scored, pre_stripped):
    # strip_annotations builds an instance with a footprint trusted; the
    # checking constructor gives the same
    d = generate_scenes(SynthConfig(
        image_w=64, image_h=64, n_images=2, buildings_per_image=(1, 3), seed=synth_seed))
    for r in d.records:
        for inst in r.instances:
            if pre_stripped:
                inst = BuildingInstance(footprint=inst.footprint, height=inst.height)
            if scored:
                inst = replace(inst, score=0.5, extra={"tag": "t"})
            got = strip_annotations(inst, drop_offset=drop_offset, drop_height=drop_height)
            assert got == BuildingInstance(
                footprint=inst.footprint,
                roof=None if drop_offset else inst.roof,
                offset=None if drop_offset else inst.offset,
                height=None if drop_height else inst.height,
                score=inst.score,
                extra=inst.extra,
            )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
       st.integers(0, 2**32), st.booleans())
def test_degrade_strips_the_records_its_documented_shuffle_picks(synth_seed, frac_oh, frac_h,
                                                                seed, scored):
    # the first round(frac_oh * n) records of the shuffled order keep OH, the
    # next round(frac_h * n) keep only footprints and heights, the rest only
    # footprints; each instance equals its checked construction
    doc = dataset_to_json(generate_scenes(SynthConfig(
        image_w=64, image_h=64, n_images=6, buildings_per_image=(1, 3), seed=synth_seed)))
    if scored:
        for image in doc["images"]:
            for inst in image["instances"]:
                inst.update(score=0.5, tag="t")
    d = dataset_from_json(doc)
    n = len(d.records)
    n_oh = min(n, math.floor(frac_oh * n + 0.5))
    n_h = min(n - n_oh, math.floor(frac_h * n + 0.5))
    order = synth_module._permutation(random.Random(seed).random, n)
    keep_oh, keep_h = set(order[:n_oh]), set(order[n_oh:n_oh + n_h])
    got = degrade_dataset(d, frac_oh, frac_h, seed)
    for i, (r, g) in enumerate(zip(d.records, got.records)):
        if i in keep_oh:
            assert g is r
            continue
        assert g.instances == tuple(
            BuildingInstance(footprint=inst.footprint,
                             height=inst.height if i in keep_h else None,
                             score=inst.score, extra=inst.extra)
            for inst in r.instances
        )
        assert grade_sample(g) == (SupervisionLevel.H if i in keep_h else SupervisionLevel.N)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
       st.integers(0, 2**32), st.booleans())
def test_degraded_records_equal_the_checked_constructions(synth_seed, frac_oh, frac_h, seed,
                                                          extras):
    # degrade_dataset builds each stripped record trusted; the checking
    # constructor gives the same
    d = generate_scenes(SynthConfig(
        image_w=64, image_h=64, n_images=6, buildings_per_image=(1, 3), seed=synth_seed))
    if extras:
        d = replace(d, records=tuple(replace(r, extra={"tag": "t"}, pose_extra={"sensor": "s"})
                                     for r in d.records))
    for r, g in zip(d.records, degrade_dataset(d, frac_oh, frac_h, seed).records):
        assert type(g.instances) is tuple
        assert g == SampleRecord(r.image_id, r.width, r.height, r.pose, g.instances, r.extra,
                                 r.pose_extra)


def test_offset_without_height_loads_and_grades_n(tmp_path):
    doc = {
        "images": [
            {
                "id": "a",
                "width": 32,
                "height": 32,
                "instances": [{"footprint": [1, 1, 9, 1, 9, 9, 1, 9], "offset": [2.0, 1.0]}],
            }
        ]
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    d = load_dataset(path)
    assert grade_sample(d.records[0]) == SupervisionLevel.N


# ---------------------------------------------------------------------------
# consistency checking


def test_validate_consistency_on_synth(int_scene_dataset, float_scene_dataset):
    for d in (int_scene_dataset, float_scene_dataset):
        for r in d.records:
            report = validate_consistency(r, 1e-6)
            assert report.findings == ()


def test_validate_consistency_doubled_offset():
    pose = ImagePose(0.8, 0.25, 1.5)
    h = 10.0
    from offnadir.geometry import offset_from_pose

    v = offset_from_pose(h, pose)
    doubled = Vec2(2 * v.dx, 2 * v.dy)
    rec = record_of(
        BuildingInstance(footprint=SQUARE, offset=doubled, height=h),
        pose=pose,
    )
    report = validate_consistency(rec, 1e-6)
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind == "magnitude"
    assert f.excess == pytest.approx(v.norm(), rel=1e-9)


def test_validate_consistency_rotated_offset():
    pose = ImagePose(1.0, 0.0, 1.0)
    rec = record_of(
        BuildingInstance(footprint=SQUARE, offset=Vec2(0.0, 5.0), height=5.0),
        pose=pose,
    )
    report = validate_consistency(rec, 1e-6)
    kinds = sorted(f.kind for f in report.findings)
    assert kinds == ["angle"]  # magnitude matches, direction is 90 degrees off
    assert report.findings[0].excess == pytest.approx(5.0 * math.pi / 2, rel=1e-9)


def test_validate_consistency_without_pose():
    rec = record_of(make_instance(offset=Vec2(1, 0), height=2.0))
    report = validate_consistency(rec, 1e-6)
    assert report.findings == ()
    assert any("pose absent" in n for n in report.notes)


def test_validate_consistency_skips_partial_instances():
    pose = ImagePose(0.5, 0.0, 1.0)
    rec = record_of(make_instance(height=4.0), pose=pose)
    report = validate_consistency(rec, 1e-6)
    assert report.findings == ()
    assert any("skipped" in n for n in report.notes)


def test_supervision_level_prints_its_name():
    assert [str(level) for level in SupervisionLevel] == ["N", "H", "OH"]


@pytest.mark.parametrize("pose, message", [
    ({"tan_theta": -1, "phi": 0.0, "scale_s": 1.0}, "tan_theta must be >= 0, got -1.0"),
    ({"tan_theta": 0.5, "phi": 0.0, "scale_s": 0}, "scale_s must be > 0, got 0.0"),
], ids=["negative-tan-theta", "zero-scale"])
def test_load_names_the_image_of_a_pose_that_imagepose_rejects(pose, message):
    doc = _valid_document()
    _set(doc, IMAGE + ("pose",), pose)
    with pytest.raises(DatasetError, match=f"^image 'img': {message}$"):
        dataset_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ([], "dataset root must be an object"),
    ({"images": [], "metadata": []}, '"metadata" must be an object'),
], ids=["root-array", "metadata-array"])
def test_load_rejects_a_root_or_metadata_that_is_not_an_object(tmp_path, capsys, doc, message):
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        dataset_from_json(doc)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    assert run(["grade", "--in", str(file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_instance_rejects_a_boolean_height():
    # save_dataset would write it and load_dataset reject it
    with pytest.raises(DatasetError, match=r"^height must be finite and >= 0, got True$"):
        make_instance(height=True)


def test_instance_rejects_a_boolean_score():
    with pytest.raises(DatasetError, match=r"^score must be in \[0, 1\], got True$"):
        make_instance(score=True)


@pytest.mark.parametrize("field, message", [
    ("height", r"^height must be finite and >= 0, got 1000"),
    ("score", r"^score must be in \[0, 1\], got 1000"),
])
def test_instance_rejects_an_int_too_large_for_a_float(field, message):
    # math.isfinite raises OverflowError on it; the check reports it instead
    with pytest.raises(DatasetError, match=message):
        make_instance(**{field: 10**400})


def test_record_rejects_an_image_id_that_is_not_a_string():
    with pytest.raises(DatasetError, match=r"^image id must be a string, got 5$"):
        record_of(image_id=5)

