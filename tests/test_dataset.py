import copy
import json
import math
import os
import random
import re
import sys
from collections import Counter
from dataclasses import replace

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
from offnadir.geometry import ImagePose, Polygon2D, Vec2, _canonical_ring, translate_polygon
from offnadir.synth import SynthConfig, degrade_dataset, generate_scenes

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
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


def _load_outcome(doc):
    try:
        return dataset_from_json(doc)
    except DatasetError as e:
        return str(e)


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
        got = _load_outcome(doc)
        rings = []
        with monkeypatch.context() as m:
            m.setattr(dataset, "_canonical_flat", reference)
            want = _load_outcome(doc)
        assert rings, "the loader no longer canonicalizes through _canonical_flat"
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


def test_loader_checks_pending_rings_a_kernel_chunk_at_a_time(monkeypatch):
    from offnadir import dataset, geometry

    checked = []

    def first_non_simple(rings):
        checked.append(sum(map(len, rings)))
        return geometry._first_non_simple(rings)

    monkeypatch.setattr(dataset, "_first_non_simple", first_non_simple)
    square = [1, 1, 9, 1, 9, 9, 1, 9]
    bowtie = [1, 1, 9, 9, 9, 1, 1, 5]
    images = [{"id": f"img-{i}", "width": 32, "height": 32,
               "instances": [{"footprint": square}] * 10} for i in range(100)]
    dataset_from_json({"images": images})
    # 1000 squares of 4 edges: one check per 2**11 edges, then the rest
    assert checked == [geometry._BATCH_EDGES, 4000 - geometry._BATCH_EDGES]
    # a non-simple ring raises once its chunk fills, before later records
    # are parsed, and before any error in them; no ring is checked twice
    checked.clear()
    images[0]["instances"] = [{"footprint": bowtie}]
    images[-1] = "not an object"
    with pytest.raises(DatasetError, match="image 'img-0', instance 0: polygon is not simple"):
        dataset_from_json({"images": images})
    assert checked[0] == sum(checked) == geometry._BATCH_EDGES


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

