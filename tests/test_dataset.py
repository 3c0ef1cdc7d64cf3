import json
import math

import numpy as np
import pytest

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
from offnadir.geometry import ImagePose, Polygon2D, Vec2, translate_polygon

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


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(DatasetError):
        load_dataset(path)
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "missing.json")


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
