import math

import numpy as np
import pytest

from offnadir.geometry import (
    BBox,
    Polygon2D,
    Vec2,
    bbox_intersection,
    bbox_of,
    bbox_union,
    translate_polygon,
)
from offnadir.pseudobox import pseudo_bbox_level_h, pseudo_bbox_level_n, pseudo_offset

SQUARE = Polygon2D(((10, 10), (20, 10), (20, 20), (10, 20)))


def test_pseudo_offset_cases():
    assert pseudo_offset(0.0, 2.0, 1.0, 0.5) == Vec2(0.0, 0.0)
    assert pseudo_offset(20.0, 2.0, 1.0, 0.0) == Vec2(40.0, 0.0)


def test_pseudo_offset_matches_generator(float_scene_dataset):
    # same formula, same inputs: must reproduce the stored offsets bit-exactly
    for r in float_scene_dataset.records:
        pose = r.pose
        for inst in r.instances:
            v = pseudo_offset(inst.height, pose.scale_s, pose.tan_theta, pose.phi)
            assert (v.dx, v.dy) == (inst.offset.dx, inst.offset.dy)


def test_level_h_zero_offset_is_clipped_footprint_bbox():
    assert pseudo_bbox_level_h(SQUARE, Vec2(0.0, 0.0), 100, 100) == bbox_of(SQUARE)


def test_level_h_hand_example():
    # roof estimate at (15,10)-(25,20); union with footprint by hand
    box = pseudo_bbox_level_h(SQUARE, Vec2(-5.0, 0.0), 100, 100)
    assert box == BBox(10.0, 10.0, 25.0, 20.0)


def test_level_h_exact_on_synth(int_scene_dataset, float_scene_dataset):
    for d in (int_scene_dataset, float_scene_dataset):
        for r in d.records:
            for inst in r.instances:
                want = bbox_union(bbox_of(inst.roof), bbox_of(inst.footprint))
                got = pseudo_bbox_level_h(inst.footprint, inst.offset, r.width, r.height)
                assert got == want


def test_level_h_equals_bbox_of_back_translated_polygon():
    # shifting the footprint bbox gives the translated polygon's bbox bit
    # for bit, since float rounding is monotonic
    rng = np.random.default_rng(7)
    for _ in range(300):
        cx, cy = rng.uniform(-50, 300, 2)
        pts = [(cx + r * math.cos(a), cy + r * math.sin(a))
               for a, r in zip(np.sort(rng.uniform(0, 2 * math.pi, 5)), rng.uniform(5, 40, 5))]
        try:
            fp = Polygon2D(tuple(pts))
        except ValueError:
            continue
        v = Vec2(*rng.uniform(-60, 60, 2))
        box = bbox_union(bbox_of(fp), bbox_of(translate_polygon(fp, -v)))
        want = bbox_intersection(box, BBox(0.0, 0.0, 256.0, 256.0))
        if want is None:
            with pytest.raises(ValueError):
                pseudo_bbox_level_h(fp, v, 256, 256)
        else:
            assert pseudo_bbox_level_h(fp, v, 256, 256) == want


def test_level_h_contains_clipped_footprint_bbox():
    rng = np.random.default_rng(21)
    for _ in range(50):
        v = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
        box = pseudo_bbox_level_h(SQUARE, v, 40, 40)
        fp = bbox_of(SQUARE)
        clipped = BBox(
            max(fp.x_min, 0), max(fp.y_min, 0), min(fp.x_max, 40), min(fp.y_max, 40)
        )
        assert box.contains(clipped)


def test_level_h_area_nondecreasing_in_offset_norm():
    direction = (math.cos(0.7), math.sin(0.7))
    prev = -1.0
    for scale in np.linspace(0.0, 25.0, 11):
        v = Vec2(direction[0] * scale, direction[1] * scale)
        box = pseudo_bbox_level_h(SQUARE, v, 1000, 1000)  # image large: no clipping
        assert box.area >= prev
        prev = box.area


def test_level_h_fully_outside_errors():
    with pytest.raises(ValueError, match="empty"):
        pseudo_bbox_level_h(SQUARE, Vec2(0.0, 0.0), 5, 5)


def test_level_n_identity_at_zero_ratio():
    assert pseudo_bbox_level_n(SQUARE, 0.0, 100, 100) == bbox_of(SQUARE)


def test_level_n_hand_examples():
    assert pseudo_bbox_level_n(SQUARE, 0.1, 100, 100) == BBox(9.0, 9.0, 21.0, 21.0)
    big = Polygon2D(((0, 0), (20, 0), (20, 20), (0, 20)))
    assert pseudo_bbox_level_n(big, 0.5, 25, 25) == BBox(0.0, 0.0, 25.0, 25.0)


def test_level_n_monotone_in_ratio():
    prev = None
    for ratio in (0.0, 0.05, 0.1, 0.25, 0.5, 1.0):
        box = pseudo_bbox_level_n(SQUARE, ratio, 100, 100)
        if prev is not None:
            assert box.contains(prev)
        prev = box


def test_level_n_rejects_negative_ratio():
    with pytest.raises(ValueError):
        pseudo_bbox_level_n(SQUARE, -0.1, 100, 100)
