import math
import random
from collections import Counter

import numpy as np
import pytest

from offnadir import geometry
from offnadir.geometry import (
    BBox,
    ImagePose,
    Polygon2D,
    Vec2,
    bbox_intersection,
    bbox_of,
    bbox_union,
    estimate_pose,
    height_from_offset,
    normalize_angle,
    offset_from_pose,
    polygon_area,
    translate_polygon,
)


def test_offset_zero_tangent_forces_zero_offset():
    v = offset_from_pose(10.0, ImagePose(0.0, 1.0, 1.0))
    assert v == Vec2(0.0, 0.0)


def test_offset_hand_values():
    # 20 m * 2 px/m * tan = 1 along +x
    assert offset_from_pose(20.0, ImagePose(1.0, 0.0, 2.0)) == Vec2(40.0, 0.0)
    v = offset_from_pose(20.0, ImagePose(1.0, math.pi / 2, 2.0))
    assert v.dx == pytest.approx(0.0, abs=1e-12)
    assert v.dy == pytest.approx(40.0, rel=1e-15)


def test_offset_rejects_bad_height():
    pose = ImagePose(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        offset_from_pose(-1.0, pose)
    with pytest.raises(ValueError):
        offset_from_pose(float("nan"), pose)


def test_height_hand_values():
    assert height_from_offset(Vec2(40.0, 0.0), ImagePose(1.0, 0.0, 2.0)) == pytest.approx(20.0)
    assert height_from_offset(Vec2(0.0, 0.0), ImagePose(0.5, 0.0, 1.0)) == 0.0
    # 3-4-5 norm
    assert height_from_offset(Vec2(3.0, 4.0), ImagePose(1.0, 0.0, 1.0)) == pytest.approx(5.0)


def test_height_unobservable_at_nadir():
    with pytest.raises(ValueError):
        height_from_offset(Vec2(1.0, 1.0), ImagePose(0.0, 0.0, 1.0))


def test_roundtrip_height_offset():
    rng = np.random.default_rng(7)
    for _ in range(300):
        h = rng.uniform(0.0, 200.0)
        pose = ImagePose(
            1.5 - rng.uniform(0.0, 1.5),  # (0, 1.5]
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.3, 3.0),
        )
        back = height_from_offset(offset_from_pose(h, pose), pose)
        assert back == pytest.approx(h, rel=1e-9, abs=1e-12)


def test_offset_magnitude_matches_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(300):
        h = rng.uniform(0.0, 200.0)
        pose = ImagePose(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 3))
        v = offset_from_pose(h, pose)
        assert v.norm() == pytest.approx(h * pose.scale_s * pose.tan_theta, rel=1e-12, abs=1e-12)


def test_offset_linear_in_height():
    rng = np.random.default_rng(9)
    for _ in range(100):
        h = rng.uniform(0.0, 100.0)
        pose = ImagePose(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 3))
        v1 = offset_from_pose(h, pose)
        v2 = offset_from_pose(2.0 * h, pose)
        assert v2.dx == 2.0 * v1.dx and v2.dy == 2.0 * v1.dy


def test_estimate_pose_exact_single_instance():
    pose = ImagePose(0.7, 1.3, 2.0)
    v = offset_from_pose(12.0, pose)
    fit = estimate_pose([(12.0, v)], 2.0)
    assert not fit.degenerate
    assert fit.tan_theta == pytest.approx(0.7, abs=1e-12)
    assert fit.phi == pytest.approx(1.3, abs=1e-12)
    assert fit.residual < 1e-12


def test_estimate_pose_two_instances_roundtrip():
    pose = ImagePose(0.8, 2.1, 1.5)
    pairs = [(h, offset_from_pose(h, pose)) for h in (10.0, 30.0)]
    fit = estimate_pose(pairs, 1.5)
    assert fit.tan_theta == pytest.approx(0.8, abs=1e-9)
    assert fit.phi == pytest.approx(2.1, abs=1e-9)
    assert fit.residual < 1e-9


def test_estimate_pose_zero_offsets_degenerate():
    fit = estimate_pose([(5.0, Vec2(0.0, 0.0)), (9.0, Vec2(0.0, 0.0))], 1.0)
    assert fit.degenerate
    assert fit.tan_theta == 0.0
    assert fit.phi == 0.0


def test_estimate_pose_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_pose([], 1.0)
    with pytest.raises(ValueError):
        estimate_pose([(0.0, Vec2(1.0, 0.0))], 1.0)
    with pytest.raises(ValueError):
        estimate_pose([(1.0, Vec2(1.0, 0.0))], 0.0)


def test_estimate_pose_least_squares_on_noisy_offsets():
    # closed form must beat any nearby direction on the squared misfit
    rng = np.random.default_rng(11)
    pose = ImagePose(0.6, 0.9, 1.0)
    pairs = []
    for _ in range(12):
        h = rng.uniform(5, 40)
        v = offset_from_pose(h, pose)
        pairs.append((h, Vec2(v.dx + rng.normal(0, 0.5), v.dy + rng.normal(0, 0.5))))

    def sq_misfit(ux, uy):
        return sum((v.dx - h * ux) ** 2 + (v.dy - h * uy) ** 2 for h, v in pairs)

    fit = estimate_pose(pairs, 1.0)
    ux = fit.tan_theta * math.cos(fit.phi)
    uy = fit.tan_theta * math.sin(fit.phi)
    base = sq_misfit(ux, uy)
    for d in (1e-4, -1e-4):
        assert base <= sq_misfit(ux + d, uy) + 1e-12
        assert base <= sq_misfit(ux, uy + d) + 1e-12
    assert fit.residual == pytest.approx(math.sqrt(base / len(pairs)), rel=1e-12)


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(2.0 * math.pi) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(1.5 * math.pi)
    assert normalize_angle(5.0 * math.pi) == pytest.approx(math.pi)
    assert 0.0 <= normalize_angle(-1e-17) < 2.0 * math.pi


def test_image_pose_validation():
    with pytest.raises(ValueError):
        ImagePose(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        ImagePose(1.0, 0.0, 0.0)
    assert ImagePose(1.0, -math.pi / 2, 1.0).phi == pytest.approx(1.5 * math.pi)


def test_vec2_requires_finite():
    with pytest.raises(ValueError):
        Vec2(float("inf"), 0.0)


# ---------------------------------------------------------------------------
# polygons


def test_translate_identity_and_shift():
    square = Polygon2D(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)))
    assert translate_polygon(square, Vec2(0.0, 0.0)) == square
    shifted = translate_polygon(square, Vec2(1.0, -1.0))
    assert shifted == Polygon2D(((1.0, -1.0), (3.0, -1.0), (3.0, 1.0), (1.0, 1.0)))


def test_translate_inverse_bit_exact_for_integer_vectors():
    rng = np.random.default_rng(12)
    for _ in range(50):
        pts = [(int(x), int(y)) for x, y in zip(rng.integers(0, 50, 3), rng.integers(0, 50, 3))]
        try:
            p = Polygon2D(tuple(pts))
        except ValueError:
            continue
        v = Vec2(float(rng.integers(-30, 30)), float(rng.integers(-30, 30)))
        assert translate_polygon(translate_polygon(p, v), -v) == p


def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon2D(((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        Polygon2D(((0, 0), (1, 0), (2, 0)))  # zero area
    with pytest.raises(ValueError):
        Polygon2D(((0, 0), (1, 0), (1, 0), (0, 1)))  # repeated vertex
    with pytest.raises(ValueError):
        Polygon2D(((0, 0), (2, 2), (2, 0), (0, 2)))  # bowtie
    with pytest.raises(ValueError):
        Polygon2D(((0, 0), (4, 0), (2, 0.0), (2, 2)))  # vertex on edge


def test_polygon_winding_canonicalized():
    ccw = Polygon2D(((0, 0), (2, 0), (2, 2), (0, 2)))
    cw = Polygon2D(((0, 0), (0, 2), (2, 2), (2, 0)))

    def ring_edges(p):
        v = p.vertices
        return {(v[i], v[(i + 1) % len(v)]) for i in range(len(v))}

    # both canonicalize to the same directed edge cycle
    assert ring_edges(ccw) == ring_edges(cw)
    assert polygon_area(ccw) == 4.0


def test_polygon_area_l_shape():
    # 4x4 square minus 2x2 notch
    p = Polygon2D(((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)))
    assert polygon_area(p) == 12.0


def _star(rng, n, grid):
    """n-vertex star with alternating radii, vertices snapped to 1/grid px."""
    pts = []
    for k in range(n):
        a = 2.0 * math.pi * (k + rng.uniform(-0.2, 0.2)) / n
        r = rng.uniform(40.0, 50.0) if k % 2 == 0 else rng.uniform(20.0, 30.0)
        pts.append((round((60.0 + r * math.cos(a)) * grid) / grid,
                    round((60.0 + r * math.sin(a)) * grid) / grid))
    return pts


def _grid_ring(rng, n, size):
    """n distinct integer points, angle-sorted around the grid center half
    the time (mostly simple, with collinear runs) and shuffled otherwise."""
    pts = rng.sample([(x, y) for x in range(size) for y in range(size)], n)
    if rng.random() < 0.5:
        c = (size - 1) / 2.0
        pts.sort(key=lambda p: math.atan2(p[1] - c, p[0] - c))
    return pts


def _mutate(rng, pts, size):
    """Copy of pts with a fold-back, a moved vertex, or nothing changed."""
    pts = list(pts)
    roll = rng.random()
    k = rng.randrange(len(pts))
    if roll < 0.3:
        # the midpoint of edge k, visited just after the edge (a fold back
        # from its end) or just before it (a fold onto its start)
        b = (k + 1) % len(pts)
        (ax, ay), (bx, by) = pts[k], pts[b]
        pts = [(2 * x, 2 * y) for x, y in pts]
        pts.insert(b + 1 if roll < 0.15 else k or len(pts), (ax + bx, ay + by))
    elif roll < 0.6:
        pts[k] = (rng.randrange(size), rng.randrange(size))
    return pts


def _construct(verts, broadcast_min, monkeypatch):
    monkeypatch.setattr(geometry, "_BROADCAST_MIN_VERTICES", broadcast_min)
    try:
        return Polygon2D(tuple(verts)).vertices
    except ValueError as e:
        return str(e)


def test_simplicity_broadcast_matches_loop(monkeypatch):
    rng = random.Random(20240404)
    threshold = geometry._BROADCAST_MIN_VERTICES
    cases = [_star(rng, 64, 64.0) for _ in range(3)]
    crossed = list(cases[0])
    crossed[10], crossed[40] = crossed[40], crossed[10]
    cases.append(crossed)
    for _ in range(1500):
        size = rng.randint(3, 9)
        n = rng.randint(3, min(size * size, 2 * threshold + 8))
        cases.append(_mutate(rng, _grid_ring(rng, n, size), size))
    for _ in range(100):
        n = rng.randint(3, 2 * threshold)
        pts = _star(rng, n, rng.choice((1.0, 64.0, 2.0**40)))
        cases.append(_mutate(rng, pts, 120))
    outcomes = Counter()
    for verts in cases:
        loop = _construct(verts, len(verts) + 1, monkeypatch)
        broadcast = _construct(verts, 3, monkeypatch)
        assert broadcast == loop, verts
        if len(verts) >= threshold:
            outcomes["simple" if isinstance(loop, tuple) else loop] += 1
    # every outcome of the simplicity check occurs above the threshold
    assert outcomes["simple"] >= 20
    assert outcomes["polygon is not simple (edge fold-back)"] >= 20
    assert outcomes["polygon is not simple (self-intersection)"] >= 20


# ---------------------------------------------------------------------------
# boxes


def test_bbox_of_triangle():
    tri = Polygon2D(((0, 0), (4, 0), (0, 3)))
    assert bbox_of(tri) == BBox(0.0, 0.0, 4.0, 3.0)


def test_bbox_union_cases():
    a = BBox(0, 0, 1, 1)
    b = BBox(2, 2, 3, 3)
    assert bbox_union(a, b) == BBox(0, 0, 3, 3)
    assert bbox_union(b, b) == b


def test_bbox_union_properties():
    rng = np.random.default_rng(13)

    def rand_box():
        x = sorted(rng.uniform(-10, 10, 2))
        y = sorted(rng.uniform(-10, 10, 2))
        return BBox(x[0], y[0], x[1], y[1])

    for _ in range(100):
        a, b, c = rand_box(), rand_box(), rand_box()
        assert bbox_union(a, b) == bbox_union(b, a)
        assert bbox_union(bbox_union(a, b), c) == bbox_union(a, bbox_union(b, c))
        assert bbox_union(a, a) == a
        u = bbox_union(a, b)
        assert u.contains(a) and u.contains(b)


def test_bbox_intersection():
    assert bbox_intersection(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == BBox(1, 1, 2, 2)
    assert bbox_intersection(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) is None


def test_bbox_validation():
    with pytest.raises(ValueError):
        BBox(1, 0, 0, 1)
