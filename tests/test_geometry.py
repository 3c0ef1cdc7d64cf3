import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from offnadir.reconstruct import extrude_prism


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


def test_height_unobservable_when_the_pixel_scale_underflows():
    # tan_theta > 0, but scale_s * tan_theta rounds to 0
    with pytest.raises(ValueError, match="unobservable"):
        height_from_offset(Vec2(0.0, 0.0), ImagePose(5e-324, 0.0, 0.5))


# criterion 01's domain and relative tolerance; tan_theta >= 1e-290 keeps
# the offset a normal float, as a subnormal one has fewer than 53 bits
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    h=st.floats(1.0, 200.0),
    tan_theta=st.floats(1e-290, 1.5),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    scale_s=st.floats(0.3, 3.0),
)
def test_height_offset_round_trip_property(h, tan_theta, phi, scale_s):
    pose = ImagePose(tan_theta, phi, scale_s)
    back = height_from_offset(offset_from_pose(h, pose), pose)
    assert abs(back - h) <= 1e-9 * h


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


def test_translate_revalidates():
    # translation rounds: both tiny offsets vanish against 1.0
    tiny = Polygon2D(((0, 0), (1e-17, 0), (0, 1e-17)))
    with pytest.raises(ValueError, match="polygon has repeated vertices"):
        translate_polygon(tiny, Vec2(1, 0))


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


def test_polygon_area_far_from_origin():
    # absolute shoelace products near 2**62 would cancel this 2x2 triangle away
    t = 2**31
    p = Polygon2D(((t, t), (t + 2, t), (t + 2, t + 2)))
    assert polygon_area(p) == 2.0


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


def _oracle_check_simple(verts):
    """_check_simple as it was before its fold-back tests moved into one
    pass over the vertices: every pair (i, j) in row-major order."""
    n = len(verts)
    for i in range(n):
        a1, a2 = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            b1, b2 = verts[j], verts[(j + 1) % n]
            if j == i + 1:
                bad = geometry._on_segment(b2, a1, a2) or geometry._on_segment(a1, b1, b2)
            elif i == 0 and j == n - 1:
                bad = geometry._on_segment(b1, a1, a2) or geometry._on_segment(a2, b1, b2)
            else:
                bad = (max(a1[0], a2[0]) >= min(b1[0], b2[0])
                       and max(b1[0], b2[0]) >= min(a1[0], a2[0])
                       and max(a1[1], a2[1]) >= min(b1[1], b2[1])
                       and max(b1[1], b2[1]) >= min(a1[1], a2[1])
                       and geometry._segments_intersect(a1, a2, b1, b2))
            if bad:
                return i * n + j
    return None


def test_check_simple_matches_the_pairwise_oracle_and_the_kernel():
    # the first violating pair's index itself, not only its message, on
    # rings that are not canonical: repeats, folds and collinear runs
    rng = random.Random(1919)
    found = Counter()
    for _ in range(3000):
        size = rng.randint(2, 6)
        n = rng.randint(3, 9)
        verts = [(float(rng.randrange(size)), float(rng.randrange(size))) for _ in range(n)]
        if rng.random() < 0.5:
            verts = _mutate(rng, _grid_ring(rng, min(n, size * size), size), size)
            verts = [(float(x), float(y)) for x, y in verts]
        verts = tuple(verts)
        want = _oracle_check_simple(verts)
        assert geometry._check_simple(verts) == want, verts
        kernel = geometry._first_violation(np.array([verts], dtype=float))
        assert kernel == (None if want is None else (0, want)), verts
        found["simple" if want is None else geometry._simplicity_message(n, want)] += 1
    assert min(found.values()) >= 200, found


_CROSSED_HEXAGON = ((0, 0), (4, 0), (4, 3), (1, -1), (0, 3), (-1, 1))


def _subdivided_hexagon():
    # 18 vertices: two extra points on every edge, exact in binary, so the
    # ring crosses itself exactly like the hexagon
    out = []
    for k, (x1, y1) in enumerate(_CROSSED_HEXAGON):
        x2, y2 = _CROSSED_HEXAGON[(k + 1) % 6]
        out += [(x1 + (x2 - x1) * t, y1 + (y2 - y1) * t) for t in (0.0, 0.125, 0.5)]
    return out


@pytest.mark.parametrize("ring", [_CROSSED_HEXAGON, _subdivided_hexagon()])
def test_huge_coordinates_rejected_on_both_check_paths(ring, monkeypatch):
    # the kernel (threshold 3) and the loop (threshold n + 1) check each ring
    for threshold in (3, len(ring) + 1):
        # at these scales the orientation products overflow to inf/NaN, where
        # every comparison of the simplicity check is false
        for scale in (1e155, 1e160, 1e200, 1e300, 2.0**499):
            scaled = [(x * scale, y * scale) for x, y in ring]
            assert _construct(scaled, threshold, monkeypatch) == (
                "polygon vertex coordinates must lie within +-2**500"
            )
        # up to the bound the crossing is still found
        scaled = [(x * 2.0**497, y * 2.0**497) for x, y in ring]  # |coords| <= 2**499
        assert _construct(scaled, threshold, monkeypatch) == (
            "polygon is not simple (self-intersection)"
        )
    big_square = ((-(2.0**500), -(2.0**500)), (2.0**500, -(2.0**500)),
                  (2.0**500, 2.0**500), (-(2.0**500), 2.0**500))
    assert polygon_area(Polygon2D(big_square)) == 2.0**1002


_KERNEL_BOUNDS = ("_BATCH_PAIRS", "_BATCH_EDGES", "_BATCH_CANDIDATES")


def test_simplicity_kernel_matches_loop_under_tiny_bounds(monkeypatch):
    # every ring spans several row blocks and candidate passes
    for name in _KERNEL_BOUNDS:
        monkeypatch.setattr(geometry, name, 1)
    test_simplicity_broadcast_matches_loop(monkeypatch)


def _zigzag(n, h):
    """n-vertex simple ring whose edge bboxes all overlap: a zigzag between
    the rays y = h (x >= 1) and x = -h (y <= -1) of a wedge, away from its
    apex, closed through one vertex beyond the apex."""
    pts = [(1 + k // 2, h) if k % 2 == 0 else (-h, -(1 + k // 2)) for k in range(n - 1)]
    return [(-h - 1, h + 1)] + pts


def _all_bboxes_overlap(verts):
    boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
             for a, b in zip(verts, verts[1:] + verts[:1])]
    return all(p[0] <= q[1] and q[0] <= p[1] and p[2] <= q[3] and q[2] <= p[3]
               for k, p in enumerate(boxes) for q in boxes[k + 1:])


@pytest.mark.parametrize("bound", [None, 1])
def test_simplicity_kernel_matches_loop_where_bboxes_overlap(bound, monkeypatch):
    if bound is not None:
        for name in _KERNEL_BOUNDS:
            monkeypatch.setattr(geometry, name, bound)
    rng = random.Random(4404)
    cases = []
    for n in range(4, 65, 4):
        zigzag = _zigzag(n, rng.choice((1, 3, 8)))
        assert _all_bboxes_overlap(zigzag)
        # a dense star with radius ratio near 1, on a coarse grid: collinear
        # runs and near-misses between neighbors
        star = [(round(40 + r * math.cos(2 * math.pi * k / n), 1),
                 round(40 + r * math.sin(2 * math.pi * k / n), 1))
                for k, r in enumerate(rng.choice((30.0, 29.5)) for _ in range(n))]
        for pts in (zigzag, star):
            cases.append(pts)
            swapped = list(pts)
            a, b = rng.sample(range(n), 2)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            cases.append(swapped)
            cases += [_mutate(rng, pts, 10) for _ in range(3)]
    outcomes = Counter()
    for verts in cases:
        loop = _construct(verts, len(verts) + 1, monkeypatch)
        assert _construct(verts, 3, monkeypatch) == loop, verts
        outcomes["simple" if isinstance(loop, tuple) else loop] += 1
    assert outcomes["simple"] >= 20
    assert outcomes["polygon is not simple (edge fold-back)"] >= 10
    assert outcomes["polygon is not simple (self-intersection)"] >= 20


# Simple: exact arithmetic finds no crossing. In canonical order its edges 1
# and 4 have disjoint bboxes, yet rounding in their orientations says they
# cross, so a check that tested them would reject the ring.
_ROUNDING_RING = (
    (-801.142447395236, -1470.6234983089635), (91.85260023827618, 246.69655898607235),
    (136.63479508308114, 432.81726214168503), (181.4169899278861, 418.93796529729775),
    (793.0369110291488, 1595.1451130657938), (-4.052768183043611, -437.73919262158483),
)


def test_disjoint_edges_never_cross_by_rounding(monkeypatch):
    from fractions import Fraction

    from offnadir.dataset import dataset_from_json

    v = geometry._canonical_ring(_ROUNDING_RING)
    a1, a2, b1, b2 = v[1], v[2], v[4], v[5]
    assert max(a1[0], a2[0]) < min(b1[0], b2[0]) or max(b1[0], b2[0]) < min(a1[0], a2[0])
    assert geometry._segments_intersect(a1, a2, b1, b2)  # rounding says they cross
    exact = [(Fraction(x), Fraction(y)) for x, y in v]
    assert not any(
        geometry._segments_intersect(exact[i], exact[i + 1], exact[j], exact[(j + 1) % 6])
        for i in range(6) for j in range(i + 2, 6) if (i, j) != (0, 5)
    )
    assert _construct(_ROUNDING_RING, 7, monkeypatch) == v  # the loop
    assert _construct(_ROUNDING_RING, 3, monkeypatch) == v  # _first_non_simple
    flat = [c for p in _ROUNDING_RING for c in p]
    doc = {"images": [{"id": "a", "width": 2000, "height": 2000,
                       "instances": [{"footprint": flat}]}]}
    assert dataset_from_json(doc).records[0].instances[0].footprint.vertices == v


def _regular(n):
    return geometry._canonical_ring(
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n))


@pytest.mark.parametrize("sizes, numpy_loaded, route", [
    ((6,), True, "loop"),
    ((6,), False, "loop"),
    ((16,), True, "kernel"),
    ((16,), False, "kernel"),
    ((6, 6), True, "kernel"),
    ((6, 6), False, "loop"),
    ((6, 16), False, "kernel"),
])
def test_simplicity_route_table(sizes, numpy_loaded, route, monkeypatch):
    # _first_non_simple alone picks the route, for batches and for Polygon2D
    # (one ring); a new route or threshold has to change this table on purpose
    kernel = []
    original = geometry._first_violation
    monkeypatch.setattr(geometry, "_first_violation", lambda p: kernel.append(p) or original(p))
    monkeypatch.setattr(geometry, "_numpy_loaded", lambda: numpy_loaded)
    rings = tuple(_regular(n) for n in sizes)
    assert geometry._first_non_simple(rings) is None
    if len(rings) == 1:
        assert Polygon2D(rings[0]).vertices == rings[0]
    assert ("kernel" if kernel else "loop") == route


def _huge_rings():
    """A 20 000-vertex circle, and the circle with two vertices swapped."""
    n = 20_000
    circle = [(1000.0 + 900.0 * math.cos(2 * math.pi * k / n),
               1000.0 + 900.0 * math.sin(2 * math.pi * k / n)) for k in range(n)]
    crossed = list(circle)
    crossed[100], crossed[10_100] = crossed[10_100], crossed[100]
    return circle, crossed


def _ring_document(verts):
    return {"images": [{"id": "a", "width": 2000, "height": 2000,
                        "instances": [{"footprint": [c for p in verts for c in p]}]}]}


HUGE_RING_MESSAGE = "polygon is not simple (self-intersection)"


def test_huge_ring_checked_in_bounded_memory():
    import tracemalloc

    import ring_by_ring

    from offnadir.dataset import DatasetError, dataset_from_json

    circle, crossed = _huge_rings()
    # the loader, and the ring-by-ring reference
    for name, load in (("loader", dataset_from_json), ("reference", ring_by_ring.load)):
        for verts, simple in ((circle, True), (crossed, False)):
            doc = _ring_document(verts)
            tracemalloc.start()
            try:
                if simple:
                    assert len(Polygon2D(tuple(verts))) == len(verts)
                    assert load(doc).records[0].instances[0].footprint.vertices == (
                        Polygon2D(tuple(verts)).vertices)
                else:
                    with pytest.raises(ValueError, match=re.escape(HUGE_RING_MESSAGE)):
                        Polygon2D(tuple(verts))
                    with pytest.raises(DatasetError,
                                       match=re.escape(f"instance 0: {HUGE_RING_MESSAGE}")):
                        load(doc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (name, simple)


def test_huge_crossed_ring_refused_after_one_ring_check(monkeypatch):
    # the document is read once: one simplicity check finds the crossing,
    # and none runs again to name it
    from offnadir import dataset
    from offnadir.dataset import DatasetError, dataset_from_json

    checked = []
    first_non_simple = geometry._first_non_simple
    monkeypatch.setattr(dataset, "_first_non_simple",
                        lambda rings: checked.append(len(rings)) or first_non_simple(rings))
    with pytest.raises(DatasetError, match=re.escape(f"image 'a', instance 0: {HUGE_RING_MESSAGE}")):
        dataset_from_json(_ring_document(_huge_rings()[1]))
    assert checked == [1]


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_rejected_by_name(value):
    for name in ("tan_theta", "phi", "scale_s"):
        kw = {**dict(tan_theta=0.5, phi=0.0, scale_s=1.0), name: value}
        with pytest.raises(ValueError, match=rf"^ImagePose\.{name} must be finite$"):
            ImagePose(**kw)
    for name in ("x_min", "y_min", "x_max", "y_max"):
        kw = {**dict(x_min=0.0, y_min=0.0, x_max=1.0, y_max=1.0), name: value}
        with pytest.raises(ValueError, match=rf"^BBox\.{name} must be finite$"):
            BBox(**kw)
    with pytest.raises(ValueError, match=r"^polygon vertices must be finite$"):
        Polygon2D(((0.0, 0.0), (value, 0.0), (1.0, 1.0)))


HUGE = 10**400  # an int too large for a float: math.isfinite raises on it


@pytest.mark.parametrize("build, message", [
    (lambda: Vec2(HUGE, 0), r"^Vec2 components must be finite numbers, got "),
    (lambda: ImagePose(HUGE, 0.0, 1.0), r"^ImagePose\.tan_theta must be finite$"),
    (lambda: BBox(0, 0, HUGE, 1), r"^BBox\.x_max must be finite$"),
    (lambda: BBox(-HUGE, 0, 1, 1), r"^BBox\.x_min must be finite$"),
    (lambda: Polygon2D(((0, 0), (HUGE, 0), (1, 1))),
     r"^polygon vertex coordinates must lie within \+-2\*\*500$"),
    (lambda: offset_from_pose(HUGE, ImagePose(0.5, 0.0, 1.0)),
     r"^height must be finite and >= 0, got 10{400}$"),
    (lambda: estimate_pose([(HUGE, Vec2(1.0, 0.0))], 1.0),
     r"^instance heights must be > 0, got 10{400}$"),
    (lambda: estimate_pose([(1.0, Vec2(1.0, 0.0))], HUGE), r"^scale_s must be > 0, got 10{400}$"),
], ids=["vec2", "image-pose", "bbox-max", "bbox-min", "polygon", "offset-from-pose-height",
        "estimate-pose-height", "estimate-pose-scale"])
def test_an_int_too_large_for_a_float_is_a_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


TRIANGLE = Polygon2D(((0, 0), (1, 0), (1, 1)))


@pytest.mark.parametrize("build, message", [
    (lambda: extrude_prism(TRIANGLE, None, 1.0), r"^height must be > 0, got None$"),
    (lambda: offset_from_pose(None, ImagePose(0.5, 0.0, 1.0)),
     r"^height must be finite and >= 0, got None$"),
    (lambda: Vec2("3", 4), r"^Vec2 components must be finite numbers, got \('3', 4\)$"),
    (lambda: BBox(0, 0, "1", 1), r"^BBox\.x_max must be finite$"),
    (lambda: ImagePose("1", 0, 1), r"^ImagePose\.tan_theta must be finite$"),
], ids=["extrude-prism-height", "offset-from-pose-height", "vec2", "bbox", "image-pose"])
def test_a_value_that_is_not_a_real_number_is_a_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_segments_touch_where_one_endpoint_lies_on_the_other_segment():
    a, b = (0.0, 0.0), (2.0, 0.0)
    # q1 lies on a b; then p2 lies on a b
    assert geometry._segments_intersect(a, b, (1.0, 0.0), (1.0, 1.0))
    assert geometry._segments_intersect((0.0, 1.0), (1.0, 0.0), a, b)
    # on the line through a b, but past b
    assert not geometry._segments_intersect(a, b, (3.0, 0.0), (3.0, 1.0))
    assert not geometry._segments_intersect((0.0, 1.0), (3.0, 0.0), a, b)


@pytest.mark.parametrize("dx, dy", [(True, 0.0), (0.0, False)])
def test_vec2_rejects_booleans(dx, dy):
    # the loader rejects a boolean offset, so the library must not build one
    with pytest.raises(ValueError, match=r"^Vec2 components must be finite numbers, got "):
        Vec2(dx, dy)


@pytest.mark.parametrize("name", ["tan_theta", "phi", "scale_s"])
def test_image_pose_rejects_booleans(name):
    kw = {**dict(tan_theta=0.5, phi=0.0, scale_s=1.0), name: True}
    with pytest.raises(ValueError, match=rf"^ImagePose\.{name} must be a number, got True$"):
        ImagePose(**kw)
