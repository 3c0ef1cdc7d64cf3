import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offnadir.dataset import BuildingInstance, Dataset, SampleRecord, dataset_from_json
from offnadir.geometry import ImagePose, Polygon2D
from offnadir.reconstruct import (
    Mesh3D,
    export_obj,
    extrude_prism,
    mesh_is_watertight,
    mesh_volume,
    parse_obj,
    reconstruct_dataset,
    simplify_chain,
    simplify_dp,
)

# ---------------------------------------------------------------------------
# independent oracles


def shoelace(verts):
    s = 0.0
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def tetra_volume(mesh):
    total = 0.0
    for i, j, k in mesh.triangles:
        a, b, c = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
        total += (
            a[0] * (b[1] * c[2] - c[1] * b[2])
            - a[1] * (b[0] * c[2] - c[0] * b[2])
            + a[2] * (b[0] * c[1] - c[0] * b[1])
        )
    return total / 6.0


def edge_manifold(mesh):
    counts = Counter()
    for tri in mesh.triangles:
        for t in range(3):
            a, b = tri[t], tri[(t + 1) % 3]
            counts[(min(a, b), max(a, b))] += 1
    return len(counts) > 0 and set(counts.values()) == {2}


def seg_dist(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / den))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def minimal_chain_size(points, eps):
    """Smallest valid simplification by exhaustive subset search."""
    n = len(points)
    interior = list(range(1, n - 1))
    for size in range(0, len(interior) + 1):
        for keep_interior in itertools.combinations(interior, size):
            keep = [0, *keep_interior, n - 1]
            ok = True
            for a, b in zip(keep, keep[1:]):
                chord = (points[a], points[b])
                if any(seg_dist(points[m], *chord) > eps for m in range(a + 1, b)):
                    ok = False
                    break
            if ok:
                return size + 2
    return n


def star_polygon(rng, n, r_lo=2.0, r_hi=8.0, cx=0.0, cy=0.0):
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 1e-3:
        return None
    radii = rng.uniform(r_lo, r_hi, n)
    try:
        return Polygon2D(
            tuple((cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii))
        )
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Douglas-Peucker


def test_chain_zigzag_collapses_to_endpoints():
    pts = [(0.0, 0.0)]
    pts += [(float(i), 0.4 if i % 2 else -0.4) for i in range(1, 9)]
    pts += [(9.0, 0.0)]
    assert len(pts) == 10
    out = simplify_chain(pts, 0.5)
    assert out == [(0.0, 0.0), (9.0, 0.0)]
    assert minimal_chain_size(pts, 0.5) == 2


def test_chain_matches_minimal_oracle_on_small_chains():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        pts = [(float(i), float(rng.uniform(-1, 1))) for i in range(n)]
        eps = float(rng.uniform(0.1, 1.2))
        out = simplify_chain(pts, eps)
        # the DP chain must be valid: every dropped point within eps of the
        # segment joining its enclosing kept points
        kept_idx = [pts.index(p) for p in out]
        for a, b in zip(kept_idx, kept_idx[1:]):
            for m in range(a + 1, b):
                assert seg_dist(pts[m], pts[a], pts[b]) <= eps + 1e-12
        assert out[0] == pts[0] and out[-1] == pts[-1]


def test_simplify_square_with_collinear_midpoint():
    p = Polygon2D(((0, 0), (2, 0), (4, 0), (4, 4), (0, 4)))
    out = simplify_dp(p, 0.0)
    assert len(out) == 4
    assert shoelace(out.vertices) == shoelace(p.vertices)  # exact, epsilon 0
    assert set(out.vertices) == {(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)}


def test_simplify_plain_square_unchanged():
    p = Polygon2D(((0, 0), (4, 0), (4, 4), (0, 4)))
    for eps in (0.0, 0.5, 1.9):
        assert set(simplify_dp(p, eps).vertices) == set(p.vertices)


def test_simplify_collapse_raises():
    sliver = Polygon2D(((0, 0), (5, 0.3), (10, 0), (5, -0.3)))
    with pytest.raises(ValueError, match="collapse"):
        simplify_dp(sliver, 1.0)
    with pytest.raises(ValueError):
        simplify_dp(sliver, -0.1)


def test_simplify_idempotent_on_random_polygons():
    rng = np.random.default_rng(52)
    done = 0
    while done < 60:
        p = star_polygon(rng, int(rng.integers(5, 20)))
        if p is None:
            continue
        eps = float(rng.uniform(0.0, 1.0))
        try:
            once = simplify_dp(p, eps)
        except ValueError:
            continue
        twice = simplify_dp(once, eps)
        assert twice == once
        done += 1


def test_simplify_hausdorff_within_epsilon():
    rng = np.random.default_rng(53)
    done = 0
    while done < 25:
        p = star_polygon(rng, int(rng.integers(6, 16)))
        if p is None:
            continue
        eps = float(rng.uniform(0.2, 1.5))
        try:
            out = simplify_dp(p, eps)
        except ValueError:
            continue
        ring = list(out.vertices)
        segs = [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        verts = list(p.vertices)
        # dense samples along the input ring must stay within eps of the output
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            for t in np.linspace(0.0, 1.0, 12):
                q = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                assert min(seg_dist(q, *s) for s in segs) <= eps + 1e-9
        done += 1


@st.composite
def star_rings(draw):
    n = draw(st.integers(3, 24))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                                  min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    cx, cy = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    try:
        return Polygon2D(
            tuple((cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii))
        )
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(star_rings(), st.floats(0.0, 4.0))
def test_simplify_dropped_vertices_within_epsilon_property(p, eps):
    try:
        out = simplify_dp(p, eps)
    except ValueError:
        return
    ring = out.vertices
    segs = [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    # a few ulps of the largest coordinate absorb the rounding of both distances
    slack = 8 * math.ulp(max(abs(c) for xy in p.vertices for c in xy))
    for q in set(p.vertices) - set(ring):
        assert min(seg_dist(q, *s) for s in segs) <= eps + slack


# ---------------------------------------------------------------------------
# prisms


def test_unit_cube_prism():
    p = Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
    mesh = extrude_prism(p, 1.0, 1.0)
    assert len(mesh.vertices) == 8
    assert len(mesh.triangles) == 12
    assert tetra_volume(mesh) == pytest.approx(1.0, rel=1e-12)
    assert edge_manifold(mesh)
    assert mesh_is_watertight(mesh)
    assert {v[2] for v in mesh.vertices} == {0.0, 1.0}


def test_rectangle_prism_volume():
    p = Polygon2D(((0, 0), (2, 0), (2, 3), (0, 3)))
    mesh = extrude_prism(p, 5.0, 1.0)
    assert tetra_volume(mesh) == pytest.approx(30.0, rel=1e-12)


def test_l_shape_prism_volume_matches_shoelace():
    p = Polygon2D(((0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)))
    area = shoelace(p.vertices)
    for h in (0.5, 2.0, 11.0):
        mesh = extrude_prism(p, h, 1.0)
        assert tetra_volume(mesh) == pytest.approx(area * h, rel=1e-9)
        assert edge_manifold(mesh)


def test_prism_scale_converts_pixels_to_meters():
    p = Polygon2D(((0, 0), (4, 0), (4, 4), (0, 4)))
    mesh = extrude_prism(p, 2.0, scale_s=2.0)  # 4 px = 2 m per side
    assert tetra_volume(mesh) == pytest.approx(2.0 * 2.0 * 2.0, rel=1e-12)


def test_prism_counts_for_ngon():
    rng = np.random.default_rng(54)
    done = 0
    while done < 10:
        p = star_polygon(rng, int(rng.integers(3, 12)))
        if p is None:
            continue
        n = len(p.vertices)
        mesh = extrude_prism(p, 3.0, 1.0)
        assert len(mesh.vertices) == 2 * n
        assert len(mesh.triangles) == 2 * (n - 2) + 2 * n
        assert tetra_volume(mesh) == pytest.approx(shoelace(p.vertices) * 3.0, rel=1e-9)
        assert edge_manifold(mesh)
        done += 1


def test_prism_with_collinear_vertex_still_watertight():
    p = Polygon2D(((0, 0), (2, 0), (4, 0), (4, 4), (0, 4)))
    mesh = extrude_prism(p, 1.0, 1.0)
    assert edge_manifold(mesh)
    assert tetra_volume(mesh) == pytest.approx(16.0, rel=1e-12)


def test_ear_clip_stalls_on_a_negatively_wound_ring():
    from offnadir.reconstruct import _ear_clip

    # _ear_clip expects positive winding; reversed, no vertex is convex
    cw = ((0.0, 0.0), (0.0, 2.0), (2.0, 2.0), (2.0, 0.0))
    with pytest.raises(ValueError, match="^ear clipping stalled; polygon is degenerate$"):
        _ear_clip(cw)


def test_prism_validation():
    p = Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(ValueError):
        extrude_prism(p, 0.0, 1.0)
    with pytest.raises(ValueError):
        extrude_prism(p, 1.0, 0.0)


def test_prism_rejects_coordinates_that_overflow_the_scale():
    p = Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(ValueError, match="overflow"):
        extrude_prism(p, 1.0, 5e-324)


def test_mesh_volume_matches_tetra_oracle():
    rng = np.random.default_rng(55)
    meshes = [extrude_prism(Polygon2D(((0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6))), 2.0, 1.5)]
    while len(meshes) < 10:
        p = star_polygon(rng, int(rng.integers(3, 16)), cx=20.0, cy=-5.0)
        if p is not None:
            meshes.append(extrude_prism(p, float(rng.uniform(0.5, 30.0)), 1.0))
    for mesh in meshes:
        assert mesh_volume(mesh) == pytest.approx(tetra_volume(mesh), rel=1e-12)
        assert mesh_volume(mesh) > 0
        inward = Mesh3D(mesh.vertices, tuple((i, k, j) for i, j, k in mesh.triangles))
        assert mesh_volume(inward) == pytest.approx(-mesh_volume(mesh), rel=1e-12)
    assert mesh_volume(meshes[0]) == pytest.approx(27.0 / 1.5**2 * 2.0, rel=1e-12)


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh3D(vertices=((0, 0, 0),), triangles=((0, 0, 1),))


def test_watertight_detects_missing_triangle():
    p = Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
    mesh = extrude_prism(p, 1.0, 1.0)
    broken = Mesh3D(vertices=mesh.vertices, triangles=mesh.triangles[:-1])
    assert not mesh_is_watertight(broken)


# ---------------------------------------------------------------------------
# OBJ export


def test_export_empty_obj(tmp_path):
    path = tmp_path / "empty.obj"
    export_obj([], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")


def test_export_unit_cube_line_counts(tmp_path):
    p = Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
    mesh = extrude_prism(p, 1.0, 1.0)
    path = tmp_path / "cube.obj"
    export_obj([("cube", mesh)], path)
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 8
    assert sum(1 for ln in lines if ln.startswith("f ")) == 12
    assert "o cube" in lines


def test_export_parse_export_byte_identical(tmp_path, int_scene_dataset):
    result = reconstruct_dataset(int_scene_dataset, epsilon=0.0)
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    export_obj(result.meshes, p1)
    export_obj(parse_obj(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


_PRISM = extrude_prism(Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1))), 1.0, 1.0)
_NAMES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(names=st.lists(
    _NAMES | st.sampled_from(["", " ", "  ", " a  b ", "o", "# x", "a\\b"]), max_size=3
))
def test_object_names_round_trip_byte_for_byte(tmp_path_factory, names):
    # leading, trailing and repeated spaces, and the empty name, are kept
    tmp = tmp_path_factory.mktemp("names")
    p1, p2 = tmp / "a.obj", tmp / "b.obj"
    export_obj([(name, _PRISM) for name in names], p1)
    parsed = parse_obj(p1)
    assert [name for name, _ in parsed] == names
    export_obj(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()


# an object of one triangle's vertices, on lines 1-4
TRI = "o a\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"


@pytest.mark.parametrize("text, message", [
    ("v 0 0 0\n", "line 1: vertex before any object"),
    ("# header\nf 1 2 3\n", "line 2: face before any object"),
    ("o a\nv 0 0 0\nvn 0 0 1\n", "line 3: unsupported OBJ element 'vn'"),
    # face lines, checked where they are read, against the global 1-based
    # indices of the current object's vertices so far
    (TRI + "f 1 2 3 4\n", "^line 5: face needs 3 indices, got 4$"),
    (TRI + "f 1 2\n", "^line 5: face needs 3 indices, got 2$"),
    (TRI + "f 1 x 3\n", re.escape("line 5: invalid literal for int() with base 10: 'x'")),
    (TRI + "f 1 2 9\n", re.escape("line 5: face index 9 out of range [1, 3]")),
    (TRI + "f 0 1 2\n", re.escape("line 5: face index 0 out of range [1, 3]")),
    (TRI + "f -1 -2 -3\n", re.escape("line 5: face index -1 out of range [1, 3]")),
    (TRI + "f 1 2 3\n" + TRI + "f 4 5 3\n", re.escape("line 10: face index 3 out of range [4, 6]")),
    (TRI + "f 1 2 3\n" + TRI + "f 4 5 7\n", re.escape("line 10: face index 7 out of range [4, 6]")),
])
def test_parse_obj_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        parse_obj(path)


def test_export_global_indexing(tmp_path):
    p = Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
    m = extrude_prism(p, 1.0, 1.0)
    path = tmp_path / "two.obj"
    export_obj([("a", m), ("b", m)], path)
    faces = [ln for ln in path.read_text().splitlines() if ln.startswith("f ")]
    last_index = max(int(tok) for ln in faces for tok in ln.split()[1:])
    assert last_index == 16  # second object references vertices 9..16


# ---------------------------------------------------------------------------
# dataset reconstruction


def test_reconstruct_synth_volumes(int_scene_dataset):
    result = reconstruct_dataset(int_scene_dataset, epsilon=0.0)
    assert result.skipped == ()
    n_instances = sum(len(r.instances) for r in int_scene_dataset.records)
    assert len(result.meshes) == n_instances
    by_id = int_scene_dataset.by_id()
    for name, mesh in result.meshes:
        image_id, idx = name.rsplit("_", 1)
        rec = by_id[image_id]
        inst = rec.instances[int(idx)]
        s = rec.pose.scale_s
        want = shoelace(inst.footprint.vertices) * inst.height / (s * s)
        assert tetra_volume(mesh) == pytest.approx(want, rel=1e-9)
        assert edge_manifold(mesh)


def test_reconstruct_roof_plus_offset_matches_footprint_route(int_scene_dataset):
    # drop the footprints; reconstruction must rebuild them from roof+offset
    records = []
    for r in int_scene_dataset.records:
        insts = tuple(
            BuildingInstance(
                footprint=None, roof=i.roof, offset=i.offset, height=i.height
            )
            for i in r.instances
        )
        records.append(
            SampleRecord(
                image_id=r.image_id,
                width=r.width,
                height=r.height,
                pose=r.pose,
                instances=insts,
            )
        )
    no_fp = Dataset(records=tuple(records))
    a = reconstruct_dataset(int_scene_dataset, epsilon=0.0)
    b = reconstruct_dataset(no_fp, epsilon=0.0)
    assert a.meshes == b.meshes


def test_reconstruct_default_height():
    fp = Polygon2D(((2, 2), (8, 2), (8, 8), (2, 8)))
    rec = SampleRecord(
        image_id="a",
        width=16,
        height=16,
        pose=ImagePose(0.5, 0.0, 1.0),
        instances=(BuildingInstance(footprint=fp),),
    )
    result = reconstruct_dataset(Dataset(records=(rec,)), epsilon=0.0, default_height=3.0)
    assert len(result.meshes) == 1
    mesh = result.meshes[0][1]
    assert {v[2] for v in mesh.vertices} == {0.0, 3.0}


def test_reconstruct_skips_and_reports():
    fp = Polygon2D(((2, 2), (8, 2), (8, 8), (2, 8)))
    rec = SampleRecord(
        image_id="a",
        width=16,
        height=16,
        pose=None,
        instances=(BuildingInstance(footprint=fp, height=4.0),),
    )
    result = reconstruct_dataset(Dataset(records=(rec,)), epsilon=0.0)
    assert result.meshes == ()
    assert len(result.skipped) == 1
    assert "scale" in result.skipped[0].reason
    # no height anywhere
    result = reconstruct_dataset(
        Dataset(records=(SampleRecord(
            image_id="b", width=16, height=16, pose=ImagePose(0.5, 0.0, 1.0),
            instances=(BuildingInstance(footprint=fp),),
        ),)),
        epsilon=0.0,
    )
    assert result.meshes == () and "height" in result.skipped[0].reason


def test_reconstruct_skips_zero_height_failed_simplification_and_overflow():
    square = [2, 2, 8, 2, 8, 8, 2, 8]
    sliver = [0, 0, 10, 0, 5, 0.5]  # collapses to 2 vertices at epsilon 1
    pose = {"tan_theta": 0.5, "phi": 0.0, "scale_s": 1.0}
    d = dataset_from_json({"images": [
        {"id": "a", "width": 16, "height": 16, "pose": pose, "instances": [
            {"footprint": square, "height": 0},
            {"footprint": sliver, "height": 5.0},
            {"footprint": square, "height": 5.0},
        ]},
        {"id": "b", "width": 16, "height": 16, "pose": {**pose, "scale_s": 5e-324},
         "instances": [{"footprint": square, "height": 5.0}]},
    ]})
    result = reconstruct_dataset(d, epsilon=1.0)
    assert [name for name, _ in result.meshes] == ["a_002"]
    reasons = [(sk.image_id, sk.instance_index, sk.reason) for sk in result.skipped]
    assert reasons[0] == ("a", 0, "height 0.0 is not extrudable")
    assert reasons[1][:2] == ("a", 1) and "collapse the polygon to 2 vertices" in reasons[1][2]
    assert reasons[2][:2] == ("b", 0) and "overflow" in reasons[2][2]


def test_reconstruct_ordering(int_scene_dataset):
    # records in reverse id order still give meshes in image id order
    reversed_ids = Dataset(records=int_scene_dataset.records[::-1])
    a = reconstruct_dataset(reversed_ids, epsilon=0.0)
    assert a == reconstruct_dataset(int_scene_dataset, epsilon=0.0)
    names = [name for name, _ in a.meshes]
    assert names == sorted(names)


@pytest.mark.parametrize("triangle", [(0, 1), (0, 1, 2, 0)])
def test_mesh_triangles_need_three_indices(triangle):
    with pytest.raises(ValueError, match=r"^triangle must have 3 indices, got \("):
        Mesh3D(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (triangle,))


@pytest.mark.parametrize("vertex, message", [
    ("v 0 0", "line 2: vertex needs 3 coordinates, got 2"),
    ("v 0 x 0", "line 2: could not convert string to float: 'x'"),
    ("v nan 0 0", "line 2: vertex coordinates must be finite"),
    ("v inf 0 0", "line 2: vertex coordinates must be finite"),
])
def test_parse_obj_rejects_a_bad_vertex_line_by_number(tmp_path, vertex, message):
    path = tmp_path / "bad.obj"
    path.write_text(f"o a\n{vertex}\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_obj(path)
