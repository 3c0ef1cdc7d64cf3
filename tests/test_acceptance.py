"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from offnadir.cli import run as cli_run
from offnadir.dataset import Dataset
from offnadir.geometry import (
    ImagePose,
    Polygon2D,
    Vec2,
    bbox_of,
    bbox_union,
    estimate_pose,
    height_from_offset,
    offset_from_pose,
)
from offnadir.losses import (
    ExternalLossInputs,
    LevelComponents,
    LossWeights,
    SupervisionLevel,
    hybrid_loss,
    level_loss,
    loft_loss,
    mask_cross_entropy,
    offset_angle_loss,
    smooth_l1,
)
from offnadir.metrics import evaluate
from offnadir.pseudobox import pseudo_bbox_level_h, pseudo_bbox_level_n, pseudo_offset
from offnadir.raster import BitMask, rasterize_polygon, translate_mask
from offnadir.reconstruct import extrude_prism, simplify_chain, simplify_dp
from offnadir.synth import SynthConfig, generate_scenes


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL: {desc}")
        raise
    print(f"[criterion {num:02d}] PASS: {desc}")


# test-side oracles, independent of the library internals ------------------


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
    n = len(points)
    interior = list(range(1, n - 1))
    for size in range(0, len(interior) + 1):
        for keep_interior in itertools.combinations(interior, size):
            keep = [0, *keep_interior, n - 1]
            ok = True
            for a, b in zip(keep, keep[1:]):
                if any(seg_dist(points[m], points[a], points[b]) > eps for m in range(a + 1, b)):
                    ok = False
                    break
            if ok:
                return size + 2
    return n


def star_polygon(rng, n, r_lo=2.0, r_hi=8.0):
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 1e-3:
        return None
    radii = rng.uniform(r_lo, r_hi, n)
    try:
        return Polygon2D(
            tuple((r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii))
        )
    except ValueError:
        return None


INT_CFG = SynthConfig(
    image_w=192,
    image_h=192,
    n_images=8,
    buildings_per_image=(3, 8),
    height_range=(3.0, 35.0),
    tan_theta_range=(0.2, 1.0),
    phi_range=(0.0, 2.0 * math.pi),
    scale_s=1.0,
    shape_family="l_shape",
    integer_offsets=True,
    seed=90210,
)

FLOAT_CFG = replace(INT_CFG, integer_offsets=False, scale_s=1.3, shape_family="axis_rect", seed=777)


@pytest.fixture(scope="module")
def int_scenes():
    return generate_scenes(INT_CFG)


@pytest.fixture(scope="module")
def float_scenes():
    return generate_scenes(FLOAT_CFG)


def test_criterion_01_roundtrip():
    with criterion(1, "height/offset round trip, 1000 random poses, rel err <= 1e-9, < 1s"):
        rng = np.random.default_rng(20240501)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            h = float(rng.uniform(1.0, 200.0))
            pose = ImagePose(
                1.5 - float(rng.uniform(0.0, 1.5)),  # (0, 1.5]
                float(rng.uniform(0.0, 2.0 * math.pi)),
                float(rng.uniform(0.3, 3.0)),
            )
            back = height_from_offset(offset_from_pose(h, pose), pose)
            worst = max(worst, abs(back - h) / h)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9
        assert elapsed < 1.0


def test_criterion_02_pose_recovery():
    with criterion(2, "pose recovery on 100 noiseless scenes within 1e-9, < 5s"):
        cfg = replace(
            FLOAT_CFG,
            n_images=100,
            image_w=96,
            image_h=96,
            buildings_per_image=(2, 5),
            height_range=(2.0, 18.0),
            tan_theta_range=(0.05, 1.0),
            seed=31337,
        )
        start = time.perf_counter()
        scenes = generate_scenes(cfg)
        assert len(scenes) == 100
        for r in scenes.records:
            pairs = [(inst.height, inst.offset) for inst in r.instances]
            fit = estimate_pose(pairs, r.pose.scale_s)
            assert abs(fit.tan_theta - r.pose.tan_theta) <= 1e-9
            dphi = abs(fit.phi - r.pose.phi) % (2.0 * math.pi)
            assert min(dphi, 2.0 * math.pi - dphi) <= 1e-9
            assert fit.residual < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_03_self_evaluation(int_scenes):
    with criterion(3, "self-evaluation: F1=1, EPE=0, height MAE=RMSE=0, angle MAEs=0"):
        res = evaluate(int_scenes, int_scenes)
        agg = res.aggregate
        n = sum(len(r.instances) for r in int_scenes.records)
        assert agg.f1 == 1.0
        assert agg.epe == 0.0
        assert agg.height_mae == 0.0 and agg.height_rmse == 0.0
        assert agg.offnadir_mae_deg == 0.0 and agg.offsetangle_mae_deg == 0.0
        assert (agg.tp, agg.fp, agg.fn) == (n, 0, 0)


def test_criterion_04_mask_translation_bit_exact(int_scenes):
    with criterion(4, "roof-to-footprint mask translation bit-exact on 100% of instances"):
        total = 0
        exact = 0
        for r in int_scenes.records:
            for inst in r.instances:
                roof_mask = rasterize_polygon(inst.roof, r.width, r.height)
                want = rasterize_polygon(inst.footprint, r.width, r.height)
                got = translate_mask(roof_mask, inst.offset)
                total += 1
                exact += got == want
        assert total > 0
        assert exact == total


def test_criterion_05_pbc_exact(int_scenes, float_scenes):
    with criterion(5, "pseudo bbox exactness: level h equals true building bbox, level n(0) equals footprint bbox"):
        # integer scenes: the stored offset is the exact pose-implied offset
        for r in int_scenes.records:
            for inst in r.instances:
                want = bbox_union(bbox_of(inst.roof), bbox_of(inst.footprint))
                got = pseudo_bbox_level_h(inst.footprint, inst.offset, r.width, r.height)
                assert got == want
                assert pseudo_bbox_level_n(inst.footprint, 0.0, r.width, r.height) == bbox_of(
                    inst.footprint
                )
        # continuous scenes: recompute the offset from the true pose itself
        for r in float_scenes.records:
            pose = r.pose
            for inst in r.instances:
                v = pseudo_offset(inst.height, pose.scale_s, pose.tan_theta, pose.phi)
                assert (v.dx, v.dy) == (inst.offset.dx, inst.offset.dy)
                want = bbox_union(bbox_of(inst.roof), bbox_of(inst.footprint))
                got = pseudo_bbox_level_h(inst.footprint, v, r.width, r.height)
                assert got == want


def test_criterion_06_loss_identity():
    with criterion(6, "incremental vs expanded OH loss within 1e-12 over 1000 draws; hybrid additivity"):
        rng = np.random.default_rng(661)
        w = LossWeights()  # alpha=(1,32,1,1,16,1,8), beta=(1,1,16), lambda1=0.1
        entries = []
        for _ in range(1000):
            c = LevelComponents(
                l_f=float(rng.uniform(0, 10)),
                l_h=float(rng.uniform(0, 10)),
                l_ona=float(rng.uniform(0, 10)),
                l_ova=float(rng.uniform(0, 10)),
                external=ExternalLossInputs(
                    l_rp=float(rng.uniform(0, 10)),
                    l_rc=float(rng.uniform(0, 10)),
                    l_mh=float(rng.uniform(0, 10)),
                    l_o=float(rng.uniform(0, 10)),
                ),
            )
            incremental = level_loss(SupervisionLevel.OH, c, w)
            expanded = (
                loft_loss(c.external, w)
                + c.l_f
                + w.alpha2 * c.l_h
                + w.alpha6 * c.l_ona
                + w.alpha7 * c.l_ova
            )
            assert abs(incremental - expanded) <= 1e-12
            level = (SupervisionLevel.N, SupervisionLevel.H, SupervisionLevel.OH)[
                int(rng.integers(0, 3))
            ]
            entries.append((level, c))
        total = hybrid_loss(entries, w)
        assert abs(total - sum(level_loss(lv, c, w) for lv, c in entries)) <= 1e-12


def test_criterion_07_hand_oracle_losses():
    with criterion(7, "hand-derived loss values within 1e-12"):
        assert abs(smooth_l1([0.5], [0.0], beta=1.0) - 0.125) <= 1e-12
        assert abs(smooth_l1([2.0], [0.0], beta=1.0) - 1.5) <= 1e-12
        gt = BitMask(2, 2, np.array([[True, False], [True, False]]))
        assert abs(mask_cross_entropy(np.full((2, 2), 0.5), gt) - math.log(2)) <= 1e-12
        assert abs(offset_angle_loss(Vec2(0.0, 0.0), Vec2(1.0, 0.0), 0.1) - 1.1) <= 1e-12
        assert abs(offset_angle_loss(Vec2(0.0, 2.0), Vec2(0.0, 1.0), 0.1) - 1.1) <= 1e-12


def test_criterion_08_constant_offset_epe(int_scenes):
    with criterion(8, "adding (3,4) px to every predicted offset gives EPE exactly 5.0"):
        records = []
        for r in int_scenes.records:
            insts = tuple(
                replace(i, offset=i.offset + Vec2(3.0, 4.0), roof=None) for i in r.instances
            )
            records.append(replace(r, instances=insts))
        pred = Dataset(records=tuple(records))
        res = evaluate(pred, int_scenes)
        n = sum(len(r.instances) for r in int_scenes.records)
        assert res.aggregate.tp == n  # matching unchanged
        assert res.aggregate.epe == 5.0


def test_criterion_09_mesh_correctness():
    with criterion(9, "prism volume equals shoelace area x height (rel 1e-9); meshes edge-manifold"):
        rng = np.random.default_rng(99)
        shapes = []
        for _ in range(100):
            w, h = rng.uniform(0.5, 40.0, 2)
            x0, y0 = rng.uniform(-20, 20, 2)
            shapes.append(
                Polygon2D(((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)))
            )
        for _ in range(20):
            w, h = rng.uniform(4.0, 30.0, 2)
            nx = rng.uniform(1.0, w - 1.0)
            ny = rng.uniform(1.0, h - 1.0)
            x0, y0 = rng.uniform(-20, 20, 2)
            shapes.append(
                Polygon2D(
                    (
                        (x0, y0),
                        (x0 + w, y0),
                        (x0 + w, y0 + h - ny),
                        (x0 + w - nx, y0 + h - ny),
                        (x0 + w - nx, y0 + h),
                        (x0, y0 + h),
                    )
                )
            )
        for poly in shapes:
            height = float(rng.uniform(1.0, 60.0))
            scale = float(rng.uniform(0.3, 3.0))
            mesh = extrude_prism(poly, height, scale)
            want = shoelace(poly.vertices) * height / (scale * scale)
            got = tetra_volume(mesh)
            assert abs(got - want) <= 1e-9 * abs(want)
            assert edge_manifold(mesh)


def test_criterion_10_dp_properties():
    with criterion(10, "DP idempotence on 500 polygons; eps=0 exact area; zigzag matches minimal chain"):
        rng = np.random.default_rng(1010)
        done = 0
        while done < 500:
            p = star_polygon(rng, int(rng.integers(5, 24)))
            if p is None:
                continue
            eps = float(rng.uniform(0.0, 1.2))
            try:
                once = simplify_dp(p, eps)
            except ValueError:
                continue
            assert simplify_dp(once, eps) == once
            done += 1
        # eps = 0: only exactly collinear vertices go; the shoelace sum is
        # unchanged term by term on integer coordinates
        augmented = Polygon2D(((0, 0), (3, 0), (6, 0), (6, 2), (6, 5), (3, 5), (0, 5), (0, 2)))
        squared = simplify_dp(augmented, 0.0)
        assert len(squared) == 4
        assert shoelace(squared.vertices) == shoelace(augmented.vertices)
        # zigzag chain collapse against the exhaustive minimal-chain oracle
        pts = [(0.0, 0.0)]
        pts += [(float(i), 0.4 if i % 2 else -0.4) for i in range(1, 9)]
        pts += [(9.0, 0.0)]
        out = simplify_chain(pts, 0.5)
        assert len(out) == minimal_chain_size(pts, 0.5) == 2
        assert out == [pts[0], pts[-1]]


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "synth/degrade/eval/reconstruct byte-identical across runs and --jobs"):
        cfg = {
            "image_w": 128,
            "image_h": 128,
            "n_images": 6,
            "buildings_per_image": [2, 6],
            "height_range": [3.0, 25.0],
            "tan_theta_range": [0.1, 1.0],
            "phi_range": [0.0, 2.0 * math.pi],
            "scale_s": 1.0,
            "shape_family": "l_shape",
            "integer_offsets": True,
            "seed": 2718,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        def bytes_of(name):
            return (tmp_path / name).read_bytes()

        for name, jobs in (("d1.json", "1"), ("d2.json", "1"), ("d3.json", "4")):
            assert cli_run(["synth", "--config", str(cfg_path), "--out", str(tmp_path / name),
                            "--jobs", jobs]) == 0
        assert bytes_of("d1.json") == bytes_of("d2.json") == bytes_of("d3.json")

        for name in ("g1.json", "g2.json"):
            assert cli_run(["degrade", "--in", str(tmp_path / "d1.json"),
                            "--out", str(tmp_path / name),
                            "--frac-oh", "0.5", "--frac-h", "0.5", "--seed", "4"]) == 0
        assert bytes_of("g1.json") == bytes_of("g2.json")

        for name, jobs in (("r1.json", "1"), ("r2.json", "4")):
            assert cli_run(["eval", "--pred", str(tmp_path / "d1.json"),
                            "--gt", str(tmp_path / "d1.json"),
                            "--report", str(tmp_path / name), "--jobs", jobs]) == 0
        assert bytes_of("r1.json") == bytes_of("r2.json")

        for name, jobs in (("c1.obj", "1"), ("c2.obj", "4")):
            assert cli_run(["reconstruct", "--in", str(tmp_path / "d1.json"),
                            "--out", str(tmp_path / name), "--epsilon", "1.0",
                            "--jobs", jobs]) == 0
        assert bytes_of("c1.obj") == bytes_of("c2.obj")
