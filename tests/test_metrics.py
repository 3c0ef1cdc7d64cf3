import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offnadir import geometry, raster
from offnadir.dataset import BuildingInstance, Dataset, SampleRecord, dataset_from_json
from offnadir.geometry import ImagePose, Polygon2D, Vec2, translate_polygon
from offnadir.metrics import (
    angle_errors,
    detection_prf,
    evaluate,
    height_errors,
    mask_iou,
    match_instances,
    offset_epe,
    polygon_iou,
)
from offnadir.raster import BitMask
from test_raster import brute_force_raster


def square(x0, y0, side):
    return Polygon2D(((x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)))


def inst(poly, offset=None, height=None, score=None):
    return BuildingInstance(footprint=poly, offset=offset, height=height, score=score)


def test_mask_iou_cases():
    a = BitMask(8, 8)
    a.data[0, 0:2] = True  # 2x1 bar
    b = BitMask(8, 8)
    b.data[0, 1:3] = True  # shifted by 1
    assert mask_iou(a, a) == 1.0
    empty = BitMask(8, 8)
    assert mask_iou(a, empty) == 0.0
    assert mask_iou(empty, empty) == 0.0
    assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)
    assert mask_iou(a, b) == mask_iou(b, a)
    with pytest.raises(ValueError):
        mask_iou(a, BitMask(4, 4))


def test_polygon_iou():
    a = square(0, 0, 4)
    b = square(2, 0, 4)
    # 4x4 rasters overlap on a 2x4 strip: 8 / (16 + 16 - 8)
    assert polygon_iou(a, b, (16, 16)) == pytest.approx(8 / 24)
    assert polygon_iou(a, a, (16, 16)) == 1.0


def test_match_perfect():
    gts = [inst(square(0, 0, 4)), inst(square(10, 10, 4))]
    preds = [inst(square(0, 0, 4), score=1.0), inst(square(10, 10, 4), score=1.0)]
    m = match_instances(preds, gts, 0.5, (32, 32))
    assert m.tp == 2 and m.fp == 0 and m.fn == 0
    assert all(iou == 1.0 for _, _, iou in m.pairs)


def test_match_unmatched_pred():
    gts = [inst(square(0, 0, 4))]
    preds = [inst(square(20, 20, 4), score=0.9)]
    m = match_instances(preds, gts, 0.5, (32, 32))
    assert m.tp == 0 and m.fp == 1 and m.fn == 1


def test_match_two_preds_one_gt_highest_score_wins():
    gts = [inst(square(0, 0, 4))]
    preds = [
        inst(square(0, 0, 4), score=0.4),
        inst(square(0, 0, 4), score=0.8),
    ]
    m = match_instances(preds, gts, 0.5, (32, 32))
    assert m.pairs == ((1, 0, 1.0),)
    assert m.unmatched_preds == (0,)


def test_match_order_invariant_to_input_with_distinct_scores():
    gts = [inst(square(0, 0, 4)), inst(square(8, 8, 4))]
    a = [inst(square(0, 0, 4), score=0.9), inst(square(8, 8, 4), score=0.7)]
    b = list(reversed(a))
    ma = match_instances(a, gts, 0.5, (32, 32))
    mb = match_instances(b, gts, 0.5, (32, 32))
    assert ma.tp == mb.tp == 2
    matched_a = {(tuple(a[i].footprint.vertices), j) for i, j, _ in ma.pairs}
    matched_b = {(tuple(b[i].footprint.vertices), j) for i, j, _ in mb.pairs}
    assert matched_a == matched_b


def test_match_counts_partition():
    rng = np.random.default_rng(41)
    gts = [inst(square(int(rng.integers(0, 20)) * 6, 0, 4)) for _ in range(4)]
    preds = [inst(square(int(rng.integers(0, 20)) * 6, 0, 4), score=0.5) for _ in range(5)]
    m = match_instances(preds, gts, 0.5, (160, 16))
    assert m.tp + m.fp == len(preds)
    assert m.tp + m.fn == len(gts)


def test_detection_prf():
    perfect = match_instances(
        [inst(square(0, 0, 4), score=1.0)], [inst(square(0, 0, 4))], 0.5, (16, 16)
    )
    assert detection_prf(perfect) == (1.0, 1.0, 1.0)

    one_fp = match_instances(
        [inst(square(0, 0, 4), score=1.0), inst(square(10, 10, 4), score=0.9)],
        [inst(square(0, 0, 4))],
        0.5,
        (32, 32),
    )
    p, r, f1 = detection_prf(one_fp)
    assert (p, r) == (0.5, 1.0)
    assert f1 == pytest.approx(2.0 / 3.0)

    nothing = match_instances([], [inst(square(0, 0, 4))] * 1, 0.5, (16, 16))
    assert detection_prf(nothing) == (0.0, 0.0, 0.0)


def _matched_pair(pred_inst, gt_inst, grid=(32, 32)):
    return match_instances([pred_inst], [gt_inst], 0.5, grid)


def test_offset_epe():
    g = inst(square(0, 0, 4), offset=Vec2(0.0, 0.0))
    p_same = inst(square(0, 0, 4), offset=Vec2(0.0, 0.0))
    m = _matched_pair(p_same, g)
    assert offset_epe(m, [p_same], [g]) == (0.0, 1)

    p_345 = inst(square(0, 0, 4), offset=Vec2(3.0, 4.0))
    m = _matched_pair(p_345, g)
    assert offset_epe(m, [p_345], [g]) == (5.0, 1)

    gts = [inst(square(0, 0, 4), offset=Vec2(0, 0)), inst(square(10, 10, 4), offset=Vec2(0, 0))]
    preds = [
        inst(square(0, 0, 4), offset=Vec2(5.0, 0.0), score=1.0),
        inst(square(10, 10, 4), offset=Vec2(0.0, 0.0), score=1.0),
    ]
    m = match_instances(preds, gts, 0.5, (32, 32))
    epe, n = offset_epe(m, preds, gts)
    assert (epe, n) == (2.5, 2)

    empty = match_instances([], [], 0.5, (8, 8))
    assert offset_epe(empty, [], []) == (0.0, 0)


def test_height_errors():
    g = [inst(square(0, 0, 4), height=10.0), inst(square(10, 10, 4), height=20.0)]
    p = [
        inst(square(0, 0, 4), height=13.0, score=1.0),
        inst(square(10, 10, 4), height=16.0, score=1.0),
    ]
    m = match_instances(p, g, 0.5, (32, 32))
    mae, rmse, n = height_errors(m, p, g)
    assert n == 2
    assert mae == pytest.approx(3.5)
    assert rmse == pytest.approx(2.5 * math.sqrt(2))
    assert rmse >= mae

    single = _matched_pair(inst(square(0, 0, 4), height=20.0, score=1.0), inst(square(0, 0, 4), height=10.0))
    mae, rmse, n = height_errors(single, [inst(square(0, 0, 4), height=20.0)], [inst(square(0, 0, 4), height=10.0)])
    assert (mae, rmse, n) == (10.0, 10.0, 1)


def test_rmse_at_least_mae_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        diffs = rng.normal(0, 5, size=rng.integers(1, 10))
        mae = np.mean(np.abs(diffs))
        rmse = math.sqrt(np.mean(diffs**2))
        assert rmse >= mae - 1e-12


def test_angle_errors():
    a = ImagePose(1.0, 0.5, 1.0)
    assert angle_errors([a], [a]) == (0.0, 0.0)
    # wraparound: 359 deg vs 1 deg
    p = ImagePose(1.0, math.radians(359.0), 1.0)
    g = ImagePose(1.0, math.radians(1.0), 1.0)
    _, ova = angle_errors([p], [g])
    assert ova == pytest.approx(2.0, abs=1e-9)
    # off-nadir: arctan comparison in degrees
    p = ImagePose(1.0, 0.0, 1.0)
    g = ImagePose(math.tan(math.radians(30.0)), 0.0, 1.0)
    ona, _ = angle_errors([p], [g])
    assert ona == pytest.approx(15.0, abs=1e-9)
    with pytest.raises(ValueError):
        angle_errors([a], [])


def test_angle_errors_skip_nadir_ground_truth_in_offset_angle():
    # phi is undefined at nadir: only the off-nadir error counts there
    assert angle_errors([ImagePose(0, 3, 1)], [ImagePose(0, 0, 1)]) == (0.0, 0.0)
    preds = [ImagePose(1.0, 3.0, 1.0), ImagePose(1.0, 1.0, 1.0)]
    gts = [ImagePose(0.0, 0.0, 1.0), ImagePose(1.0, 0.5, 1.0)]
    ona, ova = angle_errors(preds, gts)
    assert ona == pytest.approx(45.0 / 2, abs=1e-9)
    assert ova == pytest.approx(math.degrees(0.5), abs=1e-9)  # one image's mean


def test_evaluate_counts_offset_angle_images():
    poses = {"nadir": ImagePose(0.0, 0.0, 1.0), "oblique": ImagePose(0.5, 1.0, 1.0)}
    gt_records, pred_records = [], []
    for image_id, pose in sorted(poses.items()):
        record = SampleRecord(image_id=image_id, width=32, height=32, pose=pose,
                              instances=(inst(square(2, 2, 8)),))
        gt_records.append(record)
        pred_records.append(replace(record, pose=ImagePose(0.5, 2.0, 1.0)))
    res = evaluate(Dataset(records=tuple(pred_records)), Dataset(records=tuple(gt_records)))
    agg = res.aggregate
    assert (agg.angle_images, agg.offsetangle_images) == (2, 1)
    assert agg.offsetangle_mae_deg == pytest.approx(math.degrees(1.0), abs=1e-9)
    nadir = res.per_image["nadir"]
    assert (nadir.angle_images, nadir.offsetangle_images) == (1, 0)
    assert nadir.offsetangle_mae_deg == 0.0
    assert nadir.offnadir_mae_deg == pytest.approx(math.degrees(math.atan(0.5)), abs=1e-9)
    assert list(agg.to_json())[-2:] == ["angle_images", "offsetangle_images"]


def test_evaluate_self_is_perfect(int_scene_dataset):
    res = evaluate(int_scene_dataset, int_scene_dataset)
    agg = res.aggregate
    n_instances = sum(len(r.instances) for r in int_scene_dataset.records)
    assert agg.f1 == 1.0 and agg.precision == 1.0 and agg.recall == 1.0
    assert (agg.tp, agg.fp, agg.fn) == (n_instances, 0, 0)
    assert agg.epe == 0.0 and agg.epe_pairs == n_instances
    assert agg.height_mae == 0.0 and agg.height_rmse == 0.0
    assert agg.offnadir_mae_deg == 0.0 and agg.offsetangle_mae_deg == 0.0
    assert set(res.per_image) == {r.image_id for r in int_scene_dataset.records}
    for rep in res.per_image.values():
        assert rep.f1 == 1.0


def test_evaluate_constant_offset_shift_gives_exact_epe(int_scene_dataset):
    shifted_records = []
    for r in int_scene_dataset.records:
        insts = tuple(
            replace(i, offset=i.offset + Vec2(3.0, 4.0), roof=None) for i in r.instances
        )
        shifted_records.append(replace(r, instances=insts))
    pred = Dataset(records=tuple(shifted_records), metadata={})
    res = evaluate(pred, int_scene_dataset)
    assert res.aggregate.epe == 5.0  # exact
    assert res.aggregate.tp == sum(len(r.instances) for r in int_scene_dataset.records)


def test_evaluate_imperfect_predictions(int_scene_dataset):
    # move one predicted footprint off the grid: its gt twin becomes a FN and
    # the moved prediction a FP, everything else still matches
    records = []
    for idx, r in enumerate(int_scene_dataset.records):
        insts = list(r.instances)
        if idx == 0:
            broken = insts.pop(0)
            moved = translate_polygon(
                broken.footprint, Vec2(float(r.width), float(r.height))
            )
            insts.append(replace(broken, footprint=moved, roof=None, offset=None))
        records.append(replace(r, instances=tuple(insts)))
    pred = Dataset(records=tuple(records))
    res = evaluate(pred, int_scene_dataset)
    n = sum(len(r.instances) for r in int_scene_dataset.records)
    agg = res.aggregate
    assert (agg.tp, agg.fp, agg.fn) == (n - 1, 1, 1)
    assert agg.precision == (n - 1) / n
    assert agg.recall == (n - 1) / n
    assert 0.0 < agg.f1 < 1.0


def test_evaluate_rejects_mismatched_ids(int_scene_dataset):
    missing = Dataset(records=int_scene_dataset.records[1:], metadata={})
    with pytest.raises(ValueError, match="id mismatch"):
        evaluate(missing, int_scene_dataset)


def test_match_instances_needs_a_footprint_on_every_instance():
    roofless = BuildingInstance(footprint=None, roof=square(0, 0, 4), offset=Vec2(1.0, 0.0))
    full = inst(square(0, 0, 4))
    for preds, gts in (([full, roofless], [full]), ([full], [full, roofless])):
        with pytest.raises(ValueError, match="^matching needs a footprint on every instance$"):
            match_instances(preds, gts, 0.5, (16, 16))


def test_evaluate_reports_the_first_bad_image_in_id_order():
    def record(image_id, width=32, footprint=True):
        shape = square(2, 2, 4)
        building = inst(shape) if footprint else BuildingInstance(
            footprint=None, roof=shape, offset=Vec2(1.0, 0.0))
        return SampleRecord(image_id=image_id, width=width, height=32,
                            instances=(inst(square(20, 20, 4)), building))

    gt = Dataset(records=tuple(record(i) for i in "dbca"))
    # 'b' and 'c' have the wrong grid and 'd' lacks a footprint: 'b' comes first
    pred = Dataset(records=(record("d", footprint=False), record("b", 40), record("c", 24),
                            record("a")))
    with pytest.raises(ValueError, match=r"^image 'b': prediction grid 40x32 != ground truth 32x32$"):
        evaluate(pred, gt)
    # a missing footprint in an earlier image comes before a bad grid
    pred = Dataset(records=(record("d"), record("b", 40), record("c"), record("a", footprint=False)))
    # named by image, side and instance
    with pytest.raises(ValueError, match=r"^image 'a', prediction instance 1: "
                                         r"matching needs a footprint$"):
        evaluate(pred, gt)
    with pytest.raises(ValueError, match=r"^image 'a', ground truth instance 1: "
                                         r"matching needs a footprint$"):
        evaluate(gt, pred)


def test_evaluate_partial_annotations_counted():
    g = SampleRecord(
        image_id="a",
        width=32,
        height=32,
        pose=None,
        instances=(inst(square(0, 0, 4), offset=Vec2(1, 0), height=3.0),),
    )
    p = SampleRecord(
        image_id="a",
        width=32,
        height=32,
        pose=None,
        instances=(inst(square(0, 0, 4)),),  # matched but nothing comparable
    )
    res = evaluate(Dataset(records=(p,)), Dataset(records=(g,)))
    agg = res.aggregate
    assert agg.tp == 1
    assert agg.epe_pairs == 0 and agg.height_pairs == 0 and agg.angle_images == 0
    assert agg.epe == 0.0 and agg.height_mae == 0.0


def test_zero_pixel_footprint_never_matches_itself():
    # no pixel center lies inside a 0.1 px triangle: the mask is empty, and an
    # IoU of 0/0 counts as 0, so self-evaluation reports one FP and one FN
    tiny = Polygon2D(((10.2, 10.2), (10.3, 10.2), (10.2, 10.3)))
    d = Dataset(records=(SampleRecord(image_id="a", width=32, height=32, pose=None,
                                      instances=(inst(tiny),)),))
    agg = evaluate(d, d).aggregate
    assert (agg.tp, agg.fp, agg.fn) == (0, 1, 1)
    assert agg.f1 == 0.0 and agg.precision == 0.0 and agg.recall == 0.0


# ---------------------------------------------------------------------------
# brute-force oracle for evaluate


@st.composite
def rectangles(draw, w, h, near=()):
    """Axis rectangles on a 1/4 px lattice: one of near shifted by up to
    1 px, or anywhere around the grid, some sub-pixel, some off it."""
    if near and draw(st.integers(0, 3)):
        (x0, y0), _, (x1, y1), _ = draw(st.sampled_from(near)).vertices
        dx, dy = (draw(st.integers(-2, 2)) / 2 for _ in range(2))
        return square_of(x0 + dx, y0 + dy, x1 + dx, y1 + dy)
    x0 = draw(st.integers(-4, 4 * (w + 1))) / 4
    y0 = draw(st.integers(-4, 4 * (h + 1))) / 4
    sx, sy = (draw(st.integers(2, 40)) / 4 for _ in range(2))
    # within [-w, 2w] x [-h, 2h], the records' frame, also when shifted
    return square_of(x0, y0, min(x0 + sx, 2 * w - 2), min(y0 + sy, 2 * h - 2))


def square_of(x0, y0, x1, y1):
    return Polygon2D(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def maybe(draw, strategy):
    return draw(st.one_of(st.none(), strategy))


@st.composite
def instances(draw, w, h, scored, near=()):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        footprint = draw(rectangles(w, h, near))
        offset = maybe(draw, st.builds(Vec2, st.integers(-6, 6), st.floats(-6.0, 6.0)))
        height = maybe(draw, st.floats(0.0, 50.0))
        score = draw(st.sampled_from([0.25, 0.5, None])) if scored else None
        out.append(inst(footprint, offset=offset, height=height, score=score))
    return tuple(out)


poses = st.one_of(
    st.none(),
    st.builds(ImagePose, st.sampled_from([0.0, 0.4, 1.2]), st.floats(-7.0, 7.0), st.just(1.0)),
)


@st.composite
def eval_cases(draw):
    gt_records, pred_records = [], []
    for image_id in "abc"[: draw(st.integers(1, 3))]:
        w, h = draw(st.integers(8, 24)), draw(st.integers(8, 24))
        gts = draw(instances(w, h, scored=False))
        preds = draw(instances(w, h, scored=True, near=tuple(g.footprint for g in gts)))
        gt_records.append(SampleRecord(image_id, w, h, pose=draw(poses), instances=gts))
        pred_records.append(SampleRecord(image_id, w, h, pose=draw(poses), instances=preds))
    pred_records.reverse()  # evaluate pairs records by id, not by position
    threshold = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return Dataset(records=tuple(pred_records)), Dataset(records=tuple(gt_records)), threshold


def oracle_pairs(preds, gts, w, h, threshold):
    """Greedy matching over every pred x gt IoU of full-grid brute-force
    rasters: predictions by descending score (missing = 1.0, ties in input
    order) each take the untaken gt of highest IoU (first among equals) if
    that IoU is above 0 and at least the threshold."""
    pm = [brute_force_raster(p.footprint, w, h).dense() for p in preds]
    gm = [brute_force_raster(g.footprint, w, h).dense() for g in gts]
    iou = [[0.0] * len(gts) for _ in preds]
    for i, a in enumerate(pm):
        for j, b in enumerate(gm):
            inter = int(np.count_nonzero(a & b))
            union = int(np.count_nonzero(a)) + int(np.count_nonzero(b)) - inter
            iou[i][j] = inter / union if union else 0.0
    score = [1.0 if p.score is None else p.score for p in preds]
    taken = set()
    pairs = []
    for i in sorted(range(len(preds)), key=lambda i: (-score[i], i)):
        free = [j for j in range(len(gts)) if j not in taken]
        if not free:
            continue
        best = max(free, key=lambda j: (iou[i][j], -j))
        if iou[i][best] > 0 and iou[i][best] >= threshold:
            taken.add(best)
            pairs.append((preds[i], gts[best]))
    return pairs, len(preds) - len(pairs), len(gts) - len(pairs)


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def circular(d):
    d = abs(d) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def oracle_report(images):
    """(pairs, fp, fn, (pred pose, gt pose)) of some images -> EvalReport fields."""
    pairs = [pair for p, _, _, _ in images for pair in p]
    tp, fp, fn = len(pairs), sum(im[1] for im in images), sum(im[2] for im in images)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    epe = [math.hypot(p.offset.dx - g.offset.dx, p.offset.dy - g.offset.dy)
           for p, g in pairs if p.offset is not None and g.offset is not None]
    dh = [p.height - g.height for p, g in pairs if p.height is not None and g.height is not None]
    both = [(p, g) for _, _, _, (p, g) in images if p is not None and g is not None]
    ona = [abs(math.atan(p.tan_theta) - math.atan(g.tan_theta)) for p, g in both]
    ova = [circular(p.phi - g.phi) for p, g in both if g.tan_theta > 0]

    return dict(
        precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn,
        epe=mean(epe), epe_pairs=len(epe),
        height_mae=mean([abs(d) for d in dh]), height_rmse=math.sqrt(mean([d * d for d in dh])),
        height_pairs=len(dh),
        offnadir_mae_deg=math.degrees(mean(ona)), offsetangle_mae_deg=math.degrees(mean(ova)),
        angle_images=len(ona), offsetangle_images=len(ova),
    )


FLOAT_FIELDS = ("epe", "height_mae", "height_rmse", "offnadir_mae_deg", "offsetangle_mae_deg")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(eval_cases())
def test_evaluate_matches_a_brute_force_oracle(case):
    pred, gt, threshold = case
    preds = pred.by_id()
    images = {}
    for g in gt.records:
        p = preds[g.image_id]
        pairs, fp, fn = oracle_pairs(p.instances, g.instances, g.width, g.height, threshold)
        images[g.image_id] = (pairs, fp, fn, (p.pose, g.pose))
    result = evaluate(pred, gt, threshold)
    assert set(result.per_image) == set(images)
    got = [(result.aggregate, list(images.values()))]
    got += [(result.per_image[image_id], [im]) for image_id, im in images.items()]
    for report, subset in got:
        want = oracle_report(subset)
        have = report.to_json()
        for key, value in want.items():
            if key in FLOAT_FIELDS:
                assert have[key] == pytest.approx(value, abs=1e-12), key
            else:
                assert have[key] == value, key


def _ring(n, cx, cy, radii):
    """n-vertex ring around (cx, cy), its radii cycling through radii."""
    return [c for k in range(n)
            for c in (cx + radii[k % len(radii)] * math.cos(2 * math.pi * k / n),
                      cy + radii[k % len(radii)] * math.sin(2 * math.pi * k / n))]


def _comb(teeth, h):
    """Comb of teeth 2 px wide and h px high on a 4 px bar: its edge terms
    (row crossings and boundary candidates) are about as many as its window
    pixels, so the edge-term bound of a raster pass binds first."""
    pts = []
    for t in range(teeth):
        pts += [(4 * t, 0), (4 * t + 2, 0)]
        if t < teeth - 1:
            pts += [(4 * t + 2, h), (4 * t + 4, h)]
    return [c for p in pts + [(4 * teeth - 2, h + 4), (0, h + 4)] for c in p]


def test_eval_passes_hold_their_bounds(monkeypatch):
    # A mixed stream on eval's path: a load, then the raster passes of
    # evaluate. Every raster pass and every simplicity kernel call stays
    # within its bounds unless it holds a single polygon or ring; the 400-
    # vertex ring and the 600 x 600 square are each over a bound, and runs
    # of combs fill passes by their edge terms.
    passes, calls = [], []
    rasterize, first_violation = raster._pass, geometry._first_violation

    def spy_pass(x1, y1, x2, y2, poly, r0, r1, rb, c0, c1, boxed, i0, j0, nc, offset, total):
        terms = (r1 - r0) + np.where(boxed, (rb - r0) + (c1 - c0), 0)
        passes.append((i0.size, total, int(terms.sum())))
        return rasterize(x1, y1, x2, y2, poly, r0, r1, rb, c0, c1, boxed, i0, j0, nc, offset, total)

    def spy_kernel(p):
        calls.append(p.shape)
        return first_violation(p)

    monkeypatch.setattr(raster, "_pass", spy_pass)
    monkeypatch.setattr(geometry, "_first_violation", spy_kernel)
    shapes = [
        _ring(4, 40, 40, [20]), _ring(6, 40, 40, [30, 15]), _ring(64, 80, 80, [60, 30]),
        _ring(400, 300, 300, [200]), [100, 100, 700, 100, 700, 700, 100, 700], _comb(8, 60),
    ]
    images = [{"id": f"img-{i}", "width": 1024, "height": 1024,
               "instances": [{"footprint": [c + 8 * (k % 5) for c in shapes[(i + k // 20) % 6]]}
                             for k in range(40)]} for i in range(8)]
    d = dataset_from_json({"images": images})
    # more small rings than one kernel call may take
    rings = [inst.footprint.vertices for r in d.records for inst in r.instances]
    geometry._first_non_simple(rings + rings[:20] * 40)
    evaluate(d, d)
    assert passes and calls
    for polygons, pixels, terms in passes:
        assert polygons == 1 or (pixels <= raster._CHUNK_PIXELS and terms <= raster._CHUNK_TERMS)
    for m, n, _ in calls:
        assert m == 1 or (m * n * n <= geometry._BATCH_PAIRS and m * n <= geometry._BATCH_EDGES)
    # both kinds of pass occur: shared ones, and one over a bound
    assert max(polygons for polygons, _, _ in passes) > 1
    assert max(terms for polygons, _, terms in passes if polygons > 1) > raster._CHUNK_TERMS // 2
    assert max(pixels for _, pixels, _ in passes) > raster._CHUNK_PIXELS
    assert max(m for m, _, _ in calls) > 1
    assert max(n * n for _, n, _ in calls) > geometry._BATCH_PAIRS
