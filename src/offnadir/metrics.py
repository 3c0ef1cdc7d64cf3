"""Instance-level evaluation: IoU matching, detection P/R/F1, offset EPE,
height MAE/RMSE, and image-pose angle errors.

Matching is greedy and one-to-one, against footprint masks. Predictions go
in descending score; a missing score counts as 1.0, and ties keep input
order. Each claims the untaken ground truth of highest IoU, the first in
index order among equal IoUs, if that IoU is above 0 and at least the
threshold. Aggregation across images is micro: global TP/FP/FN counts and
error means pooled over all matched pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

from .dataset import Dataset
from .geometry import TWO_PI, Polygon2D
from .raster import BitMask, rasterize_polygons


def mask_iou(a: BitMask, b: BitMask) -> float:
    """Intersection over union of two same-grid masks; 0/0 counts as 0."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"grid mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    inter = a.overlap(b)
    union = a.popcount() + b.popcount() - inter
    return inter / union if union > 0 else 0.0


def polygon_iou(a: Polygon2D, b: Polygon2D, grid) -> float:
    """IoU of two polygons rasterized on a (width, height) grid."""
    w, h = grid
    return mask_iou(*rasterize_polygons(((a, w, h), (b, w, h))))


@dataclass(frozen=True)
class MatchResult:
    """One-to-one matching; pairs are (pred index, gt index, iou)."""

    pairs: tuple = ()
    unmatched_preds: tuple = ()
    unmatched_gts: tuple = ()

    @property
    def tp(self) -> int:
        return len(self.pairs)

    @property
    def fp(self) -> int:
        return len(self.unmatched_preds)

    @property
    def fn(self) -> int:
        return len(self.unmatched_gts)


def _footprints(instances, width: int, height: int, where: str | None = None):
    """(footprint, width, height) of each instance, for rasterize_polygons.
    An instance without a footprint is a ValueError, named "<where> instance
    <k>" where where is given."""
    for k, inst in enumerate(instances):
        if inst.footprint is None:
            if where is None:
                raise ValueError("matching needs a footprint on every instance")
            raise ValueError(f"{where} instance {k}: matching needs a footprint")
        yield inst.footprint, width, height


def _check_iou_threshold(iou_threshold) -> None:
    if not 0.0 <= iou_threshold <= 1.0:  # false for NaN too
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")


def match_instances(preds, gts, iou_threshold: float = 0.5, grid=(512, 512)) -> MatchResult:
    """Greedy score-descending matching of predictions to ground truth.

    Predictions go in descending score; a missing score counts as 1.0, and
    ties keep input order. Each claims the untaken ground-truth instance of
    highest footprint-mask IoU, the first in index order among equal IoUs,
    if that IoU is above 0 and at least the threshold, which must lie in
    [0, 1].
    """
    _check_iou_threshold(iou_threshold)
    preds = list(preds)
    gts = list(gts)
    w, h = grid
    masks = list(rasterize_polygons(chain(_footprints(preds, w, h), _footprints(gts, w, h))))
    return _match_masks(preds, gts, masks[: len(preds)], masks[len(preds) :], iou_threshold)


def _match_masks(preds, gts, pred_masks, gt_masks, iou_threshold: float) -> MatchResult:
    """match_instances over the instances' footprint masks."""
    order = sorted(
        range(len(preds)),
        key=lambda i: -(preds[i].score if preds[i].score is not None else 1.0),
    )
    gt_windows = [m.window for m in gt_masks]
    taken = [False] * len(gts)
    pairs = []
    matched_preds = set()
    for i in order:
        x0, y0, x1, y1 = pred_masks[i].window
        best_iou = 0.0
        best_j = -1
        for j, (gx0, gy0, gx1, gy1) in enumerate(gt_windows):
            # only masks whose windows overlap can have a nonzero IoU; empty
            # windows sit at (0, 0, 0, 0) and so overlap nothing
            if taken[j] or not (x0 < gx1 and gx0 < x1 and y0 < gy1 and gy0 < y1):
                continue
            iou = mask_iou(pred_masks[i], gt_masks[j])
            if iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            taken[best_j] = True
            pairs.append((i, best_j, best_iou))
            matched_preds.add(i)
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_preds=tuple(i for i in range(len(preds)) if i not in matched_preds),
        unmatched_gts=tuple(j for j in range(len(gts)) if not taken[j]),
    )


def _prf(tp: int, fp: int, fn: int):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def detection_prf(m: MatchResult):
    """(precision, recall, f1) with the 0/0 -> 0 convention."""
    return _prf(m.tp, m.fp, m.fn)


def _paired_values(m: MatchResult, preds, gts, getter):
    for i, j, _ in m.pairs:
        pv = getter(preds[i])
        gv = getter(gts[j])
        if pv is not None and gv is not None:
            yield pv, gv


def _epe(pairs):
    total = 0.0
    n = 0
    for p, g in pairs:
        total += math.hypot(p.dx - g.dx, p.dy - g.dy)
        n += 1
    return (total / n if n else 0.0), n


def offset_epe(m: MatchResult, preds, gts):
    """Mean end-point error over matched pairs with offsets on both sides.

    Returns (epe, n_pairs); n_pairs == 0 flags an empty mean (epe 0).
    """
    return _epe(_paired_values(m, preds, gts, lambda inst: inst.offset))


def _height(pairs):
    abs_sum = 0.0
    sq_sum = 0.0
    n = 0
    for p, g in pairs:
        d = p - g
        abs_sum += abs(d)
        sq_sum += d * d
        n += 1
    if not n:
        return 0.0, 0.0, 0
    return abs_sum / n, math.sqrt(sq_sum / n), n


def height_errors(m: MatchResult, preds, gts):
    """(mae, rmse, n_pairs) of height over matched pairs with both heights."""
    return _height(_paired_values(m, preds, gts, lambda inst: inst.height))


def _angles(pose_pairs):
    """(off-nadir MAE, offset-angle MAE, images, images in the offset-angle
    MAE) in degrees."""
    ona = 0.0
    ova = 0.0
    n = 0
    n_ova = 0
    for p, g in pose_pairs:
        ona += abs(math.atan(p.tan_theta) - math.atan(g.tan_theta))
        n += 1
        if g.tan_theta == 0:
            continue  # phi is undefined at nadir
        d = abs(p.phi - g.phi) % TWO_PI
        ova += min(d, TWO_PI - d)
        n_ova += 1
    return (
        math.degrees(ona / n) if n else 0.0,
        math.degrees(ova / n_ova) if n_ova else 0.0,
        n,
        n_ova,
    )


def angle_errors(pred_poses, gt_poses):
    """Image-pose MAEs in degrees: (off-nadir, offset angle).

    The off-nadir error compares arctangents; the offset-angle error is the
    circular difference, over the images whose ground truth is off nadir
    (tan_theta > 0), since phi is undefined at nadir. Empty means are 0.
    """
    pred_poses = list(pred_poses)
    gt_poses = list(gt_poses)
    if len(pred_poses) != len(gt_poses):
        raise ValueError(f"length mismatch: {len(pred_poses)} vs {len(gt_poses)}")
    ona, ova, _, _ = _angles(zip(pred_poses, gt_poses))
    return ona, ova


@dataclass(frozen=True)
class EvalReport:
    """Matched-instance error summary; counts qualify the error means."""

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    epe: float
    epe_pairs: int
    height_mae: float
    height_rmse: float
    height_pairs: int
    offnadir_mae_deg: float
    offsetangle_mae_deg: float
    angle_images: int
    offsetangle_images: int

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class EvalResult:
    aggregate: EvalReport
    per_image: dict


def _report(tp: int, fp: int, fn: int, offsets, heights, poses) -> EvalReport:
    """Report from detection counts and iterables of the (pred, gt) pairs
    of offsets, heights and image poses."""
    precision, recall, f1 = _prf(tp, fp, fn)
    epe, epe_pairs = _epe(offsets)
    mae, rmse, h_pairs = _height(heights)
    ona, ova, angle_images, ova_images = _angles(poses)
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        fn=fn,
        epe=epe,
        epe_pairs=epe_pairs,
        height_mae=mae,
        height_rmse=rmse,
        height_pairs=h_pairs,
        offnadir_mae_deg=ona,
        offsetangle_mae_deg=ova,
        angle_images=angle_images,
        offsetangle_images=ova_images,
    )


def evaluate(
    pred_dataset: Dataset,
    gt_dataset: Dataset,
    iou_threshold: float = 0.5,
) -> EvalResult:
    """Evaluate predictions against ground truth, image id by image id.

    Both datasets must cover exactly the same image ids. Angle errors use
    only images where both records carry a pose.
    """
    _check_iou_threshold(iou_threshold)
    preds = pred_dataset.by_id()
    gts = gt_dataset.by_id()
    if set(preds) != set(gts):
        missing = sorted(set(gts) - set(preds))
        surplus = sorted(set(preds) - set(gts))
        raise ValueError(
            f"image id mismatch: missing from predictions {missing[:5]}, "
            f"unexpected in predictions {surplus[:5]}"
        )
    ids = sorted(gts)

    def footprints():
        for image_id in ids:
            pred, gt = preds[image_id], gts[image_id]
            if (pred.width, pred.height) != (gt.width, gt.height):
                raise ValueError(
                    f"image {image_id!r}: prediction grid {pred.width}x{pred.height} "
                    f"!= ground truth {gt.width}x{gt.height}"
                )
            where = f"image {image_id!r}"
            yield from _footprints(pred.instances, gt.width, gt.height, f"{where}, prediction")
            yield from _footprints(gt.instances, gt.width, gt.height, f"{where}, ground truth")

    # one stream over all images, consumed image by image
    masks = rasterize_polygons(footprints())
    matches = {}
    for image_id in ids:
        p, g = preds[image_id].instances, gts[image_id].instances
        pred_masks = list(islice(masks, len(p)))
        gt_masks = list(islice(masks, len(g)))
        matches[image_id] = _match_masks(p, g, pred_masks, gt_masks, iou_threshold)

    def report(image_ids):
        # one report over these images' matches, pairs and poses, in order
        ms = [matches[image_id] for image_id in image_ids]

        def pairs(getter):
            for image_id, m in zip(image_ids, ms):
                yield from _paired_values(
                    m, preds[image_id].instances, gts[image_id].instances, getter
                )

        poses = (
            (preds[image_id].pose, gts[image_id].pose)
            for image_id in image_ids
            if preds[image_id].pose is not None and gts[image_id].pose is not None
        )
        return _report(
            sum(m.tp for m in ms),
            sum(m.fp for m in ms),
            sum(m.fn for m in ms),
            pairs(lambda inst: inst.offset),
            pairs(lambda inst: inst.height),
            poses,
        )

    per_image = {image_id: report([image_id]) for image_id in ids}
    return EvalResult(aggregate=report(ids), per_image=per_image)
