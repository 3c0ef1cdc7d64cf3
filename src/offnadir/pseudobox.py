"""Pseudo building bboxes: stand-ins for the roof+footprint extent.

When offsets are unannotated, the building bbox that detection training
needs can be reconstructed from footprint + height + image pose, or, with
no height either, by enlarging the footprint box by a margin.
"""

from __future__ import annotations

from .geometry import (
    BBox,
    ImagePose,
    Polygon2D,
    Vec2,
    bbox_intersection,
    bbox_of,
    bbox_union,
    offset_from_pose,
)

DEFAULT_EXPAND_RATIO = 0.1
# Coordinates lie within +-2**500: an image side capped here clips the same,
# also a side too large for a float
_MAX_SIDE = 2.0**1023


def pseudo_offset(
    h_gt: float, scale_s: float, tan_theta_pred: float, phi_pred: float
) -> Vec2:
    """Offset implied by ground-truth height and a (predicted) pose."""
    return offset_from_pose(h_gt, ImagePose(tan_theta_pred, phi_pred, scale_s))


def pseudo_bbox_level_h(
    footprint: Polygon2D, v: Vec2, image_w: int, image_h: int
) -> BBox:
    """Building bbox from footprint plus offset: union of footprint and the
    back-translated roof estimate, clipped to the image last.

    Raises ValueError when the clipped result is empty.
    """
    b = bbox_of(footprint)
    # the back-translated footprint's bbox is b shifted by -v: rounding is
    # monotonic, so the shifted min/max equal the min/max of shifted vertices
    dx, dy = -v.dx, -v.dy
    roof_est = BBox(b.x_min + dx, b.y_min + dy, b.x_max + dx, b.y_max + dy)
    box = bbox_union(b, roof_est)
    w, h = float(min(image_w, _MAX_SIDE)), float(min(image_h, _MAX_SIDE))
    clipped = bbox_intersection(box, BBox(0.0, 0.0, w, h))
    if clipped is None:
        raise ValueError("pseudo bbox is empty after clipping to the image")
    return clipped


def pseudo_bbox_level_n(
    footprint: Polygon2D, expand_ratio: float, image_w: int, image_h: int
) -> BBox:
    """Building bbox from footprint alone: each side pushed outward by
    expand_ratio times that dimension, then clipped to the image.
    """
    if not expand_ratio >= 0:  # false for NaN too
        raise ValueError(f"expand_ratio must be >= 0, got {expand_ratio}")
    box = bbox_of(footprint)
    mx = expand_ratio * box.width
    my = expand_ratio * box.height
    x_min, x_max = box.x_min - mx, box.x_max + mx
    y_min, y_max = box.y_min - my, box.y_max + my
    # clamp instead of intersect: this path never errors
    w, h = float(min(image_w, _MAX_SIDE)), float(min(image_h, _MAX_SIDE))
    x_min = min(max(x_min, 0.0), w)
    x_max = min(max(x_max, 0.0), w)
    y_min = min(max(y_min, 0.0), h)
    y_max = min(max(y_max, 0.0), h)
    return BBox(x_min, y_min, x_max, y_max)
