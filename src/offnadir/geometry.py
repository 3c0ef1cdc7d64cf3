"""Planar geometry core: the height/offset relation, polygons, and boxes.

Conventions used throughout the package:

* pixel frame: x grows right, y grows down;
* the offset angle ``phi`` is measured from +x toward +y, in radians;
* a building offset points from roof to footprint, so
  ``footprint = roof + offset`` and ``roof = footprint - offset``;
* polygon vertices are stored with positive shoelace winding (on screen,
  with y down, that traversal appears clockwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(phi: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    r = math.fmod(phi, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod can land exactly on 2*pi after the shift
        r = 0.0
    return r


@dataclass(frozen=True)
class Vec2:
    """2D pixel vector with finite components."""

    dx: float
    dy: float

    def __post_init__(self):
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise ValueError(f"Vec2 components must be finite, got ({self.dx!r}, {self.dy!r})")

    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.dx, -self.dy)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.dx + other.dx, self.dy + other.dy)


@dataclass(frozen=True)
class ImagePose:
    """Image-wise viewing geometry.

    ``tan_theta`` is the tangent of the off-nadir angle (>= 0), ``phi`` the
    offset angle (normalized into [0, 2*pi) on construction), and
    ``scale_s`` the meter-to-pixel scale factor (> 0).
    """

    tan_theta: float
    phi: float
    scale_s: float

    def __post_init__(self):
        for name in ("tan_theta", "phi", "scale_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ImagePose.{name} must be finite")
        if self.tan_theta < 0:
            raise ValueError(f"tan_theta must be >= 0, got {self.tan_theta}")
        if self.scale_s <= 0:
            raise ValueError(f"scale_s must be > 0, got {self.scale_s}")
        object.__setattr__(self, "phi", normalize_angle(self.phi))


def offset_from_pose(height_m: float, pose: ImagePose) -> Vec2:
    """Roof-to-footprint offset (pixels) of a building of the given height.

    The magnitude is ``height * scale_s * tan_theta`` and the direction is
    ``(cos phi, sin phi)``.
    """
    if not math.isfinite(height_m) or height_m < 0:
        raise ValueError(f"height must be finite and >= 0, got {height_m!r}")
    magnitude = height_m * pose.scale_s * pose.tan_theta
    return Vec2(magnitude * math.cos(pose.phi), magnitude * math.sin(pose.phi))


def height_from_offset(offset: Vec2, pose: ImagePose) -> float:
    """Building height (meters) implied by an offset vector.

    Raises ValueError at nadir (tan_theta == 0), where height is
    unobservable from the offset.
    """
    if pose.tan_theta == 0:
        raise ValueError("height is unobservable at nadir (tan_theta == 0)")
    return offset.norm() / (pose.scale_s * pose.tan_theta)


@dataclass(frozen=True)
class PoseFit:
    """Result of estimate_pose; ``degenerate`` marks an all-zero-offset fit."""

    tan_theta: float
    phi: float
    residual: float
    degenerate: bool = False


def estimate_pose(instances, scale_s: float) -> PoseFit:
    """Least-squares image pose from (height, offset) pairs.

    Fits the shared direction u = tan_theta * (cos phi, sin phi) minimizing
    sum ||v_i - h_i * s * u||^2, whose closed form is
    u = sum(h_i * s * v_i) / sum((h_i * s)^2). The residual is the RMS of
    the per-instance misfit norms. When all offsets are zero the fit is a
    legitimate nadir pose: tan_theta = 0, phi = 0 by convention, and the
    degenerate flag is set.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("estimate_pose requires at least one instance")
    if not (math.isfinite(scale_s) and scale_s > 0):
        raise ValueError(f"scale_s must be > 0, got {scale_s!r}")
    num_x = num_y = den = 0.0
    for h, v in instances:
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"instance heights must be > 0, got {h!r}")
        w = h * scale_s
        num_x += w * v.dx
        num_y += w * v.dy
        den += w * w
    ux = num_x / den
    uy = num_y / den
    sq = 0.0
    for h, v in instances:
        w = h * scale_s
        sq += (v.dx - w * ux) ** 2 + (v.dy - w * uy) ** 2
    residual = math.sqrt(sq / len(instances))
    tan_theta = math.hypot(ux, uy)
    if tan_theta == 0.0:
        return PoseFit(0.0, 0.0, residual, degenerate=True)
    return PoseFit(tan_theta, normalize_angle(math.atan2(uy, ux)), residual)


# ---------------------------------------------------------------------------
# polygons


def _signed_area(verts) -> float:
    s = 0.0
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def _on_segment(p, a, b) -> bool:
    # collinearity plus bbox containment; exact float comparisons on purpose
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0.0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """True if closed segments p1p2 and q1q2 share any point."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(p1, q1, q2):
        return True
    if d2 == 0 and _on_segment(p2, q1, q2):
        return True
    if d3 == 0 and _on_segment(q1, p1, p2):
        return True
    if d4 == 0 and _on_segment(q2, p1, p2):
        return True
    return False


def _check_simple(verts) -> None:
    """Raise ValueError unless the closed vertex ring is simple.

    Non-adjacent edges must not touch; adjacent edges must not fold back
    onto each other. Edge pairs are visited in row-major (i, j) order and
    the first violation sets the message.
    """
    n = len(verts)
    for i in range(n):
        a1, a2 = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            b1, b2 = verts[j], verts[(j + 1) % n]
            if j == i + 1:
                # share a2 == b1; the far endpoints must stay off the
                # neighboring edge
                if _on_segment(b2, a1, a2) or _on_segment(a1, b1, b2):
                    raise ValueError("polygon is not simple (edge fold-back)")
            elif i == 0 and j == n - 1:
                # share a1 == b2
                if _on_segment(b1, a1, a2) or _on_segment(a2, b1, b2):
                    raise ValueError("polygon is not simple (edge fold-back)")
            elif _segments_intersect(a1, a2, b1, b2):
                raise ValueError("polygon is not simple (self-intersection)")


# From this many vertices on, the n x n broadcast beats the edge-pair loop
# on simple polygons; below it numpy's per-call overhead dominates
# (measured crossover between 12 and 16 vertices on a 2-vCPU x86-64 VM,
# numpy 2.4, CPython 3.11).
_BROADCAST_MIN_VERTICES = 16


def _check_simple_broadcast(verts) -> None:
    """_check_simple over all edge pairs at once; same floats, same verdict.

    Edge k runs from P[k] = verts[k] to Q[k] = verts[(k + 1) % n]. Entry
    [i, j] of ``d1`` is _orient(P[j], Q[j], P[i]) and of ``d2`` is
    _orient(P[j], Q[j], Q[i]), with _orient's operand order, so every value
    equals the loop's bit for bit. _segments_intersect's d3 and d4 for pair
    (i, j) are then d1[j, i] and d2[j, i], and each _on_segment cross
    product it or the fold-back tests evaluate is one of d1..d4.
    """
    n = len(verts)
    p = np.asarray(verts, dtype=float)
    q = np.concatenate((p[1:], p[:1]))
    x, y = p.T
    qx, qy = q.T
    with np.errstate(over="ignore", invalid="ignore"):
        ex, ey = qx - x, qy - y
        d1 = ex * np.subtract.outer(y, y)
        d1 -= ey * np.subtract.outer(x, x)
        d2 = ex * np.subtract.outer(qy, y)
        d2 -= ey * np.subtract.outer(qx, x)
    lo, hi = np.minimum(p, q), np.maximum(p, q)

    def on_edge_j(pts):
        # [i, j]: pts[i] lies in the bbox of edge j
        inside = (lo <= pts[:, None]) & (pts[:, None] <= hi)
        return inside[..., 0] & inside[..., 1]

    # t1 / t2: P[i] / Q[i] lies on edge j (collinear and inside its bbox)
    t1 = (d1 == 0.0) & on_edge_j(p)
    t2 = (d2 == 0.0) & on_edge_j(q)
    # edge i's endpoints lie strictly on both sides of edge j's line
    straddle = ((d1 > 0.0) & (d2 < 0.0)) | ((d1 < 0.0) & (d2 > 0.0))
    del d1, d2
    touch = t1 | t2
    bad = (straddle & straddle.T) | touch | touch.T
    del straddle, touch
    # adjacent pairs (i, i + 1) and the closing pair (0, n - 1) share a
    # vertex and are only tested for fold-back
    k = np.arange(n)
    bad &= k[:, None] < k
    bad[k[:-1], k[1:]] = t1[k[:-1], k[1:]] | t2[k[1:], k[:-1]]
    bad[0, n - 1] = t1[n - 1, 0] | t2[0, n - 1]
    first = int(bad.argmax())
    if bad.flat[first]:
        i, j = divmod(first, n)
        if j == i + 1 or (i == 0 and j == n - 1):
            raise ValueError("polygon is not simple (edge fold-back)")
        raise ValueError("polygon is not simple (self-intersection)")


@dataclass(frozen=True)
class Polygon2D:
    """Simple polygon over pixel coordinates, implicitly closed.

    Requires >= 3 vertices, finite coordinates, nonzero area, and no
    self-intersection. Vertex order is canonicalized to positive shoelace
    winding on construction (reversed if needed; the starting vertex is
    kept).
    """

    vertices: tuple

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(verts) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(verts)}")
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("polygon vertices must be finite")
        if len(set(verts)) != len(verts):
            raise ValueError("polygon has repeated vertices")
        area2 = _signed_area(verts)
        if area2 == 0.0:
            raise ValueError("polygon has zero area")
        if area2 < 0.0:
            verts = verts[::-1]
        if len(verts) >= _BROADCAST_MIN_VERTICES:
            _check_simple_broadcast(verts)
        else:
            _check_simple(verts)
        object.__setattr__(self, "vertices", verts)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def __len__(self) -> int:
        return len(self.vertices)


def polygon_area(p: Polygon2D) -> float:
    """Unsigned shoelace area in square pixels."""
    return abs(_signed_area(p.vertices))


def translate_polygon(p: Polygon2D, v: Vec2) -> Polygon2D:
    """Shift every vertex by v; winding and vertex order are preserved."""
    return Polygon2D(tuple((x + v.dx, y + v.dy) for x, y in p.vertices))


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box; min corner must not exceed max corner."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"BBox.{name} must be finite")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted BBox: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, other: "BBox") -> bool:
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and self.x_max >= other.x_max
            and self.y_max >= other.y_max
        )


def bbox_of(p: Polygon2D) -> BBox:
    xs = [x for x, _ in p.vertices]
    ys = [y for _, y in p.vertices]
    return BBox(min(xs), min(ys), max(xs), max(ys))


def bbox_union(a: BBox, b: BBox) -> BBox:
    return BBox(
        min(a.x_min, b.x_min),
        min(a.y_min, b.y_min),
        max(a.x_max, b.x_max),
        max(a.y_max, b.y_max),
    )


def bbox_intersection(a: BBox, b: BBox) -> BBox | None:
    """Overlap of two boxes, or None when they are disjoint."""
    x_min = max(a.x_min, b.x_min)
    y_min = max(a.y_min, b.y_min)
    x_max = min(a.x_max, b.x_max)
    y_max = min(a.y_max, b.y_max)
    if x_min > x_max or y_min > y_max:
        return None
    return BBox(x_min, y_min, x_max, y_max)
