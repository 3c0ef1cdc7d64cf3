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
import sys
from dataclasses import dataclass
from itertools import chain

TWO_PI = 2.0 * math.pi


def _finite(x) -> bool:
    """math.isfinite, but False for an int too large for a float and for a
    value that is not a real number."""
    try:
        return math.isfinite(x)
    except (OverflowError, TypeError):
        return False


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
        dx, dy = self.dx, self.dy
        if bool in (type(dx), type(dy)) or not (_finite(dx) and _finite(dy)):
            raise ValueError(f"Vec2 components must be finite numbers, got ({dx!r}, {dy!r})")

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
            value = getattr(self, name)
            if type(value) is bool:
                raise ValueError(f"ImagePose.{name} must be a number, got {value!r}")
            if not _finite(value):
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
    if not _finite(height_m) or height_m < 0:
        raise ValueError(f"height must be finite and >= 0, got {height_m!r}")
    magnitude = height_m * pose.scale_s * pose.tan_theta
    return Vec2(magnitude * math.cos(pose.phi), magnitude * math.sin(pose.phi))


def height_from_offset(offset: Vec2, pose: ImagePose) -> float:
    """Building height (meters) implied by an offset vector.

    Raises ValueError at nadir (tan_theta == 0), where height is
    unobservable from the offset, and where scale_s * tan_theta underflows
    to 0.
    """
    px_per_m = pose.scale_s * pose.tan_theta
    if px_per_m == 0:
        raise ValueError(
            f"height is unobservable at nadir (scale_s * tan_theta == 0, "
            f"tan_theta = {pose.tan_theta!r})"
        )
    return offset.norm() / px_per_m


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
    if not (_finite(scale_s) and scale_s > 0):
        raise ValueError(f"scale_s must be > 0, got {scale_s!r}")
    num_x = num_y = den = 0.0
    for h, v in instances:
        if not (_finite(h) and h > 0):
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
    # shoelace about the first vertex: over absolute coordinates, the large
    # products of a small polygon far from the origin cancel to zero
    x0, y0 = verts[0]
    px, py = verts[1][0] - x0, verts[1][1] - y0
    s = 0.0
    for x, y in verts[2:]:
        x -= x0
        y -= y0
        s += px * y - x * py
        px, py = x, y
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


def _check_simple(verts):
    """Row-major index i * n + j of the closed ring's first violating edge
    pair (i, j), or None when the ring is simple.

    Non-adjacent edges must not touch; adjacent edges must not fold back
    onto each other. Edges whose closed bboxes are disjoint cannot touch and
    are not tested, as in _first_violation, so a rounding error in the
    orientations cannot make them cross.
    """
    n = len(verts)
    nxt = verts[1:] + verts[:1]
    first = n * n
    boxes = []
    (ax, ay), (bx, by) = verts[-1], verts[0]
    for i, (cx, cy) in enumerate(nxt):
        # edges i - 1 = a b and i = b c share b: c must stay off a b and a
        # off b c, which needs a cross product of 0 first
        if (((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0.0
                and _on_segment((cx, cy), (ax, ay), (bx, by)))
                or ((cx - bx) * (ay - by) - (cy - by) * (ax - bx) == 0.0
                    and _on_segment((ax, ay), (bx, by), (cx, cy)))):
            first = min(first, (i - 1) * n + i if i else n - 1)  # i = 0: the pair (0, n - 1)
        lx, hx = (bx, cx) if bx <= cx else (cx, bx)
        ly, hy = (by, cy) if by <= cy else (cy, by)
        boxes.append((lx, hx, ly, hy))
        ax, ay, bx, by = bx, by, cx, cy
    # the pairs that share no vertex, in row-major order
    for i in range(n - 2):
        lxa, hxa, lya, hya = boxes[i]
        for j in range(i + 2, n - 1 if i == 0 else n):
            lxb, hxb, lyb, hyb = boxes[j]
            if hxa < lxb or hxb < lxa or hya < lyb or hyb < lya:
                continue
            if _segments_intersect(verts[i], nxt[i], verts[j], nxt[j]):
                return min(first, i * n + j)
    return first if first < n * n else None


# From this many vertices on, a single polygon is checked by the kernel
# rather than the edge-pair loop. Measured per call (medians of 9 x 50
# calls; 2-vCPU x86-64 VM, numpy 2.4, CPython 3.11): the kernel costs
# 120-300 us at 12-64 vertices whatever the shape. The loop costs 50 us on a
# 16-vertex circle or star, where most bboxes are disjoint, and stays faster
# up to 40-48 vertices there; but on a zigzag whose edge bboxes all overlap
# it costs 180-200 us at 16 vertices and grows as n**2 (3 ms at 64). The
# threshold is where that worst case meets the kernel.
_BROADCAST_MIN_VERTICES = 16

# Bounds of one kernel pass, each also a bound on its memory. A pass builds
# the bbox-overlap mask of at most _BATCH_PAIRS edge pairs over at most
# _BATCH_EDGES edges (blocks of rows for a single larger ring), then runs the
# float tests on at most _BATCH_CANDIDATES of the pairs it keeps. Sized by
# dataset_from_json on the seed-1 benchmark gt and pred (medians of 31
# in-process runs, same VM): 2**17 pairs check the 64-vertex `stars` rings
# 32 to a call in 2.31 / 2.18 ms with a 1.08 MB tracemalloc peak per call,
# against 2.58 / 2.45 ms and 0.55 MB at 2**16; 2**18 with 2**12 edges (64
# rings a call) was slower again, 2.45 / 2.36 ms at 1.87 MB. Capping edges
# at 2**11 keeps 4-6-vertex rings (`city`, `tiles`; the pair bound does not
# bind there) at a 0.46 MB peak: gt / pred in 3.71 / 3.83 ms on `city` and
# 5.94 / 6.22 ms on `tiles`. 2**12 read 2-3% faster on them in-process
# (0.78 MB) but did not pay end to end, and 2**10 gave 0.30 MB but was 13%
# slower.
_BATCH_PAIRS = 2**17
_BATCH_EDGES = 2**11
# A zigzag ring can make every pair a candidate: at 2**12 per pass, a
# 2000-vertex one takes 0.8 s with a 2.2 MB tracemalloc peak.
_BATCH_CANDIDATES = 2**12


def _first_violation(p: np.ndarray):
    """_check_simple's first violation among m rings of n vertices, or None.

    ``p`` has shape (m, n, 2). Returns (r, i * n + j) for the first ring r
    that is not simple and its first violating edge pair (i, j) in
    row-major order. Edge k runs from P[k] to Q[k] = P[(k + 1) % n]. Each
    orientation is _orient's, with its operand order, so every value equals
    the loop's bit for bit, and each _on_segment cross product the loop
    evaluates is one of them.
    """
    import numpy as np

    m, n, _ = p.shape
    # x and y planes of vertices 0..n + 1 (mod n): edge k runs from
    # ext[:, :, k] to ext[:, :, k + 1]
    xy = np.ascontiguousarray(p.transpose(2, 0, 1))
    ext = np.concatenate((xy, xy[:, :, :2]), axis=2)
    lo, hi = np.minimum(ext[:, :, :-1], ext[:, :, 1:]), np.maximum(ext[:, :, :-1], ext[:, :, 1:])
    (x, y), (qx, qy), (rx, ry) = ext[:, :, :n], ext[:, :, 1:n + 1], ext[:, :, 2:]
    (lox, loy), (hix, hiy) = lo[:, :, :n], hi[:, :, :n]
    # Pairs that share a vertex are only tested for fold-back: edge i with
    # edge k = i + 1 (mod n), where i = n - 1 is the closing pair (0, n - 1).
    # P[i] on edge k, or Q[k] = (rx, ry) on edge i.
    (klox, kloy), (khix, khiy) = lo[:, :, 1:], hi[:, :, 1:]
    fold = ((rx - qx) * (y - qy) - (ry - qy) * (x - qx) == 0.0)
    fold &= (klox <= x) & (x <= khix) & (kloy <= y) & (y <= khiy)
    fold |= (((qx - x) * (ry - y) - (qy - y) * (rx - x) == 0.0)
             & (lox <= rx) & (rx <= hix) & (loy <= ry) & (ry <= hiy))
    pair = np.arange(n) * (n + 1) + 1  # row-major index of (i, i + 1)
    pair[-1] = n - 1
    first = np.where(fold, pair, n * n).min(axis=1)
    crossing = _first_crossing(x, y, qx, qy, lox, hix, loy, hiy)
    if crossing is not None:
        r, k = crossing
        first[r] = min(first[r], k)
    bad = np.flatnonzero(first < n * n)
    return (int(bad[0]), int(first[bad[0]])) if bad.size else None


def _first_crossing(x, y, qx, qy, lox, hix, loy, hiy):
    """First (r, i * n + j) at which edges i and j of ring r touch, over
    pairs that share no vertex, or None; arguments are (m, n) planes.

    Only pairs whose closed bboxes overlap can touch and are tested, in
    slices from _run_candidates for rings of _RUN_MIN_VERTICES or more in
    calls of _RUN_MIN_PAIRS or more edge pairs, else from _box_candidates.
    No index of a slice or a later one is below its floor, so the scan stops
    once the floor passes the smallest index hit."""
    import numpy as np

    m, n = x.shape
    edges = np.stack((x, y, qx, qy, qx - x, qy - y, lox, hix, loy, hiy)).reshape(10, m * n)
    runs = n >= _RUN_MIN_VERTICES and m * n * n >= _RUN_MIN_PAIRS
    best = m * n * n  # above every index
    for floor, ki, kj in (_run_candidates if runs else _box_candidates)(lox, hix, loy, hiy):
        if floor > best:
            break
        px, py, qix, qiy, exi, eyi = np.take(edges[:6], ki, axis=1)
        sx, sy, tx, ty, exj, eyj = np.take(edges[:6], kj, axis=1)
        # _segments_intersect's d1..d4
        d1 = exj * (py - sy) - eyj * (px - sx)
        d2 = exj * (qiy - sy) - eyj * (qix - sx)
        d3 = exi * (sy - py) - eyi * (sx - px)
        d4 = exi * (ty - py) - eyi * (tx - px)
        # each edge's endpoints lie strictly on both sides of the other's line
        sides, ends = np.sign(d1) * np.sign(d2), np.sign(d3) * np.sign(d4)
        bad = (sides < 0.0) & (ends < 0.0)
        if not (sides * ends).all():
            # some d is 0: P[i] / Q[i] lies on edge j, P[j] / Q[j] on edge i
            lxi, hxi, lyi, hyi = np.take(edges[6:], ki, axis=1)
            lxj, hxj, lyj, hyj = np.take(edges[6:], kj, axis=1)
            bad |= (d1 == 0.0) & (lxj <= px) & (px <= hxj) & (lyj <= py) & (py <= hyj)
            bad |= (d2 == 0.0) & (lxj <= qix) & (qix <= hxj) & (lyj <= qiy) & (qiy <= hyj)
            bad |= (d3 == 0.0) & (lxi <= sx) & (sx <= hxi) & (lyi <= sy) & (sy <= hyi)
            bad |= (d4 == 0.0) & (lxi <= tx) & (tx <= hxi) & (lyi <= ty) & (ty <= hyi)
        hits = np.flatnonzero(bad)
        if hits.size:  # ki * n + kj % n is r * n * n + i * n + j
            best = min(best, int((ki[hits] * n + kj[hits] % n).min()))
    return divmod(best, n * n) if best < m * n * n else None


def _box_candidates(lox, hix, loy, hiy):
    """(floor, ki, kj): the flat indices r * n + i and r * n + j of the pairs
    i + 1 < j, but (0, n - 1), whose bboxes overlap, in row-major order, at
    most _BATCH_CANDIDATES a slice. A single ring's mask is built in blocks
    of rows of at most about _BATCH_PAIRS pairs; several rings take one."""
    import numpy as np

    m, n = lox.shape
    columns = np.arange(n)
    i0 = 0
    while i0 < n - 1:
        # rows i0..i1 - 1 against columns j > i0
        i1 = n if m > 1 else i0 + max(1, _BATCH_PAIRS // (n - i0))
        rows, cols = slice(i0, i1), slice(i0 + 1, n)
        mask = columns[rows, None] + 1 < columns[cols]
        if i0 == 0:
            mask[0, -1] = False  # the closing pair
        mask = mask & (lox[:, rows, None] <= hix[:, None, cols])
        mask &= lox[:, None, cols] <= hix[:, rows, None]
        mask &= loy[:, rows, None] <= hiy[:, None, cols]
        mask &= loy[:, None, cols] <= hiy[:, rows, None]
        # with one ring or one block, row + i0 is the flat index r * n + i
        candidates = np.flatnonzero(mask)
        for s in range(0, candidates.size, _BATCH_CANDIDATES):
            row, col = np.divmod(candidates[s:s + _BATCH_CANDIDATES], n - i0 - 1)
            ki = row + i0
            kj = ki + (col + (i0 + 1) - ki % n)
            yield int(ki[0] * n + kj[0] % n), ki, kj
        i0 = i1


# Measured per _first_violation call on stars and circles against
# _box_candidates (CHANGES.md): runs of 4 edges cost 20-40% more at 16-24
# vertices and below 2**15 pairs (one ring of 32-96 vertices: 5-45%), and
# 4-65% less from 32 vertices and 2**15 pairs on; 2, 3, 5, 6 and 8 were no faster.
_RUN_MIN_VERTICES = 32
_RUN_MIN_PAIRS = 2**15
_RUN_EDGES = 4


def _run_candidates(lox, hix, loy, hiy):
    """_box_candidates' pairs, pruned by runs of _RUN_EDGES edges: a run's
    box holds its edges' bboxes, so edge pairs of runs with disjoint boxes
    are not tested. A single ring's run pairs (a, b), a <= b, go in blocks of
    rows of at most about _BATCH_PAIRS, their edges' box tests in slices of
    _BATCH_PAIRS / 4 (four planes); a slice's floor is its first (r, a)."""
    import numpy as np

    m, n = lox.shape
    size, runs = _RUN_EDGES, -(-n // _RUN_EDGES)
    # lo corners and negated hi corners as (plane, edge of run, run), with
    # empty boxes after edge n - 1: boxes overlap iff lo <= hi in each plane
    lo = np.full((4, m, runs * size), np.inf)
    lo[:, :, :n] = (lox, loy, -hix, -hiy)
    lo = np.ascontiguousarray(lo.reshape(4, m * runs, size).transpose(0, 2, 1))
    hi = -lo[[2, 3, 0, 1]]
    run_lo = lo.min(axis=1).reshape(4, m, runs)
    run_hi = -run_lo[[2, 3, 0, 1]]
    first = (np.arange(m)[:, None] * n + np.arange(0, n, size)).ravel()  # r * n + a * size
    steps, columns = np.arange(size), np.arange(runs)
    below = 2 - (steps - steps[:, None])[:, :, None]  # j - i >= 2 iff gap * size >= below
    step = max(1, _BATCH_PAIRS // (4 * size * size))
    a0 = 0
    while a0 < runs:
        # run rows a0..a1 - 1 against columns b >= a0
        a1 = runs if m > 1 else a0 + max(1, _BATCH_PAIRS // (runs - a0))
        over = run_lo[:, :, a0:a1, None] <= run_hi[:, :, None, a0:]
        mask = columns[a0:a1, None] <= columns[a0:]
        kept = np.flatnonzero(mask & over[0] & over[1] & over[2] & over[3])
        for h in range(0, kept.size, step):
            # flat run indices r * runs + a and r * runs + b; every (a, a) is kept
            ka, kb = np.divmod(kept[h:h + step], runs - a0)
            ka += a0
            kb += ka - ka % runs + a0
            # (s, t, run pair) for edges i = a * size + s and j = b * size + t
            over = np.take(lo, ka, axis=2)[:, :, None] <= np.take(hi, kb, axis=2)[:, None]
            gap = kb - ka
            ok = (gap * size >= below) & over[0] & over[1] & over[2] & over[3]
            ok[0, (n - 1) % size, gap == runs - 1] = False  # the closing pair
            candidates, floor = np.flatnonzero(ok), int(first[ka[0]] * n)
            for c in range(0, candidates.size, _BATCH_CANDIDATES):
                st, k = np.divmod(candidates[c:c + _BATCH_CANDIDATES], ka.size)
                si, tj = np.divmod(st, size)
                yield floor, first[ka[k]] + si, first[kb[k]] + tj
        a0 = a1


def _simplicity_message(n: int, first: int) -> str:
    """Message for the violating edge pair at row-major index first."""
    i, j = divmod(first, n)
    if j == i + 1 or (i == 0 and j == n - 1):
        return "polygon is not simple (edge fold-back)"
    return "polygon is not simple (self-intersection)"


def _numpy_loaded() -> bool:
    return sys.modules.get("numpy") is not None  # None: its import is blocked


def _first_non_simple(rings):
    """Index and message of the first non-simple ring, or None.

    ``rings`` is a sequence of canonical vertex tuples (_canonical_ring's
    results). This is the one place that chooses how rings are checked, and
    both routes give the same first ring and message. _check_simple's loop
    runs on each ring in order when every ring has fewer than
    _BROADCAST_MIN_VERTICES vertices and there is one ring or numpy is not
    loaded: importing numpy costs 100-150 ms, and the loop about 1 us more
    per 4-vertex ring (2.3 against 1.1 us), so the kernel would pay for the
    import only beyond some 100 000 rings. Otherwise rings of equal vertex
    count go through the kernel together, at most _BATCH_PAIRS edge pairs
    and _BATCH_EDGES edges (and at least one ring) per call.
    """
    if max(map(len, rings), default=0) < _BROADCAST_MIN_VERTICES and (
        len(rings) == 1 or not _numpy_loaded()
    ):
        for index, verts in enumerate(rings):
            first = _check_simple(verts)
            if first is not None:
                return index, _simplicity_message(len(verts), first)
        return None
    import numpy as np

    found = {}
    for n, chunk in _kernel_chunks(map(len, rings)):
        if n in found:
            continue  # later chunks of this group come later in rings
        flat = chain.from_iterable(chain.from_iterable(rings[i] for i in chunk))
        p = np.fromiter(flat, float, len(chunk) * n * 2).reshape(len(chunk), n, 2)
        hit = _first_violation(p)
        if hit is not None:
            found[n] = (chunk[hit[0]], _simplicity_message(n, hit[1]))
    return min(found.values(), default=None)


def _kernel_chunks(counts):
    """(n, indices) for the rings of each vertex count n in counts, in order,
    in chunks of at most _BATCH_PAIRS edge pairs and _BATCH_EDGES edges (and
    at least one ring): the bounds of one _first_violation call."""
    groups = {}
    for index, n in enumerate(counts):
        groups.setdefault(n, []).append(index)
    for n, indices in groups.items():
        step = max(1, min(_BATCH_PAIRS // (n * n), _BATCH_EDGES // n))
        for s in range(0, len(indices), step):
            yield n, indices[s:s + step]


# Coordinate differences stay within 2**501, so every orientation product
# stays below 2**1003 and the simplicity checks cannot overflow to inf/NaN
# (where every comparison is false and a crossing would pass).
_MAX_COORD = 2.0**500


def _canonical_ring(vertices) -> tuple:
    """Float vertex pairs of a ring, reversed if needed to positive winding.

    Raises ValueError for fewer than 3 vertices, a coordinate that is not
    finite or lies beyond +-2**500, a repeated vertex, or zero area.
    Simplicity is not checked here.
    """
    try:
        verts = tuple((float(x), float(y)) for x, y in vertices)
    except OverflowError:  # an int too large for a float
        raise ValueError("polygon vertex coordinates must lie within +-2**500") from None
    return _canonical(verts)


def _canonical(verts: tuple) -> tuple:
    # _canonical_ring's checks, on a tuple of float pairs
    if len(verts) < 3:
        raise ValueError(f"polygon needs >= 3 vertices, got {len(verts)}")
    for x, y in verts:
        # false for inf and NaN too
        if not (abs(x) <= _MAX_COORD and abs(y) <= _MAX_COORD):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("polygon vertices must be finite")
            raise ValueError("polygon vertex coordinates must lie within +-2**500")
    if len(set(verts)) != len(verts):
        raise ValueError("polygon has repeated vertices")
    area2 = _signed_area(verts)
    if area2 == 0.0:
        raise ValueError("polygon has zero area")
    if area2 < 0.0:
        verts = verts[::-1]
    return verts


@dataclass(frozen=True)
class Polygon2D:
    """Simple polygon over pixel coordinates, implicitly closed.

    Requires >= 3 vertices, finite coordinates within +-2**500, nonzero
    area, and no self-intersection. Vertex order is canonicalized to
    positive shoelace winding on construction (reversed if needed; the
    starting vertex is kept).
    """

    vertices: tuple

    def __post_init__(self):
        verts = _canonical_ring(self.vertices)
        found = _first_non_simple((verts,))
        if found is not None:
            raise ValueError(found[1])
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def _trusted(cls, verts: tuple) -> "Polygon2D":
        """Polygon over canonical vertices whose simplicity is checked or proven elsewhere."""
        p = object.__new__(cls)
        object.__setattr__(p, "vertices", verts)
        return p

    def as_array(self) -> np.ndarray:
        import numpy as np

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
            if not _finite(getattr(self, name)):
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
