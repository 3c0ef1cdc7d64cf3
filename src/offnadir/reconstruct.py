"""3D model tail: polygon simplification, prism extrusion, and
OBJ export.

Footprints are simplified with Douglas-Peucker (adapted to closed rings by
splitting at the two most distant vertices), scaled from pixels to meters,
and extruded into flat-roofed prisms.

The OBJ bytes depend on two choices, made alike on every code path:

* The ring is split at the first pair (i, j), i < j, in row-major order
  whose ``(xi - xj) * (xi - xj) + (yi - yj) * (yi - yj)`` is the largest.
  Products, not ``** 2``: the loop and the numpy pass compute the same
  IEEE products, whatever libm's ``pow`` does.
* The cap is clipped one ear at a time. Each step clips the first position
  in ring order whose triangle (previous, this, next) has a positive cross
  product and no other remaining vertex in the closed triangle. Only if
  there is none does it clip the first position whose cross product is 0.

Larger rings find their split pair with a numpy pass over row blocks, in
bounded memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .dataset import Dataset
from .geometry import Polygon2D, translate_polygon

DEFAULT_EPSILON_PX = 1.0


@dataclass(frozen=True)
class Mesh3D:
    """Triangle mesh; vertices in meters, indices 0-based."""

    vertices: tuple
    triangles: tuple

    def __post_init__(self):
        n = len(self.vertices)
        for tri in self.triangles:
            if len(tri) != 3:
                raise ValueError(f"triangle must have 3 indices, got {tri}")
            for idx in tri:
                if type(idx) is not int:  # bool and numpy integers too
                    raise ValueError(f"triangle index {idx!r} is not an int")
                if not 0 <= idx < n:
                    raise ValueError(f"triangle index {idx} out of range [0, {n})")

    @classmethod
    def _trusted(cls, vertices: tuple, triangles: tuple) -> "Mesh3D":
        """Mesh whose indices its caller has proven to be valid."""
        m = object.__new__(cls)
        vars(m).update(vertices=vertices, triangles=triangles)
        return m


def _check_epsilon(epsilon) -> None:
    if not epsilon >= 0:  # false for NaN too
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")


def simplify_chain(points, epsilon: float):
    """Douglas-Peucker on an open polyline; endpoints are always kept.

    Every removed point lies within epsilon of the segment between the two
    kept points enclosing it. A squared distance too large for a float is a
    ValueError.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("chain needs at least 2 points")
    _check_epsilon(epsilon)
    eps_sq = epsilon * epsilon
    keep = [False] * len(pts)
    keep[0] = keep[-1] = True
    stack = [(0, len(pts) - 1)]
    try:
        while stack:
            a, b = stack.pop()
            if b - a < 2:
                continue
            # the first farthest point from the segment a-b
            (ax, ay), (bx, by) = pts[a], pts[b]
            dx, dy = bx - ax, by - ay
            den = dx * dx + dy * dy
            d_max = -1.0
            idx = -1
            for i in range(a + 1, b):
                px, py = pts[i]
                if den == 0.0:
                    d = (px - ax) ** 2 + (py - ay) ** 2
                else:
                    t = ((px - ax) * dx + (py - ay) * dy) / den
                    # min(1.0, max(0.0, t)), NaN and -0.0 included
                    t = 0.0 if not t > 0.0 else t if t < 1.0 else 1.0
                    d = (px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2
                if d > d_max:
                    d_max = d
                    idx = i
            if d_max > eps_sq:
                keep[idx] = True
                stack.append((a, idx))
                stack.append((idx, b))
    except OverflowError:  # `** 2` of a finite float
        raise ValueError("chain coordinates too large: a squared distance overflowed") from None
    return [p for p, k in zip(pts, keep) if k]


def simplify_dp(p: Polygon2D, epsilon: float) -> Polygon2D:
    """Simplify a closed polygon ring with Douglas-Peucker.

    The ring is split at its two most mutually distant vertices, each open
    chain is simplified, and the halves are rejoined. Raises ValueError if
    the result would collapse below 3 vertices or degenerate.
    """
    _check_epsilon(epsilon)
    verts = list(p.vertices)
    i, j = _farthest_pair(verts)
    chain_a = verts[i : j + 1]
    chain_b = verts[j:] + verts[: i + 1]
    simple_a = simplify_chain(chain_a, epsilon)
    simple_b = simplify_chain(chain_b, epsilon)
    ring = simple_a[:-1] + simple_b[:-1]
    if len(ring) < 3:
        raise ValueError(
            f"simplification with epsilon={epsilon} would collapse the polygon "
            f"to {len(ring)} vertices"
        )
    try:
        return Polygon2D(tuple(ring))
    except ValueError as e:
        raise ValueError(f"simplification degenerated the polygon: {e}") from e


# From this many vertices on, `_farthest_pair` finds its pair with a numpy
# pass; the pair chosen is the plain loop's. Measured per call
# (best of 15 x 30 calls; 2-vCPU x86-64 VM, CPython 3.11, numpy 2.4): the
# numpy pass costs 22-37 us from 12 to 32 vertices and overtakes the loop
# at 17-18 (37 against 57 us at 32).
_FARTHEST_PAIR_MIN_VERTICES = 18

# Elements of one numpy row block: a bound on each temporary array.
_BLOCK_ELEMENTS = 2**16


def _farthest_pair(verts):
    """(i, j) with i < j: the first pair in row-major order whose
    (xi - xj) * (xi - xj) + (yi - yj) * (yi - yj) is the largest."""
    n = len(verts)
    best, bi, bj = -1.0, 0, 1
    if n < _FARTHEST_PAIR_MIN_VERTICES:
        for (i, (xi, yi)), (j, (xj, yj)) in combinations(enumerate(verts), 2):
            dx, dy = xi - xj, yi - yj
            d = dx * dx + dy * dy
            if d > best:
                best, bi, bj = d, i, j
        return bi, bj
    import numpy as np

    # numpy's element-wise products and sums are the loop's, bit for bit.
    # Blocks of rows, in order, hold at most _BLOCK_ELEMENTS pairs each;
    # argmax takes a block's first largest in row-major order, and a block
    # replaces the best so far only if it beats it.
    xy = np.asarray(verts, dtype=float)
    x, y = xy[:, 0], xy[:, 1]
    rows = max(1, _BLOCK_ELEMENTS // n)
    for i0 in range(0, n - 1, rows):
        # rows i0 <= i < i1 against columns j > i0; where j <= i it reads -1
        i1 = min(i0 + rows, n - 1)
        d = x[i0:i1, None] - x[i0 + 1 :]
        dy = y[i0:i1, None] - y[i0 + 1 :]
        d *= d
        dy *= dy
        d += dy
        k = i1 - i0
        d[:, :k][np.arange(k)[:, None] > np.arange(k)] = -1.0
        r, c = divmod(int(d.argmax()), d.shape[1])
        if d[r, c] > best:
            best, bi, bj = float(d[r, c]), i0 + r, i0 + 1 + c
    return bi, bj


def _ear_clip(verts):
    """Triangulate a simple polygon given in positive-shoelace order.

    Returns index triples in the same winding as the input ring. Each step
    clips the first position in ring order whose triangle (previous, this,
    next) has a positive cross product and no other remaining vertex in the
    closed triangle; if there is none, the first with a zero cross product.
    """
    idx = list(range(len(verts)))
    tris = []
    while len(idx) > 3:
        m = len(idx)
        flat = -1
        for pos in range(m):
            ip, ic, inx = idx[pos - 1], idx[pos], idx[(pos + 1) % m]
            (ax, ay), (bx, by), (cx, cy) = verts[ip], verts[ic], verts[inx]
            cr = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cr < 0:
                continue
            if cr == 0:
                if flat < 0:
                    flat = pos
                continue
            if cr > 0:
                # the cross products (a - c) x (p - c), (b - a) x (p - a)
                # and (c - b) x (p - b); most vertices lie beyond the
                # diagonal c-a, so its test comes first
                for other in idx:
                    if other != ip and other != ic and other != inx:
                        px, py = verts[other]
                        if (
                            (ax - cx) * (py - cy) - (ay - cy) * (px - cx) >= 0
                            and (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0
                            and (cx - bx) * (py - by) - (cy - by) * (px - bx) >= 0
                        ):
                            break
                else:
                    break  # an ear
                continue
            break  # a NaN cross product is clipped too
        else:
            if flat < 0:
                raise ValueError("ear clipping stalled; polygon is degenerate")
            pos = flat
        tris.append((idx[pos - 1], idx[pos], idx[(pos + 1) % m]))
        del idx[pos]
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def extrude_prism(footprint: Polygon2D, h: float, scale_s: float) -> Mesh3D:
    """Extrude a footprint into a watertight prism.

    Horizontal coordinates are divided by scale_s (pixels to meters); the
    bottom cap sits at z = 0 and the top cap at z = h. For an n-gon the
    mesh has 2n vertices and 2(n - 2) + 2n triangles, wound outward.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"height must be > 0, got {h!r}")
    if not (math.isfinite(scale_s) and scale_s > 0):
        raise ValueError(f"scale_s must be > 0, got {scale_s!r}")
    ring = [(x / scale_s, y / scale_s) for x, y in footprint.vertices]
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in ring):
        raise ValueError(f"footprint coordinates overflow when divided by scale_s={scale_s!r}")
    n = len(ring)
    cap = _ear_clip(ring)
    vertices = [(x, y, 0.0) for x, y in ring] + [(x, y, float(h)) for x, y in ring]
    triangles = []
    # bottom cap faces -z: reverse the ring winding
    for i, j, k in cap:
        triangles.append((i, k, j))
    # top cap faces +z
    for i, j, k in cap:
        triangles.append((n + i, n + j, n + k))
    # side quads, outward for a positive-shoelace ring
    for i in range(n):
        i2 = (i + 1) % n
        triangles.append((i, i2, n + i2))
        triangles.append((i, n + i2, n + i))
    # trusted: every triangle is 3 ints from range(n) or n + range(n), and there are 2n vertices
    return Mesh3D._trusted(tuple(vertices), tuple(triangles))


def mesh_volume(m: Mesh3D) -> float:
    """Signed volume by the tetrahedron sum; positive for outward winding."""
    total = 0.0
    for i, j, k in m.triangles:
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = (
            m.vertices[i],
            m.vertices[j],
            m.vertices[k],
        )
        total += (
            x0 * (y1 * z2 - y2 * z1)
            - y0 * (x1 * z2 - x2 * z1)
            + z0 * (x1 * y2 - x2 * y1)
        )
    return total / 6.0


def mesh_is_watertight(m: Mesh3D) -> bool:
    """Edge-manifold check: every undirected edge on exactly 2 triangles."""
    counts = {}
    for tri in m.triangles:
        for t in range(3):
            a, b = tri[t], tri[(t + 1) % 3]
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    return bool(counts) and all(c == 2 for c in counts.values())


# ---------------------------------------------------------------------------
# OBJ I/O


def export_obj(meshes, path) -> None:
    """Write named meshes as ASCII OBJ with global 1-based indexing.

    Output is deterministic: fixed header, %.6f coordinates, LF endings.
    An object name must be printable ASCII, so that it fits on its `o`
    line; otherwise nothing is written and the error names the object.
    """
    meshes = list(meshes)
    total_v = sum(len(m.vertices) for _, m in meshes)
    total_f = sum(len(m.triangles) for _, m in meshes)
    lines = [f"# prism models: {len(meshes)} objects, {total_v} vertices, {total_f} faces"]
    base = 0
    for name, mesh in meshes:
        if not (name.isascii() and name.isprintable()):
            raise ValueError(f"object name {name!r} is not printable ASCII")
        lines.append(f"o {name}")
        for x, y, z in mesh.vertices:
            lines.append(f"v {x:.6f} {y:.6f} {z:.6f}")
        for i, j, k in mesh.triangles:
            lines.append(f"f {base + i + 1} {base + j + 1} {base + k + 1}")
        base += len(mesh.vertices)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines))
        f.write("\n")


def parse_obj(path):
    """Read an OBJ file written by export_obj back into (name, Mesh3D) pairs."""
    objects = []
    current = None  # [name, vert_start, vertices, triangles]
    with open(path, encoding="ascii") as f:
        for line_no, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "o":
                start = 0 if current is None else current[1] + len(current[2])
                if current is not None:
                    objects.append(current)
                # the name is the rest of the line after "o ", spaces and all
                current = [raw.lstrip()[2:].rstrip("\n"), start, [], []]
            elif parts[0] == "v":
                if current is None:
                    raise ValueError(f"line {line_no}: vertex before any object")
                try:
                    xyz = tuple(float(c) for c in parts[1:4])
                except ValueError as e:
                    raise ValueError(f"line {line_no}: {e}") from e
                if len(xyz) != 3:
                    raise ValueError(f"line {line_no}: vertex needs 3 coordinates, got {len(xyz)}")
                if not all(map(math.isfinite, xyz)):
                    raise ValueError(f"line {line_no}: vertex coordinates must be finite")
                current[2].append(xyz)
            elif parts[0] == "f":
                if current is None:
                    raise ValueError(f"line {line_no}: face before any object")
                if len(parts) != 4:
                    raise ValueError(f"line {line_no}: face needs 3 indices, got {len(parts) - 1}")
                try:
                    idxs = [int(c.split("/")[0]) for c in parts[1:]]
                except ValueError as e:
                    raise ValueError(f"line {line_no}: {e}") from e
                # global 1-based: the current object's vertices read so far
                lo, hi = current[1] + 1, current[1] + len(current[2])
                for idx in idxs:
                    if not lo <= idx <= hi:
                        raise ValueError(
                            f"line {line_no}: face index {idx} out of range [{lo}, {hi}]"
                        )
                current[3].append(tuple(idx - lo for idx in idxs))
            else:
                raise ValueError(f"line {line_no}: unsupported OBJ element {parts[0]!r}")
    if current is not None:
        objects.append(current)
    return [
        (name, Mesh3D(vertices=tuple(vs), triangles=tuple(ts)))
        for name, _, vs, ts in objects
    ]


# ---------------------------------------------------------------------------
# dataset reconstruction


@dataclass(frozen=True)
class SkippedInstance:
    image_id: str
    instance_index: int
    reason: str


@dataclass(frozen=True)
class ReconstructionResult:
    meshes: tuple  # (name, Mesh3D) pairs, ordered by image id then index
    skipped: tuple  # SkippedInstance entries


def reconstruct_dataset(
    d: Dataset,
    epsilon: float = DEFAULT_EPSILON_PX,
    default_height: float | None = None,
    default_scale_s: float | None = None,
) -> ReconstructionResult:
    """Build one prism per usable instance.

    The footprint is taken as given or derived by translating the roof by
    the offset; the polygon is simplified, then extruded to the instance
    height (or default_height). The scale comes from the record pose or
    default_scale_s. Instances that cannot be reconstructed are skipped and
    reported, not fatal; a NaN or negative epsilon and a non-finite
    default are a ValueError instead.
    """
    _check_epsilon(epsilon)
    for name, value in (("default_height", default_height), ("default_scale_s", default_scale_s)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    meshes = []
    skipped = []
    for record in sorted(d.records, key=lambda r: r.image_id):
        scale = record.pose.scale_s if record.pose is not None else default_scale_s
        for k, inst in enumerate(record.instances):
            height = inst.height if inst.height is not None else default_height
            try:
                # BuildingInstance guarantees a footprint or a roof with an offset
                footprint = inst.footprint
                if footprint is None:
                    footprint = translate_polygon(inst.roof, inst.offset)
                if height is None:
                    raise ValueError("no height and no default height")
                if height <= 0:
                    raise ValueError(f"height {height} is not extrudable")
                if scale is None:
                    raise ValueError("no pose scale and no default scale")
                mesh = extrude_prism(simplify_dp(footprint, epsilon), height, scale)
            except ValueError as e:
                skipped.append(SkippedInstance(record.image_id, k, str(e)))
            else:
                meshes.append((f"{record.image_id}_{k:03d}", mesh))
    return ReconstructionResult(meshes=tuple(meshes), skipped=tuple(skipped))
