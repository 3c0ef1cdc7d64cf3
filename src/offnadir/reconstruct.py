"""3D model tail: polygon simplification, prism extrusion, and
OBJ export.

Footprints are simplified with Douglas-Peucker (adapted to closed rings by
splitting at the two most distant vertices), scaled from pixels to meters,
and extruded into flat-roofed prisms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
                if not (0 <= idx < n):
                    raise ValueError(f"triangle index {idx} out of range [0, {n})")


def _point_segment_dist_sq(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return (px - ax) ** 2 + (py - ay) ** 2
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return (px - cx) ** 2 + (py - cy) ** 2


def _check_epsilon(epsilon) -> None:
    if not epsilon >= 0:  # false for NaN too
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")


def simplify_chain(points, epsilon: float):
    """Douglas-Peucker on an open polyline; endpoints are always kept.

    Every removed point lies within epsilon of the segment between the two
    kept points enclosing it.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("chain needs at least 2 points")
    _check_epsilon(epsilon)
    eps_sq = epsilon * epsilon
    keep = [False] * len(pts)
    keep[0] = keep[-1] = True
    stack = [(0, len(pts) - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        d_max = -1.0
        idx = -1
        for i in range(a + 1, b):
            d = _point_segment_dist_sq(pts[i], pts[a], pts[b])
            if d > d_max:
                d_max = d
                idx = i
        if d_max > eps_sq:
            keep[idx] = True
            stack.append((a, idx))
            stack.append((idx, b))
    return [p for p, k in zip(pts, keep) if k]


def simplify_dp(p: Polygon2D, epsilon: float) -> Polygon2D:
    """Simplify a closed polygon ring with Douglas-Peucker.

    The ring is split at its two most mutually distant vertices, each open
    chain is simplified, and the halves are rejoined. Raises ValueError if
    the result would collapse below 3 vertices or degenerate.
    """
    _check_epsilon(epsilon)
    verts = list(p.vertices)
    n = len(verts)
    best = (-1.0, 0, 1)
    for i in range(n):
        xi, yi = verts[i]
        for j in range(i + 1, n):
            xj, yj = verts[j]
            d = (xi - xj) ** 2 + (yi - yj) ** 2
            if d > best[0]:
                best = (d, i, j)
    _, i, j = best
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


def _ear_clip(verts):
    """Triangulate a simple polygon given in positive-shoelace order.

    Returns index triples in the same winding as the input ring.
    """
    n = len(verts)
    idx = list(range(n))
    tris = []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def point_in_closed_tri(pt, a, b, c):
        d1 = cross(a, b, pt)
        d2 = cross(b, c, pt)
        d3 = cross(c, a, pt)
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    while len(idx) > 3:
        m = len(idx)
        clipped = False
        for allow_degenerate in (False, True):
            for pos in range(m):
                ip, ic, inx = idx[pos - 1], idx[pos], idx[(pos + 1) % m]
                a, b, c = verts[ip], verts[ic], verts[inx]
                cr = cross(a, b, c)
                if cr < 0 or (cr == 0 and not allow_degenerate):
                    continue
                blocked = False
                if cr > 0:
                    for other in idx:
                        if other in (ip, ic, inx):
                            continue
                        if point_in_closed_tri(verts[other], a, b, c):
                            blocked = True
                            break
                if not blocked:
                    tris.append((ip, ic, inx))
                    del idx[pos]
                    clipped = True
                    break
            if clipped:
                break
        if not clipped:
            raise ValueError("ear clipping stalled; polygon is degenerate")
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
    return Mesh3D(vertices=tuple(vertices), triangles=tuple(triangles))


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
    """
    meshes = list(meshes)
    total_v = sum(len(m.vertices) for _, m in meshes)
    total_f = sum(len(m.triangles) for _, m in meshes)
    lines = [f"# prism models: {len(meshes)} objects, {total_v} vertices, {total_f} faces"]
    base = 0
    for name, mesh in meshes:
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
    verts_all = []
    current = None  # [name, vert_start, vertices, triangles]
    with open(path, encoding="ascii") as f:
        for line_no, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "o":
                if current is not None:
                    objects.append(current)
                current = [" ".join(parts[1:]), len(verts_all), [], []]
            elif parts[0] == "v":
                if current is None:
                    raise ValueError(f"line {line_no}: vertex before any object")
                xyz = tuple(float(c) for c in parts[1:4])
                verts_all.append(xyz)
                current[2].append(xyz)
            elif parts[0] == "f":
                if current is None:
                    raise ValueError(f"line {line_no}: face before any object")
                idxs = tuple(int(c.split("/")[0]) - 1 - current[1] for c in parts[1:4])
                current[3].append(idxs)
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
            # BuildingInstance guarantees a footprint or a roof with an offset
            footprint = inst.footprint
            if footprint is None:
                footprint = translate_polygon(inst.roof, inst.offset)
            height = inst.height if inst.height is not None else default_height
            try:
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
