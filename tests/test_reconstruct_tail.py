"""Parity of the reconstruct tail with the plain loops it replaced.

`_ear_clip` and `simplify_dp` choose their ears and their split pair
exactly as the loops below do, bit for bit, and `simplify_dp` does so on
both sides of its crossover constant; the OBJ bytes depend on it.
"""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offnadir import reconstruct
from offnadir.geometry import Polygon2D
from offnadir.reconstruct import Mesh3D, _ear_clip, simplify_chain, simplify_dp

# ---------------------------------------------------------------------------
# oracles: the loops as they were before the one-pass and numpy paths


def oracle_ear_clip(verts):
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


def oracle_point_segment_dist_sq(p, a, b):
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


def oracle_simplify_chain(points, epsilon):
    pts = [(float(x), float(y)) for x, y in points]
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
            try:
                d = oracle_point_segment_dist_sq(pts[i], pts[a], pts[b])
            except OverflowError:
                raise ValueError(
                    "chain coordinates too large: a squared distance overflowed") from None
            if d > d_max:
                d_max = d
                idx = i
        if d_max > eps_sq:
            keep[idx] = True
            stack.append((a, idx))
            stack.append((idx, b))
    return [p for p, k in zip(pts, keep) if k]


def oracle_simplify_dp(p, epsilon):
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
    simple_a = oracle_simplify_chain(chain_a, epsilon)
    simple_b = oracle_simplify_chain(chain_b, epsilon)
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


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as e:
        return (type(e).__name__, str(e))


def both_paths(fn, *args, n):
    """fn(*args) with the crossover at 3 (numpy pass) and at n + 1 (loop)."""
    out = []
    for threshold in (3, n + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconstruct, "_FARTHEST_PAIR_MIN_VERTICES", threshold)
            out.append(outcome(fn, *args))
    return out


# ---------------------------------------------------------------------------
# rings: stars, random star-shaped rings, regular n-gons and rectangles
# (their diameters and diagonals tie), with collinear vertices inserted,
# at unit scale, near +-2**500 and tiny


def _regular(n, rot, radii):
    return [
        (radii[k % len(radii)] * math.cos(rot + 2 * math.pi * k / n),
         radii[k % len(radii)] * math.sin(rot + 2 * math.pi * k / n))
        for k in range(n)
    ]


@st.composite
def base_rings(draw):
    kind = draw(st.sampled_from(["star", "random", "ngon", "rect"]))
    if kind == "star":
        n = 2 * draw(st.integers(2, 48))
        inner = draw(st.floats(0.2, 0.9))
        return _regular(n, draw(st.floats(0.0, 1.0)), (1.0, inner))
    if kind == "ngon":
        return _regular(draw(st.integers(3, 96)), draw(st.sampled_from([0.0, 0.3])), (1.0,))
    if kind == "rect":
        w, h = draw(st.sampled_from([1.0, 0.5, 0.75])), draw(st.sampled_from([1.0, 0.25, 0.5]))
        return [(-w, -h), (w, -h), (w, h), (-w, h)]
    n = draw(st.integers(3, 96))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                                  min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]


@st.composite
def rings(draw):
    verts = draw(base_rings())
    # collinear vertices: midpoints (and quarter points) of some edges
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(verts) - 1))
        (ax, ay), (bx, by) = verts[k], verts[(k + 1) % len(verts)]
        verts.insert(k + 1, ((ax + bx) / 2, (ay + by) / 2))
    scale = draw(st.sampled_from([1.0, 37.5, 2.0**498, 2.0**-500, 2.0**-530]))
    try:
        return Polygon2D(tuple((x * scale, y * scale) for x, y in verts))
    except ValueError:
        assume(False)


PARITY = settings(max_examples=250, deadline=None, derandomize=True, database=None)


@PARITY
@given(rings())
def test_ear_clip_matches_the_loop(p):
    ring = list(p.vertices)
    for verts in (ring, ring[::-1]):  # reversed, most rings stall
        assert outcome(_ear_clip, verts) == outcome(oracle_ear_clip, verts)


@PARITY
@given(rings(), st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0, 3.0]))
def test_simplify_dp_matches_the_loops(p, eps):
    eps *= max(abs(c) for xy in p.vertices for c in xy)
    expected = outcome(oracle_simplify_dp, p, eps)
    if isinstance(expected, Polygon2D):
        expected = expected.vertices
    got = [r.vertices if isinstance(r, Polygon2D) else r
           for r in both_paths(simplify_dp, p, eps, n=len(p))]
    assert got == [expected, expected]


@PARITY
@given(
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=40),
    st.sampled_from([1.0, 2.0**-530, 1e150, 1e200]),
    st.sampled_from([0.0, 0.01, 0.2, 1.0]),
)
def test_simplify_chain_matches_the_loop(points, scale, eps):
    # 1e200 makes `** 2` overflow: the same ValueError, never an OverflowError
    pts = [(x * scale, y * scale) for x, y in points]
    assert outcome(simplify_chain, pts, eps * scale) == outcome(oracle_simplify_chain, pts,
                                                                eps * scale)


def test_simplify_chain_reports_an_overflowing_squared_distance():
    with pytest.raises(ValueError, match="squared distance overflowed"):
        simplify_chain([(0, 0), (1e200, 1e200), (2e200, 0)], 0.0)


def test_collapse_degenerate_and_stall_messages_match_the_loops():
    thin = Polygon2D(((0, 0), (10, 0), (10, 0.1), (0, 0.1)))
    assert both_paths(simplify_dp, thin, 1.0, n=4) == [outcome(oracle_simplify_dp, thin, 1.0)] * 2
    assert outcome(simplify_dp, thin, 1.0)[1].startswith("simplification with epsilon=1.0")
    # the simplified notch crosses itself
    notch = Polygon2D(((0, 0), (10, 0), (10, 1), (5, 0.2), (5, 5), (4.9, 0.2), (0, 1)))
    assert both_paths(simplify_dp, notch, 1.0, n=7) == [outcome(oracle_simplify_dp, notch, 1.0)] * 2
    assert outcome(simplify_dp, notch, 1.0)[1].startswith("simplification degenerated")
    cw = [(math.cos(-t), math.sin(-t)) for t in (2 * math.pi * k / 60 for k in range(60))]
    expected = ("ValueError", "ear clipping stalled; polygon is degenerate")
    assert outcome(_ear_clip, cw) == outcome(oracle_ear_clip, cw) == expected


def test_ear_clip_clips_a_nan_cross_product_as_the_loop_does():
    # a NaN cross product is neither negative, zero nor positive
    for ring in ([(0.0, 0.0), (2.0, 0.0), (math.nan, 1.0), (2.0, 2.0), (0.0, 2.0)],
                 [(math.nan, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]):
        assert outcome(_ear_clip, ring) == outcome(oracle_ear_clip, ring)


def test_farthest_pair_ties_keep_the_first_in_row_major_order():
    # a regular 64-gon: 32 diameters tie up to rounding; a 2x1 rectangle
    # with collinear midpoints: both diagonals tie exactly
    ngon = [(math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64)) for k in range(64)]
    rect = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (0.0, 1.0)]
    for verts in (ngon, rect):
        p = Polygon2D(tuple(verts))
        expected = oracle_simplify_dp(p, 0.0).vertices
        assert [r.vertices for r in both_paths(simplify_dp, p, 0.0, n=len(p))] == [expected] * 2


def _first_farthest_by(verts, dist):
    pairs = [(i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))]
    return max(pairs, key=lambda ij: (dist(verts[ij[0]], verts[ij[1]]), -ij[0], -ij[1]))


def test_farthest_pair_is_chosen_by_the_loops_squares():
    # quadrilaterals whose diagonals tie by `d * d` but not by `d ** 2`
    def by_pow(p, q):
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2

    def by_mul(p, q):
        return (p[0] - q[0]) * (p[0] - q[0]) + (p[1] - q[1]) * (p[1] - q[1])

    rng = random.Random(0)
    for _ in range(20_000):
        a, b = rng.uniform(0.5, 0.9), rng.uniform(0.3, 0.5)
        c = math.sqrt(a * a + b * b)
        p = Polygon2D(((0.0, 0.0), (0.0625, -0.125), (c, 0.0), (0.0625 + a, b - 0.125)))
        if _first_farthest_by(p.vertices, by_pow) != _first_farthest_by(p.vertices, by_mul):
            break
    else:
        pytest.skip("this libm's pow squares these floats as multiplication does")
    expected = oracle_simplify_dp(p, 0.0).vertices
    assert [r.vertices for r in both_paths(simplify_dp, p, 0.0, n=4)] == [expected] * 2


def test_farthest_pair_memory_is_bounded_by_row_blocks():
    # all n**2 / 2 squared distances at once would take 1.6 GB
    n = 20_000
    angles = [2 * math.pi * k / n for k in range(n)]
    ring = Polygon2D(tuple((1000 * math.cos(t), 1000 * math.sin(t)) for t in angles))
    tracemalloc.start()
    try:
        out = simplify_dp(ring, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # the ring was split at a diameter: it starts at one end of it
    i = ring.vertices.index(out.vertices[0])
    assert ring.vertices[(i + n // 2) % n] in out.vertices
    assert 30 < len(out) < 200


# ---------------------------------------------------------------------------
# Mesh3D indices


@pytest.mark.parametrize("index", [1.5, 2.0, True, False, np.int64(1), "1", None])
def test_mesh_rejects_indices_that_are_not_ints(index):
    tri = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    message = f"triangle index {index!r} is not an int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Mesh3D(tri, ((0, 1, index),))
    assert Mesh3D(tri, ((0, 1, 2),)).triangles == ((0, 1, 2),)
