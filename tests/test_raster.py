import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from offnadir import raster
from offnadir.geometry import Polygon2D, Vec2
from offnadir.metrics import mask_iou
from offnadir.raster import (
    BitMask,
    mask_to_rle,
    rasterize_polygon,
    rasterize_polygons,
    rle_to_mask,
    round_half_away,
    translate_mask,
)


def brute_force_inside(verts, px, py):
    """Reference even-odd test: ray toward -x, boundary points excluded."""
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if (
            cross == 0.0
            and min(x1, x2) <= px <= max(x1, x2)
            and min(y1, y2) <= py <= max(y1, y2)
        ):
            return False
    crossings = 0
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        if (y1 <= py < y2) or (y2 <= py < y1):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if xc < px:
                crossings += 1
    return crossings % 2 == 1


def brute_force_raster(polygon, w, h):
    data = np.zeros((h, w), dtype=bool)
    for j in range(h):
        for i in range(w):
            data[j, i] = brute_force_inside(polygon.vertices, i + 0.5, j + 0.5)
    return BitMask(w, h, data)


def center_window(polygon, w, h):
    """(x0, y0, x1, y1): the grid's pixel centers inside the polygon bbox,
    or (0, 0, 0, 0) when there are none."""
    verts = polygon.as_array()
    i0 = max(0, math.ceil(verts[:, 0].min() - 0.5))
    i1 = min(w - 1, math.floor(verts[:, 0].max() - 0.5))
    j0 = max(0, math.ceil(verts[:, 1].min() - 0.5))
    j1 = min(h - 1, math.floor(verts[:, 1].max() - 0.5))
    if i0 > i1 or j0 > j1:
        return 0, 0, 0, 0
    return i0, j0, i1 + 1, j1 + 1


def full_grid_raster(polygon, w, h):
    """The full-grid per-edge loop rasterize_polygon replaced: the same
    float expressions over every pixel center of the polygon's bbox."""
    data = np.zeros((h, w), dtype=bool)
    verts = polygon.as_array()
    i0, j0, i1, j1 = center_window(polygon, w, h)
    i1, j1 = i1 - 1, j1 - 1
    if i0 > i1 or j0 > j1:
        return BitMask(w, h, data)
    xs = np.arange(i0, i1 + 1) + 0.5
    ys = np.arange(j0, j1 + 1) + 0.5
    crossings = np.zeros((ys.size, xs.size), dtype=np.int64)
    on_edge = np.zeros((ys.size, xs.size), dtype=bool)
    for k in range(len(verts)):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % len(verts)]
        if y1 != y2:
            rows = (ys >= min(y1, y2)) & (ys < max(y1, y2))
            xc = x1 + (ys[rows] - y1) * (x2 - x1) / (y2 - y1)
            crossings[rows] += xc[:, None] > xs[None, :]
        cross = (x2 - x1) * (ys[:, None] - y1) - (y2 - y1) * (xs[None, :] - x1)
        within = (
            (xs[None, :] >= min(x1, x2))
            & (xs[None, :] <= max(x1, x2))
            & (ys[:, None] >= min(y1, y2))
            & (ys[:, None] <= max(y1, y2))
        )
        on_edge |= (cross == 0.0) & within
    data[j0 : j1 + 1, i0 : i1 + 1] = (crossings % 2 == 1) & ~on_edge
    return BitMask(w, h, data)


def star_polygon(rng, cx, cy, n, r_lo, r_hi):
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 1e-3:
        return None
    radii = rng.uniform(r_lo, r_hi, n)
    pts = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]
    try:
        return Polygon2D(tuple(pts))
    except ValueError:
        return None


def test_round_half_away():
    assert round_half_away(2.4) == 2
    assert round_half_away(-1.6) == -2
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(0.0) == 0


def test_rasterize_hand_square():
    square = Polygon2D(((0, 0), (2, 0), (2, 2), (0, 2)))
    m = rasterize_polygon(square, 4, 4)
    assert m.pixels() == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_rasterize_outside_grid_empty():
    p = Polygon2D(((10, 10), (12, 10), (12, 12), (10, 12)))
    assert rasterize_polygon(p, 4, 4).popcount() == 0


def test_rasterize_matches_brute_force():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 12:
        p = star_polygon(rng, rng.uniform(4, 12), rng.uniform(4, 12), int(rng.integers(3, 9)), 1.0, 5.0)
        if p is None:
            continue
        assert rasterize_polygon(p, 16, 16) == brute_force_raster(p, 16, 16)
        checked += 1


def test_rasterize_integer_rect_area_exact():
    rect = Polygon2D(((3, 2), (9, 2), (9, 7), (3, 7)))
    assert rasterize_polygon(rect, 16, 16).popcount() == 6 * 5


def test_rasterize_integer_translation_equivariance():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 10:
        p = star_polygon(rng, 10, 10, int(rng.integers(3, 8)), 1.0, 4.0)
        if p is None:
            continue
        a, b = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        from offnadir.geometry import translate_polygon

        shifted = translate_polygon(p, Vec2(float(a), float(b)))
        base = rasterize_polygon(p, 24, 24)
        moved = rasterize_polygon(shifted, 24, 24)
        expected = {(i + a, j + b) for i, j in base.pixels()}
        assert moved.pixels() == expected  # fully in bounds by construction
        checked += 1


def test_translate_mask_identity():
    rng = np.random.default_rng(103)
    m = BitMask(12, 9, rng.random((9, 12)) > 0.5)
    assert translate_mask(m, Vec2(0.0, 0.0)) == m


def test_translate_mask_rounding_case():
    m = BitMask(10, 10)
    m.data[5, 5] = True  # pixel (5, 5)
    out = translate_mask(m, Vec2(2.4, -1.6))
    assert out.pixels() == {(7, 3)}


def test_translate_mask_full_clip():
    m = BitMask(8, 8, np.ones((8, 8), dtype=bool))
    assert translate_mask(m, Vec2(100.0, 0.0)).popcount() == 0


def test_translate_mask_population_never_increases():
    rng = np.random.default_rng(104)
    for _ in range(30):
        m = BitMask(16, 16, rng.random((16, 16)) > 0.6)
        v = Vec2(float(rng.integers(-20, 20)), float(rng.integers(-20, 20)))
        out = translate_mask(m, v)
        assert out.popcount() <= m.popcount()


def test_translate_mask_integer_roundtrip_in_bounds():
    rng = np.random.default_rng(105)
    m = BitMask(20, 20)
    m.data[8:12, 6:10] = True
    for _ in range(20):
        v = Vec2(float(rng.integers(-5, 6)), float(rng.integers(-5, 6)))
        back = translate_mask(translate_mask(m, v), -v)
        assert back == m  # nothing ever leaves the grid


def test_translate_mask_composition():
    m = BitMask(24, 24)
    m.data[10:14, 10:14] = True
    a, b = Vec2(3.0, -2.0), Vec2(2.0, 4.0)
    assert translate_mask(translate_mask(m, a), b) == translate_mask(m, a + b)


def test_footprint_from_roof_is_translation():
    m = BitMask(10, 10)
    m.data[2:5, 2:5] = True
    assert translate_mask(m, Vec2(0.0, 0.0)) == m
    moved = translate_mask(m, Vec2(3.0, 1.0))
    assert moved.pixels() == {(i + 3, j + 1) for (i, j) in m.pixels()}


def test_bitmask_validation():
    with pytest.raises(ValueError):
        BitMask(4, 4, np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError):
        BitMask(-1, 4)


def test_rle_roundtrip_and_known_values():
    m = BitMask(4, 2)
    m.data[0, 1] = True
    m.data[0, 2] = True
    # flat: 0 1 1 0 | 0 0 0 0
    assert mask_to_rle(m) == [1, 2, 5]
    assert rle_to_mask([1, 2, 5], 4, 2) == m
    rng = np.random.default_rng(106)
    for _ in range(20):
        m = BitMask(13, 7, rng.random((7, 13)) > 0.5)
        assert rle_to_mask(mask_to_rle(m), 13, 7) == m
    with pytest.raises(ValueError):
        rle_to_mask([3], 2, 2)


def test_rle_to_mask_checks_length_before_signs():
    with pytest.raises(ValueError, match=r"^RLE length 3 != 2x2$"):
        rle_to_mask([3], 2, 2)
    with pytest.raises(ValueError, match=r"^RLE length 1 != 2x2$"):
        rle_to_mask([-1, 2], 2, 2)
    with pytest.raises(ValueError, match=r"^RLE runs must be >= 0$"):
        rle_to_mask([5, -1], 2, 2)
    assert rle_to_mask([0, 4], 2, 2) == BitMask(2, 2, np.ones((2, 2), dtype=bool))
    empty = rle_to_mask([], 0, 3)
    assert (empty.width, empty.height, empty.popcount()) == (0, 3, 0)


def test_window_rle_merges_runs_across_rows():
    full = BitMask(5, 4, np.ones((4, 5), dtype=bool))
    down = translate_mask(full, Vec2(0.0, 1.0))
    assert (down.x0, down.y0, down.data.shape) == (0, 1, (3, 5))
    assert mask_to_rle(down) == [5, 15]  # one run of ones, no trailing zeros
    assert mask_to_rle(translate_mask(full, Vec2(0.0, -1.0))) == [0, 15, 5]
    assert mask_to_rle(translate_mask(full, Vec2(1.0, 0.0))) == [1, 4, 1, 4, 1, 4, 1, 4]
    assert mask_to_rle(translate_mask(full, Vec2(9.0, 0.0))) == [20]


def test_rle_on_huge_grids():
    # a window mask fits on any grid; RLE positions are int64
    triangle = Polygon2D(((0, 0), (4, 0), (4, 4)))  # rows of 3, 2 and 1 pixels
    n = 2**31
    corner = translate_mask(rasterize_polygon(triangle, n, n), Vec2(n - 4.0, n - 4.0))
    first = (n - 4) * n + n - 3  # pixel (n - 3, n - 4)
    assert mask_to_rle(corner) == [first, 3, n - 2, 2, n - 1, 1, n]
    with pytest.raises(ValueError, match="too large"):
        mask_to_rle(rasterize_polygon(triangle, 2**32, 2**32))


def test_center_counts_match_searchsorted_at_float_edges():
    # values on, just beside and between pixel centers, tiny negatives
    # (where v - 0.5 rounds) and values far outside every window
    near = [x for k in range(-3, 40) for c in (k + 0.5, float(k))
            for x in (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf))]
    v = np.array(near + [-0.5 + 2**-54, -(2**-60), 2**-60, -1e300, 1e300, 2.0**52 - 0.5]
                 + list(np.random.default_rng(107).uniform(-5, 45, 500)))
    for base in (0, 1, 7):
        for n in (0, 1, 5, 30):
            centers = base + np.arange(n) + 0.5
            for side in ("left", "right"):
                got = raster._centers_before(v, np.full(v.size, base), np.full(v.size, n), side)
                assert np.array_equal(got, np.searchsorted(centers, v, side))


def test_rasterize_on_grids_beyond_int64():
    triangle = Polygon2D(((0, 0), (4, 0), (4, 4)))
    small = rasterize_polygon(triangle, 8, 8)
    for n in (2**62, 2**63, 10**30):
        m = rasterize_polygon(triangle, n, n)
        assert (m.width, m.height, m.window) == (n, n, small.window)
        assert np.array_equal(m.data, small.data)


def test_window_masks_compare_and_densify():
    square = Polygon2D(((2, 1), (5, 1), (5, 3), (2, 3)))
    m = rasterize_polygon(square, 8, 6)
    assert (m.x0, m.y0, m.data.shape) == (2, 1, (2, 3))
    dense = BitMask(8, 6, m.dense())
    assert m == dense and dense == m
    assert m != BitMask(8, 7, np.pad(m.dense(), ((0, 1), (0, 0))))
    assert m.get(4, 2) and not m.get(5, 2) and not m.get(0, 0)
    with pytest.raises(IndexError):
        m.get(8, 0)
    gone = rasterize_polygon(square, 2, 6)  # no pixel center inside the grid
    assert gone.data.shape == (0, 0) and gone.popcount() == 0
    assert gone == BitMask(2, 6) and gone.dense().shape == (6, 2)
    copy = m.copy()
    copy.data[:] = False
    assert m.popcount() == 6


# ---------------------------------------------------------------------------
# property tests: window masks against full-grid references

PROPERTIES = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def grid_polygons(draw):
    """(polygon, width, height): star-shaped rings on a 1, 1/2 or 1/64 px
    lattice, or rectangles whose edges may run through pixel centers; often
    clipped by the grid or entirely outside it."""
    w = draw(st.integers(1, 24))
    h = draw(st.integers(1, 24))
    if draw(st.integers(0, 3)) == 0:
        q = draw(st.sampled_from([1, 2]))

        def span(size):
            ends = st.lists(st.integers(-8 * q, (size + 8) * q), min_size=2, max_size=2, unique=True)
            lo, hi = sorted(draw(ends))
            return lo / q, hi / q

        (xa, xb), (ya, yb) = span(w), span(h)
        return Polygon2D(((xa, ya), (xb, ya), (xb, yb), (xa, yb))), w, h
    q = draw(st.sampled_from([1, 2, 64]))
    n = draw(st.integers(3, 12))
    steps = sorted(draw(st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.integers(1, 16 * q), min_size=n, max_size=n))
    cx = draw(st.integers(-8 * q, (w + 8) * q)) / q
    cy = draw(st.integers(-8 * q, (h + 8) * q)) / q
    pts = []
    for step, r in zip(steps, radii):
        a = 2.0 * math.pi * step / 64
        pts.append((round((cx + r / q * math.cos(a)) * q) / q,
                    round((cy + r / q * math.sin(a)) * q) / q))
    try:
        polygon = Polygon2D(tuple(pts))
    except ValueError:
        assume(False)
    return polygon, w, h


@st.composite
def grid_masks(draw, w, h):
    """Window masks on a w x h grid: rasterized polygons, or random full
    grids moved by translate_mask so their windows touch the grid edges."""
    if draw(st.booleans()):
        polygon, _, _ = draw(grid_polygons())
        return rasterize_polygon(polygon, w, h)
    bits = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
    full = BitMask(w, h, np.array(bits, dtype=bool).reshape(h, w))
    dx = draw(st.integers(-w, w))
    dy = draw(st.integers(-h, h))
    return translate_mask(full, Vec2(float(dx), float(dy)))


def dense_translate(grid, dx, dy):
    h, w = grid.shape
    out = np.zeros_like(grid)
    for j, i in zip(*np.nonzero(grid)):
        if 0 <= i + dx < w and 0 <= j + dy < h:
            out[j + dy, i + dx] = True
    return out


@PROPERTIES
@given(grid_polygons())
def test_window_raster_matches_brute_force(case):
    polygon, w, h = case
    m = rasterize_polygon(polygon, w, h)
    wh, ww = m.data.shape
    assert 0 <= m.x0 and m.x0 + ww <= w and 0 <= m.y0 and m.y0 + wh <= h
    want = brute_force_raster(polygon, w, h)
    assert np.array_equal(m.dense(), want.data)
    assert m == want and m.popcount() == want.popcount()


@st.composite
def float_polygons(draw):
    """(polygon, width, height): star-shaped rings with arbitrary float
    vertices, often clipped by the grid or entirely outside it."""
    w = draw(st.integers(1, 24))
    h = draw(st.integers(1, 24))
    n = draw(st.integers(3, 12))
    steps = sorted(draw(st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(0.1, 16.0), min_size=n, max_size=n))
    cx = draw(st.floats(-8.0, w + 8.0))
    cy = draw(st.floats(-8.0, h + 8.0))
    pts = [(cx + r * math.cos(2.0 * math.pi * k / 64), cy + r * math.sin(2.0 * math.pi * k / 64))
           for k, r in zip(steps, radii)]
    try:
        polygon = Polygon2D(tuple(pts))
    except ValueError:
        assume(False)
    return polygon, w, h


@PROPERTIES
@given(grid_polygons() | float_polygons())
def test_window_raster_matches_full_grid_loop(case):
    polygon, w, h = case
    assert np.array_equal(rasterize_polygon(polygon, w, h).dense(), full_grid_raster(polygon, w, h).data)


@st.composite
def many_vertex_polygons(draw):
    """(polygon, width, height): star-shaped float rings of 3 to 64
    vertices, from sub-pixel to larger than the grid."""
    w = draw(st.integers(1, 24))
    h = draw(st.integers(1, 24))
    n = draw(st.integers(3, 64))
    steps = sorted(draw(st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True)))
    r_max = draw(st.sampled_from([0.5, 4.0, 32.0]))
    radii = draw(st.lists(st.floats(0.05, r_max), min_size=n, max_size=n))
    cx = draw(st.floats(-8.0, w + 8.0))
    cy = draw(st.floats(-8.0, h + 8.0))
    pts = [(cx + r * math.cos(2.0 * math.pi * k / 64), cy + r * math.sin(2.0 * math.pi * k / 64))
           for k, r in zip(steps, radii)]
    try:
        polygon = Polygon2D(tuple(pts))
    except ValueError:
        assume(False)
    return polygon, w, h


CHUNK_BOUNDS = {
    "default": {},
    "one": {"_CHUNK_EDGES": 1, "_CHUNK_PIXELS": 1, "_CHUNK_TERMS": 1},
    "mixed": {"_CHUNK_EDGES": 40, "_CHUNK_PIXELS": 150, "_CHUNK_TERMS": 60},
}


@pytest.mark.parametrize("bounds", list(CHUNK_BOUNDS))
@settings(PROPERTIES, suppress_health_check=[
    HealthCheck.filter_too_much, HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.lists(grid_polygons() | float_polygons() | many_vertex_polygons(), min_size=1, max_size=8))
def test_batched_raster_matches_full_grid_loop(monkeypatch, bounds, batch):
    # mixed vertex counts and grid sizes in one call; "one" gives every
    # polygon its own read-ahead and pass, "mixed" splits passes mid-batch
    for name, value in CHUNK_BOUNDS[bounds].items():
        monkeypatch.setattr(raster, name, value)
    masks = list(rasterize_polygons(batch))
    assert len(masks) == len(batch)
    for m, (polygon, w, h) in zip(masks, batch):
        assert (m.width, m.height) == (w, h)
        assert m.window == center_window(polygon, w, h)
        assert np.array_equal(m.dense(), full_grid_raster(polygon, w, h).data)


@PROPERTIES
@given(st.data())
def test_window_iou_matches_dense(data):
    w = data.draw(st.integers(1, 20))
    h = data.draw(st.integers(1, 20))
    a = data.draw(grid_masks(w, h))
    b = data.draw(grid_masks(w, h))
    da, db = a.dense(), b.dense()
    inter = int((da & db).sum())
    union = int(da.sum()) + int(db.sum()) - inter
    assert mask_iou(a, b) == (inter / union if union else 0.0)
    assert (a == b) == bool(np.array_equal(da, db))


@PROPERTIES
@given(st.data())
def test_window_rle_matches_dense(data):
    w = data.draw(st.integers(1, 20))
    h = data.draw(st.integers(1, 20))
    m = data.draw(grid_masks(w, h))
    runs = mask_to_rle(m)
    assert runs == mask_to_rle(BitMask(w, h, m.dense()))
    assert sum(runs) == w * h and all(r > 0 for r in runs[1:])
    assert rle_to_mask(runs, w, h) == m


@PROPERTIES
@given(st.data())
def test_window_translate_matches_dense(data):
    w = data.draw(st.integers(1, 20))
    h = data.draw(st.integers(1, 20))
    m = data.draw(grid_masks(w, h))
    halves = st.integers(-2 * (w + h), 2 * (w + h)).map(lambda k: k / 2)
    v = Vec2(data.draw(halves | st.floats(-30, 30)), data.draw(halves | st.floats(-30, 30)))
    moved = translate_mask(m, v)
    want = dense_translate(m.dense(), round_half_away(v.dx), round_half_away(v.dy))
    assert np.array_equal(moved.dense(), want)
    assert moved == BitMask(w, h, want)
