import math

import numpy as np
import pytest

from offnadir.geometry import Polygon2D, Vec2
from offnadir.raster import (
    BitMask,
    mask_to_rle,
    rasterize_polygon,
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
