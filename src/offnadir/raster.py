"""Binary pixel masks: rasterization, integer translation, RLE codec.

Pixel (i, j) means column i, row j; its center sits at (i + 0.5, j + 0.5)
in the polygon coordinate frame.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Polygon2D, Vec2


class BitMask:
    """Row-major boolean pixel grid."""

    __slots__ = ("width", "height", "data")

    def __init__(self, width: int, height: int, data: np.ndarray | None = None):
        if width < 0 or height < 0:
            raise ValueError(f"mask dimensions must be >= 0, got {width}x{height}")
        if data is None:
            data = np.zeros((height, width), dtype=bool)
        else:
            data = np.ascontiguousarray(data, dtype=bool)
            if data.shape != (height, width):
                raise ValueError(f"mask data shape {data.shape} != ({height}, {width})")
        self.width = int(width)
        self.height = int(height)
        self.data = data

    def popcount(self) -> int:
        return int(self.data.sum())

    def get(self, i: int, j: int) -> bool:
        return bool(self.data[j, i])

    def pixels(self) -> set:
        """Set pixels as (i, j) tuples."""
        js, iis = np.nonzero(self.data)
        return {(int(i), int(j)) for i, j in zip(iis, js)}

    def copy(self) -> "BitMask":
        return BitMask(self.width, self.height, self.data.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.data, other.data))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"BitMask({self.width}x{self.height}, {self.popcount()} set)"


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def rasterize_polygon(polygon: Polygon2D, width: int, height: int) -> BitMask:
    """Pixel-center even-odd rasterization.

    Pixel (i, j) is set iff its center (i + 0.5, j + 0.5) lies strictly
    inside the polygon; centers exactly on the boundary stay clear.
    Geometry outside the [0, width) x [0, height) grid is clipped.
    """
    mask = np.zeros((height, width), dtype=bool)
    if width == 0 or height == 0:
        return BitMask(width, height, mask)
    verts = polygon.as_array()
    x_lo, y_lo = verts.min(axis=0)
    x_hi, y_hi = verts.max(axis=0)
    # only pixels whose centers fall inside the polygon bbox can be set
    i0 = max(0, int(math.ceil(x_lo - 0.5)))
    i1 = min(width - 1, int(math.floor(x_hi - 0.5)))
    j0 = max(0, int(math.ceil(y_lo - 0.5)))
    j1 = min(height - 1, int(math.floor(y_hi - 0.5)))
    if i0 > i1 or j0 > j1:
        return BitMask(width, height, mask)
    xs = np.arange(i0, i1 + 1) + 0.5
    ys = np.arange(j0, j1 + 1) + 0.5
    crossings = np.zeros((ys.size, xs.size), dtype=np.int64)
    on_edge = np.zeros((ys.size, xs.size), dtype=bool)
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        if y1 != y2:
            # half-open span in y; ray cast toward +x
            lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
            rows = (ys >= lo) & (ys < hi)
            if rows.any():
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
    mask[j0 : j1 + 1, i0 : i1 + 1] = (crossings % 2 == 1) & ~on_edge
    return BitMask(width, height, mask)


def translate_mask(m: BitMask, v: Vec2) -> BitMask:
    """Shift set pixels by v rounded to integers (halves away from zero).

    Pixels leaving the grid are dropped; vacated pixels are zero.
    """
    dx = round_half_away(v.dx)
    dy = round_half_away(v.dy)
    out = np.zeros((m.height, m.width), dtype=bool)
    src_x0 = max(0, -dx)
    src_x1 = min(m.width, m.width - dx)
    src_y0 = max(0, -dy)
    src_y1 = min(m.height, m.height - dy)
    if src_x0 < src_x1 and src_y0 < src_y1:
        out[src_y0 + dy : src_y1 + dy, src_x0 + dx : src_x1 + dx] = m.data[
            src_y0:src_y1, src_x0:src_x1
        ]
    return BitMask(m.width, m.height, out)


def mask_to_rle(m: BitMask) -> list[int]:
    """Row-major run lengths, starting with the leading run of zeros."""
    flat = m.data.reshape(-1)
    if flat.size == 0:
        return []
    changes = np.nonzero(np.diff(flat))[0] + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return [int(r) for r in runs]


def rle_to_mask(runs, width: int, height: int) -> BitMask:
    """Inverse of mask_to_rle."""
    total = sum(runs)
    if total != width * height:
        raise ValueError(f"RLE length {total} != {width}x{height}")
    flat = np.zeros(width * height, dtype=bool)
    pos = 0
    value = False
    for r in runs:
        if r < 0:
            raise ValueError("RLE runs must be >= 0")
        if value:
            flat[pos : pos + r] = True
        pos += r
        value = not value
    return BitMask(width, height, flat.reshape(height, width))
