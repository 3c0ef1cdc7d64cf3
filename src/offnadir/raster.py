"""Binary pixel masks: rasterization, integer translation, RLE codec.

Pixel (i, j) means column i, row j; its center sits at (i + 0.5, j + 0.5)
in the polygon coordinate frame.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Polygon2D, Vec2


class BitMask:
    """Boolean pixel mask on a width x height grid, stored as the window it
    covers.

    Pixel (i, j) of the grid is ``data[j - y0, i - x0]`` when it falls
    inside the window, and clear everywhere else. The window always lies
    within the grid; a derived mask with no window holds a 0x0 array.
    The public constructor takes a full grid (a window at (0, 0));
    ``dense()`` gives the full grid back for any mask.
    """

    __slots__ = ("width", "height", "x0", "y0", "data")

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
        self.x0 = 0
        self.y0 = 0
        self.data = data

    @classmethod
    def _window(cls, width: int, height: int, x0: int = 0, y0: int = 0, data=None) -> "BitMask":
        """Mask whose window data[0, 0] sits at pixel (x0, y0); the caller
        keeps the window inside the grid. No data means no window."""
        m = cls.__new__(cls)
        m.width = width
        m.height = height
        if data is None or data.size == 0:
            x0, y0, data = 0, 0, np.zeros((0, 0), dtype=bool)
        m.x0 = x0
        m.y0 = y0
        m.data = data
        return m

    @property
    def window(self) -> tuple:
        """(x0, y0, x1, y1): the half-open pixel ranges that data covers."""
        h, w = self.data.shape
        return self.x0, self.y0, self.x0 + w, self.y0 + h

    def popcount(self) -> int:
        return int(np.count_nonzero(self.data))

    def overlap(self, other: "BitMask") -> int:
        """Number of pixels set in both masks (ANDs only the shared window)."""
        ax0, ay0, ax1, ay1 = self.window
        bx0, by0, bx1, by1 = other.window
        x0, y0 = max(ax0, bx0), max(ay0, by0)
        x1, y1 = min(ax1, bx1), min(ay1, by1)
        if x0 >= x1 or y0 >= y1:
            return 0
        a = self.data[y0 - ay0 : y1 - ay0, x0 - ax0 : x1 - ax0]
        b = other.data[y0 - by0 : y1 - by0, x0 - bx0 : x1 - bx0]
        return int(np.count_nonzero(a & b))

    def get(self, i: int, j: int) -> bool:
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise IndexError(f"pixel ({i}, {j}) outside {self.width}x{self.height} grid")
        x0, y0, x1, y1 = self.window
        return bool(x0 <= i < x1 and y0 <= j < y1 and self.data[j - y0, i - x0])

    def pixels(self) -> set:
        """Set pixels as (i, j) tuples."""
        js, iis = np.nonzero(self.data)
        return {(int(i) + self.x0, int(j) + self.y0) for i, j in zip(iis, js)}

    def dense(self) -> np.ndarray:
        """The full height x width grid."""
        out = np.zeros((self.height, self.width), dtype=bool)
        x0, y0, x1, y1 = self.window
        out[y0:y1, x0:x1] = self.data
        return out

    def copy(self) -> "BitMask":
        return BitMask._window(self.width, self.height, self.x0, self.y0, self.data.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        if (self.width, self.height) != (other.width, other.height):
            return False
        n = self.popcount()
        return n == other.popcount() and n == self.overlap(other)

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
    Geometry outside the [0, width) x [0, height) grid is clipped. The
    result's window is the grid's pixel centers inside the polygon bbox.
    """
    verts = polygon.as_array()
    x_lo, y_lo = verts.min(axis=0)
    x_hi, y_hi = verts.max(axis=0)
    # only pixels whose centers fall inside the polygon bbox can be set
    i0 = max(0, int(math.ceil(x_lo - 0.5)))
    i1 = min(width - 1, int(math.floor(x_hi - 0.5)))
    j0 = max(0, int(math.ceil(y_lo - 0.5)))
    j1 = min(height - 1, int(math.floor(y_hi - 0.5)))
    if i0 > i1 or j0 > j1:
        return BitMask._window(width, height)
    xs = np.arange(i0, i1 + 1) + 0.5
    ys = np.arange(j0, j1 + 1) + 0.5
    nr, nc = ys.size, xs.size
    x1, y1 = verts.T
    x2, y2 = np.concatenate((verts[1:], verts[:1])).T
    lo, hi = np.minimum(y1, y2), np.maximum(y1, y2)
    # edge k crosses rows r0[k]:r1[k] (half-open span in y, so horizontal
    # edges cross none); one entry per (edge, row) crossing
    r0 = ys.searchsorted(lo, "left")
    r1 = ys.searchsorted(hi, "left")
    counts = r1 - r0
    edge = np.repeat(np.arange(len(verts)), counts)
    row = np.arange(edge.size) + np.repeat(r0 - (np.cumsum(counts) - counts), counts)
    xc = x1[edge] + (ys[row] - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]
    # a ray cast toward +x from column c meets the crossings with xc > xs[c],
    # i.e. those whose count of centers left of xc exceeds c
    left = xs.searchsorted(xc, "left")
    hits = np.bincount(row * (nc + 1) + left, minlength=nr * (nc + 1)).reshape(nr, nc + 1)
    inside = (np.cumsum(hits[:, :0:-1], axis=1)[:, ::-1] & 1).astype(bool)
    # boundary centers, searched only within each edge's own bbox
    on_edge = np.zeros((nr, nc), dtype=bool)
    c0 = xs.searchsorted(np.minimum(x1, x2), "left")
    c1 = xs.searchsorted(np.maximum(x1, x2), "right")
    rb = ys.searchsorted(hi, "right")
    for k in np.flatnonzero((c0 < c1) & (r0 < rb)):
        sx = xs[c0[k] : c1[k]]
        sy = ys[r0[k] : rb[k]]
        cross = (x2[k] - x1[k]) * (sy[:, None] - y1[k]) - (y2[k] - y1[k]) * (sx[None, :] - x1[k])
        on_edge[r0[k] : rb[k], c0[k] : c1[k]] |= cross == 0.0
    return BitMask._window(width, height, i0, j0, inside & ~on_edge)


def translate_mask(m: BitMask, v: Vec2) -> BitMask:
    """Shift set pixels by v rounded to integers (halves away from zero).

    Pixels leaving the grid are dropped; vacated pixels are zero.
    """
    h, w = m.data.shape
    x0 = m.x0 + round_half_away(v.dx)
    y0 = m.y0 + round_half_away(v.dy)
    # the moved window, clipped to the grid
    cx0, cy0 = max(x0, 0), max(y0, 0)
    cx1, cy1 = min(x0 + w, m.width), min(y0 + h, m.height)
    if cx0 >= cx1 or cy0 >= cy1:
        return BitMask._window(m.width, m.height)
    data = m.data[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0].copy()
    return BitMask._window(m.width, m.height, cx0, cy0, data)


def mask_to_rle(m: BitMask) -> list[int]:
    """Row-major run lengths over the full grid, starting with the leading
    run of zeros."""
    total = m.width * m.height
    if total == 0:
        return []
    if total > np.iinfo(np.int64).max:  # grid positions below are int64
        raise ValueError(f"a {m.width}x{m.height} grid is too large to run-length encode")
    h, w = m.data.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = m.data
    # grid positions where each window row's runs of ones start and end
    r, c = np.nonzero(padded[:, 1:] != padded[:, :-1])
    bounds = (r + m.y0) * m.width + (c + m.x0)
    # a run reaching the end of a grid row goes on at the next row's start
    joined = bounds[1:-1:2] == bounds[2::2]
    if joined.any():
        keep = np.ones(bounds.size, dtype=bool)
        keep[1:-1:2] = keep[2::2] = ~joined
        bounds = bounds[keep]
    runs = np.diff(np.concatenate(([0], bounds, [total])))
    if runs[-1] == 0:  # ones up to the last pixel: no trailing zero run
        runs = runs[:-1]
    return runs.tolist()


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
