"""Binary pixel masks: rasterization, integer translation, RLE codec.

Pixel (i, j) means column i, row j; its center sits at (i + 0.5, j + 0.5)
in the polygon coordinate frame.

rasterize_polygons streams polygons through numpy passes that each serve
many polygons: windows, crossings, parities and boundary tests are
computed for all polygons of a pass at once, with no Python loop per
edge, within bounds on pixels and edge terms. rasterize_polygon is its
one-polygon case.

masks_to_rle shifts masks and run-length encodes them in bounded numpy
batches: each result equals mask_to_rle(translate_mask(m, v)), and
mask_to_rle is its one-mask case.
"""

from __future__ import annotations

import math
from itertools import chain

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
        import numpy as np

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
        import numpy as np

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
        import numpy as np

        return int(np.count_nonzero(self.data))

    def overlap(self, other: "BitMask") -> int:
        """Number of pixels set in both masks (ANDs only the shared window)."""
        import numpy as np

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
        import numpy as np

        js, iis = np.nonzero(self.data)
        return {(int(i) + self.x0, int(j) + self.y0) for i, j in zip(iis, js)}

    def dense(self) -> np.ndarray:
        """The full height x width grid."""
        import numpy as np

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


# Bounds on the memory of rasterize_polygons, so that it stays flat however
# many polygons stream through: the edges of the polygons read ahead at
# once, and the window pixels and edge terms (row crossings and boundary
# candidates) of one numpy pass over some of them. A polygon over a pass
# bound gets a pass of its own. Sized by time on the seed-1 benchmark
# inputs: every footprint of pred and gt, in eval's order (medians of 41
# in-process runs; 2-vCPU x86-64 VM, numpy 2.4, CPython 3.11). Per pass,
# numpy's fixed cost dominates until a pass holds many polygons:
#   edges/pixels/terms   stars   city    tiles   (ms; max pass peak)
#   2**9/2**15/2**12     6.59    6.90    4.22    (0.34 / 0.43 / 0.15 MB)
#   2**11/2**17/2**14    4.40    4.70    3.00
#   2**12/2**17/2**14    4.29    4.50    2.77    (1.27 / 1.66 / 1.10 MB)
#   2**12/2**16/2**14    4.22    4.93    2.80
#   2**12/2**17/2**13    4.61    4.51    2.85
#   2**12/2**17/2**15    5.22    4.49    2.74    (2.48 MB on stars)
# Larger passes than these are slower again (2**13/2**19/2**16: 4.35,
# 4.55, 2.93 ms with up to 6.5 MB per pass). The benchmark's peak_rss_mb
# did not move, though `eval` on `city` peaks 1.4 MB higher in RSS.
_CHUNK_EDGES = 2**12
_CHUNK_PIXELS = 2**17
_CHUNK_TERMS = 2**14
# window arithmetic is int64, so grid sizes are capped here: no pixel at or
# beyond 2**62 is ever set (centers that far out are not exact floats anyway)
_MAX_GRID = 2**62


def rasterize_polygon(polygon: Polygon2D, width: int, height: int) -> BitMask:
    """Pixel-center even-odd rasterization.

    Pixel (i, j) is set iff its center (i + 0.5, j + 0.5) lies strictly
    inside the polygon; centers exactly on the boundary stay clear.
    Geometry outside the [0, width) x [0, height) grid is clipped. The
    result's window is the grid's pixel centers inside the polygon bbox.
    """
    return next(rasterize_polygons(((polygon, width, height),)))


def rasterize_polygons(items):
    """rasterize_polygon over an iterable of (polygon, width, height),
    yielding one mask per item, in order, as it reads them.

    Many polygons share each numpy pass, and bounded passes keep memory
    flat however many items stream through. A mask does not depend on the
    other items or on how they fall into passes, and it shares its pass's
    buffer. Exact while pixel centers are exact floats (below 2**52).
    """
    items = iter(items)
    while True:
        rings, grids = [], []
        edges = 0
        for polygon, width, height in items:
            rings.append(polygon.vertices)
            grids.append((width, height))
            edges += len(polygon.vertices)
            if edges >= _CHUNK_EDGES:
                break
        if not rings:
            return
        yield from _rasterize_chunk(rings, grids, edges)


def _centers_before(v, base, n, side):
    """np.searchsorted(base + np.arange(n) + 0.5, v, side) for each v, with
    its own base >= 0 and n. Exact for v up to 2**52: from 0 on, v - 0.5
    rounds to a value with the same ceiling and floor, and below 0, which
    the clip leaves only when base is 0, every count is 0."""
    import numpy as np

    v = np.clip(v, base - 1.0, base + n + 1.0) - 0.5
    t = np.ceil(v) if side == "left" else np.floor(v) + 1.0
    return np.clip(t.astype(np.int64) - base, 0, n)


def _runs(ids, first, n):
    """(id, value) for each id and each value in first:first + n."""
    import numpy as np

    rep = np.repeat(ids, n)
    return rep, np.arange(rep.size) + np.repeat(first - (np.cumsum(n) - n), n)


def _rasterize_chunk(rings, grids, n_edges):
    import numpy as np

    counts = np.fromiter(map(len, rings), np.int64, len(rings))
    verts = np.fromiter(chain.from_iterable(chain.from_iterable(rings)), float, 2 * n_edges)
    x1, y1 = verts.reshape(-1, 2).T
    starts = np.cumsum(counts) - counts
    nxt = np.arange(1, n_edges + 1)
    nxt[starts + counts - 1] = starts  # each ring closes on its first vertex
    x2, y2 = x1[nxt], y1[nxt]
    # pixel windows: the grid's centers inside each polygon bbox
    caps = np.array([(min(w, _MAX_GRID), min(h, _MAX_GRID)) for w, h in grids], np.int64).T
    i0 = np.clip(np.ceil(np.minimum.reduceat(x1, starts) - 0.5), 0, caps[0]).astype(np.int64)
    i1 = np.clip(np.floor(np.maximum.reduceat(x1, starts) - 0.5), -1, caps[0] - 1).astype(np.int64)
    j0 = np.clip(np.ceil(np.minimum.reduceat(y1, starts) - 0.5), 0, caps[1]).astype(np.int64)
    j1 = np.clip(np.floor(np.maximum.reduceat(y1, starts) - 0.5), -1, caps[1] - 1).astype(np.int64)
    empty = (i0 > i1) | (j0 > j1)
    nc = np.where(empty, 0, i1 - i0 + 1)
    nr = np.where(empty, 0, j1 - j0 + 1)
    # per edge: the rows r0:r1 it crosses (half-open in y, so horizontal
    # edges cross none) and the centers r0:rb x c0:c1 of its closed bbox
    poly = np.repeat(np.arange(len(rings)), counts)
    lo, hi = np.minimum(y1, y2), np.maximum(y1, y2)
    r0 = _centers_before(lo, j0[poly], nr[poly], "left")
    r1 = _centers_before(hi, j0[poly], nr[poly], "left")
    rb = _centers_before(hi, j0[poly], nr[poly], "right")
    c0 = _centers_before(np.minimum(x1, x2), i0[poly], nc[poly], "left")
    c1 = _centers_before(np.maximum(x1, x2), i0[poly], nc[poly], "right")
    # an edge's terms: a crossing per row, and its bbox rows and columns
    # (the boundary test's candidates) when the bbox holds a center
    boxed = (rb > r0) & (c1 > c0)
    terms = (r1 - r0) + np.where(boxed, (rb - r0) + (c1 - c0), 0)
    pixels = nr * nc
    px_end = np.cumsum(pixels)
    term_end = np.cumsum(np.add.reduceat(terms, starts))
    a = 0
    while a < len(rings):
        # the most polygons from a on within both bounds, at least one
        px_base = px_end[a - 1] if a else 0
        term_base = term_end[a - 1] if a else 0
        b = min(px_end.searchsorted(px_base + _CHUNK_PIXELS, "right"),
                term_end.searchsorted(term_base + _CHUNK_TERMS, "right"))
        b = max(int(b), a + 1)
        e = slice(starts[a], starts[b - 1] + counts[b - 1])
        offset = px_end[a:b] - pixels[a:b] - px_base
        data = _pass(x1[e], y1[e], x2[e], y2[e], poly[e] - a, r0[e], r1[e], rb[e], c0[e], c1[e],
                     boxed[e], i0[a:b], j0[a:b], nc[a:b], offset, int(px_end[b - 1] - px_base))
        at = 0
        for (width, height), x0, y0, h, w in zip(
            grids[a:b], i0[a:b].tolist(), j0[a:b].tolist(), nr[a:b].tolist(), nc[a:b].tolist()
        ):
            if h:
                yield BitMask._window(width, height, x0, y0, data[at : at + h * w].reshape(h, w))
            else:
                yield BitMask._window(width, height)
            at += h * w
        a = b


def _pass(x1, y1, x2, y2, poly, r0, r1, rb, c0, c1, boxed, i0, j0, nc, offset, total):
    """The window pixels of some polygons, row-major and concatenated, set
    where the center is inside. Edge arrays come first; poly maps each edge
    to its polygon, whose window starts at pixel offset of the result."""
    import numpy as np

    dx, dy = x2 - x1, y2 - y1
    # one entry per (edge, row) crossing, at the edge's x on the row center
    edge, row = _runs(np.arange(r0.size), r0, r1 - r0)
    p = poly[edge]
    ys = (j0[p] + row) + 0.5
    xc = x1[edge] + (ys - y1[edge]) * dx[edge] / dy[edge]
    # A center is inside iff an odd number of crossings lies at or left of
    # it, since every row of a ring is crossed an even number of times. So
    # each crossing counts at its first center to the right: one right of a
    # row's last center lands on the next row's first pixel, where it
    # completes that row's even count, and one running parity over all
    # windows needs no reset per row.
    left = _centers_before(xc, i0[p], nc[p], "left")
    hits = np.bincount(offset[p] + row * nc[p] + left, minlength=total + 1)[:total]
    inside = np.logical_xor.accumulate(np.bitwise_and(hits, 1, out=hits).astype(bool))
    # Boundary centers. Within an edge's closed bbox, a center is on the
    # edge iff dx * (sy - y1) == dy * (sx - x1), the two products of the
    # cross product that the loop over edges compared with 0. Both are
    # taken sign-adjusted by dy, so that the column term never decreases
    # along an edge's columns. Keyed (edge, term) as complex numbers, which
    # numpy orders lexicographically, the column terms are then sorted, and
    # each row term finds its equal column terms by binary search.
    k = np.flatnonzero(boxed)
    er, rr = _runs(k, r0[k], rb[k] - r0[k])
    ec, cc = _runs(k, c0[k], c1[k] - c0[k])
    pr, pc = poly[er], poly[ec]
    key_a = np.empty(er.size, dtype=complex)
    key_a.real = er
    key_a.imag = dx[er] * (((j0[pr] + rr) + 0.5) - y1[er])
    key_a.imag[dy[er] < 0] *= -1.0
    key_b = np.empty(ec.size, dtype=complex)
    key_b.real = ec
    key_b.imag = np.abs(dy[ec]) * (((i0[pc] + cc) + 0.5) - x1[ec])
    lo = key_b.searchsorted(key_a, "left")
    hit, col = _runs(np.arange(er.size), lo, key_b.searchsorted(key_a, "right") - lo)
    pr = pr[hit]
    inside[offset[pr] + rr[hit] * nc[pr] + cc[col]] = False
    return inside


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
    return next(masks_to_rle(((m, Vec2(0.0, 0.0)),)))


# Bound on the memory of masks_to_rle: the window pixels of the masks it
# encodes in one numpy pass, counting one more per mask, so that a stream
# of masks with no pixels in the grid also passes in bounded batches.
_RLE_PIXELS = 2**16


def masks_to_rle(items):
    """mask_to_rle(translate_mask(m, v)) for each (m, v) of an iterable,
    in order, as it reads them.

    The masks of a batch are encoded in one numpy pass over their
    concatenated windows: runs are cut at window rows, shifted and clipped
    to the grid, and joined where they go on across a grid row. A shift
    moves the window in Python integers, so any finite offset works; only
    the part of a window inside the grid reaches int64 arithmetic.
    """
    items = iter(items)
    while True:
        totals, pieces, rows = [], [], []
        pixels = 0
        for m, v in items:
            total = m.width * m.height
            if total >= 2**63:  # grid positions are int64
                raise ValueError(f"a {m.width}x{m.height} grid is too large to run-length encode")
            h, w = m.data.shape
            x0 = m.x0 + round_half_away(v.dx)
            y0 = m.y0 + round_half_away(v.dy)
            # the window rows r0:r1 and columns c0:c1 that land in the grid
            r0, r1 = max(0, -y0), min(h, m.height - y0)
            c0, c1 = max(0, -x0), min(w, m.width - x0)
            if r0 < r1 and c0 < c1:
                pieces.append(m.data[r0:r1].ravel())
                # grid position of the first such row's column 0
                rows.append((len(totals), r1 - r0, w, c0, c1, (y0 + r0) * m.width + x0, m.width))
                pixels += (r1 - r0) * w
            totals.append(total)
            pixels += 1
            if pixels >= _RLE_PIXELS:
                break
        if not totals:
            return
        yield from _rle_batch(totals, pieces, rows)


def _rle_batch(totals, pieces, rows):
    import numpy as np

    fields = np.fromiter(chain.from_iterable(rows), np.int64).reshape(-1, 7).T
    index, n, w, c0, c1, base, width = fields
    # per window row: its entry of rows, its start in the concatenation, the
    # columns that land in the grid, and the shift from concatenation to grid
    entry, j = _runs(np.arange(n.size), np.zeros_like(n), n)
    row_w = w[entry]
    start = np.cumsum(row_w) - row_w
    lo, hi = start + c0[entry], start + c1[entry]
    shift = base[entry] + j * width[entry] - start
    pad = np.zeros(1, dtype=bool)
    flat = np.concatenate([pad, *pieces, pad])
    # runs of ones as alternating starts and ends, cut into one piece per
    # window row they cover, and clipped to the columns in the grid
    bounds = np.flatnonzero(flat[1:] != flat[:-1])
    a, b = bounds[0::2], bounds[1::2]
    first = start.searchsorted(a, "right") - 1
    run, row = _runs(np.arange(a.size), first, start.searchsorted(b, "left") - first)
    a, b = np.maximum(a[run], lo[row]), np.minimum(b[run], hi[row])
    inside = a < b
    row = row[inside]
    bounds = np.column_stack((a[inside], b[inside])).ravel() + np.repeat(shift[row], 2)
    owner = np.repeat(index[entry[row]], 2)
    # a run reaching the end of a grid row goes on at the next row's start
    joined = (bounds[1:-1:2] == bounds[2::2]) & (owner[1:-1:2] == owner[2::2])
    if joined.any():
        keep = np.ones(bounds.size, dtype=bool)
        keep[1:-1:2] = keep[2::2] = ~joined
        bounds, owner = bounds[keep], owner[keep]
    # each mask's bounds between a 0 and its grid size, so that one diff
    # gives the runs of every mask
    count = np.bincount(owner, minlength=len(totals))
    end = np.cumsum(count + 2)
    framed = np.zeros(int(end[-1]), np.int64)
    framed[np.arange(bounds.size) + 2 * owner + 1] = bounds
    framed[end - 1] = totals
    runs = np.diff(framed).tolist()
    for at, k in zip((end - count - 2).tolist(), count.tolist()):
        out = runs[at : at + k + 1]
        if out[-1] == 0:  # ones up to the last pixel: no trailing zero run
            out.pop()
        yield out


def rle_to_mask(runs, width: int, height: int) -> BitMask:
    """Inverse of mask_to_rle."""
    import numpy as np

    total = sum(runs)
    if total != width * height:
        raise ValueError(f"RLE length {total} != {width}x{height}")
    if len(runs) and min(runs) < 0:
        raise ValueError("RLE runs must be >= 0")
    # runs alternate between clear and set pixels, starting with clear
    flat = np.repeat(np.arange(len(runs)) % 2 == 1, np.asarray(runs, dtype=np.int64))
    return BitMask(width, height, flat.reshape(height, width))
