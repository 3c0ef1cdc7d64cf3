"""Annotated-sample data model, supervision grading, and JSON round trip.

File schema (UTF-8 JSON)::

    {"images": [{"id": str, "width": int, "height": int,
                 "pose": {"tan_theta": f, "phi": f, "scale_s": f},   # optional
                 "instances": [{"footprint": [x0, y0, x1, y1, ...],
                                "roof": [...],        # optional
                                "offset": [dx, dy],   # optional, roof->footprint
                                "height": f,          # optional, meters
                                "score": f}]}],       # optional, predictions
     "metadata": {...}}

Unknown keys at the top, image, instance, and pose levels are preserved on
round trip.
"""

from __future__ import annotations

import contextlib
import enum
import errno
import functools
import gc
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

from .geometry import (
    _BATCH_EDGES, _MAX_COORD, TWO_PI, ImagePose, Polygon2D, Vec2, _canonical_flat, _finite,
    _first_non_simple, _first_violation, _kernel_chunks, _numpy_loaded,
)

ROOF_OFFSET_TOL_PX = 1e-6


class DatasetError(Exception):
    """Schema or invariant violation, with record-level context."""


class SupervisionLevel(enum.IntEnum):
    """Annotation richness of a sample; total order N < H < OH."""

    N = 1  # footprint only
    H = 2  # footprint + height
    OH = 3  # footprint + offset + height

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BuildingInstance:
    """One annotated building.

    ``offset`` is the roof-to-footprint displacement. An instance must carry
    a footprint or enough to derive one (roof + offset). When footprint,
    roof, and offset are all present they must be mutually consistent:
    roof == footprint - offset, vertex by vertex, within 1e-6 px.
    """

    footprint: Polygon2D | None
    roof: Polygon2D | None = None
    offset: Vec2 | None = None
    height: float | None = None
    score: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_instance(self.footprint, self.roof, self.offset, self.height, self.score)

    @classmethod
    def _trusted(cls, footprint, roof, offset, height, score, extra) -> "BuildingInstance":
        """Instance whose checks its caller has proven to pass."""
        inst = object.__new__(cls)
        vars(inst).update(footprint=footprint, roof=roof, offset=offset, height=height,
                          score=score, extra=extra)
        return inst


def _check_instance(footprint, roof, offset, height, score) -> None:
    """Raise the DatasetError of the first BuildingInstance invariant these
    fields break; the constructor and the loader both check through here."""
    if footprint is None and (roof is None or offset is None):
        raise DatasetError("instance needs a footprint or both roof and offset")
    if height is not None:
        if type(height) is bool or not (_finite(height) and height >= 0):
            raise DatasetError(f"height must be finite and >= 0, got {height!r}")
    if score is not None:
        if type(score) is bool or not (_finite(score) and 0 <= score <= 1):
            raise DatasetError(f"score must be in [0, 1], got {score!r}")
    if footprint is not None and roof is not None and offset is not None:
        # footprint - offset without building a throwaway polygon; x - dx
        # is translate_polygon's x + (-dx) bit for bit
        dx, dy = offset.dx, offset.dy
        got, fp = roof.vertices, footprint.vertices
        if len(got) != len(fp):
            raise DatasetError(
                f"roof has {len(got)} vertices but footprint - offset has {len(fp)}"
            )
        dev = 0.0
        for (gx, gy), (x, y) in zip(got, fp):
            ex, ey = abs(gx - (x - dx)), abs(gy - (y - dy))
            if ex > dev:
                dev = ex
            if ey > dev:
                dev = ey
        if dev > ROOF_OFFSET_TOL_PX:
            raise DatasetError(
                f"roof deviates from footprint - offset by {dev:.3g} px "
                f"(> {ROOF_OFFSET_TOL_PX} px)"
            )


def grade_instance(inst: BuildingInstance) -> SupervisionLevel:
    """Supervision level of a single instance."""
    if inst.footprint is None:
        raise DatasetError("instance missing footprint")
    if inst.height is None:
        return SupervisionLevel.N
    if inst.offset is None:
        return SupervisionLevel.H
    return SupervisionLevel.OH


def _is_integer(v) -> bool:
    # bool is an int subclass, but {"width": true} is not a 1-px image
    return isinstance(v, int) and not isinstance(v, bool)


_NOT_NUMBERS = frozenset((bool, str))  # float() takes them; JSON numbers they are not
_JSON_NUMBERS = frozenset((int, float))


def _number(where: str, what: str, convert, value):
    """convert(value) as _parse reports it, then a DatasetError if value, or
    an item of a list value, was a boolean or a string.

    Converting first keeps the message of every value convert rejects; a
    list reaches the type pass only when convert accepted it, a scalar only
    when float() did, which no list passes. Each value is converted and
    type-checked once, here.
    """
    out = _parse(where, convert, value)
    if isinstance(value, (list, tuple)):
        if _NOT_NUMBERS.isdisjoint(map(type, value)):
            return out
        value = next(v for v in value if type(v) in _NOT_NUMBERS)
    elif type(value) not in _NOT_NUMBERS:
        return out
    raise DatasetError(f"{where}: {what} must be a JSON number, got {value!r}")


@dataclass(frozen=True)
class SampleRecord:
    """One image worth of annotations."""

    image_id: str
    width: int
    height: int
    pose: ImagePose | None = None
    instances: tuple = ()
    extra: dict = field(default_factory=dict)
    pose_extra: dict = field(default_factory=dict)

    @classmethod
    def _trusted(cls, image_id, width, height, pose, instances, extra, pose_extra) -> "SampleRecord":
        """Record whose checks its caller has proven to pass; instances a tuple."""
        r = object.__new__(cls)
        vars(r).update(image_id=image_id, width=width, height=height, pose=pose,
                       instances=instances, extra=extra, pose_extra=pose_extra)
        return r

    def __post_init__(self):
        if not isinstance(self.image_id, str):
            raise DatasetError(f"image id must be a string, got {self.image_id!r}")
        if not (_is_integer(self.width) and _is_integer(self.height)):
            raise DatasetError(f"image {self.image_id!r}: dimensions must be integers")
        if self.width <= 0 or self.height <= 0:
            raise DatasetError(
                f"image {self.image_id!r}: dimensions must be positive, "
                f"got {self.width}x{self.height}"
            )
        object.__setattr__(self, "instances", tuple(self.instances))
        # generous slack for clipped geometry; a size too large for an exact
        # float stays an int, which Python compares with floats exactly and
        # without overflow, while float bounds compare faster
        w, h = self.width, self.height
        if w < 2**53 and h < 2**53:
            w, h = float(w), float(h)
        x_lo, x_hi = -w, 2 * w
        y_lo, y_hi = -h, 2 * h
        for k, inst in enumerate(self.instances):
            for poly in (inst.footprint, inst.roof):
                if poly is None:
                    continue
                for x, y in poly.vertices:
                    if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                        raise DatasetError(
                            f"image {self.image_id!r}, instance {k}: vertex "
                            f"({x}, {y}) outside the allowed frame "
                            f"[{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]"
                        )


def grade_sample(record: SampleRecord) -> SupervisionLevel:
    """Supervision level of a sample: the weakest level among its instances.

    A record with no instances grades OH (vacuously fully annotated).
    """
    return min(
        (grade_instance(inst) for inst in record.instances),
        default=SupervisionLevel.OH,
    )


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of sample records with unique image ids."""

    records: tuple = ()
    metadata: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for r in self.records:
            if r.image_id in seen:
                raise DatasetError(f"duplicate image id {r.image_id!r}")
            seen.add(r.image_id)

    def __len__(self) -> int:
        return len(self.records)

    def by_id(self) -> dict:
        return {r.image_id: r for r in self.records}


# ---------------------------------------------------------------------------
# JSON serialization

_RECORD_KEYS = frozenset(("id", "width", "height", "pose", "instances"))
_INSTANCE_KEYS = ("footprint", "roof", "offset", "height", "score")
_INSTANCE_KEY_SET = frozenset(_INSTANCE_KEYS)


def _parse(where: str, parse, value):
    """parse(value), reporting a value of the wrong type, one too large for a
    float, or one that parse rejects as a DatasetError prefixed with where."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetError(f"{where}: {e}") from e


class _PendingRings:
    """Rings whose simplicity check is deferred, in the order they were built:
    the loader's, and the footprints `footprint --mode polygon` derives.

    They are checked together once they reach _BATCH_EDGES edges (one
    kernel chunk), so a non-simple ring raises before much after it is
    built, and the rings held stay bounded. On leaving a with block, also
    by an exception, the rest are checked, so the earlier error wins.
    """

    def __init__(self):
        self.rings, self.wheres, self.edges = [], [], 0

    def __enter__(self):
        return self

    def __exit__(self, kind, error, tb):
        if kind is None or issubclass(kind, Exception):
            self.check()

    def polygon(self, verts: tuple, where: str) -> Polygon2D:
        """Polygon over canonical vertices, its simplicity check deferred."""
        self.rings.append(verts)
        self.wheres.append(where)
        self.edges += len(verts)
        if self.edges >= _BATCH_EDGES:
            self.check()
        return Polygon2D._trusted(verts)

    def check(self) -> None:
        """Raise the DatasetError "<where>: <message>" of the first non-simple
        pending ring."""
        rings, wheres = self.rings, self.wheres
        self.rings, self.wheres, self.edges = [], [], 0
        found = _first_non_simple(rings)
        if found is not None:
            index, message = found
            raise DatasetError(f"{wheres[index]}: {message}") from None


def _flat_to_polygon(values, where: str, pending: _PendingRings) -> Polygon2D:
    """Polygon over canonical vertices; its simplicity check is deferred to
    pending (see dataset_from_json)."""
    if not isinstance(values, (list, tuple)):
        raise DatasetError(f"{where}: polygon must be a flat coordinate list")
    if len(values) % 2 != 0 or len(values) < 6:
        raise DatasetError(
            f"{where}: polygon needs an even number of >= 6 coordinates, got {len(values)}"
        )
    return pending.polygon(_number(where, "coordinate", _canonical_flat, values), where)


def _polygon_to_flat(p: Polygon2D) -> list:
    flat = []
    for x, y in p.vertices:
        flat.append(x)
        flat.append(y)
    return flat


def _instance_from_json(obj, where: str, pending: _PendingRings) -> BuildingInstance:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: instance must be an object")
    obj = dict(obj)
    footprint = obj.pop("footprint", None)
    roof = obj.pop("roof", None)
    offset = obj.pop("offset", None)
    height = obj.pop("height", None)
    score = obj.pop("score", None)
    if offset is not None:
        if not (isinstance(offset, (list, tuple)) and len(offset) == 2):
            raise DatasetError(f"{where}: offset must be a [dx, dy] pair")
        offset = _number(where, "offset", lambda xy: Vec2(*map(float, xy)), offset)
    footprint = None if footprint is None else _flat_to_polygon(footprint, where, pending)
    roof = None if roof is None else _flat_to_polygon(roof, where + " (roof)", pending)
    height = None if height is None else _number(where, "height", float, height)
    score = None if score is None else _number(where, "score", float, score)
    try:
        _check_instance(footprint, roof, offset, height, score)
    except DatasetError as e:
        raise DatasetError(f"{where}: {e}") from e
    # trusted: _check_instance has just passed on these fields
    return BuildingInstance._trusted(footprint, roof, offset, height, score, obj)


def _instance_to_json(inst: BuildingInstance) -> dict:
    out = {}
    if inst.footprint is not None:
        out["footprint"] = _polygon_to_flat(inst.footprint)
    if inst.roof is not None:
        out["roof"] = _polygon_to_flat(inst.roof)
    if inst.offset is not None:
        out["offset"] = [inst.offset.dx, inst.offset.dy]
    if inst.height is not None:
        out["height"] = inst.height
    if inst.score is not None:
        out["score"] = inst.score
    out.update(inst.extra)
    return out


def _record_from_json(obj, index: int, pending: _PendingRings) -> SampleRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"images[{index}] must be an object")
    obj = dict(obj)
    try:
        image_id = obj.pop("id")
        width = obj.pop("width")
        height = obj.pop("height")
    except KeyError as e:
        raise DatasetError(f"images[{index}]: missing required key {e}") from e
    if not isinstance(image_id, str):
        raise DatasetError(f"images[{index}]: id must be a string, got {image_id!r}")
    where = f"image {image_id!r}"
    pose_obj = obj.pop("pose", None)
    pose = None
    pose_extra = {}
    if pose_obj is not None:
        if not isinstance(pose_obj, dict):
            raise DatasetError(f"{where}: pose must be an object")
        pose_obj = dict(pose_obj)
        try:
            pose = ImagePose(*(
                _number(f"{where}, pose {key}", "value", float, pose_obj.pop(key))
                for key in ("tan_theta", "phi", "scale_s")
            ))
        except KeyError as e:
            raise DatasetError(f"{where}: pose missing key {e}") from e
        except ValueError as e:
            raise DatasetError(f"{where}: {e}") from e
        pose_extra = pose_obj
    instances = obj.pop("instances", [])
    if not isinstance(instances, list):
        raise DatasetError(f"{where}: instances must be an array")
    instances = [
        _instance_from_json(o, f"{where}, instance {k}", pending)
        for k, o in enumerate(instances)
    ]
    return SampleRecord(
        image_id=image_id,
        width=width,
        height=height,
        pose=pose,
        instances=tuple(instances),
        extra=obj,
        pose_extra=pose_extra,
    )


def _pose_to_json(r: SampleRecord) -> dict:
    return {"tan_theta": r.pose.tan_theta, "phi": r.pose.phi, "scale_s": r.pose.scale_s,
            **r.pose_extra}


def _record_to_json(r: SampleRecord) -> dict:
    out = {"id": r.image_id, "width": r.width, "height": r.height}
    if r.pose is not None:
        out["pose"] = _pose_to_json(r)
    out["instances"] = [_instance_to_json(i) for i in r.instances]
    out.update(r.extra)
    return out


def _document(d: Dataset, images) -> dict:
    return {"images": images, "metadata": d.metadata, **d.extra}


def dataset_to_json(d: Dataset) -> dict:
    return _document(d, [_record_to_json(r) for r in d.records])


def dataset_from_json(obj) -> Dataset:
    if not isinstance(obj, dict):
        raise DatasetError("dataset root must be an object")
    obj = dict(obj)
    images = obj.pop("images", None)
    if not isinstance(images, list):
        raise DatasetError('dataset root needs an "images" array')
    metadata = obj.pop("metadata", {})
    if not isinstance(metadata, dict):
        raise DatasetError('"metadata" must be an object')
    if _numpy_loaded():
        # where the batched route cannot prove the document valid, the
        # ring-by-ring route loads it or reports its first error
        with contextlib.suppress(DatasetError, ValueError, OverflowError, TypeError):
            return Dataset(records=_records_batched(images), metadata=metadata, extra=obj)
    # rings are checked in batches; the first error in document order wins
    with _PendingRings() as pending:
        records = [_record_from_json(o, k, pending) for k, o in enumerate(images)]
        return Dataset(records=tuple(records), metadata=metadata, extra=obj)


def _exact(value, kind):
    """value, or a TypeError unless its type is exactly kind."""
    if type(value) is not kind:
        raise TypeError
    return value


def _numbers(values):
    """values, or a TypeError unless each is exactly an int or a float."""
    if not _JSON_NUMBERS.issuperset(map(type, values)):
        raise TypeError
    return values


def _records_batched(images) -> tuple:
    """The records the ring-by-ring route builds from images, or an error
    (DatasetError, ValueError, OverflowError or TypeError) where a value is
    not exactly of its JSON type or a check fails.

    One walk collects every ring, offset, height and score; each column is
    converted in one pass. Rings of equal vertex count are canonicalized and
    checked together in the simplicity kernel's chunks: the +-2**500 bound,
    _signed_area's sum (its operations in its order), the reversal of a
    negative winding, the frame of the ring's image and the kernel. Then
    _check_instance's checks run on the columns, the roof deviation on the
    canonical coordinates, with the same float operations.
    """
    import numpy as np

    flats, frames = [], []  # the rings, and the width and height of each one's image
    offsets, heights, scores = [], [], []
    paired = []  # the footprint ring and the offset of each instance that also has a roof
    for image in images:
        frame = [_exact(_exact(image, dict).get(k), int) for k in ("width", "height")]
        if not (type(image.get("id")) is str and 0 < min(frame) and max(frame) < 2**53):
            raise TypeError
        for inst in _exact(image.get("instances", []), list):
            fp, roof, offset, h, score = map(_exact(inst, dict).get, _INSTANCE_KEYS)
            if fp is None and (roof is None or offset is None):
                raise TypeError
            if offset is not None:
                if len(_exact(offset, list)) != 2:
                    raise TypeError
                if fp is not None and roof is not None:
                    paired += (len(flats), len(offsets))
                offsets.append(offset)
            for flat in (fp, roof):
                if flat is not None:
                    flats.append(_exact(flat, list))
                    frames.append(frame)
            if h is not None:
                heights.append(h)
            if score is not None:
                scores.append(score)
    # every coordinate, offset component, height and score
    _numbers(chain(chain.from_iterable(flats), chain.from_iterable(offsets), heights, scores))
    offsets = np.fromiter(map(float, chain.from_iterable(offsets)), float, 2 * len(offsets))
    heights = np.fromiter(map(float, heights), float, len(heights))
    scores = np.fromiter(map(float, scores), float, len(scores))
    if not (np.isfinite(offsets).all() and ((heights >= 0.0) & (heights < np.inf)).all()
            and ((scores >= 0.0) & (scores <= 1.0)).all()):
        raise TypeError  # also for NaN, which fails every comparison
    sizes = [len(flat) if len(flat) % 2 == 0 else 0 for flat in flats]  # odd: 0, refused below
    xy = np.fromiter(map(float, chain.from_iterable(flats)), float, sum(sizes))
    if not (min(sizes, default=6) >= 6 and np.abs(xy).max(initial=0.0) <= _MAX_COORD):
        raise TypeError  # also for NaN, which fails every comparison
    sizes = np.array(sizes, int)
    starts = np.cumsum(sizes) - sizes
    frames = np.array(frames, float).reshape(-1, 2)
    polygons = [None] * len(flats)
    for n, chunk in _kernel_chunks(size // 2 for size in sizes.tolist()):
        at = starts[chunk, None] + np.arange(2 * n)
        p = xy[at].reshape(len(chunk), n, 2)
        d = p[:, 1:] - p[:, :1]
        area = 0.5 * np.add.accumulate(
            d[:, :-1, 0] * d[:, 1:, 1] - d[:, 1:, 0] * d[:, :-1, 1], axis=1)[:, -1]
        p[area < 0.0] = p[area < 0.0, ::-1]
        xy[at] = p.reshape(len(chunk), 2 * n)  # canonical, for the roof deviation
        # SampleRecord's frame check, in the same float bounds
        outside = (p.min(axis=1) < -frames[chunk]) | (p.max(axis=1) > 2 * frames[chunk])
        if not area.all() or outside.any() or _first_violation(p) is not None:
            raise TypeError
        for i, row in zip(chunk, p.reshape(len(chunk), 2 * n).tolist()):
            # a repeated vertex fails the kernel: two edges not adjacent start
            # there, or one of length 0 folds back (exact zeros either way)
            it = iter(row)
            polygons[i] = tuple(zip(it, it))
    if paired:
        # _check_instance's roof - (footprint - offset), coordinate by coordinate:
        # a roof's ring follows its footprint's, and every ring starts at an even index
        fp, offset = np.array(paired).reshape(-1, 2).T
        n = sizes[fp]
        if (n != sizes[fp + 1]).any():
            raise TypeError
        at = np.arange(n.sum()) + np.repeat(starts[fp] - (np.cumsum(n) - n), n)
        dev = np.abs(xy[at + np.repeat(n, n)]
                     - (xy[at] - offsets.reshape(-1, 2)[np.repeat(offset, n), at % 2]))
        if not (dev <= ROOF_OFFSET_TOL_PX).all():
            raise TypeError
    polygons = map(Polygon2D._trusted, polygons)
    vectors = (Vec2._trusted(dx, dy) for dx, dy in offsets.reshape(-1, 2).tolist())
    heights, scores = iter(heights.tolist()), iter(scores.tolist())
    records = []
    for image in images:
        image = dict(image)
        pose, pose_extra = image.pop("pose", None), {}
        if pose is not None:
            pose_extra = dict(_exact(pose, dict))
            pose = ImagePose(*map(float, _numbers(
                [pose_extra.pop(k, None) for k in ("tan_theta", "phi", "scale_s")])))
        instances = []
        for inst in image.pop("instances", []):
            fp, roof, offset, h, score = map(inst.get, _INSTANCE_KEYS)
            # trusted: the columns and rings are checked above
            instances.append(BuildingInstance._trusted(
                None if fp is None else next(polygons), None if roof is None else next(polygons),
                None if offset is None else next(vectors), None if h is None else next(heights),
                None if score is None else next(scores),
                {} if _INSTANCE_KEY_SET.issuperset(inst)
                else {k: v for k, v in inst.items() if k not in _INSTANCE_KEY_SET}))
        # trusted: the id, the size and the frame of every ring are checked above
        records.append(SampleRecord._trusted(image.pop("id"), image.pop("width"),
                                             image.pop("height"), pose, tuple(instances), image,
                                             pose_extra))
    return tuple(records)


def _read_json(path):
    """Parse a UTF-8 JSON file; failing to read or parse it is a
    DatasetError that names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError, integers beyond the digit limit
        raise DatasetError(f"{path} is not valid JSON: {e}") from e


_SCALARS = frozenset((str, int, float, bool, type(None)))
_CONTAINERS = (list, tuple, dict)  # the pure-Python encoder's container tests


@functools.cache
def _level(depth: int) -> tuple:
    """The C encoder of the items at depth, built as JSONEncoder.iterencode
    builds its own but strict and with that depth's line break and indent
    as item separator; and that separator."""
    sep = ",\n" + "  " * depth
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ": ", sep, False, False, False), sep


@functools.cache
def _instance_layout(depth: int) -> tuple:
    """For an instance at depth: the encoder of its numbers; the texts that
    open it, separate its keys and close it; the text that closes a list;
    and the text that leads each fixed key's value, a list's opening
    bracket included."""
    enc, sep = _level(depth + 2)
    key_sep = _level(depth + 1)[1]
    heads = ('"footprint": [' + sep[1:], '"roof": [' + sep[1:], '"offset": [' + sep[1:],
             '"height": ', '"score": ')
    return enc, "{" + key_sep[1:], key_sep, key_sep[1:-2] + "}", sep[1:-2] + "]", heads


def _instance_text(inst: BuildingInstance, depth: int) -> str:
    """_instance_to_json(inst) as _dump writes it at depth, for an instance
    without extra keys: each ring's numbers in one C call."""
    enc, opening, key_sep, closing, end, (fp, roof, offset, height, score) = (
        _instance_layout(depth))
    items = []
    for head, p in ((fp, inst.footprint), (roof, inst.roof)):
        if p is not None:
            items.append(head + "".join(enc(_polygon_to_flat(p), 0))[1:-1] + end)
    if inst.offset is not None:
        items.append(offset + "".join(enc([inst.offset.dx, inst.offset.dy], 0))[1:-1] + end)
    for head, x in ((height, inst.height), (score, inst.score)):
        if x is not None:
            items.append(head + "".join(enc([x], 0))[1:-1])
    return opening + key_sep.join(items) + closing


def _dump(obj, f) -> None:
    """json.dump(obj, f, indent=2, allow_nan=False), byte for byte, written
    in pieces of at most about 128 strings or 8 KB of scalar containers.

    A container of scalars and empty containers is one C call. A list that
    holds a container is walked item by item. A dict that holds one is one
    C call over a copy with null for each non-empty container; that text is
    cut at the separators (encoded keys and scalars hold no raw newline),
    and each of those nulls is replaced by its container's text. A
    SampleRecord is written as _record_to_json gives it, straight from its
    fields: an instance without extra keys as _instance_text gives it, the
    rest through the generic walk.
    """
    pending = []
    size = 0  # characters of the scalar-only containers pending

    def members(o, depth, buf):
        """Write the items of dict o at depth + 1 after buf, the text before
        the first; return the text before the next."""
        enc, sep = _level(depth + 1)
        text = "".join(enc(
            {k: None if isinstance(v, _CONTAINERS) and v else v for k, v in o.items()}, 0))
        for part, v in zip(text[1:-1].split(sep), o.values()):
            if isinstance(v, _CONTAINERS) and v:
                pending.append(buf + part[:-4])  # '"key": null' less its null
                walk(v, depth + 1)
                buf = sep
            else:
                buf += part + sep
        return buf

    def record(r, depth):
        nonlocal size
        sep = _level(depth + 1)[1]
        head = {"id": r.image_id, "width": r.width, "height": r.height}
        if r.pose is not None:
            head["pose"] = _pose_to_json(r)
        buf = members(head, depth, "{" + sep[1:]) + '"instances": '
        if r.instances:
            item_sep = _level(depth + 2)[1]
            buf += "[" + item_sep[1:]
            for inst in r.instances:
                spill()
                pending.append(buf)
                if inst.extra:
                    walk(_instance_to_json(inst), depth + 2)
                else:
                    text = _instance_text(inst, depth + 2)
                    size += len(text)
                    pending.append(text)
                buf = item_sep
            buf = item_sep[1:-2] + "]"
        else:
            buf += "[]"
        if r.extra:
            buf = members(r.extra, depth, buf + sep)[:-len(sep)]
        pending.append(buf + sep[1:-2] + "}")

    def spill():
        nonlocal size
        if len(pending) >= 128 or size >= 8192:
            f.write("".join(pending))
            pending.clear()
            size = 0

    def walk(o, depth):
        nonlocal size
        spill()
        enc, sep = _level(depth + 1)
        inner, outer = sep[1:], sep[1:-2]
        if isinstance(o, (list, tuple)):
            items = o
        elif isinstance(o, dict):
            items = o.values()
        elif isinstance(o, SampleRecord):  # save_dataset's: written when reached
            if _RECORD_KEYS.isdisjoint(o.extra):
                return record(o, depth)
            return walk(_record_to_json(o), depth)  # an extra key replaces a fixed one
        else:
            pending.append("".join(enc([o], 0))[1:-1])
            return
        if _SCALARS.issuperset(map(type, items)):
            text = "".join(enc(o, 0))
            size += len(text)
            if len(text) == 2:  # [] or {}
                pending.append(text)
            else:
                pending.extend((text[0], inner, text[1:-1], outer, text[-1]))
            return
        if items is o:
            buf = "[" + inner
            for v in o:
                pending.append(buf)
                walk(v, depth + 1)
                buf = sep
            pending.append(outer + "]")
        else:
            pending.append(members(o, depth, "{" + inner)[:-len(sep)] + outer + "}")

    walk(obj, 0)
    f.write("".join(pending))


def _encode(obj, f, path) -> None:
    # _write_json's encoding of obj to the open text file f
    try:
        if c_make_encoder is None:
            json.dump(obj, f, indent=2, allow_nan=False, default=lambda o: _record_to_json(o)
                      if isinstance(o, SampleRecord) else json.JSONEncoder().default(o))
        else:
            _dump(obj, f)
    except (ValueError, RecursionError) as e:  # a value JSON cannot hold, or one nested too deep
        raise DatasetError(f"cannot write {path}: {e}") from e
    f.write("\n")


def _write_json(obj, path) -> None:
    """Write obj as json.dumps(obj, indent=2) plus "\\n", byte for byte:
    ASCII-escaped strict JSON with LF line ends; the path "-" means stdout.

    A non-finite float, an int too long for str or a value nested deeper
    than the recursion limit allows is a DatasetError that names the path.
    Without the _json accelerator, json.dump writes it. A SampleRecord in
    obj is written as _record_to_json gives it, straight from its fields
    when the writer reaches it.
    """
    if path == "-":
        return _encode(obj, sys.stdout, path)
    _replace_file(path, lambda f: _encode(obj, f, path))


def _replace_file(path, write) -> None:
    """Call write(f) on a UTF-8 text file f, with LF line ends, beside the
    file path resolves to, and replace that file with f once written whole:
    on any error f is removed and an existing output keeps its bytes. A
    symlink stays a symlink, an existing output keeps its permission bits,
    and a new one gets those open(path, "w") gives it; an output
    open(path, "w") could not write is refused. An existing path that is
    not a regular file (/dev/null, a FIFO) is written in place."""
    real = os.path.realpath(path)
    try:
        mode = os.stat(real).st_mode
    except OSError:  # none there, or none to see: a new file
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            return write(f)
    if mode is not None and not os.access(real, os.W_OK):  # refused as open(path, "w") would
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
    folder, name = os.path.split(real)
    while True:
        tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies
            break
        except FileExistsError:
            continue
        except OSError as e:  # no such folder, or one not writable: name the output
            e.filename = os.fspath(path)
            raise
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as f:
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))
            write(f)
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_dataset(path) -> Dataset:
    """Read and validate a dataset JSON file.

    The cyclic collector is paused meanwhile: parsing and validating build
    no reference cycles, but its collections would walk the objects built
    so far again and again as the file grows.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return dataset_from_json(_read_json(path))
    finally:
        if enabled:
            gc.enable()


def save_dataset(d: Dataset, path) -> None:
    """Write dataset_to_json(d) as _write_json does, building and writing one
    record's JSON at a time; coordinates keep full float precision."""
    _write_json(_document(d, d.records), path)


# ---------------------------------------------------------------------------
# pose/offset consistency


@dataclass(frozen=True)
class Finding:
    """One instance whose annotation disagrees with the image pose."""

    image_id: str
    instance_index: int
    kind: str  # "magnitude" or "angle"
    measured: float
    expected: float
    excess: float


@dataclass(frozen=True)
class ConsistencyReport:
    findings: tuple = ()
    notes: tuple = ()


def validate_consistency(record: SampleRecord, tol_px: float = 1e-6) -> ConsistencyReport:
    """Check each fully annotated instance against the image pose.

    The offset magnitude must match height * scale_s * tan_theta within
    tol_px, and the offset direction must match phi within the equivalent
    angular slack (an arc displacement of tol_px at the offset's length).
    Instances that cannot be checked are reported in the notes; findings
    are diagnostics, not failures.
    """
    if not tol_px >= 0:  # false for NaN too
        raise ValueError(f"tol_px must be >= 0, got {tol_px}")
    if record.pose is None:
        return ConsistencyReport(notes=("pose absent; consistency not checkable",))
    pose = record.pose
    findings = []
    notes = []
    for k, inst in enumerate(record.instances):
        if inst.offset is None or inst.height is None:
            notes.append(f"instance {k}: offset or height absent; skipped")
            continue
        measured = inst.offset.norm()
        expected = inst.height * pose.scale_s * pose.tan_theta
        excess = abs(measured - expected)
        if excess > tol_px:
            findings.append(
                Finding(record.image_id, k, "magnitude", measured, expected, excess)
            )
        if measured > 0.0 and expected > 0.0:
            ang = math.atan2(inst.offset.dy, inst.offset.dx)
            diff = abs((ang - pose.phi) % TWO_PI)
            diff = min(diff, TWO_PI - diff)
            arc = diff * measured
            if arc > tol_px:
                findings.append(Finding(record.image_id, k, "angle", ang % TWO_PI, pose.phi, arc))
    return ConsistencyReport(findings=tuple(findings), notes=tuple(notes))


def strip_annotations(
    inst: BuildingInstance, *, drop_offset: bool = False, drop_height: bool = False
) -> BuildingInstance:
    """Copy an instance with offset (and roof) and/or height removed.

    The roof goes with the offset: keeping it would leak the offset through
    the roof/footprint relation.
    """
    if not (drop_offset or drop_height):
        return inst
    # trusted with a footprint: then dropping offset and roof together, or
    # the height, keeps every check that inst passed
    make = BuildingInstance._trusted if inst.footprint is not None else BuildingInstance
    return make(inst.footprint, None if drop_offset else inst.roof,
                None if drop_offset else inst.offset, None if drop_height else inst.height,
                inst.score, inst.extra)
