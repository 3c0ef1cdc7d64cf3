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
from json.encoder import c_make_encoder, encode_basestring_ascii

from .geometry import (
    _MAX_COORD, TWO_PI, ImagePose, Polygon2D, Vec2, _canonical, _finite, _first_non_simple,
    _signed_area,
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

    A record with no instances grades OH (vacuously fully annotated); an
    instance without a footprint is a DatasetError that names it.
    """
    try:
        return min((grade_instance(inst) for inst in record.instances), default=SupervisionLevel.OH)
    except DatasetError as e:
        k = next(k for k, inst in enumerate(record.instances) if inst.footprint is None)
        raise DatasetError(f"image {record.image_id!r}, instance {k}: {e}") from e


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


def _check_rings(rings, where) -> None:
    """Raise the DatasetError "<where(i)>: <message>" of the first non-simple
    ring of rings, i being its index.

    A ring that repeats a vertex gets _canonical's message, as that is the
    one _canonical test the loader's valid path leaves to this check.
    """
    found = _first_non_simple(rings)
    if found is not None:
        index, message = found
        try:
            _canonical(rings[index])
        except ValueError as e:
            message = str(e)
        raise DatasetError(f"{where(index)}: {message}") from None


def _ring_location(images, index: int) -> str:
    """The location of ring index of the rings read from images, footprint
    before roof, in document order."""
    for image in images:
        for k, inst in enumerate(image.get("instances", [])):
            for key, where in (("footprint", ""), ("roof", " (roof)")):
                if inst.get(key) is not None:
                    if not index:
                        return f"image {image['id']!r}, instance {k}{where}"
                    index -= 1


def _pairs(flat) -> tuple:
    """The float vertex pairs of a flat coordinate list of even length, each
    coordinate converted once, in list order."""
    it = map(float, flat)
    return tuple(zip(it, it))


def _polygon_to_flat(p: Polygon2D) -> list:
    flat = []
    for x, y in p.vertices:
        flat.append(x)
        flat.append(y)
    return flat


def _vec2(xy) -> Vec2:
    return Vec2(*map(float, xy))


def _instance_from_json(obj, polygon) -> BuildingInstance:
    """The instance of a JSON object, its footprint and roof built by
    polygon(flat, where). A DatasetError's text is the place in the
    instance ("" or " (roof)"), ": " and the message."""
    if not isinstance(obj, dict):
        raise DatasetError(": instance must be an object")
    footprint, roof, offset, height, score = map(obj.get, _INSTANCE_KEYS)
    if offset is not None:
        if not (isinstance(offset, (list, tuple)) and len(offset) == 2):
            raise DatasetError(": offset must be a [dx, dy] pair")
        offset = _number("", "offset", _vec2, offset)
    footprint = None if footprint is None else polygon(footprint, "")
    roof = None if roof is None else polygon(roof, " (roof)")
    if height is not None and type(height) is not float:
        height = _number("", "height", float, height)
    if score is not None and type(score) is not float:
        score = _number("", "score", float, score)
    try:
        _check_instance(footprint, roof, offset, height, score)
    except DatasetError as e:
        raise DatasetError(f": {e}") from e
    # trusted: _check_instance has just passed on these fields
    return BuildingInstance._trusted(
        footprint, roof, offset, height, score, {} if _INSTANCE_KEY_SET.issuperset(obj)
        else {k: v for k, v in obj.items() if k not in _INSTANCE_KEY_SET})


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


def _pose_from_json(obj, image_id) -> tuple:
    """The ImagePose and the extra keys of a pose object."""
    if not isinstance(obj, dict):
        raise DatasetError(f"image {image_id!r}: pose must be an object")
    extra = dict(obj)
    values = []
    for key in ("tan_theta", "phi", "scale_s"):
        try:
            value = extra.pop(key)
        except KeyError as e:
            raise DatasetError(f"image {image_id!r}: pose missing key {e}") from e
        if type(value) is not float:
            try:
                value = _number("", "value", float, value)
            except DatasetError as e:
                raise DatasetError(f"image {image_id!r}, pose {key}{e}") from e
        values.append(value)
    try:
        return ImagePose(*values), extra
    except ValueError as e:
        raise DatasetError(f"image {image_id!r}: {e}") from e


def _record_from_json(obj, index: int, rings: list) -> SampleRecord:
    """The record of images[index], its rings appended to rings; their
    simplicity is left to the caller."""
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
    pose, pose_extra = obj.pop("pose", None), {}
    if pose is not None:
        pose, pose_extra = _pose_from_json(pose, image_id)
    instances = obj.pop("instances", [])
    if not isinstance(instances, list):
        raise DatasetError(f"image {image_id!r}: instances must be an array")
    # SampleRecord's float frame where the sides have one; otherwise the
    # +-2**500 box, and SampleRecord checks the record
    framed = type(width) is int and type(height) is int and 0 < width < 2**53 and 0 < height < 2**53
    if framed:
        x_lo, x_hi, y_lo, y_hi = -float(width), 2.0 * width, -float(height), 2.0 * height
    else:
        x_lo, x_hi, y_lo, y_hi = -_MAX_COORD, _MAX_COORD, -_MAX_COORD, _MAX_COORD

    def polygon(flat, where):
        nonlocal framed
        if not isinstance(flat, (list, tuple)):
            raise DatasetError(f"{where}: polygon must be a flat coordinate list")
        if len(flat) % 2 or len(flat) < 6:
            raise DatasetError(
                f"{where}: polygon needs an even number of >= 6 coordinates, got {len(flat)}")
        # the valid path: numbers that convert, every vertex in bounds, no
        # boolean or string, and an area of either sign
        area = 0.0
        try:
            verts = _pairs(flat)
            for x, y in verts:
                if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                    raise ValueError
            if _NOT_NUMBERS.isdisjoint(map(type, flat)):
                area = _signed_area(verts)
        except (TypeError, ValueError, OverflowError):
            pass
        if area < 0.0:
            verts = verts[::-1]
        elif not area > 0.0:
            # the checked code raises the message, or finds the ring outside
            # the frame only
            verts = _number(where, "coordinate", lambda v: _canonical(_pairs(v)), flat)
            framed = False
        rings.append(verts)
        return Polygon2D._trusted(verts)

    built = []
    for k, inst in enumerate(instances):
        try:
            built.append(_instance_from_json(inst, polygon))
        except DatasetError as e:
            raise DatasetError(f"image {image_id!r}, instance {k}{e}") from e
    make = SampleRecord._trusted if framed else SampleRecord
    return make(image_id, width, height, pose, tuple(built), obj, pose_extra)


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
    """The Dataset of a decoded JSON document, or the DatasetError of its
    first error in document order.

    One pass over the images builds every object, and the valid path runs
    only cheap tests: each ring is converted once, each vertex tested
    against its image's frame (or the +-2**500 box where the sides have no
    float frame), and the ring wound by the sign of its area. Where such a
    test fails, the checked code it stands for (_canonical, _number,
    SampleRecord) raises the message. One _first_non_simple call checks the
    simplicity of every ring read: at the end, or before any other error is
    raised, so that an earlier non-simple ring wins.
    """
    if not isinstance(obj, dict):
        raise DatasetError("dataset root must be an object")
    obj = dict(obj)
    images = obj.pop("images", None)
    if not isinstance(images, list):
        raise DatasetError('dataset root needs an "images" array')
    metadata = obj.pop("metadata", {})
    if not isinstance(metadata, dict):
        raise DatasetError('"metadata" must be an object')
    rings = []
    where = functools.partial(_ring_location, images)
    try:
        records = tuple([_record_from_json(o, k, rings) for k, o in enumerate(images)])
    except DatasetError:
        _check_rings(rings, where)  # a non-simple earlier ring wins
        raise
    _check_rings(rings, where)
    return Dataset(records=records, metadata=metadata, extra=obj)


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
