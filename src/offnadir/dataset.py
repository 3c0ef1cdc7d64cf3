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
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from json.encoder import c_make_encoder, encode_basestring_ascii

from .geometry import (
    _BATCH_EDGES, TWO_PI, ImagePose, Polygon2D, Vec2, _canonical_ring, _first_non_simple,
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
        if self.footprint is None and not (self.roof is not None and self.offset is not None):
            raise DatasetError("instance needs a footprint or both roof and offset")
        if self.height is not None:
            if type(self.height) is bool or not (math.isfinite(self.height) and self.height >= 0):
                raise DatasetError(f"height must be finite and >= 0, got {self.height!r}")
        if self.score is not None:
            if type(self.score) is bool or not (math.isfinite(self.score) and 0 <= self.score <= 1):
                raise DatasetError(f"score must be in [0, 1], got {self.score!r}")
        if self.footprint is not None and self.roof is not None and self.offset is not None:
            # footprint - offset without building a throwaway polygon; x - dx
            # is translate_polygon's x + (-dx) bit for bit
            dx, dy = self.offset.dx, self.offset.dy
            got = self.roof.vertices
            fp = self.footprint.vertices
            if len(got) != len(fp):
                raise DatasetError(
                    f"roof has {len(got)} vertices but footprint - offset has {len(fp)}"
                )
            dev = max(
                max(abs(gx - (x - dx)), abs(gy - (y - dy))) for (gx, gy), (x, y) in zip(got, fp)
            )
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
    when float() did, which no list passes.
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


def _parse(where: str, parse, value):
    """parse(value), reporting a value of the wrong type, one too large for a
    float, or one that parse rejects as a DatasetError prefixed with where."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetError(f"{where}: {e}") from e


class _PendingRings:
    """Rings whose simplicity check is deferred, in document order.

    They are checked together once they reach _BATCH_EDGES edges (one
    kernel chunk), so a non-simple ring raises before much after it is
    parsed, and the rings held stay bounded.
    """

    def __init__(self):
        self.rings, self.wheres, self.edges = [], [], 0

    def add(self, verts: tuple, where: str) -> None:
        self.rings.append(verts)
        self.wheres.append(where)
        self.edges += len(verts)
        if self.edges >= _BATCH_EDGES:
            self.check()

    def check(self) -> None:
        """Raise the DatasetError of the first non-simple pending ring."""
        rings, wheres = self.rings, self.wheres
        self.rings, self.wheres, self.edges = [], [], 0
        found = _first_non_simple(rings)
        if found is not None:
            index, message = found
            raise DatasetError(f"{wheres[index]}: {message}") from None


def _flat_to_polygon(values, where: str, pending: _PendingRings) -> Polygon2D:
    """Polygon over canonical vertices; its simplicity check is deferred by
    adding it to pending (see dataset_from_json)."""
    if not isinstance(values, (list, tuple)):
        raise DatasetError(f"{where}: polygon must be a flat coordinate list")
    if len(values) % 2 != 0 or len(values) < 6:
        raise DatasetError(
            f"{where}: polygon needs an even number of >= 6 coordinates, got {len(values)}"
        )
    verts = _number(
        where, "coordinate", lambda v: _canonical_ring(zip(v[0::2], v[1::2])), values
    )
    pending.add(verts, where)
    return Polygon2D._trusted(verts)


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
        return BuildingInstance(
            footprint=footprint,
            roof=roof,
            offset=offset,
            height=height,
            score=score,
            extra=obj,
        )
    except DatasetError as e:
        raise DatasetError(f"{where}: {e}") from e


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


def _record_to_json(r: SampleRecord) -> dict:
    out = {"id": r.image_id, "width": r.width, "height": r.height}
    if r.pose is not None:
        pose = {
            "tan_theta": r.pose.tan_theta,
            "phi": r.pose.phi,
            "scale_s": r.pose.scale_s,
        }
        pose.update(r.pose_extra)
        out["pose"] = pose
    out["instances"] = [_instance_to_json(i) for i in r.instances]
    out.update(r.extra)
    return out


def dataset_to_json(d: Dataset) -> dict:
    out = {"images": [_record_to_json(r) for r in d.records], "metadata": d.metadata}
    out.update(d.extra)
    return out


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
    # Rings are canonicalized in document order and checked for simplicity
    # in batches (_PendingRings). A non-simple ring would have stopped
    # loading before anything after it was parsed, so when a later error
    # occurs the rings still pending are checked first and the earliest wins.
    pending = _PendingRings()
    try:
        records = [_record_from_json(o, k, pending) for k, o in enumerate(images)]
        dataset = Dataset(records=tuple(records), metadata=metadata, extra=obj)
    except DatasetError:
        pending.check()
        raise
    pending.check()
    return dataset


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


def _dump(obj, f) -> None:
    """json.dump(obj, f, indent=2, allow_nan=False), byte for byte, written
    in pieces of at most about 128 strings or 8 KB of scalar containers.

    A container of scalars and empty containers is one C call. A list that
    holds a container is walked item by item. A dict that holds one is one
    C call over a copy with null for each non-empty container; that text is
    cut at the separators (encoded keys and scalars hold no raw newline),
    and each of those nulls is replaced by its container's text.
    """
    pending = []
    size = 0  # characters of the scalar-only containers pending

    def walk(o, depth):
        nonlocal size
        if len(pending) >= 128 or size >= 8192:
            f.write("".join(pending))
            pending.clear()
            size = 0
        enc, sep = _level(depth + 1)
        inner, outer = sep[1:], sep[1:-2]
        if isinstance(o, (list, tuple)):
            items = o
        elif isinstance(o, dict):
            items = o.values()
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
            text = "".join(enc(
                {k: None if isinstance(v, _CONTAINERS) and v else v for k, v in o.items()}, 0))
            buf = "{" + inner
            for part, v in zip(text[1:-1].split(sep), items):
                if isinstance(v, _CONTAINERS) and v:
                    pending.append(buf + part[:-4])  # '"key": null' less its null
                    walk(v, depth + 1)
                    buf = sep
                else:
                    buf += part + sep
            pending.append(buf[:-len(sep)] + outer + "}")

    walk(obj, 0)
    f.write("".join(pending))


def _write_json(obj, path) -> None:
    """Write obj as json.dumps(obj, indent=2) plus "\\n", byte for byte:
    ASCII-escaped strict JSON with LF line ends; the path "-" means stdout.

    A non-finite float (or an int too long for str) is a DatasetError that
    names the path. Without the _json accelerator, json.dump writes it.
    """
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", encoding="utf-8", newline="\n")) as f:
        try:
            if c_make_encoder is None:
                json.dump(obj, f, indent=2, allow_nan=False)
            else:
                _dump(obj, f)
        except ValueError as e:
            raise DatasetError(f"cannot write {path}: {e}") from e
        f.write("\n")


def load_dataset(path) -> Dataset:
    """Read and validate a dataset JSON file."""
    return dataset_from_json(_read_json(path))


def save_dataset(d: Dataset, path) -> None:
    """Write a dataset as JSON; coordinates keep full float precision."""
    _write_json(dataset_to_json(d), path)


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
    changes = {}
    if drop_offset:
        changes["offset"] = None
        changes["roof"] = None
    if drop_height:
        changes["height"] = None
    return replace(inst, **changes) if changes else inst
