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

import enum
import json
import math
from dataclasses import dataclass, field, replace

from .geometry import ImagePose, Polygon2D, Vec2

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
            if not (math.isfinite(self.height) and self.height >= 0):
                raise DatasetError(f"height must be finite and >= 0, got {self.height!r}")
        if self.score is not None:
            if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
                raise DatasetError(f"score must be in [0, 1], got {self.score!r}")
        if self.footprint is not None and self.roof is not None and self.offset is not None:
            # footprint - offset without building a throwaway polygon; x - dx
            # is translate_polygon's x + (-dx) bit for bit
            dx, dy = self.offset.dx, self.offset.dy
            got = self.roof.vertices
            want = [(x - dx, y - dy) for x, y in self.footprint.vertices]
            if len(got) != len(want):
                raise DatasetError(
                    f"roof has {len(got)} vertices but footprint - offset has {len(want)}"
                )
            dev = max(
                max(abs(gx - wx), abs(gy - wy)) for (gx, gy), (wx, wy) in zip(got, want)
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


def _is_dimension(v) -> bool:
    # bool is an int subclass, but {"width": true} is not a 1-px image
    return isinstance(v, int) and not isinstance(v, bool)


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
        if not (_is_dimension(self.width) and _is_dimension(self.height)):
            raise DatasetError(f"image {self.image_id!r}: dimensions must be integers")
        if self.width <= 0 or self.height <= 0:
            raise DatasetError(
                f"image {self.image_id!r}: dimensions must be positive, "
                f"got {self.width}x{self.height}"
            )
        object.__setattr__(self, "instances", tuple(self.instances))
        # generous slack for clipped geometry
        x_lo, x_hi = -float(self.width), 2.0 * self.width
        y_lo, y_hi = -float(self.height), 2.0 * self.height
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


def _flat_to_polygon(values, where: str) -> Polygon2D:
    if not isinstance(values, (list, tuple)):
        raise DatasetError(f"{where}: polygon must be a flat coordinate list")
    if len(values) % 2 != 0 or len(values) < 6:
        raise DatasetError(
            f"{where}: polygon needs an even number of >= 6 coordinates, got {len(values)}"
        )
    pts = [(float(values[i]), float(values[i + 1])) for i in range(0, len(values), 2)]
    try:
        return Polygon2D(tuple(pts))
    except ValueError as e:
        raise DatasetError(f"{where}: {e}") from e


def _polygon_to_flat(p: Polygon2D) -> list:
    flat = []
    for x, y in p.vertices:
        flat.append(x)
        flat.append(y)
    return flat


def _instance_from_json(obj, where: str) -> BuildingInstance:
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
        offset = Vec2(float(offset[0]), float(offset[1]))
    try:
        return BuildingInstance(
            footprint=None if footprint is None else _flat_to_polygon(footprint, where),
            roof=None if roof is None else _flat_to_polygon(roof, where + " (roof)"),
            offset=offset,
            height=None if height is None else float(height),
            score=None if score is None else float(score),
            extra=obj,
        )
    except DatasetError as e:
        if str(e).startswith(where):
            raise
        raise DatasetError(f"{where}: {e}") from e
    except (TypeError, ValueError) as e:
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


def _record_from_json(obj, index: int) -> SampleRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"images[{index}] must be an object")
    obj = dict(obj)
    try:
        image_id = str(obj.pop("id"))
        width = obj.pop("width")
        height = obj.pop("height")
    except KeyError as e:
        raise DatasetError(f"images[{index}]: missing required key {e}") from e
    pose_obj = obj.pop("pose", None)
    pose = None
    pose_extra = {}
    if pose_obj is not None:
        if not isinstance(pose_obj, dict):
            raise DatasetError(f"image {image_id!r}: pose must be an object")
        pose_obj = dict(pose_obj)
        try:
            pose = ImagePose(
                tan_theta=float(pose_obj.pop("tan_theta")),
                phi=float(pose_obj.pop("phi")),
                scale_s=float(pose_obj.pop("scale_s")),
            )
        except KeyError as e:
            raise DatasetError(f"image {image_id!r}: pose missing key {e}") from e
        except ValueError as e:
            raise DatasetError(f"image {image_id!r}: {e}") from e
        pose_extra = pose_obj
    instances = [
        _instance_from_json(o, f"image {image_id!r}, instance {k}")
        for k, o in enumerate(obj.pop("instances", []))
    ]
    if not (_is_dimension(width) and _is_dimension(height)):
        raise DatasetError(f"image {image_id!r}: width/height must be integers")
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
    records = [_record_from_json(o, k) for k, o in enumerate(images)]
    return Dataset(records=tuple(records), metadata=metadata, extra=obj)


def load_dataset(path) -> Dataset:
    """Read and validate a dataset JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DatasetError(f"{path} is not valid JSON: {e}") from e
    return dataset_from_json(obj)


def save_dataset(d: Dataset, path) -> None:
    """Write a dataset as JSON; coordinates keep full float precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(dataset_to_json(d), f, indent=2)
        f.write("\n")


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
    if tol_px < 0:
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
            diff = abs((ang - pose.phi) % (2.0 * math.pi))
            diff = min(diff, 2.0 * math.pi - diff)
            arc = diff * measured
            if arc > tol_px:
                findings.append(
                    Finding(record.image_id, k, "angle", ang % (2.0 * math.pi), pose.phi, arc)
                )
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
