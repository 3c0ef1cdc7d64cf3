"""A reference loader for the tests: the ring-by-ring route.

It builds each record, instance and ring in document order and checks each
one fully as it builds it, so its first error is the first in document
order by construction. ``dataset_from_json`` must give the same Dataset (by
``==`` and by ``repr``) or the same DatasetError text on every document.
The functions below are the loader's former second route, kept unchanged.
"""

from offnadir import geometry
from offnadir.dataset import (
    BuildingInstance, Dataset, DatasetError, SampleRecord, _check_instance, _number,
)
from offnadir.geometry import ImagePose, Polygon2D, Vec2, _canonical


def load(obj) -> Dataset:
    """dataset_from_json(obj) on the ring-by-ring route."""
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


def _canonical_flat(values) -> tuple:
    """_canonical_ring of the pairs of a flat coordinate list of even
    length, each coordinate converted once, in list order."""
    it = map(float, values)
    return _canonical(tuple(zip(it, it)))


def _check_rings(rings, wheres) -> None:
    """Raise the DatasetError "<where>: <message>" of the first non-simple
    ring of rings, wheres[i] being ring i's location."""
    found = geometry._first_non_simple(rings)
    if found is not None:
        index, message = found
        raise DatasetError(f"{wheres[index]}: {message}") from None


def _flat_to_polygon(values, where: str) -> Polygon2D:
    """Polygon over the canonical vertices of a flat coordinate list, fully
    checked."""
    if not isinstance(values, (list, tuple)):
        raise DatasetError(f"{where}: polygon must be a flat coordinate list")
    if len(values) % 2 != 0 or len(values) < 6:
        raise DatasetError(
            f"{where}: polygon needs an even number of >= 6 coordinates, got {len(values)}"
        )
    verts = _number(where, "coordinate", _canonical_flat, values)
    _check_rings((verts,), (where,))
    return Polygon2D._trusted(verts)


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
        offset = _number(where, "offset", lambda xy: Vec2(*map(float, xy)), offset)
    footprint = None if footprint is None else _flat_to_polygon(footprint, where)
    roof = None if roof is None else _flat_to_polygon(roof, where + " (roof)")
    height = None if height is None else _number(where, "height", float, height)
    score = None if score is None else _number(where, "score", float, score)
    try:
        _check_instance(footprint, roof, offset, height, score)
    except DatasetError as e:
        raise DatasetError(f"{where}: {e}") from e
    # trusted: _check_instance has just passed on these fields
    return BuildingInstance._trusted(footprint, roof, offset, height, score, obj)


def _record_from_json(obj, index: int) -> SampleRecord:
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
        _instance_from_json(o, f"{where}, instance {k}")
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
