"""Seeded synthetic off-nadir scenes with exact ground truth.

Every generated instance satisfies the height/offset relation exactly:
``offset == height * scale_s * tan_theta * (cos phi, sin phi)`` up to float
rounding, so the scenes double as oracles for the rest of the package.
With ``integer_offsets`` the per-image offset direction is snapped to an
exact integer lattice direction and offsets are integer multiples of the
primitive lattice vector; heights are then back-solved so the relation
still holds exactly (see ``_snap_direction``).
"""

from __future__ import annotations

import bisect
import math
import random
import sys
from dataclasses import asdict, dataclass

from .dataset import (
    BuildingInstance,
    Dataset,
    DatasetError,
    SampleRecord,
    SupervisionLevel,
    _is_integer,
    grade_sample,
    strip_annotations,
)
from .geometry import (
    TWO_PI,
    ImagePose,
    Polygon2D,
    Vec2,
    height_from_offset,
    normalize_angle,
    offset_from_pose,
)
from .raster import round_half_away

SHAPE_FAMILIES = ("axis_rect", "l_shape")
PLACEMENT_RETRIES = 1000
_LATTICE_MAX = 8  # primitive direction components bounded by this


class SynthesisError(Exception):
    """Scene generation failed (typically an overcrowded configuration)."""


@dataclass(frozen=True)
class SynthConfig:
    """Scene generator parameters; ranges are inclusive [min, max] pairs."""

    image_w: int = 256
    image_h: int = 256
    n_images: int = 8
    buildings_per_image: tuple = (3, 8)
    height_range: tuple = (3.0, 40.0)
    tan_theta_range: tuple = (0.2, 1.2)
    phi_range: tuple = (0.0, TWO_PI)
    scale_s: float = 1.0
    shape_family: str = "axis_rect"
    integer_offsets: bool = True
    seed: int = 0

    def __post_init__(self):
        for key, (is_valid, kind) in _FIELD_TYPES.items():
            if not is_valid(getattr(self, key)):
                raise ValueError(f"synth config {key!r} must be {kind}")
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.image_w}x{self.image_h}")
        if self.n_images < 0:
            raise ValueError(f"n_images must be >= 0, got {self.n_images}")
        for name in ("buildings_per_image", "height_range", "tan_theta_range", "phi_range"):
            pair = getattr(self, name)
            if not pair[0] <= pair[1]:
                raise ValueError(f"{name} must be a nonempty [min, max] range, got {pair}")
            if not _is_number(pair[1] - pair[0]):  # draws scale by max - min
                raise ValueError(f"{name} must have a finite width max - min, got {pair}")
            object.__setattr__(self, name, tuple(pair))
        if self.buildings_per_image[0] < 0:
            raise ValueError("buildings_per_image must be >= 0")
        if self.height_range[0] < 0:
            raise ValueError("height_range must be >= 0")
        if self.tan_theta_range[0] < 0:
            raise ValueError("tan_theta_range must be >= 0")
        if self.scale_s <= 0:
            raise ValueError(f"scale_s must be finite and > 0, got {self.scale_s}")
        if self.shape_family not in SHAPE_FAMILIES:
            raise ValueError(f"shape_family must be one of {SHAPE_FAMILIES}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")


def _is_number(v) -> bool:
    # finite and within float range; a bool is not a number here either
    return (_is_integer(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _pair_of(is_item):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_item, v))


# JSON type of each config field: its test and what the error says it must be
_FIELD_TYPES = {
    "image_w": (_is_integer, "an integer"),
    "image_h": (_is_integer, "an integer"),
    "n_images": (_is_integer, "an integer"),
    "buildings_per_image": (_pair_of(_is_integer), "a [min, max] pair of integers"),
    "height_range": (_pair_of(_is_number), "a [min, max] pair of finite numbers"),
    "tan_theta_range": (_pair_of(_is_number), "a [min, max] pair of finite numbers"),
    "phi_range": (_pair_of(_is_number), "a [min, max] pair of finite numbers"),
    "scale_s": (_is_number, "a finite number"),
    "shape_family": (lambda v: isinstance(v, str), "a string"),
    "integer_offsets": (lambda v: isinstance(v, bool), "a boolean"),
    "seed": (_is_integer, "an integer"),
}


def config_from_json(obj) -> SynthConfig:
    """Build a SynthConfig from a parsed JSON object; unknown keys and
    values of the wrong type raise ValueError naming the key."""
    if not isinstance(obj, dict):
        raise ValueError("synth config must be a JSON object")
    unknown = set(obj) - set(SynthConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown synth config keys: {sorted(unknown)}")
    return SynthConfig(**obj)


def _primitive_directions():
    dirs = []
    for a in range(-_LATTICE_MAX, _LATTICE_MAX + 1):
        for b in range(-_LATTICE_MAX, _LATTICE_MAX + 1):
            if (a, b) == (0, 0) or math.gcd(abs(a), abs(b)) != 1:
                continue
            dirs.append((a, b, normalize_angle(math.atan2(b, a))))
    return dirs


_DIRECTIONS = sorted(_primitive_directions(), key=lambda d: d[2])
_ANGLES = [ang for _, _, ang in _DIRECTIONS]


def _snap_direction(phi: float):
    """Closest primitive integer direction (a, b) to the angle phi in [0, 2*pi).

    Integer offsets must all be exact multiples of one lattice vector,
    otherwise the image-wise angle could not match every instance exactly;
    ties prefer the shorter vector. The closest direction is one of the two
    circular neighbours of phi in the angle-sorted table.
    """

    def key(direction):
        a, b, ang = direction
        d = abs(ang - phi) % TWO_PI
        return (min(d, TWO_PI - d), a * a + b * b, ang)

    i = bisect.bisect(_ANGLES, phi)
    a, b, _ = min(_DIRECTIONS[i - 1], _DIRECTIONS[i % len(_DIRECTIONS)], key=key)
    return a, b


def _footprint(box, notch) -> tuple:
    """Float vertices, wound positively, of the rectangle over box = (x0, y0, x1, y1); with notch
    = (nx, ny), of an L shape: its (x1, y1) corner notched out by nx x ny. Either spans box."""
    x0, y0, x1, y1 = map(float, box)
    if notch is None:
        return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    x2, y2 = float(box[2] - notch[0]), float(box[3] - notch[1])
    return ((x0, y0), (x1, y0), (x1, y2), (x2, y2), (x2, y1), (x0, y1))


def _polygon(ring) -> Polygon2D:
    """Polygon2D(ring) for a ring of _footprint's or that minus one offset, trusted if proven. As
    x - dx is monotone in x, edges stay axis-aligned bit for bit; strict orderings give distinct
    vertices, simplicity and positive winding (each cross term of _signed_area about ring[0] is
    >= 0 under monotone rounding, the first > 0); |x|, |y| < 2**53 keeps them within +-2**500."""
    (x0, y0), (x1, _), (_, y2) = ring[0], ring[1], ring[2]
    b = 2.0**53
    if len(ring) == 4:
        proven = -b < x0 < x1 < b and -b < y0 < y2 < b
    else:
        x2, y1 = ring[3][0], ring[4][1]
        proven = -b < x0 < x2 < x1 < b and -b < y0 < y2 < y1 < b
    return Polygon2D._trusted(ring) if proven else Polygon2D(ring)


def _separated(a, b) -> bool:
    # require a >= 1 px gap between footprint boxes (x_min, y_min, x_max, y_max)
    return a[0] - 1 > b[2] or b[0] > a[2] + 1 or a[1] - 1 > b[3] or b[1] > a[3] + 1


def _uniform(draw, lo: float, hi: float) -> float:
    """A float in [lo, hi] from one draw u in [0, 1): lo + (hi - lo) * u."""
    return lo + (hi - lo) * draw()


def _integer(draw, lo: int, hi: int) -> int:
    """An integer in [lo, hi] from one draw u in [0, 1): lo + int(u * n) with
    n = hi - lo + 1, capped at hi should u * n round up to n."""
    n = hi - lo + 1
    return lo + min(n - 1, int(draw() * n))


def _permutation(draw, n: int) -> list:
    """A permutation of range(n), by a Fisher-Yates shuffle: for i from n - 1
    down to 1, position i swaps with position _integer(draw, 0, i)."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = _integer(draw, 0, i)
        order[i], order[j] = order[j], order[i]
    return order


def _build_record(cfg: SynthConfig, index: int) -> SampleRecord:
    # a distinct stream per (seed, index), since the seed is below 2**64
    draw = random.Random((index << 64) | cfg.seed).random
    tan_theta = _uniform(draw, *cfg.tan_theta_range)
    phi_wanted = _uniform(draw, *cfg.phi_range)
    lattice = None
    if cfg.integer_offsets and tan_theta > 0.0:
        a, b = _snap_direction(normalize_angle(phi_wanted))
        lattice = (a, b, math.hypot(a, b))
        phi = normalize_angle(math.atan2(b, a))
    else:
        phi = normalize_angle(phi_wanted)
    pose = ImagePose(tan_theta=tan_theta, phi=phi, scale_s=cfg.scale_s)

    n_buildings = _integer(draw, *cfg.buildings_per_image)
    side_hi = max(6, min(cfg.image_w, cfg.image_h) // 8)
    placed = []
    instances = []
    for b_idx in range(n_buildings):
        for _ in range(PLACEMENT_RETRIES):
            h0 = _uniform(draw, *cfg.height_range)
            magnitude = h0 * cfg.scale_s * tan_theta  # as offset_from_pose computes it
            if not math.isfinite(magnitude):
                raise SynthesisError(f"image {index}: the offset of building {b_idx + 1}/"
                                     f"{n_buildings} overflows: {h0!r} m * scale_s * "
                                     f"tan_theta {tan_theta!r} is not finite")
            if tan_theta == 0.0:
                v = Vec2(0.0, 0.0)
                h = h0
            elif lattice is not None:
                la, lb, step = lattice
                k = max(1, round_half_away(magnitude / step))
                v = Vec2(float(k * la), float(k * lb))
                if cfg.scale_s * tan_theta == 0.0:  # height_from_offset's divisor
                    raise SynthesisError(f"image {index}: the height of building {b_idx + 1}/"
                                         f"{n_buildings} is unobservable: scale_s * tan_theta "
                                         f"{tan_theta!r} underflows to 0")
                h = height_from_offset(v, pose)
                if not math.isfinite(h):
                    raise SynthesisError(f"image {index}: the height of building {b_idx + 1}/"
                                         f"{n_buildings} overflows: {v.norm()!r} px / "
                                         f"(scale_s * tan_theta {tan_theta!r}) is not finite")
            else:
                v = offset_from_pose(h0, pose)
                h = h0
            w_px = _integer(draw, 4, side_hi)
            h_px = _integer(draw, 4, side_hi)
            # both footprint and roof (footprint - v) must stay in frame
            x_lo = max(0, math.ceil(v.dx))
            x_hi = min(cfg.image_w - w_px, math.floor(cfg.image_w - w_px + v.dx))
            y_lo = max(0, math.ceil(v.dy))
            y_hi = min(cfg.image_h - h_px, math.floor(cfg.image_h - h_px + v.dy))
            if x_lo > x_hi or y_lo > y_hi:
                continue
            x0 = _integer(draw, x_lo, x_hi)
            y0 = _integer(draw, y_lo, y_hi)
            notch = None
            if cfg.shape_family == "l_shape":  # drawn for a rejected box too: keeps the RNG stream
                notch = (_integer(draw, 2, w_px - 2), _integer(draw, 2, h_px - 2))
            box = (x0, y0, x0 + w_px, y0 + h_px)
            if all(_separated(box, other) for other in placed):
                placed.append(box)
                footprint = _polygon(_footprint(box, notch))
                # translate_polygon(footprint, -v): x - dx is x + (-dx) bit for bit
                ring = tuple((x - v.dx, y - v.dy) for x, y in footprint.vertices)
                roof = _polygon(ring)
                # trusted: h is finite and >= 0, and unless Polygon2D
                # reversed it, roof is footprint - v vertex by vertex, as
                # __post_init__ recomputes it (deviation 0)
                trusted = roof.vertices[0] == ring[0]
                make = BuildingInstance._trusted if trusted else BuildingInstance
                instances.append(make(footprint, roof, v, h, None, {}))
                break
        else:
            raise SynthesisError(
                f"image {index}: failed to place building {b_idx + 1}/{n_buildings} "
                f"after {PLACEMENT_RETRIES} attempts"
            )
    return SampleRecord(
        image_id=f"synth-{index:04d}",
        width=cfg.image_w,
        height=cfg.image_h,
        pose=pose,
        instances=tuple(instances),
    )


def generate_scenes(cfg: SynthConfig) -> Dataset:
    """Generate a fully annotated dataset; every record grades OH.

    Deterministic in cfg (seed included): image i draws from its own stream,
    ``random.Random((i << 64) | seed).random()``, distinct per (seed, i)
    since the seed is below 2**64. Python keeps that stream the same across
    versions for an int seed (the random module's "Notes on
    Reproducibility"), so scenes do not depend on the numpy version. A
    float in [lo, hi] is ``lo + (hi - lo) * u``, an integer in [lo, hi] is
    ``lo + min(n - 1, int(u * n))`` with ``n = hi - lo + 1``. A ring that
    strict orderings of its coordinates prove simple is built trusted; any
    other gets Polygon2D's checks and errors where it is built (_polygon).
    """
    records = [_build_record(cfg, i) for i in range(cfg.n_images)]
    cfg_json = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}
    meta = {"generator": "offnadir.synth", "config": cfg_json}
    return Dataset(records=tuple(records), metadata=meta)


def degrade_dataset(d: Dataset, frac_oh: float, frac_h: float, seed: int) -> Dataset:
    """Randomly strip annotations to emulate mixed-supervision splits.

    Keeps full annotation on round(frac_oh * n) records, drops offsets
    (and roofs) but keeps heights on round(frac_h * n), and drops offsets,
    roofs, and heights on the rest. Footprints and image ids are never
    touched. Deterministic per seed, an int >= 0: the records are put in
    the order of a Fisher-Yates shuffle drawn from
    ``random.Random(seed).random()`` (for i from n - 1 down to 1, i swaps
    with an integer in [0, i], drawn as in generate_scenes), and the first
    records of that order keep OH, the next ones H.
    """
    if seed < 0:  # random.Random would seed from abs(seed)
        raise ValueError(f"degrade seed must be >= 0, got {seed}")
    if not (0.0 <= frac_oh <= 1.0 and 0.0 <= frac_h <= 1.0):
        raise ValueError("fractions must be in [0, 1]")
    if frac_oh + frac_h > 1.0 + 1e-9:
        raise ValueError(f"frac_oh + frac_h must be <= 1, got {frac_oh + frac_h}")
    for r in d.records:
        if grade_sample(r) != SupervisionLevel.OH:
            raise DatasetError(f"image {r.image_id!r}: degrade input must grade OH")
    n = len(d.records)
    n_oh = min(n, round_half_away(frac_oh * n))
    n_h = min(n - n_oh, round_half_away(frac_h * n))
    order = _permutation(random.Random(seed).random, n)
    keep_oh = set(order[:n_oh])
    to_h = set(order[n_oh : n_oh + n_h])
    records = []
    for i, r in enumerate(d.records):
        if i in keep_oh:
            records.append(r)
        else:
            insts = tuple(
                strip_annotations(x, drop_offset=True, drop_height=i not in to_h)
                for x in r.instances
            )
            # trusted: r passed every check, and stripping keeps each footprint
            # and drops each roof, so every vertex left passed r's frame check
            records.append(SampleRecord._trusted(r.image_id, r.width, r.height, r.pose, insts,
                                                 r.extra, r.pose_extra))
    return Dataset(records=tuple(records), metadata=dict(d.metadata), extra=dict(d.extra))
