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

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import (
    BuildingInstance,
    Dataset,
    DatasetError,
    SampleRecord,
    SupervisionLevel,
    grade_sample,
    strip_annotations,
)
from .geometry import (
    ImagePose,
    Polygon2D,
    Vec2,
    bbox_of,
    height_from_offset,
    normalize_angle,
    offset_from_pose,
    translate_polygon,
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
    phi_range: tuple = (0.0, 2.0 * math.pi)
    scale_s: float = 1.0
    shape_family: str = "axis_rect"
    integer_offsets: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.image_w}x{self.image_h}")
        if self.n_images < 0:
            raise ValueError(f"n_images must be >= 0, got {self.n_images}")
        for name in ("buildings_per_image", "height_range", "tan_theta_range", "phi_range"):
            pair = getattr(self, name)
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ValueError(f"{name} must be a nonempty [min, max] range, got {pair}")
            object.__setattr__(self, name, tuple(pair))
        if self.buildings_per_image[0] < 0:
            raise ValueError("buildings_per_image must be >= 0")
        if self.height_range[0] < 0:
            raise ValueError("height_range must be >= 0")
        if self.tan_theta_range[0] < 0:
            raise ValueError("tan_theta_range must be >= 0")
        if self.scale_s <= 0:
            raise ValueError(f"scale_s must be > 0, got {self.scale_s}")
        if self.shape_family not in SHAPE_FAMILIES:
            raise ValueError(f"shape_family must be one of {SHAPE_FAMILIES}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")


def config_from_json(obj) -> SynthConfig:
    """Build a SynthConfig from a parsed JSON object; unknown keys error."""
    if not isinstance(obj, dict):
        raise ValueError("synth config must be a JSON object")
    known = set(SynthConfig.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown synth config keys: {sorted(unknown)}")
    return SynthConfig(**obj)


def load_config(path) -> SynthConfig:
    with open(path, encoding="utf-8") as f:
        return config_from_json(json.load(f))


def _primitive_directions():
    dirs = []
    for a in range(-_LATTICE_MAX, _LATTICE_MAX + 1):
        for b in range(-_LATTICE_MAX, _LATTICE_MAX + 1):
            if (a, b) == (0, 0) or math.gcd(abs(a), abs(b)) != 1:
                continue
            dirs.append((a, b, normalize_angle(math.atan2(b, a))))
    return dirs


_DIRECTIONS = _primitive_directions()


def _snap_direction(phi: float):
    """Closest primitive integer direction (a, b) to the angle phi.

    Integer offsets must all be exact multiples of one lattice vector,
    otherwise the image-wise angle could not match every instance exactly;
    ties prefer the shorter vector.
    """
    best = None
    for a, b, ang in _DIRECTIONS:
        d = abs(ang - phi) % (2.0 * math.pi)
        d = min(d, 2.0 * math.pi - d)
        key = (d, a * a + b * b, ang)
        if best is None or key < best[0]:
            best = (key, a, b)
    return best[1], best[2]


def _sample_rect(x0, y0, w, h):
    return Polygon2D(((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)))


def _sample_l_shape(rng, x0, y0, w, h):
    # rectangle with the (x1, y1) corner notched out
    nx = int(rng.integers(2, w - 1))
    ny = int(rng.integers(2, h - 1))
    x1, y1 = x0 + w, y0 + h
    return Polygon2D(
        (
            (x0, y0),
            (x1, y0),
            (x1, y1 - ny),
            (x1 - nx, y1 - ny),
            (x1 - nx, y1),
            (x0, y1),
        )
    )


def _separated(a, b) -> bool:
    # require a >= 1 px gap between footprint bboxes
    return (
        a.x_min - 1 > b.x_max
        or b.x_min > a.x_max + 1
        or a.y_min - 1 > b.y_max
        or b.y_min > a.y_max + 1
    )


def _build_record(cfg: SynthConfig, index: int) -> SampleRecord:
    rng = np.random.default_rng([cfg.seed, index])
    tan_theta = float(rng.uniform(*cfg.tan_theta_range))
    phi_wanted = float(rng.uniform(*cfg.phi_range))
    lattice = None
    if cfg.integer_offsets and tan_theta > 0.0:
        a, b = _snap_direction(normalize_angle(phi_wanted))
        lattice = (a, b, math.hypot(a, b))
        phi = normalize_angle(math.atan2(b, a))
    else:
        phi = normalize_angle(phi_wanted)
    pose = ImagePose(tan_theta=tan_theta, phi=phi, scale_s=cfg.scale_s)

    n_buildings = int(rng.integers(cfg.buildings_per_image[0], cfg.buildings_per_image[1] + 1))
    side_hi = max(6, min(cfg.image_w, cfg.image_h) // 8)
    placed = []
    instances = []
    for b_idx in range(n_buildings):
        for _ in range(PLACEMENT_RETRIES):
            h0 = float(rng.uniform(*cfg.height_range))
            if tan_theta == 0.0:
                v = Vec2(0.0, 0.0)
                h = h0
            elif lattice is not None:
                la, lb, step = lattice
                k = max(1, round_half_away(h0 * cfg.scale_s * tan_theta / step))
                v = Vec2(float(k * la), float(k * lb))
                h = height_from_offset(v, pose)
            else:
                v = offset_from_pose(h0, pose)
                h = h0
            w_px = int(rng.integers(4, side_hi + 1))
            h_px = int(rng.integers(4, side_hi + 1))
            # both footprint and roof (footprint - v) must stay in frame
            x_lo = max(0, math.ceil(v.dx))
            x_hi = min(cfg.image_w - w_px, math.floor(cfg.image_w - w_px + v.dx))
            y_lo = max(0, math.ceil(v.dy))
            y_hi = min(cfg.image_h - h_px, math.floor(cfg.image_h - h_px + v.dy))
            if x_lo > x_hi or y_lo > y_hi:
                continue
            x0 = int(rng.integers(x_lo, x_hi + 1))
            y0 = int(rng.integers(y_lo, y_hi + 1))
            if cfg.shape_family == "l_shape":
                footprint = _sample_l_shape(rng, x0, y0, w_px, h_px)
            else:
                footprint = _sample_rect(x0, y0, w_px, h_px)
            bb = bbox_of(footprint)
            if all(_separated(bb, other) for other in placed):
                placed.append(bb)
                roof = translate_polygon(footprint, -v)
                instances.append(
                    BuildingInstance(footprint=footprint, roof=roof, offset=v, height=h)
                )
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


def generate_scenes(cfg: SynthConfig, jobs: int = 1) -> Dataset:
    """Generate a fully annotated dataset; every record grades OH.

    Deterministic in cfg (seed included): each image draws from its own
    RNG stream keyed by (seed, image index), so the output is independent
    of scheduling and of ``jobs``.
    """
    indices = range(cfg.n_images)
    if jobs > 1 and cfg.n_images > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(lambda i: _build_record(cfg, i), indices))
    else:
        records = [_build_record(cfg, i) for i in indices]
    cfg_json = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}
    meta = {"generator": "offnadir.synth", "config": cfg_json}
    return Dataset(records=tuple(records), metadata=meta)


def degrade_dataset(d: Dataset, frac_oh: float, frac_h: float, seed: int) -> Dataset:
    """Randomly strip annotations to emulate mixed-supervision splits.

    Keeps full annotation on round(frac_oh * n) records, drops offsets
    (and roofs) but keeps heights on round(frac_h * n), and drops offsets,
    roofs, and heights on the rest. Footprints and image ids are never
    touched. Deterministic per seed.
    """
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
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    keep_oh = set(int(i) for i in order[:n_oh])
    to_h = set(int(i) for i in order[n_oh : n_oh + n_h])
    records = []
    for i, r in enumerate(d.records):
        if i in keep_oh:
            records.append(r)
        elif i in to_h:
            insts = tuple(strip_annotations(x, drop_offset=True) for x in r.instances)
            records.append(replace(r, instances=insts))
        else:
            insts = tuple(
                strip_annotations(x, drop_offset=True, drop_height=True) for x in r.instances
            )
            records.append(replace(r, instances=insts))
    return Dataset(records=tuple(records), metadata=dict(d.metadata), extra=dict(d.extra))
