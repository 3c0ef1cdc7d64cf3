import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offnadir.dataset import (
    BuildingInstance,
    DatasetError,
    SupervisionLevel,
    dataset_to_json,
    grade_sample,
    validate_consistency,
)
from offnadir.geometry import Polygon2D, estimate_pose, translate_polygon
from offnadir.raster import rasterize_polygon
from offnadir import synth
from offnadir.synth import (
    SynthConfig,
    SynthesisError,
    config_from_json,
    degrade_dataset,
    generate_scenes,
)

SMALL = dict(
    image_w=96,
    image_h=96,
    n_images=4,
    buildings_per_image=(2, 4),
    height_range=(3.0, 20.0),
    tan_theta_range=(0.2, 0.9),
    phi_range=(0.0, 2.0 * math.pi),
    scale_s=1.0,
    seed=7,
)


def test_determinism_byte_identical():
    cfg = SynthConfig(**SMALL)
    a = generate_scenes(cfg)
    b = generate_scenes(cfg)
    assert json.dumps(dataset_to_json(a)) == json.dumps(dataset_to_json(b))


def test_different_seeds_differ():
    a = generate_scenes(SynthConfig(**{**SMALL, "seed": 1}))
    b = generate_scenes(SynthConfig(**{**SMALL, "seed": 2}))
    assert a != b


def test_nadir_config_gives_zero_offsets():
    cfg = SynthConfig(**{**SMALL, "tan_theta_range": (0.0, 0.0)})
    d = generate_scenes(cfg)
    for r in d.records:
        for inst in r.instances:
            assert (inst.offset.dx, inst.offset.dy) == (0.0, 0.0)
            assert inst.roof.vertices == inst.footprint.vertices


def test_all_records_grade_oh_and_are_consistent():
    for integer in (True, False):
        cfg = SynthConfig(**{**SMALL, "integer_offsets": integer})
        d = generate_scenes(cfg)
        assert len(d) == cfg.n_images
        for r in d.records:
            assert grade_sample(r) == SupervisionLevel.OH
            assert validate_consistency(r, 1e-6).findings == ()


def test_footprints_pairwise_disjoint(int_scene_dataset):
    for r in int_scene_dataset.records:
        boxes = []
        for inst in r.instances:
            xs = [x for x, _ in inst.footprint.vertices]
            ys = [y for _, y in inst.footprint.vertices]
            boxes.append((min(xs), min(ys), max(xs), max(ys)))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                a, b = boxes[i], boxes[j]
                separated = (
                    a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]
                )
                assert separated


def test_integer_offsets_are_integral(int_scene_dataset):
    for r in int_scene_dataset.records:
        for inst in r.instances:
            assert inst.offset.dx == int(inst.offset.dx)
            assert inst.offset.dy == int(inst.offset.dy)


def test_roof_raster_is_shifted_footprint_raster(int_scene_dataset):
    for r in int_scene_dataset.records:
        for inst in r.instances:
            fp = rasterize_polygon(inst.footprint, r.width, r.height)
            roof = rasterize_polygon(inst.roof, r.width, r.height)
            dx, dy = int(inst.offset.dx), int(inst.offset.dy)
            assert roof.pixels() == {(i - dx, j - dy) for i, j in fp.pixels()}


def test_rect_mask_area_equals_polygon_area(int_scene_dataset):
    cfg = SynthConfig(**{**SMALL, "shape_family": "axis_rect"})
    d = generate_scenes(cfg)
    from offnadir.geometry import polygon_area

    for r in d.records:
        for inst in r.instances:
            m = rasterize_polygon(inst.footprint, r.width, r.height)
            assert m.popcount() == polygon_area(inst.footprint)


def _snap_by_scan(phi):
    # reference: the closest of all primitive directions, shorter on ties
    best = None
    for a, b, ang in synth._DIRECTIONS:
        d = abs(ang - phi) % (2.0 * math.pi)
        key = (min(d, 2.0 * math.pi - d), a * a + b * b, ang)
        if best is None or key < best[0]:
            best = (key, a, b)
    return best[1], best[2]


def test_snap_direction_matches_scan():
    angles = [ang for _, _, ang in synth._DIRECTIONS]
    assert angles == sorted(angles) and len(angles) == 176
    rng = random.Random(11)
    random_phis = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(2000)]
    wrapped = angles[1:] + [angles[0] + 2.0 * math.pi]
    midpoints = [synth.normalize_angle((a + b) / 2.0) for a, b in zip(angles, wrapped)]
    for phi in random_phis + angles + midpoints:
        assert synth._snap_direction(phi) == _snap_by_scan(phi), phi


def test_l_shape_family():
    cfg = SynthConfig(**{**SMALL, "shape_family": "l_shape"})
    d = generate_scenes(cfg)
    assert any(len(inst.footprint) == 6 for r in d.records for inst in r.instances)


def test_overcrowded_config_raises_with_image_index():
    cfg = SynthConfig(
        **{**SMALL, "image_w": 24, "image_h": 24, "n_images": 1, "buildings_per_image": (30, 30)}
    )
    with pytest.raises(SynthesisError, match="image 0"):
        generate_scenes(cfg)


def test_config_validation_and_json():
    with pytest.raises(ValueError):
        SynthConfig(**{**SMALL, "height_range": (5.0, 2.0)})
    with pytest.raises(ValueError):
        SynthConfig(**{**SMALL, "shape_family": "dome"})
    with pytest.raises(ValueError, match="unknown"):
        config_from_json({**SMALL, "buildings_per_image": [2, 4], "bogus": 1})
    cfg = config_from_json({**SMALL, "buildings_per_image": [2, 4]})
    assert cfg.buildings_per_image == (2, 4)


def test_config_from_json_rejects_wrong_types():
    good = {**SMALL, "buildings_per_image": [2, 4], "height_range": [3, 20]}
    assert config_from_json(good).height_range == (3, 20)  # integers are numbers
    bad = [
        ("image_w", True), ("image_h", 96.0), ("n_images", None), ("seed", [1]),
        ("seed", False), ("buildings_per_image", [2, 4.0]), ("buildings_per_image", [2]),
        ("height_range", [3.0, "20"]), ("tan_theta_range", [0.2, float("nan")]),
        ("phi_range", 1.0), ("scale_s", True), ("scale_s", 10**400),
        ("shape_family", ["l_shape"]), ("integer_offsets", 1),
    ]
    for key, value in bad:
        with pytest.raises(ValueError, match=f"synth config '{key}' must be "):
            config_from_json({**good, key: value})


# ---------------------------------------------------------------------------
# degradation


def test_degrade_identity():
    cfg = SynthConfig(**SMALL)
    d = generate_scenes(cfg)
    assert degrade_dataset(d, 1.0, 0.0, seed=3) == d


def test_degrade_30_70_counts():
    cfg = SynthConfig(**{**SMALL, "n_images": 10})
    d = generate_scenes(cfg)
    out = degrade_dataset(d, 0.3, 0.7, seed=11)
    levels = [grade_sample(r) for r in out.records]
    assert levels.count(SupervisionLevel.OH) == 3
    assert levels.count(SupervisionLevel.H) == 7


def test_degrade_three_way_split():
    cfg = SynthConfig(**{**SMALL, "n_images": 10})
    d = generate_scenes(cfg)
    out = degrade_dataset(d, 0.3, 0.3, seed=11)
    levels = [grade_sample(r) for r in out.records]
    assert levels.count(SupervisionLevel.OH) == 3
    assert levels.count(SupervisionLevel.H) == 3
    assert levels.count(SupervisionLevel.N) == 4


def test_degrade_deterministic_and_preserves_footprints_and_ids():
    cfg = SynthConfig(**{**SMALL, "n_images": 8})
    d = generate_scenes(cfg)
    a = degrade_dataset(d, 0.25, 0.5, seed=99)
    b = degrade_dataset(d, 0.25, 0.5, seed=99)
    assert a == b
    for orig, new in zip(d.records, a.records):
        assert new.image_id == orig.image_id
        for oi, ni in zip(orig.instances, new.instances):
            assert ni.footprint == oi.footprint


def test_degrade_rejects_bad_input():
    cfg = SynthConfig(**SMALL)
    d = generate_scenes(cfg)
    with pytest.raises(ValueError):
        degrade_dataset(d, 0.8, 0.4, seed=0)
    degraded = degrade_dataset(d, 0.0, 1.0, seed=0)
    from offnadir.dataset import DatasetError

    with pytest.raises(DatasetError):
        degrade_dataset(degraded, 0.5, 0.5, seed=0)


def _sorted_pair(elements):
    return st.tuples(elements, elements).map(sorted)


# criterion 02's tolerances on exact (integer_offsets=False) scenes; tan_theta
# stays off nadir, where phi is undefined
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    scale_s=st.floats(0.5, 2.0),
    tan_theta_range=_sorted_pair(st.floats(1e-290, 1.2)),
    phi_range=_sorted_pair(st.floats(-10.0, 10.0)),
    shape_family=st.sampled_from(["axis_rect", "l_shape"]),
)
def test_estimate_pose_recovers_synth_pose_property(
    seed, scale_s, tan_theta_range, phi_range, shape_family
):
    cfg = SynthConfig(
        image_w=160, image_h=160, n_images=2, buildings_per_image=(1, 4),
        height_range=(2.0, 18.0), tan_theta_range=tan_theta_range, phi_range=phi_range,
        scale_s=scale_s, shape_family=shape_family, integer_offsets=False, seed=seed,
    )
    for r in generate_scenes(cfg).records:
        fit = estimate_pose([(inst.height, inst.offset) for inst in r.instances], r.pose.scale_s)
        assert abs(fit.tan_theta - r.pose.tan_theta) <= 1e-9
        dphi = abs(fit.phi - r.pose.phi) % (2.0 * math.pi)
        assert min(dphi, 2.0 * math.pi - dphi) <= 1e-9
        assert fit.residual < 1e-9


@pytest.mark.parametrize("changes, message", [
    (dict(image_w=0), "image dimensions must be positive, got 0x96"),
    (dict(image_h=-1), "image dimensions must be positive, got 96x-1"),
    (dict(n_images=-1), "n_images must be >= 0, got -1"),
    (dict(buildings_per_image=(-1, 2)), "buildings_per_image must be >= 0"),
    (dict(height_range=(-1.0, 2.0)), "height_range must be >= 0"),
    (dict(tan_theta_range=(-0.5, 1.0)), "tan_theta_range must be >= 0"),
    (dict(seed=-1), "seed must be an unsigned 64-bit integer"),
    (dict(seed=2**64), "seed must be an unsigned 64-bit integer"),
    (dict(phi_range=(-1.7e308, 1.7e308)),
     "phi_range must have a finite width max - min, got (-1.7e+308, 1.7e+308)"),
    (dict(scale_s=0), "scale_s must be finite and > 0, got 0"),
    (dict(scale_s=-0.5), "scale_s must be finite and > 0, got -0.5"),
], ids=["width", "height", "n-images", "buildings", "heights", "tan-theta", "seed-negative",
        "seed-too-large", "phi-width-overflows", "scale-zero", "scale-negative"])
def test_synth_config_rejects_out_of_range_values(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SynthConfig(**{**SMALL, **changes})


def test_synth_config_must_be_a_json_object():
    with pytest.raises(ValueError, match=r"^synth config must be a JSON object$"):
        config_from_json([])


def test_synthesis_fails_when_no_position_fits_footprint_and_roof():
    # a 50 px offset cannot keep both the footprint and the roof in a 16 px image
    cfg = SynthConfig(image_w=16, image_h=16, n_images=1, buildings_per_image=(1, 1),
                      height_range=(10.0, 10.0), tan_theta_range=(5.0, 5.0))
    with pytest.raises(SynthesisError, match=r"^image 0: failed to place building 1/1 after 1000"):
        generate_scenes(cfg)


@pytest.mark.parametrize("key, value", [
    ("integer_offsets", "no"), ("buildings_per_image", (1.5, 3)), ("height_range", (True, 5)),
    ("scale_s", True), ("n_images", 2.0), ("seed", 1.5),
])
def test_synth_config_built_in_python_checks_field_types(key, value):
    # the same check and message as a config file, at construction
    with pytest.raises(ValueError, match=f"^synth config '{key}' must be "):
        SynthConfig(**{**SMALL, key: value})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    size=st.integers(48, 128),
    counts=st.tuples(st.integers(0, 3), st.integers(0, 2)),
    height=st.floats(0.0, 15.0),
    tan_theta=st.floats(0.0, 1.2),
    scale_s=st.floats(0.25, 2.0),
    shape_family=st.sampled_from(synth.SHAPE_FAMILIES),
    integer_offsets=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_synth_polygons_equal_the_checked_constructions(
    size, counts, height, tan_theta, scale_s, shape_family, integer_offsets, seed
):
    # synth builds its rings with the simplicity check deferred; each must be
    # the polygon the checking constructors give
    cfg = SynthConfig(image_w=size, image_h=size + 7, n_images=3,
                      buildings_per_image=(counts[0], sum(counts)),
                      height_range=(height / 2, height), tan_theta_range=(0.0, tan_theta),
                      scale_s=scale_s, shape_family=shape_family,
                      integer_offsets=integer_offsets, seed=seed)
    try:
        d = generate_scenes(cfg)
    except SynthesisError:
        return
    for r in d.records:
        for inst in r.instances:
            assert inst.footprint == Polygon2D(inst.footprint.vertices)
            assert inst.roof == translate_polygon(inst.footprint, -inst.offset)
            # synth builds instances trusted; the checking constructor agrees
            assert inst == BuildingInstance(inst.footprint, inst.roof, inst.offset, inst.height)


# self-intersecting, with nonzero area, inside a 24 px frame
BOWTIE_L = ((2, 2), (10, 2), (10, 8), (6, 8), (6, 1), (2, 8))


@pytest.mark.parametrize("crowded", [False, True])
@pytest.mark.parametrize("ring", [0, 1])  # the first footprint, the first roof
def test_non_simple_synth_ring_raises_polygon2d_error_first(monkeypatch, crowded, ring):
    with pytest.raises(ValueError) as expected:
        Polygon2D(BOWTIE_L)
    calls = []
    original = synth._canonical_ring

    def canonical(vertices):
        calls.append(None)
        return original(BOWTIE_L if len(calls) == ring + 1 else vertices)

    # crowded: a later building cannot be placed (SynthesisError); a bad
    # roof also disagrees with its footprint (DatasetError); either comes
    # after the ring, so the ring's error wins
    cfg = SynthConfig(**{**SMALL, "image_w": 24, "image_h": 24, "n_images": 2,
                         "buildings_per_image": (30, 30) if crowded else (1, 1)})
    monkeypatch.setattr(synth, "_canonical_ring", canonical)
    with pytest.raises(ValueError) as got:
        generate_scenes(cfg)
    assert type(got.value) is ValueError
    assert str(got.value) == str(expected.value) == "polygon is not simple (self-intersection)"


def test_reversed_synth_roof_takes_the_checked_constructor(monkeypatch):
    # were _canonical_ring to reverse a roof, synth would not trust it
    original = synth._canonical_ring
    calls = []

    def canonical(vertices):
        calls.append(None)
        ring = original(vertices)
        return ring[::-1] if len(calls) == 2 else ring  # the first roof

    monkeypatch.setattr(synth, "_canonical_ring", canonical)
    with pytest.raises(DatasetError, match=r"^roof deviates from footprint - offset by "):
        generate_scenes(SynthConfig(**SMALL))


@pytest.mark.parametrize("changes, message", [
    (dict(tan_theta_range=(0.0, 1.7e308)),
     r"^image 0: the offset of building 1/\d+ overflows: .* is not finite$"),
    (dict(tan_theta_range=(0.0, 1.7e308), integer_offsets=False),
     r"^image 0: the offset of building 1/\d+ overflows: .* is not finite$"),
    (dict(tan_theta_range=(0.0, 1e-320)),
     r"^image 0: the height of building 1/\d+ overflows: .* is not finite$"),
    (dict(tan_theta_range=(0.0, 5e-324), scale_s=0.5, seed=2),
     r"^image 0: the height of building 1/\d+ is unobservable: "
     r"scale_s \* tan_theta 5e-324 underflows to 0$"),
], ids=["offset-on-lattice", "offset", "height", "height-underflow"])
def test_synthesis_error_names_the_image_whose_building_overflows(changes, message):
    with pytest.raises(SynthesisError, match=message):
        generate_scenes(SynthConfig(**{**SMALL, **changes}))


class _Stream:
    """draw() returning the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def __call__(self):
        return self.values.pop(0)


@pytest.mark.parametrize("lo, hi", [
    (0, 0), (4, 5), (-3, 7), (2, 2**20), (0, 2**53 - 1), (0, 2**53), (5, 2**60 + 3),
    (-2**70, 2**70), (0, 10**300),
])
def test_integer_draw_from_the_largest_u_stays_within_the_range(lo, hi):
    top = 1.0 - 2.0**-53  # the largest random.random() value
    got = synth._integer(_Stream(top), lo, hi)
    assert lo <= got <= hi
    if hi - lo < 2**53:  # u * n is then below n, and its floor is n - 1
        assert got == hi
    assert synth._integer(_Stream(0.0), lo, hi) == lo


def test_uniform_draw_spans_the_range():
    assert synth._uniform(_Stream(0.0), -1.5, 2.5) == -1.5
    assert synth._uniform(_Stream(0.5), -1.5, 2.5) == 0.5
    assert synth._uniform(_Stream(0.25), 3.0, 3.0) == 3.0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 257])
def test_permutation_is_a_fisher_yates_shuffle(n):
    draw = random.Random(n).random
    order = synth._permutation(draw, n)
    assert sorted(order) == list(range(n))
    # the same swaps, drawn again from the same stream
    draw, want = random.Random(n).random, list(range(n))
    for i in range(n - 1, 0, -1):
        j = min(i, int(draw() * (i + 1)))
        want[i], want[j] = want[j], want[i]
    assert order == want
    # the largest u swaps every position with itself; u = 0 rotates left
    assert synth._permutation(_Stream(*[1.0 - 2.0**-53] * n), n) == list(range(n))
    assert synth._permutation(_Stream(*[0.0] * n), n) == list(range(1, n)) + [0] * (n > 0)
