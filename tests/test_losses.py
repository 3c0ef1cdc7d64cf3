import itertools
import json
import math

import numpy as np
import pytest

from offnadir.cli import run
from offnadir.dataset import SupervisionLevel
from offnadir.losses import (
    LEVEL_COMPONENTS,
    ExternalLossInputs,
    LevelComponents,
    LossWeights,
    height_loss,
    hybrid_loss,
    level_loss,
    loft_loss,
    mask_cross_entropy,
    off_nadir_loss,
    offset_angle_loss,
    smooth_l1,
)
from offnadir.raster import BitMask
from offnadir.geometry import Vec2


def test_smooth_l1_hand_values():
    assert smooth_l1([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert smooth_l1([0.5], [0.0], beta=1.0) == pytest.approx(0.125, abs=1e-12)
    assert smooth_l1([2.0], [0.0], beta=1.0) == pytest.approx(1.5, abs=1e-12)
    # mean over elements
    assert smooth_l1([0.5, 2.0], [0.0, 0.0]) == pytest.approx((0.125 + 1.5) / 2, abs=1e-12)


def test_smooth_l1_validation():
    with pytest.raises(ValueError):
        smooth_l1([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        smooth_l1([], [])
    with pytest.raises(ValueError):
        smooth_l1([1.0], [1.0], beta=0.0)


def test_smooth_l1_continuously_differentiable_at_knee():
    # central finite differences across the knee, step 1e-6
    beta = 1.0
    step = 1e-6

    def f(d):
        return smooth_l1([d], [0.0], beta=beta)

    def fprime(d):
        return (f(d + step) - f(d - step)) / (2 * step)

    # derivative approaches 1 from both sides of |d| = beta
    assert fprime(beta - 1e-3) == pytest.approx(fprime(beta + 1e-3), abs=1e-3)
    assert fprime(beta) == pytest.approx(1.0, abs=1e-4)
    for d in (-2.0, -0.5, 0.25, 1.5):
        expect = d / beta if abs(d) < beta else math.copysign(1.0, d)
        assert fprime(d) == pytest.approx(expect, abs=1e-4)


def test_mask_cross_entropy_hand_values():
    gt = BitMask(2, 2, np.array([[True, False], [False, True]]))
    perfect = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert mask_cross_entropy(perfect, gt) <= 1e-11
    uniform = np.full((2, 2), 0.5)
    assert mask_cross_entropy(uniform, gt) == pytest.approx(math.log(2), abs=1e-12)
    one = BitMask(1, 1, np.array([[True]]))
    assert mask_cross_entropy(np.array([[math.exp(-1)]]), one) == pytest.approx(1.0, abs=1e-12)


def test_mask_cross_entropy_gradient_sign():
    # d/dp of -[y ln p + (1-y) ln(1-p)] is negative at y=1, positive at y=0
    step = 1e-6
    for y, sign in ((True, -1.0), (False, 1.0)):
        gt = BitMask(1, 1, np.array([[y]]))
        for p in (0.2, 0.5, 0.8):
            hi = mask_cross_entropy(np.array([[p + step]]), gt)
            lo = mask_cross_entropy(np.array([[p - step]]), gt)
            assert math.copysign(1.0, (hi - lo) / (2 * step)) == sign


def test_mask_cross_entropy_validation():
    gt = BitMask(2, 2)
    with pytest.raises(ValueError):
        mask_cross_entropy(np.zeros((3, 2)), gt)
    with pytest.raises(ValueError):
        mask_cross_entropy(np.full((2, 2), 1.5), gt)


def test_offset_angle_loss_hand_values():
    assert offset_angle_loss(Vec2(1.0, 0.0), Vec2(1.0, 0.0)) == 0.0
    assert offset_angle_loss(Vec2(0.0, 0.0), Vec2(1.0, 0.0), 0.1) == pytest.approx(1.1, abs=1e-12)
    assert offset_angle_loss(Vec2(0.0, 2.0), Vec2(0.0, 1.0), 0.1) == pytest.approx(1.1, abs=1e-12)


def test_offset_angle_loss_requires_unit_gt():
    with pytest.raises(ValueError):
        offset_angle_loss(Vec2(1.0, 0.0), Vec2(2.0, 0.0))


def test_off_nadir_loss():
    assert off_nadir_loss(1.0, 1.0) == 0.0
    assert off_nadir_loss(1.2, 1.0) == pytest.approx(0.2, abs=1e-12)
    assert off_nadir_loss(0.0, math.tan(math.pi / 4)) == pytest.approx(1.0, abs=1e-12)


def test_height_loss():
    assert height_loss(30.0, 30.0) == 0.0
    assert height_loss(30.0, 20.0) == 10.0
    assert height_loss([5.0, 3.0], [0.0, 3.0]) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ValueError):
        height_loss([1.0], [1.0, 2.0])


def test_loft_loss():
    w = LossWeights()
    assert loft_loss(ExternalLossInputs(), w) == 0.0
    x = ExternalLossInputs(l_rp=0.1, l_rc=0.2, l_mh=0.3, l_o=0.05)
    assert loft_loss(x, w) == pytest.approx(1.4, abs=1e-12)
    w0 = LossWeights(beta1=0.0, beta2=0.0, beta3=0.0)
    assert loft_loss(x, w0) == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("name", ["l_rp", "l_rc", "l_mh", "l_o"])
def test_loft_loss_names_a_component_not_given(name):
    # the first field that is None, in field order, as level_loss names one
    with pytest.raises(ValueError, match=rf"^loft loss needs component '{name}'$"):
        loft_loss(ExternalLossInputs(**{name: None}))
    with pytest.raises(ValueError, match=rf"^loft loss needs component '{name}'$"):
        loft_loss(ExternalLossInputs(**{name: None, "l_o": None}))


def test_loft_loss_refuses_a_sum_that_overflows():
    x = ExternalLossInputs(l_rp=1e308, l_rc=1e308)
    with pytest.raises(ValueError, match=r"^loft loss is not finite: inf$"):
        loft_loss(x)
    # the same components, weighted down, sum to a finite loss
    assert loft_loss(x, LossWeights(beta1=0.0)) == 1e308


def test_default_weights():
    w = LossWeights()
    assert (w.alpha1, w.alpha2, w.alpha3, w.alpha4, w.alpha5, w.alpha6, w.alpha7) == (
        1.0,
        32.0,
        1.0,
        1.0,
        16.0,
        1.0,
        8.0,
    )
    assert (w.beta1, w.beta2, w.beta3) == (1.0, 1.0, 16.0)
    with pytest.raises(ValueError):
        LossWeights(alpha1=-1.0)


def test_level_loss_hand_values():
    w = LossWeights()
    n = LevelComponents(l_f=0.5)
    assert level_loss(SupervisionLevel.N, n, w) == 0.5
    h = LevelComponents(l_f=0.5, l_h=0.1, external=ExternalLossInputs(l_rp=0.2))
    assert level_loss(SupervisionLevel.H, h, w) == pytest.approx(3.9, abs=1e-12)


@pytest.mark.parametrize("name", ["l_f", "l_h", "l_ona", "l_ova"])
@pytest.mark.parametrize("value", [-1.0, math.nan, True])
def test_level_components_reject_bad_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {value!r}$"):
        LevelComponents(**{name: value})


def test_level_loss_missing_components():
    w = LossWeights()
    with pytest.raises(ValueError, match="l_f"):
        level_loss(SupervisionLevel.N, LevelComponents(), w)
    with pytest.raises(ValueError, match="l_h"):
        level_loss(SupervisionLevel.H, LevelComponents(l_f=0.5), w)
    with pytest.raises(ValueError, match="l_ova"):
        level_loss(
            SupervisionLevel.OH,
            LevelComponents(l_f=0.5, l_h=0.1, l_ona=0.2, external=ExternalLossInputs()),
            w,
        )


def test_level_components_table_order():
    assert LEVEL_COMPONENTS == {
        SupervisionLevel.N: ("l_f",),
        SupervisionLevel.H: ("l_f", "l_h", "l_rp"),
        SupervisionLevel.OH: ("l_f", "l_h", "l_rp", "l_ona", "l_ova", "l_rc", "l_mh", "l_o"),
    }


def _cli_loss(tmp_path, capsys, sample):
    comp, report = tmp_path / "components.json", tmp_path / "loss.json"
    comp.write_text(json.dumps([sample]))
    code = run(["loss", "--components", str(comp), "--report", str(report)])
    err = capsys.readouterr().err
    return json.loads(report.read_text())["samples"][0]["loss"] if code == 0 else (code, err)


def test_every_level_and_subset_of_components_in_the_library_and_the_cli(tmp_path, capsys):
    # every term nonzero, so one read or dropped by mistake moves the value off full
    names = LEVEL_COMPONENTS[SupervisionLevel.OH]
    values = {name: 2.0 ** -i for i, name in enumerate(names)}
    external = ExternalLossInputs.__dataclass_fields__
    for level in SupervisionLevel:
        reads = LEVEL_COMPONENTS[level]
        full = level_loss(level, LevelComponents(
            external=ExternalLossInputs(**{n: values[n] for n in external}),
            **{n: values[n] for n in names if n not in external}))
        for size in range(len(names) + 1):
            for subset in itertools.combinations(names, size):
                given = {n: values[n] for n in subset}
                components = LevelComponents(
                    external=ExternalLossInputs(**{n: given.get(n) for n in external}),
                    **{n: v for n, v in given.items() if n not in external})
                cli = _cli_loss(tmp_path, capsys, {"level": level.name, **given})
                missing = [n for n in reads if n not in given]
                if not missing:  # what the level does not read is ignored
                    assert level_loss(level, components) == cli == full, (level, subset)
                    continue
                message = f"level {level.name} loss needs component {missing[0]!r}"
                with pytest.raises(ValueError, match=f"^{message}$"):
                    level_loss(level, components)
                assert cli == (2, f"error: sample 0: {message}\n"), (level, subset)


def test_require_counts_a_missing_external_or_none_as_not_given():
    c = LevelComponents(l_f=0.5, l_h=0.1)
    with pytest.raises(ValueError, match=r"^level H loss needs component 'l_rp'$"):
        c.require(SupervisionLevel.H)
    c.require(SupervisionLevel.H, "l_f", "l_h")
    c = LevelComponents(l_f=0.5, l_h=0.1, external=ExternalLossInputs(l_rp=None))
    with pytest.raises(ValueError, match=r"^level H loss needs component 'l_rp'$"):
        level_loss(SupervisionLevel.H, c)
    # a field left at its 0.0 default is given
    c = LevelComponents(l_f=0.5, l_h=0.1, external=ExternalLossInputs())
    assert level_loss(SupervisionLevel.H, c) == pytest.approx(3.7, abs=1e-12)


def test_losses_that_overflow_to_infinity_raise():
    # every component and weight is finite; only the weighted sums overflow
    w = LossWeights()
    big = LevelComponents(l_f=1e308, l_h=1e308, external=ExternalLossInputs(l_rp=1e308))
    with pytest.raises(ValueError, match=r"^level H loss is not finite: inf$"):
        level_loss(SupervisionLevel.H, big, w)
    half = LevelComponents(l_f=1e308)
    assert level_loss(SupervisionLevel.N, half, w) == 1e308
    with pytest.raises(ValueError, match=r"^total hybrid loss is not finite: inf$"):
        hybrid_loss([(SupervisionLevel.N, half)] * 2, w)
    with pytest.raises(ValueError, match=r"^level H loss is not finite: inf$"):
        hybrid_loss([(SupervisionLevel.N, half), (SupervisionLevel.H, big)], w)


def _random_components(rng):
    return LevelComponents(
        l_f=rng.uniform(0, 5),
        l_h=rng.uniform(0, 5),
        l_ona=rng.uniform(0, 5),
        l_ova=rng.uniform(0, 5),
        external=ExternalLossInputs(
            l_rp=rng.uniform(0, 5),
            l_rc=rng.uniform(0, 5),
            l_mh=rng.uniform(0, 5),
            l_o=rng.uniform(0, 5),
        ),
    )


def test_oh_incremental_equals_expanded():
    # the incremental form must equal loft + l_f + a2*l_h + a6*l_ona + a7*l_ova
    # whenever alpha1 = 1 and (alpha3, alpha4, alpha5) = (beta1, beta2, beta3)
    rng = np.random.default_rng(31)
    for _ in range(200):
        if rng.integers(0, 2):
            w = LossWeights()
        else:
            b1, b2, b3 = rng.uniform(0, 4, 3)
            w = LossWeights(
                alpha1=1.0,
                alpha2=rng.uniform(0, 40),
                alpha3=b1,
                alpha4=b2,
                alpha5=b3,
                alpha6=rng.uniform(0, 4),
                alpha7=rng.uniform(0, 10),
                beta1=b1,
                beta2=b2,
                beta3=b3,
            )
        c = _random_components(rng)
        incremental = level_loss(SupervisionLevel.OH, c, w)
        expanded = (
            loft_loss(c.external, w)
            + c.l_f
            + w.alpha2 * c.l_h
            + w.alpha6 * c.l_ona
            + w.alpha7 * c.l_ova
        )
        assert abs(incremental - expanded) <= 1e-12


def test_hybrid_loss_additive_and_permutation_invariant():
    rng = np.random.default_rng(32)
    w = LossWeights()
    entries = []
    for level in (SupervisionLevel.N, SupervisionLevel.H, SupervisionLevel.OH):
        entries.append((level, _random_components(rng)))
    assert hybrid_loss([], w) == 0.0
    total = hybrid_loss(entries, w)
    assert total == pytest.approx(
        sum(level_loss(lv, c, w) for lv, c in entries), abs=1e-12
    )
    assert hybrid_loss(entries[::-1], w) == pytest.approx(total, abs=1e-12)


def test_all_losses_nonnegative_random():
    rng = np.random.default_rng(33)
    w = LossWeights()
    for _ in range(100):
        c = _random_components(rng)
        for level in SupervisionLevel:
            assert level_loss(level, c, w) >= 0.0
        assert smooth_l1(rng.normal(size=5), rng.normal(size=5)) >= 0.0


def test_cross_entropy_of_an_empty_grid_is_undefined():
    with pytest.raises(ValueError, match=r"^cross entropy of an empty grid is undefined$"):
        mask_cross_entropy(np.zeros((0, 4)), BitMask(4, 0))


@pytest.mark.parametrize("lambda1", [-5.0, math.nan, math.inf])
def test_offset_angle_loss_rejects_a_negative_or_non_finite_lambda1(lambda1):
    # a negative weight would make the loss negative: -4.0 for this pair
    with pytest.raises(ValueError, match=r"^lambda1 must be finite and >= 0, got "):
        offset_angle_loss(Vec2(2.0, 0.0), Vec2(1.0, 0.0), lambda1)
