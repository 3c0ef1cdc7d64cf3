"""Training losses and their composition over supervision levels.

The detection-network internals (RPN, R-CNN, roof mask head, offset head)
are out of scope; their loss values enter as externally supplied
nonnegative scalars. Everything else is computed here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .dataset import SupervisionLevel
from .raster import BitMask
from .geometry import Vec2

PROB_CLAMP = 1e-12  # guards log(0) in the mask cross entropy
UNIT_NORM_TOL = 1e-9


def _check_nonnegative(obj, names, prefix: str = "") -> None:
    """Raise ValueError naming the first of obj's fields that is set but is
    not a finite real number >= 0; a boolean is not a number here."""
    for name in names:
        value = getattr(obj, name)
        if value is None:
            continue
        # 0 <= value < inf is false for NaN and compares huge ints exactly
        if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and 0 <= value < math.inf
        ):
            raise ValueError(f"{prefix}{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class LossWeights:
    """Weight bundle for the level losses; defaults are the tuned values."""

    alpha1: float = 1.0
    alpha2: float = 32.0
    alpha3: float = 1.0
    alpha4: float = 1.0
    alpha5: float = 16.0
    alpha6: float = 1.0
    alpha7: float = 8.0
    beta1: float = 1.0
    beta2: float = 1.0
    beta3: float = 16.0

    def __post_init__(self):
        _check_nonnegative(self, self.__dataclass_fields__, "LossWeights.")


@dataclass(frozen=True)
class ExternalLossInputs:
    """Loss scalars produced by the detection network; None is not given."""

    l_rp: float | None = 0.0  # region proposal
    l_rc: float | None = 0.0  # box classification/regression
    l_mh: float | None = 0.0  # roof mask head
    l_o: float | None = 0.0  # offset head

    def __post_init__(self):
        _check_nonnegative(self, self.__dataclass_fields__)


# the loss components each supervision level reads, in the order they are
# checked; l_rp, l_rc, l_mh and l_o are read in LevelComponents.external
LEVEL_COMPONENTS = {
    SupervisionLevel.N: ("l_f",),
    SupervisionLevel.H: ("l_f", "l_h", "l_rp"),
    SupervisionLevel.OH: ("l_f", "l_h", "l_rp", "l_ona", "l_ova", "l_rc", "l_mh", "l_o"),
}
_EXTERNAL = tuple(ExternalLossInputs.__dataclass_fields__)


def smooth_l1(pred, gt, beta: float = 1.0) -> float:
    """Mean smooth-L1: quadratic inside |d| < beta, linear outside."""
    import numpy as np

    if not beta > 0:  # false for NaN too
        raise ValueError(f"beta must be > 0, got {beta}")
    p = np.asarray(pred, dtype=float).ravel()
    g = np.asarray(gt, dtype=float).ravel()
    if p.shape != g.shape:
        raise ValueError(f"length mismatch: {p.size} vs {g.size}")
    if p.size == 0:
        raise ValueError("smooth_l1 of empty vectors is undefined")
    d = p - g
    ad = np.abs(d)
    vals = np.where(ad < beta, 0.5 * d * d / beta, ad - 0.5 * beta)
    return float(vals.mean())


def mask_cross_entropy(pred_prob, gt: BitMask) -> float:
    """Mean binary cross entropy of a probability grid against a mask."""
    import numpy as np

    p = np.asarray(pred_prob, dtype=float)
    if p.shape != (gt.height, gt.width):
        raise ValueError(f"probability grid {p.shape} != mask ({gt.height}, {gt.width})")
    if p.size == 0:
        raise ValueError("cross entropy of an empty grid is undefined")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = gt.dense().astype(float)
    vals = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(vals.mean())


def offset_angle_loss(v_pred: Vec2, v_gt_unit: Vec2, lambda1: float = 0.1) -> float:
    """Offset-direction loss: L1 distance to the unit ground-truth direction
    plus lambda1 times the deviation of the predicted norm from 1.

    Zero-offset (nadir) instances have no direction and must be excluded by
    the caller; the ground truth here is required to be unit length.
    """
    if not 0 <= lambda1 < math.inf:  # false for NaN too
        raise ValueError(f"lambda1 must be finite and >= 0, got {lambda1}")
    if abs(v_gt_unit.norm() - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"ground-truth direction must be unit length, got norm {v_gt_unit.norm()}")
    l1 = abs(v_pred.dx - v_gt_unit.dx) + abs(v_pred.dy - v_gt_unit.dy)
    return l1 + lambda1 * abs(v_pred.norm() - 1.0)


def _mean_abs_error(pred, gt) -> float:
    import numpy as np

    p = np.asarray(pred, dtype=float)
    g = np.asarray(gt, dtype=float)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    return float(np.mean(np.abs(p - g)))


def off_nadir_loss(tan_pred, tan_gt) -> float:
    """Mean absolute error between predicted and true off-nadir tangents."""
    return _mean_abs_error(tan_pred, tan_gt)


def height_loss(h_pred, h_gt) -> float:
    """Mean absolute height error (meters); scalars or per-instance vectors."""
    return _mean_abs_error(h_pred, h_gt)


def loft_loss(x: ExternalLossInputs, w: LossWeights = LossWeights()) -> float:
    """Weighted sum of the four detection-network losses. A field that is
    None, or a sum that overflows, is a ValueError."""
    for name in _EXTERNAL:
        if getattr(x, name) is None:
            raise ValueError(f"loft loss needs component {name!r}")
    total = x.l_rp + w.beta1 * x.l_rc + w.beta2 * x.l_mh + w.beta3 * x.l_o
    if not math.isfinite(total):  # finite components, a sum that overflowed
        raise ValueError(f"loft loss is not finite: {total}")
    return total


@dataclass(frozen=True)
class LevelComponents:
    """Per-sample loss components; levels require different subsets."""

    l_f: float | None = None  # footprint mask loss
    l_h: float | None = None  # height loss
    l_ona: float | None = None  # off-nadir angle loss
    l_ova: float | None = None  # offset angle loss
    external: ExternalLossInputs | None = None

    def __post_init__(self):
        _check_nonnegative(self, [name for name in self.__dataclass_fields__ if name != "external"])

    def require(self, level: SupervisionLevel, *names: str):
        """Raise ValueError naming the first of names, or else of what level
        reads, that is None or has no external to hold it."""
        for name in names or LEVEL_COMPONENTS[level]:
            holder = self.external if name in _EXTERNAL else self
            if holder is None or getattr(holder, name) is None:
                raise ValueError(f"level {level.name} loss needs component {name!r}")


def level_loss(
    level: SupervisionLevel, components: LevelComponents, w: LossWeights = LossWeights()
) -> float:
    """Loss of one sample given its supervision level.

    N uses the footprint loss alone; H adds the region-proposal loss
    (trained against pseudo bboxes) and the weighted height loss; OH adds
    the remaining detection losses and both angle losses. A component of
    LEVEL_COMPONENTS[level] not given, or a sum that overflows, is a ValueError.
    """
    c, x = components, components.external
    c.require(level)
    total = c.l_f
    if level >= SupervisionLevel.H:
        total += w.alpha1 * x.l_rp + w.alpha2 * c.l_h
    if level >= SupervisionLevel.OH:
        total += (
            w.alpha3 * x.l_rc
            + w.alpha4 * x.l_mh
            + w.alpha5 * x.l_o
            + w.alpha6 * c.l_ona
            + w.alpha7 * c.l_ova
        )
    if not math.isfinite(total):  # finite components, a sum that overflowed
        raise ValueError(f"level {level.name} loss is not finite: {total}")
    return total


def hybrid_loss(graded, w: LossWeights = LossWeights()) -> float:
    """Total loss over (level, components) pairs; empty input sums to 0.
    A sum that overflows is a ValueError."""
    return _total_loss(level_loss(level, comps, w) for level, comps in graded)


def _total_loss(sample_losses) -> float:
    """Sum of per-sample losses, in order; a sum that overflows is a ValueError."""
    total = sum(sample_losses)
    if not math.isfinite(total):
        raise ValueError(f"total hybrid loss is not finite: {total}")
    return total
