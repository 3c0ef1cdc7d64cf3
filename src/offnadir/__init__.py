"""Off-nadir building reconstruction toolkit.

Deterministic geometric core for monocular off-nadir building work:
the height/offset/pose relation and its inversions, multi-level
supervision grading and losses, pseudo building bboxes, roof-to-footprint
mask translation, instance evaluation metrics, a seeded synthetic scene
generator with exact ground truth, and prism-model export.
"""

__version__ = "0.1.0"

from .geometry import (
    BBox,
    ImagePose,
    Polygon2D,
    PoseFit,
    Vec2,
    bbox_intersection,
    bbox_of,
    bbox_union,
    estimate_pose,
    height_from_offset,
    normalize_angle,
    offset_from_pose,
    polygon_area,
    translate_polygon,
)
from .dataset import (
    BuildingInstance,
    ConsistencyReport,
    Dataset,
    DatasetError,
    Finding,
    SampleRecord,
    SupervisionLevel,
    grade_instance,
    grade_sample,
    load_dataset,
    save_dataset,
    validate_consistency,
)
from .raster import (
    BitMask,
    mask_to_rle,
    rasterize_polygon,
    rasterize_polygons,
    rle_to_mask,
    round_half_away,
    translate_mask,
)
from .synth import SynthConfig, SynthesisError, degrade_dataset, generate_scenes
from .pseudobox import pseudo_bbox_level_h, pseudo_bbox_level_n, pseudo_offset
from .losses import (
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
from .metrics import (
    EvalReport,
    EvalResult,
    MatchResult,
    angle_errors,
    detection_prf,
    evaluate,
    height_errors,
    mask_iou,
    match_instances,
    offset_epe,
    polygon_iou,
)
from .reconstruct import (
    Mesh3D,
    ReconstructionResult,
    export_obj,
    extrude_prism,
    mesh_is_watertight,
    mesh_volume,
    parse_obj,
    reconstruct_dataset,
    simplify_chain,
    simplify_dp,
)
