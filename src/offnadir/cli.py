"""Command-line entry point wiring the toolkit into batch workflows.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; results go to files or stdout as flagged. Every subcommand is
deterministic given its inputs and flags, and never mutates input files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from . import __version__
from .dataset import (
    Dataset,
    DatasetError,
    SupervisionLevel,
    _number,
    _PendingRings,
    _parse,
    _read_json,
    _write_json,
    grade_sample,
    load_dataset,
    save_dataset,
    validate_consistency,
)
from .geometry import _canonical_ring, offset_from_pose
from .losses import (
    _COMPONENTS, ExternalLossInputs, LevelComponents, LossWeights, _total_loss, level_loss,
)
from .metrics import evaluate
from .pseudobox import DEFAULT_EXPAND_RATIO, pseudo_bbox_level_h, pseudo_bbox_level_n
from .raster import masks_to_rle, rasterize_polygons
from .reconstruct import DEFAULT_EPSILON_PX, export_obj, reconstruct_dataset
from .synth import SynthesisError, config_from_json, degrade_dataset, generate_scenes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# component keys of a loss sample; the detection-network ones are read first
_EXTERNAL_KEYS = frozenset(f.name for f in fields(ExternalLossInputs))
_LEVEL_KEYS = frozenset(_COMPONENTS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _cmd_synth(args) -> int:
    cfg = config_from_json(_read_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    dataset = generate_scenes(cfg)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} images to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_grade(args) -> int:
    dataset = load_dataset(args.input)
    counts = {level.name: 0 for level in SupervisionLevel}
    rows = []
    for r in dataset.records:
        level = grade_sample(r)
        counts[level.name] += 1
        rows.append((r.image_id, level.name, len(r.instances)))
    print(f"{'image_id':<24} {'level':<5} instances")
    for image_id, level, n in rows:
        print(f"{image_id:<24} {level:<5} {n}")
    print("counts: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    if args.report:
        _write_json(
            {
                "images": [{"id": i, "level": lv, "instances": n} for i, lv, n in rows],
                "counts": counts,
            },
            args.report,
        )
    return EXIT_OK


def _cmd_validate(args) -> int:
    dataset = load_dataset(args.input)
    total = 0
    out = []
    for r in dataset.records:
        report = validate_consistency(r, args.tol)
        total += len(report.findings)
        out.append(
            {
                "id": r.image_id,
                "findings": [f.__dict__ for f in report.findings],
                "notes": list(report.notes),
            }
        )
    print(f"{total} finding(s) across {len(dataset)} image(s)")
    if args.report:
        _write_json({"images": out, "total_findings": total}, args.report)
    return EXIT_OK


def _cmd_degrade(args) -> int:
    dataset = load_dataset(args.input)
    degraded = degrade_dataset(dataset, args.frac_oh, args.frac_h, args.seed)
    save_dataset(degraded, args.out)
    print(f"wrote degraded dataset to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_pbc(args) -> int:
    dataset = load_dataset(args.input)
    images = []
    for r in dataset.records:
        boxes = []
        for k, inst in enumerate(r.instances):
            if inst.footprint is None:
                raise DatasetError(f"image {r.image_id!r}, instance {k}: footprint required")
            if args.level == "n":
                box = pseudo_bbox_level_n(inst.footprint, args.expand_ratio, r.width, r.height)
            else:
                if r.pose is None:
                    raise DatasetError(f"image {r.image_id!r}: pose required for level h")
                if inst.height is None:
                    raise DatasetError(
                        f"image {r.image_id!r}, instance {k}: height required for level h"
                    )
                try:  # an offset beyond float range, or a box outside the image
                    v = offset_from_pose(inst.height, r.pose)
                    box = pseudo_bbox_level_h(inst.footprint, v, r.width, r.height)
                except ValueError as e:
                    raise DatasetError(f"image {r.image_id!r}, instance {k}: {e}") from e
            boxes.append([box.x_min, box.y_min, box.x_max, box.y_max])
        images.append({"id": r.image_id, "boxes": boxes})
    _write_json({"images": images}, args.out)
    return EXIT_OK


def _cmd_footprint(args) -> int:
    if args.mode == "raster":
        import numpy  # noqa: F401  (rasterizing needs it; loaded first, the loader batches too)
    dataset = load_dataset(args.input)
    if args.mode == "polygon":
        records = []
        derived = kept = 0
        with _PendingRings() as pending:  # translate_polygon(roof, offset), batched
            for r in dataset.records:
                instances = []
                before = derived
                for k, inst in enumerate(r.instances):
                    if inst.roof is not None and inst.offset is not None:
                        where = f"image {r.image_id!r}, instance {k}"
                        ring = ((x + inst.offset.dx, y + inst.offset.dy) for x, y in inst.roof.vertices)
                        footprint = pending.polygon(_parse(where, _canonical_ring, ring), where)
                        instances.append(replace(inst, footprint=footprint))
                        derived += 1
                    else:
                        instances.append(inst)
                        kept += 1
                # a record with no derived footprint is kept as loaded, unchecked again
                records.append(r if derived == before else replace(r, instances=tuple(instances)))
        out = Dataset(records=tuple(records), metadata=dict(dataset.metadata), extra=dict(dataset.extra))
        save_dataset(out, args.out)
        print(f"derived {derived} footprint(s), kept {kept} as-is", file=sys.stderr)
    else:
        def roofs():
            for r in dataset.records:
                for k, inst in enumerate(r.instances):
                    if inst.roof is None or inst.offset is None:
                        raise DatasetError(
                            f"image {r.image_id!r}, instance {k}: raster mode needs roof and offset"
                        )
                    yield inst.roof, r.width, r.height

        # one stream over all roofs, consumed record by record
        offsets = (inst.offset for r in dataset.records for inst in r.instances)
        rles = masks_to_rle(zip(rasterize_polygons(roofs()), offsets))
        images = [{"id": r.image_id,
                   "instances": [{"width": r.width, "height": r.height, "rle": rle}
                                 for _, rle in zip(r.instances, rles)]}
                  for r in dataset.records]
        _write_json({"images": images}, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    import numpy  # noqa: F401  (evaluating needs it; loaded first, the loader batches too)
    pred = load_dataset(args.pred)
    gt = load_dataset(args.gt)
    result = evaluate(pred, gt, iou_threshold=args.iou)
    agg = result.aggregate
    print(
        f"F1={agg.f1:.4f} precision={agg.precision:.4f} recall={agg.recall:.4f} "
        f"(TP={agg.tp} FP={agg.fp} FN={agg.fn})"
    )
    print(f"EPE={agg.epe:.4f} px over {agg.epe_pairs} pair(s)")
    print(
        f"height MAE={agg.height_mae:.4f} RMSE={agg.height_rmse:.4f} m "
        f"over {agg.height_pairs} pair(s)"
    )
    print(
        f"off-nadir MAE={agg.offnadir_mae_deg:.4f} deg over {agg.angle_images} image(s), "
        f"offset-angle MAE={agg.offsetangle_mae_deg:.4f} deg "
        f"over {agg.offsetangle_images} off-nadir image(s)"
    )
    if args.report:
        _write_json(
            {
                "aggregate": agg.to_json(),
                "per_image": {i: rep.to_json() for i, rep in result.per_image.items()},
            },
            args.report,
        )
    return EXIT_OK


def _load_weights(path) -> LossWeights:
    if path is None:
        return LossWeights()
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise DatasetError(f"weights file {path}: must be a JSON object")
    known = set(LossWeights.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise DatasetError(f"weights file {path}: unknown loss weight keys {sorted(unknown)}")
    where = f"weights file {path}"
    kw = {key: _number(f"{where}, {key}", "weight", float, v) for key, v in obj.items()}
    return _parse(where, lambda kw: LossWeights(**kw), kw)


def _cmd_loss(args) -> int:
    weights = _load_weights(args.weights)
    entries = _read_json(args.components)
    if not isinstance(entries, list):
        raise DatasetError(f"components file {args.components}: must be a JSON array of samples")
    rows = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DatasetError(f"sample {k}: must be a JSON object")
        entry = dict(entry)
        name = entry.pop("level", None)
        if name not in ("N", "H", "OH"):
            raise DatasetError(f'sample {k}: level must be "N", "H" or "OH", got {name!r}')
        level = SupervisionLevel[name]
        ext = {key: _number(f"sample {k}, {key}", "component", float, entry.pop(key))
               for key in list(entry) if key in _EXTERNAL_KEYS}
        comps = {key: _number(f"sample {k}, {key}", "component", float, entry.pop(key))
                 for key in list(entry) if key in _LEVEL_KEYS}
        if entry:
            raise DatasetError(f"sample {k}: unknown component keys {sorted(entry)}")
        try:
            components = LevelComponents(
                external=ExternalLossInputs(**ext) if ext else None, **comps
            )
            value = level_loss(level, components, weights)
        except ValueError as e:
            raise DatasetError(f"sample {k}: {e}") from e
        rows.append((k, level.name, value))
    total = _total_loss(value for _, _, value in rows)  # hybrid_loss, from the rows
    print(f"{'sample':<8} {'level':<5} loss")
    for k, name, value in rows:
        print(f"{k:<8} {name:<5} {value:.6f}")
    print(f"total hybrid loss: {total:.6f}")
    if args.report:
        _write_json(
            {
                "samples": [{"index": k, "level": nm, "loss": v} for k, nm, v in rows],
                "total": total,
            },
            args.report,
        )
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    dataset = load_dataset(args.input)
    result = reconstruct_dataset(
        dataset,
        epsilon=args.epsilon,
        default_height=args.default_height,
        default_scale_s=args.scale,
    )
    for sk in result.skipped:
        print(
            f"skipped image {sk.image_id!r} instance {sk.instance_index}: {sk.reason}",
            file=sys.stderr,
        )
    export_obj(result.meshes, args.out)
    print(
        f"wrote {len(result.meshes)} prism(s) to {args.out} "
        f"({len(result.skipped)} skipped)",
        file=sys.stderr,
    )
    return EXIT_OK


def _add_jobs(sp) -> None:
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; the work runs serially")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="offnadir", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def new_command(name, help_text):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--version", action="version", version=f"offnadir {__version__}")
        return sp

    sp = new_command("synth", "generate a seeded synthetic dataset")
    sp.add_argument("--config", required=True, help="SynthConfig JSON file")
    sp.add_argument("--out", required=True, help="output dataset JSON")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_jobs(sp)
    sp.set_defaults(func=_cmd_synth)

    sp = new_command("grade", "report per-image supervision levels")
    sp.add_argument("--in", dest="input", required=True, help="dataset JSON")
    sp.add_argument("--report", default=None, help="optional report JSON path")
    sp.set_defaults(func=_cmd_grade)

    sp = new_command("validate", "check offset/height/pose consistency")
    sp.add_argument("--in", dest="input", required=True, help="dataset JSON")
    sp.add_argument("--tol", type=float, default=1e-6, help="tolerance in pixels")
    sp.add_argument("--report", default=None, help="optional report JSON path")
    sp.set_defaults(func=_cmd_validate)

    sp = new_command("degrade", "strip annotations into mixed supervision levels")
    sp.add_argument("--in", dest="input", required=True, help="fully annotated dataset JSON")
    sp.add_argument("--out", required=True, help="output dataset JSON")
    sp.add_argument("--frac-oh", type=float, required=True, help="fraction kept fully annotated")
    sp.add_argument("--frac-h", type=float, required=True, help="fraction reduced to height-only")
    sp.add_argument("--seed", type=int, default=0, help="assignment seed")
    sp.set_defaults(func=_cmd_degrade)

    sp = new_command("pbc", "compute pseudo building bboxes")
    sp.add_argument("--in", dest="input", required=True, help="dataset JSON")
    sp.add_argument("--out", required=True, help="output boxes JSON")
    sp.add_argument("--level", choices=("h", "n"), default="h",
                    help="h: footprint+height+pose; n: footprint enlargement")
    sp.add_argument("--expand-ratio", type=float, default=DEFAULT_EXPAND_RATIO,
                    help="per-side enlargement ratio for level n")
    sp.set_defaults(func=_cmd_pbc)

    sp = new_command("footprint", "derive footprints from roofs and offsets")
    sp.add_argument("--in", dest="input", required=True, help="dataset JSON")
    sp.add_argument("--out", required=True, help="output path")
    sp.add_argument("--mode", choices=("polygon", "raster"), default="polygon")
    sp.set_defaults(func=_cmd_footprint)

    sp = new_command("eval", "evaluate predictions against ground truth")
    sp.add_argument("--pred", required=True, help="prediction dataset JSON")
    sp.add_argument("--gt", required=True, help="ground-truth dataset JSON")
    sp.add_argument("--iou", type=float, default=0.5, help="matching IoU threshold")
    sp.add_argument("--report", default=None, help="optional report JSON path")
    _add_jobs(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = new_command("loss", "compute level and hybrid losses from components")
    sp.add_argument("--components", required=True, help="JSON array of graded samples")
    sp.add_argument("--weights", default=None, help="optional weights JSON (defaults embedded)")
    sp.add_argument("--report", default=None, help="optional report JSON path")
    sp.set_defaults(func=_cmd_loss)

    sp = new_command("reconstruct", "export prism models as OBJ")
    sp.add_argument("--in", dest="input", required=True, help="dataset JSON")
    sp.add_argument("--out", required=True, help="output OBJ path")
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON_PX,
                    help="simplification tolerance in pixels")
    sp.add_argument("--default-height", type=float, default=None,
                    help="height for instances without one")
    sp.add_argument("--scale", type=float, default=None,
                    help="pixels-per-meter fallback when a record has no pose")
    _add_jobs(sp)
    sp.set_defaults(func=_cmd_reconstruct)

    return parser


def run(argv=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    try:
        return args.func(args)
    except (DatasetError, SynthesisError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
