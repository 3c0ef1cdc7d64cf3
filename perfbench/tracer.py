"""Span tracer installed from outside the package, and the per-layer table.

``install`` replaces every public offnadir function, in every module
namespace that bound it, with a wrapper that records a span; the
``Polygon2D`` and ``BuildingInstance`` ``__post_init__`` hooks are wrapped
on their classes. Spans stay in memory as rows
``[name, parent, t0, t1, t2, attrs]``: the call ran from t0 to t1, and
t1..t2 is the tracer's own work computing attrs, which no self time
includes and ``trace.unaccounted_s`` reports.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time

import numpy as np

# (metric, unit, better, end-to-end metric it should move, workloads where it
# does most work / should not move). BENCHMARK.json's per_layer list must
# name exactly these metrics with these units.
LAYERS = [
    ("raster.rasterize.calls", "count", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("raster.rasterize.self_s", "s", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("raster.rasterize.grid_px", "px", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("raster.rasterize.window_px", "px", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("raster.rasterize.set_px", "px", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("raster.rasterize.edges", "count", "lower", "eval_s, footprint_raster_s", "stars / city, tiles"),
    ("metrics.mask_iou.calls", "count", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("metrics.mask_iou.self_s", "s", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("metrics.mask_iou.bytes", "B", "lower", "eval_s, peak_rss_mb", "city, stars / tiles"),
    ("raster.translate_mask.calls", "count", "lower", "footprint_raster_s", "city / tiles"),
    ("raster.translate_mask.self_s", "s", "lower", "footprint_raster_s", "city / tiles"),
    ("raster.rle.calls", "count", "lower", "footprint_raster_s", "city / tiles"),
    ("raster.rle.self_s", "s", "lower", "footprint_raster_s", "city / tiles"),
    ("raster.rle.runs", "count", "lower", "footprint_raster_s", "city / tiles"),
    ("geometry.polygon.calls", "count", "lower", "prep_s, eval_s, reconstruct_s", "stars, tiles"),
    ("geometry.polygon.self_s", "s", "lower", "prep_s, eval_s, reconstruct_s", "stars, tiles"),
    ("geometry.polygon.vertices", "count", "lower", "prep_s, eval_s, reconstruct_s", "stars, tiles"),
    ("geometry.polygon.edge_pairs", "count", "lower", "prep_s, eval_s, reconstruct_s", "stars, tiles"),
    ("geometry.translate_polygon.calls", "count", "lower", "prep_s, eval_s, reconstruct_s", "stars, tiles"),
    ("geometry.translate_polygon.self_s", "s", "lower", "prep_s, eval_s, reconstruct_s", "stars, tiles"),
    ("geometry.bbox.calls", "count", "lower", "synth_s, eval_s", "city / stars"),
    ("geometry.bbox.self_s", "s", "lower", "synth_s, eval_s", "city / stars"),
    ("dataset.load.calls", "count", "lower", "prep_s, synth_s", "tiles / stars"),
    ("dataset.load.self_s", "s", "lower", "prep_s, synth_s", "tiles / stars"),
    ("dataset.load.bytes", "B", "lower", "prep_s, synth_s", "tiles / stars"),
    ("dataset.save.calls", "count", "lower", "prep_s, synth_s", "tiles / stars"),
    ("dataset.save.self_s", "s", "lower", "prep_s, synth_s", "tiles / stars"),
    ("dataset.save.bytes", "B", "lower", "prep_s, synth_s", "tiles / stars"),
    ("dataset.instance.self_s", "s", "lower", "prep_s, synth_s", "tiles / stars"),
    ("dataset.validate_consistency.self_s", "s", "lower", "prep_s", "tiles / stars"),
    ("synth.generate_scenes.self_s", "s", "lower", "synth_s", "city / stars"),
    ("synth.candidates", "count", "lower", "synth_s", "city / stars"),
    ("synth.accept_ratio", "ratio", "higher", "synth_s", "city / stars"),
    ("synth.degrade.self_s", "s", "lower", "prep_s", "city / stars"),
    ("pseudobox.bbox.calls", "count", "lower", "prep_s", "tiles"),
    ("pseudobox.bbox.self_s", "s", "lower", "prep_s", "tiles"),
    ("metrics.match.calls", "count", "lower", "eval_s", "city / tiles"),
    ("metrics.match.self_s", "s", "lower", "eval_s", "city / tiles"),
    ("metrics.match.pairs", "count", "lower", "eval_s", "city / tiles"),
    ("metrics.match.prune_ratio", "ratio", "higher", "eval_s", "city / tiles"),
    ("metrics.match.useful_ratio", "ratio", "higher", "eval_s", "city / tiles"),
    ("metrics.evaluate.self_s", "s", "lower", "eval_s", "city / tiles"),
    ("reconstruct.simplify.calls", "count", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.simplify.self_s", "s", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.simplify.vertices_in", "count", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.simplify.vertices_out", "count", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.extrude.calls", "count", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.extrude.self_s", "s", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.extrude.triangles", "count", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.skipped", "count", "lower", "reconstruct_s", "stars / tiles"),
    ("reconstruct.export_obj.self_s", "s", "lower", "reconstruct_s", "city"),
    ("reconstruct.export_obj.bytes", "B", "lower", "reconstruct_s", "city"),
    ("cli.self_s", "s", "lower", "eval_s, prep_s", "tiles"),
    ("cli.report_bytes", "B", "lower", "eval_s, prep_s", "tiles"),
    ("trace.other_self_s", "s", "lower", "pipeline_s", "all"),
    ("trace.unaccounted_s", "s", "lower", "n/a", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "n/a", "all"),
]

POLYGON = "geometry.Polygon2D.__post_init__"
INSTANCE = "dataset.BuildingInstance.__post_init__"
ROOT = "cli"

# layer -> (span names whose calls it counts, extra span names in its self time)
GROUPS = {
    "raster.rasterize": (["raster.rasterize_polygon"], []),
    "metrics.mask_iou": (["metrics.mask_iou"], []),
    "raster.translate_mask": (["raster.translate_mask"], []),
    "raster.rle": (["raster.mask_to_rle"], []),
    "geometry.polygon": ([POLYGON], []),
    "geometry.translate_polygon": (["geometry.translate_polygon"], []),
    "geometry.bbox": (["geometry.bbox_of", "geometry.bbox_intersection",
                       "geometry.bbox_union"], []),
    "dataset.load": (["dataset.load_dataset"], ["dataset.dataset_from_json"]),
    "dataset.save": (["dataset.save_dataset"], ["dataset.dataset_to_json"]),
    "dataset.instance": ([INSTANCE], []),
    "dataset.validate_consistency": (["dataset.validate_consistency"], []),
    "synth.generate_scenes": (["synth.generate_scenes"], []),
    "synth.degrade": (["synth.degrade_dataset"], ["dataset.strip_annotations"]),
    "pseudobox.bbox": (["pseudobox.pseudo_bbox_level_h", "pseudobox.pseudo_bbox_level_n"],
                       ["pseudobox.pseudo_offset"]),
    "metrics.match": (["metrics.match_instances"], []),
    "metrics.evaluate": (["metrics.evaluate"],
                         ["metrics.detection_prf", "metrics.offset_epe",
                          "metrics.height_errors", "metrics.angle_errors"]),
    "reconstruct.simplify": (["reconstruct.simplify_dp"], ["reconstruct.simplify_chain"]),
    "reconstruct.extrude": (["reconstruct.extrude_prism"], []),
    "reconstruct.export_obj": (["reconstruct.export_obj"], []),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rasterize_attrs(args, kwargs, mask):
    verts = _arg(args, kwargs, 0, "polygon").vertices
    w = _arg(args, kwargs, 1, "width")
    h = _arg(args, kwargs, 2, "height")
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    # the pixel window rasterize_polygon scans: centers inside the bbox
    i0 = max(0, math.ceil(min(xs) - 0.5))
    i1 = min(w - 1, math.floor(max(xs) - 0.5))
    j0 = max(0, math.ceil(min(ys) - 0.5))
    j1 = min(h - 1, math.floor(max(ys) - 0.5))
    window = (i1 - i0 + 1) * (j1 - j0 + 1) if i0 <= i1 and j0 <= j1 else 0
    return {"grid_px": w * h, "window_px": window, "edges": len(verts),
            "set_px": int(np.count_nonzero(mask.data))}


def _polygon_attrs(args, kwargs, _):
    n = len(args[0].vertices)
    return {"vertices": n, "edge_pairs": n * (n - 1) // 2}


def _file_bytes(index, name):
    def attrs(args, kwargs, _):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return attrs


ATTRS = {
    "raster.rasterize_polygon": _rasterize_attrs,
    "metrics.mask_iou": lambda a, k, _: {"bytes": 2 * a[0].width * a[0].height},
    "raster.mask_to_rle": lambda a, k, runs: {"runs": len(runs)},
    POLYGON: _polygon_attrs,
    "dataset.load_dataset": _file_bytes(0, "path"),
    "dataset.save_dataset": _file_bytes(1, "path"),
    "reconstruct.export_obj": _file_bytes(1, "path"),
    "metrics.match_instances": lambda a, k, m: {
        "pairs": len(_arg(a, k, 0, "preds")) * len(_arg(a, k, 1, "gts")), "tp": m.tp},
    "reconstruct.simplify_dp": lambda a, k, p: {
        "vertices_in": len(a[0].vertices), "vertices_out": len(p.vertices)},
    "reconstruct.extrude_prism": lambda a, k, m: {"triangles": len(m.triangles)},
    "reconstruct.reconstruct_dataset": lambda a, k, r: {"skipped": len(r.skipped)},
}


class Tracer:
    def __init__(self):
        self.rows = []
        self._stack = []

    def wrap(self, fn, name):
        rows, stack, clock = self.rows, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            stack.append(len(rows))
            rows.append(row)
            row[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = row[4] = clock()
                stack.pop()
            if attrs is not None:
                row[5] = attrs(args, kwargs, result)
                row[4] = clock()
            return result

        return traced

    @contextlib.contextmanager
    def root(self, command: str):
        """Root span around one CLI command."""
        row = [ROOT, -1, 0.0, 0.0, 0.0, {"command": command}]
        self._stack.append(len(self.rows))
        self.rows.append(row)
        row[2] = time.perf_counter()
        try:
            yield
        finally:
            row[3] = row[4] = time.perf_counter()
            self._stack.pop()


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def install(tracer: Tracer) -> None:
    """Wrap offnadir's public functions wherever they are bound.

    cli's own functions are left alone: the worker's root span around each
    ``cli.run`` call stands for them.
    """
    from offnadir.dataset import BuildingInstance
    from offnadir.geometry import Polygon2D

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "offnadir" or n.startswith("offnadir.")]
    wrapped = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("offnadir.")
                    or obj.__module__ == "offnadir.cli"):
                continue
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(obj, span_name(obj))
            setattr(mod, attr, wrapped[obj])
    for cls in (Polygon2D, BuildingInstance):
        cls.__post_init__ = tracer.wrap(cls.__post_init__, span_name(cls.__post_init__))


def analyse(rows) -> dict:
    """Self times, per-command accounting and layer metrics from spans.

    A span's self time is its duration minus its children's full extent
    (t0..t2); rows are in start order, so a parent precedes its children.
    """
    n = len(rows)
    child = [0.0] * n
    for name, parent, t0, _t1, t2, _ in rows:
        if parent >= 0:
            child[parent] += t2 - t0
    self_t = [rows[i][3] - rows[i][2] - child[i] for i in range(n)]

    by_name = {}
    under_synth = [False] * n
    root_of = [0] * n
    for i, (name, parent, *_rest) in enumerate(rows):
        entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "attrs": {}})
        entry["calls"] += 1
        entry["self_s"] += self_t[i]
        if name != ROOT:
            for key, value in (rows[i][5] or {}).items():
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        root_of[i] = i if parent < 0 else root_of[parent]
        under_synth[i] = name == "synth.generate_scenes" or (parent >= 0 and under_synth[parent])

    commands = {}
    for i, (name, parent, t0, t1, *_rest) in enumerate(rows):
        if parent < 0:
            commands[i] = {"command": rows[i][5]["command"], "wall_s": t1 - t0,
                           "cli_self_s": self_t[i], "child_self_s": 0.0}
        else:
            commands[root_of[i]]["child_self_s"] += self_t[i]
    for c in commands.values():
        c["unaccounted_s"] = c["wall_s"] - c["cli_self_s"] - c["child_self_s"]

    def count(name):
        return by_name.get(name, {}).get("calls", 0)

    def attr(names, key):
        return sum(by_name.get(nm, {}).get("attrs", {}).get(key, 0) for nm in names)

    metrics = {}
    grouped = set()
    for layer, (primary, extra) in GROUPS.items():
        grouped.update(primary + extra)
        metrics[f"{layer}.calls"] = sum(count(nm) for nm in primary)
        metrics[f"{layer}.self_s"] = sum(by_name.get(nm, {}).get("self_s", 0.0)
                                         for nm in primary + extra)
    for key in ("grid_px", "window_px", "set_px", "edges"):
        metrics[f"raster.rasterize.{key}"] = attr(["raster.rasterize_polygon"], key)
    metrics["metrics.mask_iou.bytes"] = attr(["metrics.mask_iou"], "bytes")
    metrics["raster.rle.runs"] = attr(["raster.mask_to_rle"], "runs")
    metrics["geometry.polygon.vertices"] = attr([POLYGON], "vertices")
    metrics["geometry.polygon.edge_pairs"] = attr([POLYGON], "edge_pairs")
    metrics["dataset.load.bytes"] = attr(["dataset.load_dataset"], "bytes")
    metrics["dataset.save.bytes"] = attr(["dataset.save_dataset"], "bytes")
    metrics["reconstruct.export_obj.bytes"] = attr(["reconstruct.export_obj"], "bytes")
    metrics["reconstruct.simplify.vertices_in"] = attr(["reconstruct.simplify_dp"], "vertices_in")
    metrics["reconstruct.simplify.vertices_out"] = attr(["reconstruct.simplify_dp"], "vertices_out")
    metrics["reconstruct.extrude.triangles"] = attr(["reconstruct.extrude_prism"], "triangles")
    metrics["reconstruct.skipped"] = attr(["reconstruct.reconstruct_dataset"], "skipped")

    # synth: candidates are footprint polygons built under generate_scenes,
    # i.e. all polygons there minus those made by translate_polygon
    polys = translations = placed = 0
    for i, row in enumerate(rows):
        if under_synth[i]:
            polys += row[0] == POLYGON
            translations += row[0] == "geometry.translate_polygon"
            placed += row[0] == INSTANCE
    candidates = polys - translations
    metrics["synth.candidates"] = candidates
    metrics["synth.accept_ratio"] = placed / candidates if candidates else 0.0

    # matching: pairs reaching mask_iou directly under match_instances
    iou_calls = sum(1 for row in rows if row[0] == "metrics.mask_iou" and row[1] >= 0
                    and rows[row[1]][0] == "metrics.match_instances")
    pairs = attr(["metrics.match_instances"], "pairs")
    metrics["metrics.match.pairs"] = pairs
    metrics["metrics.match.prune_ratio"] = 1.0 - iou_calls / pairs if pairs else 0.0
    metrics["metrics.match.useful_ratio"] = (
        attr(["metrics.match_instances"], "tp") / iou_calls if iou_calls else 0.0)

    metrics["cli.self_s"] = sum(c["cli_self_s"] for c in commands.values())
    metrics["trace.other_self_s"] = sum(
        v["self_s"] for nm, v in by_name.items() if nm not in grouped and nm != ROOT)
    metrics["trace.unaccounted_s"] = sum(c["unaccounted_s"] for c in commands.values())
    spans = {nm: {"calls": v["calls"], "self_s": v["self_s"], **v["attrs"]}
             for nm, v in sorted(by_name.items())}
    return {"metrics": metrics, "commands": list(commands.values()), "spans": spans}
