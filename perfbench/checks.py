"""Output checks for one pipeline pass, and output digests.

Each check returns (name, ok, detail). The expectations come from the
benchmark's own inputs, never from the program's outputs alone.
"""

from __future__ import annotations

import hashlib
import json
import math

from scenes import FRAC_H, FRAC_OH


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _counts(dataset) -> dict:
    return {img["id"]: len(img["instances"]) for img in dataset["images"]}


def _boxes_ok(images, counts, dims) -> str:
    got = {img["id"]: len(img["boxes"]) for img in images}
    if got != counts:
        return f"boxes per image {got} != instances {counts}"
    for img in images:
        w, h = dims[img["id"]]
        for x0, y0, x1, y1 in img["boxes"]:
            if not (0 <= x0 <= x1 <= w and 0 <= y0 <= y1 <= h):
                return f"image {img['id']}: box {[x0, y0, x1, y1]} outside {w}x{h}"
    return ""


def check_pass(w, gt, pred, reconstruct_stderr: str) -> list:
    """Check every output of one pass; w maps an output name to its path."""
    gt_counts = _counts(gt)
    dims = {img["id"]: (img["width"], img["height"]) for img in gt["images"]}
    n_images = len(gt_counts)
    n_gt = sum(gt_counts.values())
    checks = []

    def check(name, fn):
        try:
            detail = fn()
        except (OSError, ValueError, KeyError, TypeError) as e:
            detail = f"{type(e).__name__}: {e}"
        checks.append((name, not detail, detail))

    loaded = {}

    def out(name):
        if name not in loaded:
            loaded[name] = _load(w(name))
        return loaded[name]

    check("degrade keeps images and instances",
          lambda: "" if _counts(out("degraded.json")) == gt_counts else "instance counts changed")
    check("pbc h gives one box per instance",
          lambda: _boxes_ok(_load(w("pbc_h.json"))["images"], gt_counts, dims))
    check("pbc n gives one box per instance",
          lambda: _boxes_ok(_load(w("pbc_n.json"))["images"], gt_counts, dims))
    check("footprint polygon keeps instances",
          lambda: "" if _counts(out("footprints.json")) == gt_counts else "instance counts changed")

    def grade():
        n_oh = min(n_images, _round_half_away(FRAC_OH * n_images))
        n_h = min(n_images - n_oh, _round_half_away(FRAC_H * n_images))
        want = {"N": n_images - n_oh - n_h, "H": n_h, "OH": n_oh}
        got = _load(w("grade.json"))["counts"]
        return "" if got == want else f"grade counts {got} != {want}"

    check("grade counts follow degrade fractions", grade)

    def validate():
        rep = _load(w("validate.json"))
        if len(rep["images"]) != n_images:
            return f"{len(rep['images'])} images reported, {n_images} expected"
        return "" if rep["total_findings"] == 0 else f"{rep['total_findings']} findings"

    check("validate finds exact synthetic offsets consistent", validate)

    def raster():
        images = _load(w("raster.json"))["images"]
        got = {img["id"]: len(img["instances"]) for img in images}
        if got != gt_counts:
            return f"masks per image {got} != instances {gt_counts}"
        for img in images:
            width, height = dims[img["id"]]
            for k, m in enumerate(img["instances"]):
                if (m["width"], m["height"]) != (width, height) or sum(m["rle"]) != width * height:
                    return f"image {img['id']} mask {k}: RLE does not cover {width}x{height}"
        return ""

    check("every RLE sums to W*H", raster)

    def evaluation():
        rep = _load(w("eval.json"))
        pred_counts = _counts(pred)
        agg = rep["aggregate"]
        if agg["tp"] + agg["fn"] != n_gt or agg["tp"] + agg["fp"] != sum(pred_counts.values()):
            return f"aggregate {agg['tp']}/{agg['fp']}/{agg['fn']} does not cover the instances"
        for image_id, r in rep["per_image"].items():
            if (r["tp"] + r["fn"], r["tp"] + r["fp"]) != (gt_counts[image_id], pred_counts[image_id]):
                return f"image {image_id}: TP/FP/FN do not cover the instances"
        return "" if len(rep["per_image"]) == n_images else "per-image reports missing"

    check("TP+FN = GT and TP+FP = predictions", evaluation)

    def meshes():
        with open(w("meshes.obj"), encoding="ascii") as f:
            objects = sum(1 for line in f if line.startswith("o "))
        skipped = sum(1 for line in reconstruct_stderr.splitlines()
                      if line.startswith("skipped image"))
        want = sum(_counts(out("footprints.json")).values())
        return "" if objects + skipped == want else (
            f"{objects} meshes + {skipped} skipped != {want} instances")

    check("meshes plus skipped = instances", meshes)
    return checks
