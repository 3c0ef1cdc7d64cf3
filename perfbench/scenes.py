"""Seeded benchmark inputs: synth configs, trimmed and star scenes, predictions.

This module never imports offnadir. It reads and writes the dataset JSON
schema directly, so the program under test only ever sees files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

EPSILON_PX = 0.25  # reconstruct --epsilon; every star vertex deviates more
FRAC_OH = 0.4  # degrade --frac-oh
FRAC_H = 0.3  # degrade --frac-h
STAR_VERTICES = 64
_STAR_GRID = 64.0  # star vertices snap to 1/64 px, exact in binary


@dataclass(frozen=True)
class Workload:
    why: str
    synth: dict  # SynthConfig fields except the seed
    images: int  # downstream stages use the first this many synth images
    stars: bool = False


# Buildings per image are fixed (the midpoint of each shape's usual range)
# wherever images are few, so a seed moves layout, sizes and poses but not
# volume, and degrade's seeded choice of images cannot change how many
# polygons the later stages handle. tiles keeps its 1-4 range: its 400
# images average the count out.
WORKLOADS = {
    "city": Workload(
        why="512x512 images, 30 l_shape buildings each: full-grid masks, "
        "dense placement, ~30x30 match pairs per image",
        synth=dict(image_w=512, image_h=512, n_images=20,
                   buildings_per_image=[30, 30], shape_family="l_shape"),
        images=20,
    ),
    "tiles": Workload(
        why="400 64x64 images with 1-4 axis_rect buildings: per-record "
        "codec, construction, eval setup and report cost",
        synth=dict(image_w=64, image_h=64, n_images=400,
                   buildings_per_image=[1, 4], shape_family="axis_rect"),
        images=400,
    ),
    # synth makes more images than the later stages use, so that synth_s is
    # long enough to time; the first 8 are turned into stars
    "stars": Workload(
        why="1024x1024 images, 6 buildings each as 64-vertex stars: O(n^2) "
        "polygon checks, per-edge rasterization, simplify and ear clipping",
        synth=dict(image_w=1024, image_h=1024, n_images=384,
                   buildings_per_image=[6, 6], shape_family="axis_rect"),
        images=8,
        stars=True,
    ),
}


def synth_config(wl: Workload, seed: int) -> dict:
    return dict(wl.synth, seed=seed)


def _pairs(flat):
    return [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def _flat(points):
    return [c for p in points for c in p]


def _bbox(points):
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return min(xs), min(ys), max(xs), max(ys)


def _translate(points, dx, dy):
    # same float operation as offnadir's translate_polygon, so a roof built
    # here passes the loader's roof == footprint - offset check exactly
    return [(x + dx, y + dy) for x, y in points]


def _chord_deviation(p, q, r) -> float:
    """Distance from q to the line through its neighbours p and r."""
    ux, uy = r[0] - p[0], r[1] - p[1]
    return abs(ux * (q[1] - p[1]) - uy * (q[0] - p[0])) / math.hypot(ux, uy)


def star_in_bbox(rng: random.Random, bbox) -> list:
    """A 64-vertex star inscribed in the ellipse of bbox, positive winding.

    Outer and inner radii alternate, so every vertex sits well off its
    neighbours' chord and Douglas-Peucker keeps it.
    """
    x0, y0, x1, y1 = bbox
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    rx, ry = (x1 - x0) / 2.0, (y1 - y0) / 2.0
    step = 2.0 * math.pi / STAR_VERTICES
    pts = []
    for k in range(STAR_VERTICES):
        a = k * step + rng.uniform(-0.2, 0.2) * step
        r = rng.uniform(0.85, 1.0) if k % 2 == 0 else rng.uniform(0.45, 0.6)
        x = round((cx + r * rx * math.cos(a)) * _STAR_GRID) / _STAR_GRID
        y = round((cy + r * ry * math.sin(a)) * _STAR_GRID) / _STAR_GRID
        pts.append((x, y))
    n = len(pts)
    for k in range(n):
        dev = _chord_deviation(pts[k - 1], pts[k], pts[(k + 1) % n])
        if dev <= EPSILON_PX:
            raise ValueError(f"star vertex {k} deviates only {dev:.3f} px in bbox {bbox}")
    return pts


def starify(scene: dict, seed: int) -> dict:
    """Replace each footprint by a seeded star inside its bbox and re-derive
    the roof as footprint - offset."""
    rng = random.Random(f"stars:{seed}")
    images = []
    for img in scene["images"]:
        insts = []
        for inst in img["instances"]:
            star = star_in_bbox(rng, _bbox(_pairs(inst["footprint"])))
            dx, dy = inst["offset"]
            insts.append(dict(inst, footprint=_flat(star),
                              roof=_flat(_translate(star, -dx, -dy))))
        images.append(dict(img, instances=insts))
    return dict(scene, images=images)


def _quantize(x: float, steps: float) -> float:
    return round(x * steps) / steps


def _overlaps(box, boxes) -> bool:
    # boxes must keep a 1 px gap, as synth's placement does
    x0, y0, x1, y1 = box
    return any(x0 - 1 <= b[2] and b[0] <= x1 + 1 and y0 - 1 <= b[3] and b[1] <= y1 + 1
               for b in boxes)


def predictions(gt: dict, seed: int) -> dict:
    """A realistic prediction set for gt.

    About 10% of buildings are dropped (false negatives); the rest shift by
    up to 2 px per axis, with perturbed offsets and heights. About 15% of
    buildings spawn a false positive rectangle in empty space. Scores are
    quantized to 0.05 so ties occur, and the image pose is perturbed.
    """
    rng = random.Random(f"pred:{seed}")
    images = []
    for img in gt["images"]:
        w, h = img["width"], img["height"]
        pose = img["pose"]
        tan_theta = pose["tan_theta"] * (1.0 + rng.uniform(-0.05, 0.05))
        phi = (pose["phi"] + rng.uniform(-0.05, 0.05)) % (2.0 * math.pi)
        boxes = []
        insts = []
        for inst in img["instances"]:
            fp = _pairs(inst["footprint"])
            boxes.append(_bbox(fp))
            if rng.random() < 0.10:
                continue
            fp = _translate(fp, rng.randint(-2, 2), rng.randint(-2, 2))
            ox = inst["offset"][0] + _quantize(rng.uniform(-1.0, 1.0), 8.0)
            oy = inst["offset"][1] + _quantize(rng.uniform(-1.0, 1.0), 8.0)
            insts.append({
                "footprint": _flat(fp),
                "roof": _flat(_translate(fp, -ox, -oy)),
                "offset": [ox, oy],
                "height": inst["height"] * (1.0 + rng.uniform(-0.1, 0.1)),
                "score": _quantize(rng.uniform(0.5, 1.0), 20.0),
            })
        side_hi = max(6, min(w, h) // 8)
        for _ in range(sum(rng.random() < 0.15 for _ in img["instances"])):
            for _attempt in range(20):
                bw, bh = rng.randint(4, side_hi), rng.randint(4, side_hi)
                x, y = rng.randint(0, w - bw), rng.randint(0, h - bh)
                box = (x, y, x + bw, y + bh)
                if _overlaps(box, boxes):
                    continue
                boxes.append(box)
                fp = [(x, y), (x + bw, y), (x + bw, y + bh), (x, y + bh)]
                mag = _quantize(rng.uniform(2.0, 10.0), 8.0)
                ox, oy = mag * math.cos(phi), mag * math.sin(phi)
                height = mag / (tan_theta * pose["scale_s"]) if tan_theta > 0 else 10.0
                insts.append({
                    "footprint": _flat(fp),
                    "roof": _flat(_translate(fp, -ox, -oy)),
                    "offset": [ox, oy],
                    "height": height,
                    "score": _quantize(rng.uniform(0.05, 0.7), 20.0),
                })
                break
        rng.shuffle(insts)
        images.append({
            "id": img["id"], "width": w, "height": h,
            "pose": {"tan_theta": tan_theta, "phi": phi, "scale_s": pose["scale_s"]},
            "instances": insts,
        })
    return {"images": images, "metadata": {"generator": "perfbench.scenes", "seed": seed}}


def size_of(dataset: dict) -> dict:
    """Images, instances and polygon vertices (footprints plus roofs)."""
    n_inst = n_vert = 0
    for img in dataset["images"]:
        n_inst += len(img["instances"])
        for inst in img["instances"]:
            for key in ("footprint", "roof"):
                n_vert += len(inst.get(key) or ()) // 2
    return {"images": len(dataset["images"]), "instances": n_inst, "vertices": n_vert}


def load(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def save(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
