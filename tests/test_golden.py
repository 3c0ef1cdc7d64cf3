"""Golden output digests: the benchmark's command list on reduced scenes.

Every output and report of ``perfbench/run.py:pipeline`` (synth, degrade,
both pbc levels, both footprint modes, grade, validate, eval, reconstruct),
plus one ``loss`` run and two ``reconstruct`` runs of the stars ground truth, is
hashed and compared with a committed table. The scenes are the benchmark's
workloads with fewer and smaller images; the commands are the same. A
change that moves one byte of any output fails here. When a change alters
output bytes on purpose, update the table and say in CHANGES.md which files
changed and why.

Run with ``PYTHONHASHSEED`` set to any value: an output that depends on set
or hash order then shows as a digest mismatch.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from dataclasses import replace

import pytest

from offnadir.cli import run

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import run as bench  # noqa: E402  (perfbench/run.py)
import scenes  # noqa: E402  (perfbench/scenes.py)

SEED = 7


def _reduced(name: str, **synth) -> scenes.Workload:
    wl = scenes.WORKLOADS[name]
    images = min(wl.images, synth["n_images"])
    return replace(wl, synth=dict(wl.synth, **synth), images=images)


# fewer and smaller images than the benchmark's, same shapes and stages;
# stars still synthesizes more images than it turns into stars
WORKLOADS = {
    "city": _reduced("city", image_w=192, image_h=192, n_images=2,
                     buildings_per_image=[12, 12]),
    "tiles": _reduced("tiles", n_images=16),
    "stars": replace(_reduced("stars", image_w=384, image_h=384, n_images=6,
                              buildings_per_image=[3, 3]), images=1),
}

LOSS_COMPONENTS = [
    {"level": "N", "l_f": 0.5, "l_rp": 0.25, "l_rc": 0.125},
    {"level": "H", "l_f": 0.75, "l_h": 0.1, "l_rp": 0.375, "l_mh": 0.2},
    {"level": "OH", "l_f": 0.3, "l_h": 0.05, "l_ona": 0.01, "l_ova": 0.02, "l_rp": 0.15,
     "l_rc": 0.0625, "l_mh": 0.5, "l_o": 0.4},
]

# the city, tiles and stars rows were re-pinned when synth and degrade moved
# from numpy.random to random.Random, whose streams Python keeps across
# versions, and the streaming JSON writer left every byte unchanged; the loss
# row was re-pinned when each sample had to give every component its level
# reads (the N sample's l_rp and l_rc stay, unread)
GOLDEN = {
    "city": {
        "degraded.json":
            "cb1cde7597985c4ba65b466f156e2a755800b57c316be159b6b8f7c48e0447f0",
        "eval.8.stdout":
            "205ac6b2c3415ff03dcd86220210a54a341d8db3d7a3833e5a2bdeee8386a736",
        "eval.json":
            "7bcce25e9d505eef50e4897a7559ae4ca29fbed903ce219c8d48a9d3faf25638",
        "footprints.json":
            "cb1cde7597985c4ba65b466f156e2a755800b57c316be159b6b8f7c48e0447f0",
        "grade.5.stdout":
            "f950423180938df0d06bd9890a7bf4330fcece53397b485b6763e1d384b0f04b",
        "grade.json":
            "58c6145bdb50118e5c3c4b6a79efabb3378f855accd54a01be07717f5a655f51",
        "meshes.obj":
            "31ad39bad47bf9c121eb6becc6c85046d4f90c10c2a9901512d1ed7a0c9da4d5",
        "pbc_h.json":
            "98d4f1bd724ea868512d00fca1ad1085cbec12266c2ddf3e70b7c4a251b90789",
        "pbc_n.json":
            "2f87a7e432d4848f32ae29cd7f36ec118a8a791358808f899a2fb71e404c4d81",
        "raster.json":
            "56c8d863064737d8b71fb267c606b96c1d520c71a24d24ca6d2656b4dff9dc73",
        "synth.json":
            "a388337e94b98dd3f2cc7537d72d09f89bd556d9757a786f935b895d44ed407a",
        "validate.6.stdout":
            "69fcb1fcf3e5475ef6be32386434a2f711f7bb1e87b6ffa069cd51baab1e7d2c",
        "validate.json":
            "049970e8d0d13f0ea27fba553c975a74cb4cd48b175126003c1a4ff44a896978",
    },
    "tiles": {
        "degraded.json":
            "e676db66bec88c8bc23b301088a0565b55fd73ce4196a90669700ce6a31021a8",
        "eval.8.stdout":
            "d4b4b59d552d708306d3e030348d587323a730a8bdf805554c49b8758dd45981",
        "eval.json":
            "7f161b8e439776f12a97945a0f7b9b2b0e59172fbb2fec6fb6e543650727e019",
        "footprints.json":
            "e676db66bec88c8bc23b301088a0565b55fd73ce4196a90669700ce6a31021a8",
        "grade.5.stdout":
            "4b0c6af65105650b23be16212adc5129c63078d58731c28f9904d830e96ee825",
        "grade.json":
            "12cf1b14c42d55371d4d05decc3edd4eb8c09d8d758c30f7913bdf790702a07a",
        "meshes.obj":
            "a7b2a027c46c65d2a815da1ac5c4bf633bdda37d724e8af8089d4903522d7b87",
        "pbc_h.json":
            "1227e25373be7d51ad92c17fb5dbfda4ef82515b4031c0dff6bf42b89aeb9264",
        "pbc_n.json":
            "b6e763b30a4b763dd43dbd9c5da224f984a24b3f0d6512780d66299b34dd8e09",
        "raster.json":
            "ab92ce50ae555b71c413fe6b102edf0219f4360d77e3b5de03cfa29d4419a023",
        "synth.json":
            "2ce8be97d7f82c1fe9ce6b1aea4cda77f1e39d4c795a33edd61f233b0e716aa8",
        "validate.6.stdout":
            "96bb2c558b6944afdd52c7f13f5aacb3d07eaa74f0b06a20e2ca18e65e198b2e",
        "validate.json":
            "9e27965de9638667c87d46dcc8f4dcd71a4df7951e37aa48a0def42f29d479da",
    },
    "stars": {
        "degraded.json":
            "7211144fca509c8c66aa20cd0092a178c16d1e047e36cfb0ecd660a32820b6f0",
        "eval.8.stdout":
            "7b8c034022e63d99795f77e842b0ddd4ee5a5d5e3b80fd9a4df404bf2f9091ed",
        "eval.json":
            "d9de36091a74dedde9964c15a6f09b1bdd9bf99fffc730a143bf96cb2c573245",
        "footprints.json":
            "7211144fca509c8c66aa20cd0092a178c16d1e047e36cfb0ecd660a32820b6f0",
        "grade.5.stdout":
            "ddc0ff6d17f791135f17ef646dcf9f7f7697bd4e49466b8c3e27f8a745b7393d",
        "grade.json":
            "5458228ddb8bf9d573492627824e39bdec579b69136b5edc947dc9a2c80aa1de",
        "meshes.obj":
            "1b5a7972757dccb6f7037bfa8602dace204f3d6f364cac2a27911922cd2180ec",
        "pbc_h.json":
            "65385ff9e3add790eb5a8bcac1ac36a0ff12d86468484d1d3025de9338399a24",
        "pbc_n.json":
            "3e4ce1aea73420ccd70611fa077f01ccf773e5ce7c020ad2c8a337805b12ac0b",
        "raster.json":
            "6aaee389692a28bb8c98f07db500b5070a81b69be6b6c30d42f20fde538bcb4e",
        "synth.json":
            "63419b2605b020ba2aea37da63ac88ab75cdfe42ddadf95404842414fc11a27b",
        "validate.6.stdout":
            "503bca284ae844871073c896d6373e58d2445980db0cf7dfb799103335e8d18a",
        "validate.json":
            "d9fb5365751b2b32153b4c56734da62add03f4725b15730f26349aa8c23d3039",
    },
    # reconstruct --in gt.json on the reduced stars scene: its one image
    # grades N after degrade, so the pipeline's meshes.obj above holds no
    # star, while this one runs every star through simplify_dp and the ear clip
    "stars_gt": {
        "meshes.obj":
            "6e81440f31998d0bba313e36f2afc7e69265c87cfa9a54b27b58df4b5f98c807",
    },
    # the same at --epsilon 2, where Douglas-Peucker drops vertices of every star
    "stars_gt_dp": {
        "meshes.obj":
            "671f3aefdba42ee9e6c4557aeeae10ff3e09316e220c136fa0b8bf1eec581c3c",
    },
    "loss": {
        "loss.json":
            "3cbbe61591b72bdb510ff169b85f4c735b954ebed09bd9dca2ae16cb6fe0b079",
        "loss.stdout":
            "2f7a87a22219a959a438007853a03892f6ed2332891832d22fac621179b3e3c8",
    },
}


def _sha(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    return rc, out.getvalue()


def _derive_inputs(work: str, wl: scenes.Workload) -> None:
    """gt.json and pred.json from synth's output, as the benchmark derives them."""
    synth = scenes.load(os.path.join(work, "synth.json"))
    gt = dict(synth, images=synth["images"][:wl.images])
    if wl.stars:
        gt = scenes.starify(gt, SEED)
    scenes.save(gt, os.path.join(work, "gt.json"))
    scenes.save(scenes.predictions(gt, SEED), os.path.join(work, "pred.json"))


def _pipeline_digests(work: str, wl: scenes.Workload) -> dict:
    """sha256 of every output file and of each command's stdout."""
    scenes.save(scenes.synth_config(wl, SEED), os.path.join(work, "config.json"))
    commands = bench.pipeline(work, SEED)
    digests = {}
    for k, (stage, argv) in enumerate(commands):
        if k == 1:  # the benchmark derives its inputs from synth's output
            _derive_inputs(work, wl)
        rc, out = _cli(argv)
        assert rc == 0, (stage, argv)
        if out:
            digests[f"{argv[0]}.{k}.stdout"] = hashlib.sha256(out.encode()).hexdigest()
    for name in bench.OUTPUTS:
        digests[name] = _sha(os.path.join(work, name))
    return digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_outputs_match_golden_digests(tmp_path, name):
    assert _pipeline_digests(str(tmp_path), WORKLOADS[name]) == GOLDEN[name]


def _star_ground_truth_meshes(work: str, epsilon: str) -> tuple:
    """reconstruct --in gt.json of the reduced stars scene: the object and
    vertex counts of its OBJ header, and the file's digest."""
    scenes.save(scenes.synth_config(WORKLOADS["stars"], SEED), os.path.join(work, "config.json"))
    stage, argv = bench.pipeline(work, SEED)[0]
    assert stage == "synth" and _cli(argv)[0] == 0
    _derive_inputs(work, WORKLOADS["stars"])
    obj = os.path.join(work, "meshes.obj")
    argv = ["reconstruct", "--in", os.path.join(work, "gt.json"), "--out", obj,
            "--epsilon", epsilon]
    assert _cli(argv)[0] == 0
    with open(obj, encoding="utf-8") as f:
        header = re.match(r"# prism models: (\d+) objects, (\d+) vertices", f.readline())
    return int(header.group(1)), int(header.group(2)), {"meshes.obj": _sha(obj)}


def test_star_ground_truth_meshes_match_golden_digest(tmp_path):
    objects, _, digest = _star_ground_truth_meshes(str(tmp_path), "0.25")
    assert objects > 0
    assert digest == GOLDEN["stars_gt"]


def test_simplified_star_ground_truth_meshes_match_golden_digest(tmp_path):
    objects, vertices, digest = _star_ground_truth_meshes(str(tmp_path), "2")
    # each prism has two vertices per ring vertex: fewer than the stars' 64
    assert objects > 0 and vertices < 2 * scenes.STAR_VERTICES * objects
    assert digest == GOLDEN["stars_gt_dp"]


def test_loss_report_matches_golden_digest(tmp_path):
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps(LOSS_COMPONENTS))
    report = tmp_path / "loss.json"
    rc, out = _cli(["loss", "--components", str(comp), "--report", str(report)])
    assert rc == 0
    got = {"loss.stdout": hashlib.sha256(out.encode()).hexdigest(), "loss.json": _sha(report)}
    assert got == GOLDEN["loss"]
