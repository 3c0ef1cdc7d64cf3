"""Golden output digests: the benchmark's command list on reduced scenes.

Every output and report of ``perfbench/run.py:pipeline`` (synth, degrade,
both pbc levels, both footprint modes, grade, validate, eval, reconstruct),
plus one ``loss`` run, is hashed and compared with a committed table. The
scenes are the benchmark's workloads with fewer and smaller images; the
commands are the same. A change that moves one byte of any output fails
here. When a change alters output bytes on purpose, update the table and
say in CHANGES.md which files changed and why.

Run with ``PYTHONHASHSEED`` set to any value: an output that depends on set
or hash order then shows as a digest mismatch.
"""

import contextlib
import hashlib
import io
import json
import os
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
    {"level": "H", "l_f": 0.75, "l_h": 0.1, "l_mh": 0.2},
    {"level": "OH", "l_f": 0.3, "l_h": 0.05, "l_ona": 0.01, "l_ova": 0.02, "l_o": 0.4},
]

# computed before the streaming JSON writer; it left every byte unchanged
GOLDEN = {
    "city": {
        "degraded.json":
            "46c21489f9ac793ed088fc2163e9171e1fa5f6217a3e0a019ab3c3965bdcf9f9",
        "eval.8.stdout":
            "16f48cd2b0f00f8a8811a67bf146400a9467d755654e48b5d7f4fc876494d30b",
        "eval.json":
            "0fdbd4bb464b078305cd7b4aec9a408b96adaf5f2a1c9fc83552b541bdd45e22",
        "footprints.json":
            "46c21489f9ac793ed088fc2163e9171e1fa5f6217a3e0a019ab3c3965bdcf9f9",
        "grade.5.stdout":
            "fbe9f745de5a611edca251b3739ea2cae66cd04300dc349d9316d2aa73fc5d80",
        "grade.json":
            "49a8b2e170fe6fc01e9a7321e5723d539b1f527c721504de9fc8cf535929a3ae",
        "meshes.obj":
            "803d61d6487a58aa1dd26bdcae772f573e351e4ebdd90d30c5a9cbdb541a9e66",
        "pbc_h.json":
            "65935e69c5a5b09483b9e3fe1c190e34267db25121d5f77dba8e0ae5f5a2312a",
        "pbc_n.json":
            "dda00ac520af20b3ec7f4faf0a0a0e4eb03ab90ffa4805b71be33ad9a2540018",
        "raster.json":
            "3d7490c199028d31341818c7cee9d48e9ac5b00faa6300c5e2f9a3d837292878",
        "synth.json":
            "6dfe4eeb22ab3219e2f5bb6c0186a389a84f80a97a6b96b2183c982896fb0a81",
        "validate.6.stdout":
            "69fcb1fcf3e5475ef6be32386434a2f711f7bb1e87b6ffa069cd51baab1e7d2c",
        "validate.json":
            "d2cf1d67f792f5aa7e49ffb737f698482da9f88e2b479d5f21316b8f4f097aef",
    },
    "tiles": {
        "degraded.json":
            "5d90b65d33d871758bdc51ed7e161ab43f544ed71af4164a545fe13a28ac8c0c",
        "eval.8.stdout":
            "e453d96ad49fa21d66d2584c864d05c9b454c3fb653a8eb7ba35c761a02b6410",
        "eval.json":
            "3b3cc2d87070d62b20b6f04eff27b8597c9644f262cb2f07787a673ef8df907c",
        "footprints.json":
            "5d90b65d33d871758bdc51ed7e161ab43f544ed71af4164a545fe13a28ac8c0c",
        "grade.5.stdout":
            "ac2328b28deec49e8e4b5e417e8445baaf8920a6018bb9bf18f32c4e2cb228a3",
        "grade.json":
            "f25d487a095bbeb242f6812e422539832633515eb278df5c3fb187169d7af468",
        "meshes.obj":
            "7cfb08e43af8729a369a913ffca0758321991cf3b479125f3455f6b0142ef47f",
        "pbc_h.json":
            "727dc244e90ac9ae99fe2056d54c2cb089c871cb666917e5096d1c3bf4941987",
        "pbc_n.json":
            "3bfc61e7db1659869ac89262222fba27e774646139e9d5a06f922247aea10372",
        "raster.json":
            "f30d89ad2993950e4e4ecb674aed3578990e092956cdac01007680b963a7dc7c",
        "synth.json":
            "d1495dab62c2d1f80312d2c051bf43d95181cf6b09ec6fc68499a10185f5c74c",
        "validate.6.stdout":
            "96bb2c558b6944afdd52c7f13f5aacb3d07eaa74f0b06a20e2ca18e65e198b2e",
        "validate.json":
            "37bb86cb8a9bf83087fba1d9a916c02159542d342b6611b1c404c8e5c7e3f363",
    },
    "stars": {
        "degraded.json":
            "6948d3d35fa5e77c9cd44b9420e1c8bceda658679f48ea92687241ad55b8d07e",
        "eval.8.stdout":
            "ece764a2c33cc99dc77659ed54c2479b8225d324df386fefff6496da9c21a048",
        "eval.json":
            "68cb82366008689644e3710494ee221c018339a626eb30febbfea0e1063ca08f",
        "footprints.json":
            "6948d3d35fa5e77c9cd44b9420e1c8bceda658679f48ea92687241ad55b8d07e",
        "grade.5.stdout":
            "ddc0ff6d17f791135f17ef646dcf9f7f7697bd4e49466b8c3e27f8a745b7393d",
        "grade.json":
            "5458228ddb8bf9d573492627824e39bdec579b69136b5edc947dc9a2c80aa1de",
        "meshes.obj":
            "1b5a7972757dccb6f7037bfa8602dace204f3d6f364cac2a27911922cd2180ec",
        "pbc_h.json":
            "a2e5716beb8713dc050692ac13255e0d709fb3dc69fa7b72c3c69c7c82986672",
        "pbc_n.json":
            "7b44db91357a2ea0768aa65f6e683897cb042f5fa7b2643d5fc2be2fc98737f4",
        "raster.json":
            "744b0a5eff3af46baf52e746c7e31517a4dba6502d0951e424f2c57113c57622",
        "synth.json":
            "120a8a8d40ee82d40c15852c3a3d19190e7498c704d973e029db5713e7422607",
        "validate.6.stdout":
            "503bca284ae844871073c896d6373e58d2445980db0cf7dfb799103335e8d18a",
        "validate.json":
            "d9fb5365751b2b32153b4c56734da62add03f4725b15730f26349aa8c23d3039",
    },
    "loss": {
        "loss.json":
            "1107afbac9a11b0f6db6cd79257c03175f902b1b63efb081793b27ef77c322a6",
        "loss.stdout":
            "862d8ee1cf4352857321098ad7a26b8538d6694f28e4210242b11bc3b394661c",
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


def _pipeline_digests(work: str, wl: scenes.Workload) -> dict:
    """sha256 of every output file and of each command's stdout."""
    scenes.save(scenes.synth_config(wl, SEED), os.path.join(work, "config.json"))
    commands = bench.pipeline(work, SEED)
    digests = {}
    for k, (stage, argv) in enumerate(commands):
        if k == 1:  # the benchmark derives its inputs from synth's output
            synth = scenes.load(os.path.join(work, "synth.json"))
            gt = dict(synth, images=synth["images"][:wl.images])
            if wl.stars:
                gt = scenes.starify(gt, SEED)
            scenes.save(gt, os.path.join(work, "gt.json"))
            scenes.save(scenes.predictions(gt, SEED), os.path.join(work, "pred.json"))
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


def test_loss_report_matches_golden_digest(tmp_path):
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps(LOSS_COMPONENTS))
    report = tmp_path / "loss.json"
    rc, out = _cli(["loss", "--components", str(comp), "--report", str(report)])
    assert rc == 0
    got = {"loss.stdout": hashlib.sha256(out.encode()).hexdigest(), "loss.json": _sha(report)}
    assert got == GOLDEN["loss"]
