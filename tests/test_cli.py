import hashlib
import json
import math
import re
from dataclasses import replace

import pytest

from offnadir.cli import run
from offnadir.dataset import load_dataset, save_dataset, validate_consistency
from offnadir.geometry import Polygon2D
from offnadir.losses import smooth_l1
from offnadir.metrics import evaluate, match_instances
from offnadir.pseudobox import pseudo_bbox_level_n
from offnadir.reconstruct import reconstruct_dataset, simplify_chain, simplify_dp
from offnadir.synth import SynthConfig

CFG = dict(
    image_w=96,
    image_h=96,
    n_images=5,
    buildings_per_image=[2, 4],
    height_range=[3.0, 20.0],
    tan_theta_range=[0.2, 0.9],
    phi_range=[0.0, 2.0 * math.pi],
    scale_s=1.0,
    shape_family="l_shape",
    integer_offsets=True,
    seed=17,
)


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG))
    return path


@pytest.fixture
def scene_path(tmp_path, cfg_path):
    out = tmp_path / "scene.json"
    assert run(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_deterministic(tmp_path, cfg_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["synth", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert run(["synth", "--config", str(cfg_path), "--out", str(b), "--jobs", "4"]) == 0
    assert sha(a) == sha(b)


def test_synth_seed_override(tmp_path, cfg_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["synth", "--config", str(cfg_path), "--out", str(a), "--seed", "99"]) == 0
    assert run(["synth", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert sha(a) != sha(b)
    d = load_dataset(a)
    assert d.metadata["config"]["seed"] == 99


def test_inputs_never_mutated(tmp_path, cfg_path, scene_path):
    before = sha(scene_path)
    run(["grade", "--in", str(scene_path)])
    run(["validate", "--in", str(scene_path)])
    run(["eval", "--pred", str(scene_path), "--gt", str(scene_path)])
    run(["degrade", "--in", str(scene_path), "--out", str(tmp_path / "x.json"),
         "--frac-oh", "0.4", "--frac-h", "0.6", "--seed", "1"])
    run(["reconstruct", "--in", str(scene_path), "--out", str(tmp_path / "x.obj")])
    assert sha(scene_path) == before


def test_eval_self_report(tmp_path, scene_path, capsys):
    report = tmp_path / "report.json"
    rc = run(
        ["eval", "--pred", str(scene_path), "--gt", str(scene_path), "--report", str(report)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "F1=1.0000" in out
    data = json.loads(report.read_text())
    assert data["aggregate"]["f1"] == 1.0
    assert data["aggregate"]["epe"] == 0.0
    assert data["aggregate"]["fp"] == 0 and data["aggregate"]["fn"] == 0
    assert set(data["per_image"]) == {r.image_id for r in load_dataset(scene_path).records}


def test_eval_summary_counts_offnadir_images(tmp_path, scene_path, capsys):
    report = tmp_path / "report.json"
    run(["eval", "--pred", str(scene_path), "--gt", str(scene_path), "--report", str(report)])
    out = capsys.readouterr().out
    agg = json.loads(report.read_text())["aggregate"]
    n = len(load_dataset(scene_path).records)
    # the synthetic scene has no nadir image
    assert agg["angle_images"] == agg["offsetangle_images"] == n
    assert f"over {n} image(s), offset-angle MAE=0.0000 deg over {n} off-nadir image(s)" in out


def test_eval_deterministic_report(tmp_path, scene_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run(["eval", "--pred", str(scene_path), "--gt", str(scene_path), "--report", str(r1)])
    run(["eval", "--pred", str(scene_path), "--gt", str(scene_path), "--report", str(r2),
         "--jobs", "3"])
    assert sha(r1) == sha(r2)


def test_degrade_then_grade_counts(tmp_path, cfg_path, capsys):
    scene = tmp_path / "ten.json"
    cfg10 = dict(CFG, n_images=10)
    cfg10_path = tmp_path / "cfg10.json"
    cfg10_path.write_text(json.dumps(cfg10))
    assert run(["synth", "--config", str(cfg10_path), "--out", str(scene)]) == 0
    degraded = tmp_path / "deg.json"
    assert (
        run(["degrade", "--in", str(scene), "--out", str(degraded),
             "--frac-oh", "0.3", "--frac-h", "0.7", "--seed", "5"])
        == 0
    )
    capsys.readouterr()
    assert run(["grade", "--in", str(degraded)]) == 0
    out = capsys.readouterr().out
    assert "N=0 H=7 OH=3" in out
    # determinism
    degraded2 = tmp_path / "deg2.json"
    run(["degrade", "--in", str(scene), "--out", str(degraded2),
         "--frac-oh", "0.3", "--frac-h", "0.7", "--seed", "5"])
    assert sha(degraded) == sha(degraded2)


def test_validate_cli_counts(scene_path, capsys):
    assert run(["validate", "--in", str(scene_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_validate_cli_report(tmp_path, scene_path):
    data = json.loads(scene_path.read_text())
    first = data["images"][0]["instances"][0]
    first["height"] += 1.0  # the offset no longer matches the pose
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    report = tmp_path / "findings.json"
    assert run(["validate", "--in", str(bad), "--report", str(report)]) == 0
    out = json.loads(report.read_text())
    assert [img["id"] for img in out["images"]] == [img["id"] for img in data["images"]]
    findings = [f for img in out["images"] for f in img["findings"]]
    assert out["total_findings"] == len(findings) >= 1
    assert {(f["image_id"], f["instance_index"], f["kind"]) for f in findings} == {
        (data["images"][0]["id"], 0, "magnitude")}


def test_pbc_cli(tmp_path, scene_path):
    out = tmp_path / "boxes.json"
    assert run(["pbc", "--in", str(scene_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    d = load_dataset(scene_path)
    assert [img["id"] for img in data["images"]] == [r.image_id for r in d.records]
    for img, rec in zip(data["images"], d.records):
        assert len(img["boxes"]) == len(rec.instances)
        for box in img["boxes"]:
            assert box[0] <= box[2] and box[1] <= box[3]
    out_n = tmp_path / "boxes_n.json"
    assert run(["pbc", "--in", str(scene_path), "--out", str(out_n), "--level", "n",
                "--expand-ratio", "0.0"]) == 0
    data_n = json.loads(out_n.read_text())
    for img, rec in zip(data_n["images"], d.records):
        for box, inst in zip(img["boxes"], rec.instances):
            xs = [x for x, _ in inst.footprint.vertices]
            ys = [y for _, y in inst.footprint.vertices]
            assert box == [min(xs), min(ys), max(xs), max(ys)]


_SQUARE = [4, 4, 12, 4, 12, 12, 4, 12]


@pytest.mark.parametrize(
    "image, level, message",
    [
        ({"instances": [{"roof": _SQUARE, "offset": [1.0, 1.0]}]}, "n",
         "image 'a', instance 0: footprint required"),
        ({"instances": [{"footprint": _SQUARE, "height": 5.0}]}, "h",
         "image 'a': pose required for level h"),
        ({"pose": {"tan_theta": 0.5, "phi": 0.0, "scale_s": 1.0},
          "instances": [{"footprint": _SQUARE, "height": 5.0}, {"footprint": _SQUARE}]}, "h",
         "image 'a', instance 1: height required for level h"),
    ],
    ids=["footprint", "pose", "height"],
)
def test_pbc_cli_names_the_missing_input(tmp_path, capsys, image, level, message):
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"images": [{"id": "a", "width": 32, "height": 32, **image}]}))
    out = tmp_path / "pbc.json"
    assert run(["pbc", "--in", str(data), "--out", str(out), "--level", level]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_footprint_cli_polygon_mode(tmp_path, scene_path):
    out = tmp_path / "fp.json"
    assert run(["footprint", "--in", str(scene_path), "--out", str(out)]) == 0
    orig = load_dataset(scene_path)
    derived = load_dataset(out)
    for a, b in zip(orig.records, derived.records):
        for ia, ib in zip(a.instances, b.instances):
            # integer scenes: translate(roof, +offset) recovers the footprint
            assert ib.footprint == ia.footprint


def test_footprint_cli_polygon_mode_keeps_roofless_instances(tmp_path, scene_path, capsys):
    stripped = tmp_path / "stripped.json"
    assert run(["degrade", "--in", str(scene_path), "--out", str(stripped),
                "--frac-oh", "0.0", "--frac-h", "1.0"]) == 0
    out = tmp_path / "fp.json"
    assert run(["footprint", "--in", str(stripped), "--out", str(out)]) == 0
    n = sum(len(r.instances) for r in load_dataset(scene_path).records)
    assert f"derived 0 footprint(s), kept {n} as-is" in capsys.readouterr().err
    assert load_dataset(out) == load_dataset(stripped)


def test_footprint_cli_raster_mode(tmp_path, scene_path):
    out = tmp_path / "fp_masks.json"
    assert run(["footprint", "--in", str(scene_path), "--out", str(out), "--mode", "raster"]) == 0
    data = json.loads(out.read_text())
    from offnadir.raster import rasterize_polygon, rle_to_mask

    d = load_dataset(scene_path)
    for img, rec in zip(data["images"], d.records):
        for entry, inst in zip(img["instances"], rec.instances):
            mask = rle_to_mask(entry["rle"], entry["width"], entry["height"])
            assert mask == rasterize_polygon(inst.footprint, rec.width, rec.height)


def test_footprint_cli_raster_mode_names_the_first_roofless_instance(tmp_path, scene_path, capsys):
    d = load_dataset(scene_path)
    records = list(d.records)
    for r, k in ((1, 1), (2, 0)):
        instances = list(records[r].instances)
        instances[k] = replace(instances[k], roof=None, offset=None)
        records[r] = replace(records[r], instances=tuple(instances))
    stripped = tmp_path / "stripped.json"
    save_dataset(replace(d, records=tuple(records)), stripped)
    out = tmp_path / "fp_masks.json"
    assert run(["footprint", "--in", str(stripped), "--out", str(out), "--mode", "raster"]) == 2
    want = f"error: image {records[1].image_id!r}, instance 1: raster mode needs roof and offset\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_loss_cli(tmp_path, capsys):
    comp = tmp_path / "components.json"
    comp.write_text(
        json.dumps(
            [
                {"level": "N", "l_f": 0.5},
                {"level": "H", "l_f": 0.5, "l_h": 0.1, "l_rp": 0.2},
            ]
        )
    )
    assert run(["loss", "--components", str(comp)]) == 0
    out = capsys.readouterr().out
    assert "total hybrid loss: 4.400000" in out  # 0.5 + 3.9
    report = tmp_path / "loss.json"
    assert run(["loss", "--components", str(comp), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["total"] == pytest.approx(4.4, abs=1e-12)
    assert data["samples"][1]["loss"] == pytest.approx(3.9, abs=1e-12)


def test_loss_report_that_would_hold_infinity_is_a_data_error(tmp_path, capsys):
    # each loss is finite, the weighted sums overflow to inf: RFC 8259 has
    # no token for it, so the report is a data error that names the file
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps([{"level": "H", "l_f": 1e308, "l_h": 1e308, "l_rp": 1e308}]))
    report = tmp_path / "loss.json"
    assert run(["loss", "--components", str(comp), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {report}: Out of range float values" in err
    assert "Infinity" not in report.read_text()


@pytest.mark.parametrize(
    "components, weights, message",
    [
        ([{"level": "N", "l_f": [1]}], None, "error: sample 0, l_f: "),
        ([5], None, "error: sample 0: must be a JSON object"),
        ([{"level": "N", "l_f": 0.5}], 5, "error: weights file .*w.json: must be a JSON object"),
    ],
    ids=["component-not-a-number", "sample-not-an-object", "weights-not-an-object"],
)
def test_loss_cli_rejects_wrongly_typed_input(tmp_path, capsys, components, weights, message):
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps(components))
    argv = ["loss", "--components", str(comp)]
    if weights is not None:
        (tmp_path / "w.json").write_text(json.dumps(weights))
        argv += ["--weights", str(tmp_path / "w.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [("seed", [1]), ("seed", True), ("n_images", 2.0), ("scale_s", "1"),
     ("height_range", [3.0]), ("buildings_per_image", [False, 4])],
)
def test_synth_rejects_wrongly_typed_config(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, field: value}))
    assert run(["synth", "--config", str(path), "--out", str(tmp_path / "s.json")]) == 2
    assert f"error: synth config '{field}' must be " in capsys.readouterr().err


def test_reconstruct_cli_deterministic(tmp_path, scene_path):
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    assert run(["reconstruct", "--in", str(scene_path), "--out", str(a), "--epsilon", "0.0"]) == 0
    assert run(["reconstruct", "--in", str(scene_path), "--out", str(b), "--epsilon", "0.0",
                "--jobs", "4"]) == 0
    assert sha(a) == sha(b)
    text = a.read_text()
    n_instances = sum(len(r.instances) for r in load_dataset(scene_path).records)
    assert text.count("\no ") == n_instances


def test_reconstruct_cli_skips_coordinates_that_overflow_the_scale(tmp_path, capsys):
    scene = tmp_path / "tiny_scale.json"
    scene.write_text(json.dumps({"images": [{
        "id": "a", "width": 16, "height": 16,
        "pose": {"tan_theta": 0.5, "phi": 0.0, "scale_s": 5e-324},
        "instances": [{"footprint": [2, 2, 8, 2, 8, 8, 2, 8], "height": 5.0}],
    }]}))
    obj = tmp_path / "out.obj"
    assert run(["reconstruct", "--in", str(scene), "--out", str(obj)]) == 0
    assert "inf" not in obj.read_text()
    err = capsys.readouterr().err
    assert "skipped image 'a' instance 0: footprint coordinates overflow" in err
    assert "wrote 0 prism(s)" in err


def test_exit_codes(tmp_path, cfg_path):
    assert run(["bogus-command"]) == 1
    assert run(["synth", "--config", str(cfg_path)]) == 1  # missing --out
    assert run(["grade", "--in", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["grade", "--in", str(bad)]) == 2
    assert run(["--version"]) == 0
    assert run(["synth", "--version"]) == 0
    assert run(["synth", "--help"]) == 0
    assert run(["eval", "--help"]) == 0


def test_degrade_fraction_bounds(tmp_path, scene_path):
    assert (
        run(["degrade", "--in", str(scene_path), "--out", str(tmp_path / "x.json"),
             "--frac-oh", "0.8", "--frac-h", "0.8", "--seed", "0"])
        == 2
    )


GOOD_COMPONENTS = [{"level": "N", "l_f": 0.5}]


def _unreadable_argv(tmp_path, bad):
    comp = tmp_path / "good-components.json"
    comp.write_text(json.dumps(GOOD_COMPONENTS))
    return {
        "synth": ["synth", "--config", str(bad), "--out", str(tmp_path / "s.json")],
        "components": ["loss", "--components", str(bad)],
        "weights": ["loss", "--components", str(comp), "--weights", str(bad)],
        "grade": ["grade", "--in", str(bad)],
    }


@pytest.mark.parametrize("content", [b"{not json", b"\xff{}", b"[" * 100_000, None],
                         ids=["syntax", "utf8", "deep", "missing"])
@pytest.mark.parametrize("command", ["synth", "components", "weights", "grade"])
def test_unreadable_json_input_exits_2_naming_the_file(tmp_path, capsys, command, content):
    bad = tmp_path / "input.json"
    if content is not None:
        bad.write_bytes(content)
    assert run(_unreadable_argv(tmp_path, bad)[command]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "components, weights, message",
    [
        ([{"level": "N", "l_f": True}], None, r"error: sample 0, l_f: component must be a JSON number"),
        ([{"level": "N", "l_f": "0.5"}], None, r"error: sample 0, l_f: component must be a JSON"),
        ([{"level": "H", "l_f": 0.5, "l_h": 0.1, "l_rp": True}], None, r"error: sample 0, l_rp: "),
        (GOOD_COMPONENTS, {"alpha1": True}, r"error: weights file .*w.json, alpha1: weight must"),
        (GOOD_COMPONENTS, {"alpha1": [1]}, r"error: weights file .*w.json, alpha1: "),
        (GOOD_COMPONENTS, {"beta2": -1}, r"error: weights file .*w.json: .*beta2 must be finite"),
        ([{"level": ["N"], "l_f": 0.5}], None, r"error: sample 0: level must be \"N\", \"H\" or"),
        ([{"l_f": 0.5}], None, r"error: sample 0: level must be .*, got None"),
        (GOOD_COMPONENTS, {"gamma": 1.0}, r"error: weights file .*w.json: unknown .*'gamma'"),
        ({"level": "N"}, None, r"error: components file .*components.json: must be a JSON array"),
        (GOOD_COMPONENTS + [{"level": "N", "l_f": 0.5, "l_zz": 1.0}], None,
         r"^error: sample 1: unknown component keys \['l_zz'\]$"),
        (GOOD_COMPONENTS + [{"level": "H", "l_f": 0.5}], None,
         r"^error: sample 1: level H loss needs component 'l_h'$"),
        ([{"level": "N", "l_f": -1.0}], None,
         r"^error: sample 0: l_f must be finite and >= 0, got -1.0$"),
    ],
    ids=["component-true", "component-string", "external-true", "weight-true", "weight-list",
         "weight-negative", "level-list", "level-missing", "weight-unknown", "not-an-array",
         "component-unknown", "component-missing", "component-negative"],
)
def test_loss_cli_errors_name_the_sample_weight_or_file(
    tmp_path, capsys, components, weights, message
):
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps(components))
    argv = ["loss", "--components", str(comp)]
    if weights is not None:
        (tmp_path / "w.json").write_text(json.dumps(weights))
        argv += ["--weights", str(tmp_path / "w.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert "Traceback" not in err


def test_dash_report_path_writes_to_stdout(scene_path, capsys):
    assert run(["grade", "--in", str(scene_path), "--report", "-"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert sum(report["counts"].values()) == len(load_dataset(scene_path))
    assert out.endswith("}\n")


SQUARE = Polygon2D(((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)))
NAN = math.nan


@pytest.mark.parametrize(
    "name, call, argv",
    [
        ("iou_threshold", lambda d: evaluate(d, d, iou_threshold=NAN),
         ["eval", "--pred", "{scene}", "--gt", "{scene}", "--iou", "nan"]),
        ("iou_threshold", lambda d: evaluate(d, d, iou_threshold=2.0),
         ["eval", "--pred", "{scene}", "--gt", "{scene}", "--iou", "2"]),
        ("iou_threshold", lambda d: match_instances([], [], -0.5), None),
        ("epsilon", lambda d: reconstruct_dataset(d, epsilon=NAN),
         ["reconstruct", "--in", "{scene}", "--out", "{out}", "--epsilon", "nan"]),
        ("epsilon", lambda d: simplify_dp(SQUARE, NAN), None),
        ("epsilon", lambda d: simplify_chain([(0.0, 0.0), (1.0, 1.0)], NAN), None),
        ("default_height", lambda d: reconstruct_dataset(d, default_height=NAN),
         ["reconstruct", "--in", "{scene}", "--out", "{out}", "--default-height", "nan"]),
        ("default_scale_s", lambda d: reconstruct_dataset(d, default_scale_s=math.inf),
         ["reconstruct", "--in", "{scene}", "--out", "{out}", "--scale", "inf"]),
        ("tol_px", lambda d: validate_consistency(d.records[0], NAN),
         ["validate", "--in", "{scene}", "--tol", "nan"]),
        ("expand_ratio", lambda d: pseudo_bbox_level_n(SQUARE, NAN, 64, 64),
         ["pbc", "--in", "{scene}", "--out", "{out}", "--level", "n", "--expand-ratio", "nan"]),
        ("beta", lambda d: smooth_l1([0.0], [0.0], beta=NAN), None),
        ("scale_s", lambda d: SynthConfig(scale_s=NAN), None),
        ("height_range", lambda d: SynthConfig(height_range=(NAN, 3.0)), None),
        ("phi_range", lambda d: SynthConfig(phi_range=(0.0, math.inf)), None),
    ],
    ids=["eval-iou-nan", "eval-iou-2", "match-iou", "reconstruct-epsilon", "simplify-dp",
         "simplify-chain", "default-height", "default-scale", "validate-tol", "pbc-expand-ratio",
         "smooth-l1-beta", "synth-scale", "synth-height-range", "synth-phi-range"],
)
def test_parameter_checks_reject_nan_and_out_of_range(
    tmp_path, scene_path, capsys, name, call, argv
):
    with pytest.raises(ValueError, match=name):
        call(load_dataset(scene_path))
    if argv is not None:
        argv = [a.format(scene=scene_path, out=tmp_path / "out") for a in argv]
        assert run(argv) == 2
        assert name in capsys.readouterr().err
