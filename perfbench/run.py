"""End-to-end benchmark of the offnadir CLI pipeline.

    python3 perfbench/run.py --workload city --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each pass runs, in a fresh interpreter and
through ``offnadir.cli.run`` with ``--jobs 1``: synth; prep (degrade, pbc
--level h, pbc --level n, footprint --mode polygon, grade, validate); footprint
--mode raster; eval; reconstruct. Passes repeat until --seconds have gone by.
Every output is checked and hashed after every pass. The last stdout line is
one JSON object: with --trace 0 it holds the end-to-end metrics (medians over
passes), with --trace 1 the per-layer metrics of traced passes, which
alternate with untraced ones to measure the tracing overhead. Times are wall
seconds scaled to a reference machine speed (see REF_CALIBRATION_S). A fuller
record (machine, input sizes, digests, unscaled times, span summary) goes to
perfbench/results/. --workload all runs every workload in turn. Exit status
is 1 if any command or check failed and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import scenes
import tracer
from worker import CALIBRATION_SAMPLES, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.relpath(HERE)

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("synth_s", "s", "lower"),
    ("prep_s", "s", "lower"),
    ("footprint_raster_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("reconstruct_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
STAGES = ("synth", "prep", "footprint_raster", "eval", "reconstruct")
SETUP_SAMPLES = 5  # plus one after every pass
# The speed of a shared machine drifts by tens of percent within seconds
# and over minutes. Every reported time is scaled to the speed at which
# worker.calibrate() takes this long, using calibration samples taken right
# before and after the timed work; the unscaled times stay in the record.
REF_CALIBRATION_S = 0.005
MIN_PASSES = 3  # per kind: untraced, and traced when tracing
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import offnadir.cli as c; c.build_parser()"
REPORTS = ("pbc_h.json", "pbc_n.json", "grade.json", "validate.json", "raster.json", "eval.json")
OUTPUTS = ("synth.json", "degraded.json", "footprints.json", "meshes.obj") + REPORTS


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def pipeline(work: str, seed: int) -> list:
    def w(name):
        return os.path.join(work, name)

    gt = w("gt.json")
    return [
        ("synth", ["synth", "--config", w("config.json"), "--out", w("synth.json"), "--jobs", "1"]),
        ("prep", ["degrade", "--in", gt, "--out", w("degraded.json"),
                  "--frac-oh", str(scenes.FRAC_OH), "--frac-h", str(scenes.FRAC_H),
                  "--seed", str(seed)]),
        ("prep", ["pbc", "--in", gt, "--out", w("pbc_h.json"), "--level", "h"]),
        ("prep", ["pbc", "--in", w("degraded.json"), "--out", w("pbc_n.json"), "--level", "n"]),
        ("prep", ["footprint", "--in", w("degraded.json"), "--out", w("footprints.json"),
                  "--mode", "polygon"]),
        ("prep", ["grade", "--in", w("degraded.json"), "--report", w("grade.json")]),
        ("prep", ["validate", "--in", w("footprints.json"), "--report", w("validate.json")]),
        ("footprint_raster", ["footprint", "--in", gt, "--out", w("raster.json"),
                              "--mode", "raster"]),
        ("eval", ["eval", "--pred", w("pred.json"), "--gt", gt, "--report", w("eval.json"),
                  "--jobs", "1"]),
        ("reconstruct", ["reconstruct", "--in", w("footprints.json"), "--out", w("meshes.obj"),
                         "--epsilon", str(scenes.EPSILON_PX), "--jobs", "1"]),
    ]


def run_worker(work: str, commands: list, trace: bool, spans_out: str | None = None) -> dict:
    spec = os.path.join(work, "spec.json")
    out = os.path.join(work, "worker.json")
    with open(spec, "w", encoding="utf-8") as f:
        json.dump({"root": os.getcwd(), "commands": commands, "trace": trace,
                   "spans_out": spans_out}, f)
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), spec, out],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def setup_seconds() -> float:
    """Fresh interpreter until offnadir.cli is imported and its parser built,
    at reference speed (calibrated just before and after)."""
    calibration = [calibrate(np) for _ in range(CALIBRATION_SAMPLES)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"cannot import offnadir.cli from src/: {proc.stderr.strip()[-2000:]}")
    calibration += [calibrate(np) for _ in range(CALIBRATION_SAMPLES)]
    return seconds * speed_factor(calibration)


def getconf(name: str):
    try:
        proc = subprocess.run(["getconf", name], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return int(proc.stdout.strip())
    except (OSError, ValueError):
        return None


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def check_benchmark_json() -> None:
    """BENCHMARK.json must list exactly the metrics this benchmark reports."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    if declared != END_TO_END:
        raise BenchError("BENCHMARK.json end_to_end does not match run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared != [row[:3] for row in tracer.LAYERS]:
        raise BenchError("BENCHMARK.json per_layer does not match tracer.LAYERS")
    if [w["name"] for w in bench["workloads"]] != list(scenes.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match scenes.WORKLOADS")


def prepare(work: str, name: str, seed: int) -> dict:
    """Write the synth config, run synth once, and derive gt and predictions."""
    wl = scenes.WORKLOADS[name]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scenes.save(scenes.synth_config(wl, seed), os.path.join(work, "config.json"))
    res = run_worker(work, pipeline(work, seed)[:1], trace=False)
    if res["commands"][0]["rc"] != 0:
        raise BenchError(f"synth failed: {res['commands'][0]['stderr']}")
    synth_path = os.path.join(work, "synth.json")
    synth = scenes.load(synth_path)
    gt = dict(synth, images=synth["images"][:wl.images])
    if wl.stars:
        gt = scenes.starify(gt, seed)
    pred = scenes.predictions(gt, seed)
    gt_path = os.path.join(work, "gt.json")
    scenes.save(gt, gt_path)
    scenes.save(pred, os.path.join(work, "pred.json"))
    inputs = {
        "synth": dict(scenes.size_of(synth), bytes=os.path.getsize(synth_path)),
        "gt": dict(scenes.size_of(gt), bytes=os.path.getsize(gt_path)),
        "pred": dict(scenes.size_of(pred), bytes=os.path.getsize(os.path.join(work, "pred.json"))),
    }
    return {"gt": gt, "pred": pred, "inputs": inputs,
            "synth_digest": checks.sha256(synth_path), "numpy": res["numpy"],
            "python": res["python"]}


def speed_factor(calibration) -> float:
    """Reference speed over the machine's speed while the samples were taken."""
    return REF_CALIBRATION_S / statistics.median(calibration)


def stage_seconds(res: dict, scale: bool = True) -> dict:
    """Seconds per stage of one pass, at reference speed unless scale is off.

    Each command is scaled by the calibration samples taken just before and
    just after it.
    """
    k = CALIBRATION_SAMPLES
    cal = res["calibration"]
    out = {stage: 0.0 for stage in STAGES}
    for i, c in enumerate(res["commands"]):
        factor = speed_factor(cal[i * k:(i + 2) * k]) if scale else 1.0
        out[c["stage"]] += c["seconds"] * factor
    out["pipeline"] = sum(out[s] for s in STAGES)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(scenes.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        return max(bench(name, args.seed, args.seconds, bool(args.trace)) for name in names)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join("src", "offnadir", "cli.py")):
        raise BenchError("run from the root of an offnadir checkout (src/offnadir missing)")
    try:
        check_benchmark_json()
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise BenchError(f"BENCHMARK.json unreadable: {e}") from e
    work = os.path.join(BENCH, "_work", workload)
    results_dir = os.path.join(BENCH, "results")
    os.makedirs(results_dir, exist_ok=True)

    setup_seconds()  # warms the file cache; not counted
    setup_s = [setup_seconds() for _ in range(SETUP_SAMPLES)]
    prep = prepare(work, workload, seed)
    commands = pipeline(work, seed)

    def w(name):
        return os.path.join(work, name)

    untraced, traced = [], []
    attempted = failed = 0
    failures = []
    digests = None
    deadline = time.perf_counter() + seconds
    while True:
        n = len(untraced) + len(traced) + 1
        traced_pass = trace and n % 2 == 0
        for name in OUTPUTS:
            if os.path.exists(w(name)):
                os.remove(w(name))
        spans_out = (os.path.join(results_dir, f"{workload}-spans.json")
                     if traced_pass and not traced else None)
        res = run_worker(work, commands, traced_pass, spans_out)
        (traced if traced_pass else untraced).append(res)
        if traced_pass:
            res["trace"]["metrics"]["cli.report_bytes"] = sum(
                os.path.getsize(w(name)) for name in REPORTS if os.path.exists(w(name)))
        for c in res["commands"]:
            attempted += 1
            if c["rc"] != 0:
                failed += 1
                failures.append(f"pass {n}: {c['argv'][0]} exited {c['rc']}: "
                                f"{c['stderr'].strip()[-500:]}")
        found = checks.check_pass(w, prep["gt"], prep["pred"], res["commands"][-1]["stderr"])
        pass_digests = {name: checks.sha256(w(name)) for name in OUTPUTS if os.path.exists(w(name))}
        digests = digests or pass_digests
        found.append(("outputs byte-identical across passes", pass_digests == digests,
                      "digests differ from pass 1"))
        found.append(("synth output matches the prepared scene",
                      pass_digests.get("synth.json") == prep["synth_digest"], "synth.json differs"))
        for name, ok, detail in found:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"pass {n}: {name}: {detail}")
        setup_s.append(setup_seconds())
        enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    times = [stage_seconds(r) for r in untraced]
    raw_times = [stage_seconds(r, scale=False) for r in untraced]
    rss = [r["max_rss_kb"] / 1024.0 for r in untraced]
    samples = {"setup_s": setup_s, "peak_rss_mb": rss,
               **{f"{s}_s": [t[s] for t in times] for s in ("pipeline",) + STAGES}}
    e2e = {name: statistics.median(samples[name]) for name, _, _ in END_TO_END}
    error_rate = failed / attempted
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": scenes.WORKLOADS[workload].why,
        "machine": {
            "cpu_count": os.cpu_count(), "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"), "machine": platform.machine(),
            "python": prep["python"], "numpy": prep["numpy"], "git_commit": git_commit(),
            "reference_calibration_s": REF_CALIBRATION_S,
        },
        "inputs": prep["inputs"],
        "digests": digests,
        "end_to_end": e2e,
        "end_to_end_unscaled_s": {f"{s}_s": statistics.median([t[s] for t in raw_times])
                                  for s in ("pipeline",) + STAGES},
        "samples": samples,
        "speed_factors": [speed_factor(r["calibration"]) for r in untraced],
        "raw_passes": [{"seconds": [c["seconds"] for c in r["commands"]],
                        "calibration": r["calibration"]} for r in untraced],
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "failures": failures,
    }

    gt_in, pred_in = prep["inputs"]["gt"], prep["inputs"]["pred"]
    print(f"workload {workload} (seed {seed}): {gt_in['images']} images, "
          f"{gt_in['instances']} instances, {gt_in['vertices']} vertices, {gt_in['bytes']} B gt; "
          f"{pred_in['instances']} predictions, {pred_in['bytes']} B")
    print(f"{len(untraced)} untraced pass(es), {len(traced)} traced; setup over "
          f"{len(setup_s)} interpreters; times at reference speed "
          f"(median speed factor {statistics.median(record['speed_factors']):.3f})")
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in e2e.items():
        unscaled = record["end_to_end_unscaled_s"].get(name)
        note = f", unscaled {unscaled:.4f}" if unscaled is not None else ""
        print(f"  {name:<20} {value:12.4f} {units[name]:<3} (min {min(samples[name]):.4f}, "
              f"max {max(samples[name]):.4f}, n={len(samples[name])}{note})")
    print(f"  {'error_rate':<20} {error_rate:12.4f}     ({failed} of {attempted} failed)")
    for line in failures[:20]:
        print(f"  FAIL {line}")

    if trace:
        runs = []
        for r in traced:
            factor = speed_factor(r["calibration"])
            m = r["trace"]["metrics"]
            runs.append({name: m[name] * factor if unit == "s" else m[name]
                         for name, unit, *_ in tracer.LAYERS if name in m})
        layers = {name: statistics.median([m[name] for m in runs])
                  for name, *_ in tracer.LAYERS if name != "trace.overhead_ratio"}
        layers["trace.overhead_ratio"] = (
            statistics.median([stage_seconds(r)["pipeline"] for r in traced]) / e2e["pipeline_s"])
        first = traced[0]["trace"]
        record["per_layer"] = layers
        record["layer_table"] = [dict(zip(("name", "unit", "better", "moves", "workloads"), row))
                                 for row in tracer.LAYERS]
        record["commands_traced"] = first["commands"]
        record["spans"] = first["spans"]
        record["span_count"] = first["span_count"]
        print("per-layer (median over traced passes; seconds scaled by each pass's speed):")
        for name, unit, _better, moves, where in tracer.LAYERS:
            print(f"  {name:<38} {layers[name]:16.6f} {unit:<5} moves {moves} [{where}]")
        print("traced command accounting (first traced pass, unscaled):")
        for c in first["commands"]:
            print(f"  {c['command']:<12} wall {c['wall_s']:.4f} s = cli {c['cli_self_s']:.4f} "
                  f"+ children {c['child_self_s']:.4f} + unaccounted {c['unaccounted_s']:.6f}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, *_ in tracer.LAYERS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
