"""Run one pass of the CLI pipeline in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the checkout root, the commands as (stage, argv) pairs, and
whether to trace. Each command goes through ``offnadir.cli.run`` in this
process with stdout and stderr captured. Calibration samples taken before
each command and after the last let the caller scale the seconds to a
reference machine speed. The result holds per-command exit codes, seconds
and stderr, the calibration samples, the process's peak RSS, and, when
traced, the span analysis.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


CALIBRATION_SAMPLES = 2  # before each command and after the last


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def calibrate(np) -> float:
    """Seconds for a fixed reference job mixing the pipeline's kinds of work:
    small Python calls on point tuples, the JSON codec, and numpy boolean
    ops on a full 512x512 grid."""
    t0 = time.perf_counter()
    pts = [(float(i % 97), float(i % 89)) for i in range(3000)]
    area = 0.0
    for i in range(len(pts) - 2):
        area += _cross(pts[i], pts[i + 1], pts[i + 2])
    json.loads(json.dumps({"points": pts, "area": area}))
    grid = np.zeros((512, 512), dtype=bool)
    grid[100:300, 50:400] = True
    for k in range(8):
        int((grid & np.roll(grid, k, axis=1)).sum())
    return time.perf_counter() - t0


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import offnadir.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: offnadir imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)

    commands = []
    calibration = []
    for stage, argv in spec["commands"]:
        calibration.extend(calibrate(numpy) for _ in range(CALIBRATION_SAMPLES))
        out, err = io.StringIO(), io.StringIO()
        root = recorder.root(argv[0]) if recorder else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
            t0 = time.perf_counter()
            rc = cli.run(argv)
            seconds = time.perf_counter() - t0
        commands.append({"stage": stage, "argv": argv, "rc": rc, "seconds": seconds,
                         "stderr": err.getvalue()})
    calibration.extend(calibrate(numpy) for _ in range(CALIBRATION_SAMPLES))
    result = {
        "commands": commands,
        "calibration": calibration,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if recorder:
        result["trace"] = tracer.analyse(recorder.rows)
        result["trace"]["span_count"] = len(recorder.rows)
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as f:
                json.dump({"fields": ["name", "parent", "t0", "t1", "t2", "attrs"],
                           "spans": recorder.rows}, f)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
