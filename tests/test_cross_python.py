"""The numpy-free command chain writes the same bytes on CPython 3.10-3.13.

The chain (synth, degrade, pbc h and n, footprint polygon, grade, validate,
reconstruct) runs through ``python -m offnadir.cli`` with ``PYTHONPATH=src``,
once in the running interpreter and once in every pyenv interpreter 3.10-3.13
found under ``$PYENV_ROOT`` (default ``~/.pyenv``). Those need neither numpy
nor pytest. The test is skipped when no other interpreter is found.
"""

import glob
import json
import os
import subprocess
import sys

import pytest

import offnadir

SRC = os.path.dirname(os.path.dirname(os.path.abspath(offnadir.__file__)))

# a small scene shaped like the `city` benchmark workload: dense L shapes
CONFIG = dict(image_w=128, image_h=128, n_images=4, buildings_per_image=[6, 8],
              shape_family="l_shape", seed=26)

CHAIN = [
    ["synth", "--config", "config.json", "--out", "gt.json"],
    ["degrade", "--in", "gt.json", "--out", "degraded.json",
     "--frac-oh", "0.4", "--frac-h", "0.3", "--seed", "5"],
    ["pbc", "--in", "gt.json", "--out", "pbc_h.json", "--level", "h"],
    ["pbc", "--in", "degraded.json", "--out", "pbc_n.json", "--level", "n"],
    ["footprint", "--in", "degraded.json", "--out", "footprints.json", "--mode", "polygon"],
    ["grade", "--in", "degraded.json", "--report", "grade.json"],
    ["validate", "--in", "footprints.json", "--report", "validate.json"],
    ["reconstruct", "--in", "footprints.json", "--out", "meshes.obj"],
]


def _other_interpreters() -> list:
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found = sorted(glob.glob(os.path.join(root, "versions", "3.1[0-3].*", "bin", "python3")))
    running = os.path.realpath(sys.executable)
    return [p for p in found if os.path.realpath(p) != running]


def _chain(python: str, work) -> dict:
    """Every command's exit status and output streams, and every file it
    wrote, by name."""
    work.mkdir()
    (work / "config.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    runs = []
    for argv in CHAIN:
        proc = subprocess.run([python, "-m", "offnadir.cli", *argv], cwd=work, env=env,
                              capture_output=True)
        runs.append((argv[0], proc.returncode, proc.stdout, proc.stderr))
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return {"runs": runs, "files": files}


def test_numpy_free_chain_writes_the_same_bytes_on_every_cpython(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other CPython 3.10-3.13 interpreter found under pyenv")
    want = _chain(sys.executable, tmp_path / "running")
    assert [code for _, code, _, _ in want["runs"]] == [0] * len(CHAIN)
    assert len(want["files"]) == len(CHAIN) + 1  # every output, and the config
    for k, python in enumerate(others):
        got = _chain(python, tmp_path / f"other-{k}")
        assert got == want, python
