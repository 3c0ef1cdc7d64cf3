"""Commands that need no arrays run without importing numpy.

Each case runs in a fresh interpreter, where ``numpy`` must stay out of
``sys.modules``, and again in this process, where numpy is loaded; both
must print and write the same bytes.
"""

import json
import os
import subprocess
import sys

import numpy  # noqa: F401  (loaded in this process, for the in-process runs)
import pytest

import offnadir
from offnadir.cli import run
from offnadir.dataset import save_dataset
from offnadir.synth import SynthConfig, generate_scenes
from test_cli import NO_FOOTPRINT

SRC = os.path.dirname(os.path.dirname(os.path.abspath(offnadir.__file__)))

# run(argv) in a fresh interpreter; importing numpy turns into a failure
COLD = """
import sys
from offnadir.cli import run
code = run(sys.argv[1:])
sys.exit("numpy was imported" if "numpy" in sys.modules else code)
"""

COMMANDS = {
    "help": ["--help"],
    "version": ["--version"],
    "synth": ["synth", "--config", "config.json", "--out", "synth.json"],
    "degrade": ["degrade", "--in", "gt.json", "--out", "degraded.json",
                "--frac-oh", "0.4", "--frac-h", "0.3", "--seed", "5"],
    "loss": ["loss", "--components", "components.json", "--report", "loss.json"],
    "grade": ["grade", "--in", "gt.json", "--report", "grade.json"],
    "validate": ["validate", "--in", "gt.json", "--report", "validate.json"],
    "pbc": ["pbc", "--in", "gt.json", "--out", "pbc_h.json", "--level", "h"],
    "footprint": ["footprint", "--in", "gt.json", "--out", "footprints.json",
                  "--mode", "polygon"],
    "reconstruct": ["reconstruct", "--in", "gt.json", "--out", "meshes.obj"],
}

LOSS_COMPONENTS = [
    {"level": "N", "l_f": 0.5},
    {"level": "OH", "l_f": 0.3, "l_h": 0.05, "l_ona": 0.01, "l_ova": 0.02, "l_rp": 0.1,
     "l_rc": 0.2, "l_mh": 0.15, "l_o": 0.05},
]


def _environment() -> dict:
    env = dict(os.environ, COLUMNS="80")  # the width --help wraps to
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def _inputs(work) -> None:
    work.mkdir()
    config = dict(image_w=64, image_h=64, n_images=3, buildings_per_image=[1, 3], seed=3)
    save_dataset(generate_scenes(SynthConfig(**config)), work / "gt.json")
    (work / "config.json").write_text(json.dumps({**config, "shape_family": "l_shape"}))
    (work / "components.json").write_text(json.dumps(LOSS_COMPONENTS))


def _files(work) -> dict:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    code = "import sys, offnadir, offnadir.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_environment(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_runs_without_numpy_and_writes_the_same_bytes(tmp_path, monkeypatch, capsys,
                                                              name):
    argv = COMMANDS[name]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    _inputs(cold)
    _inputs(warm)
    proc = subprocess.run([sys.executable, "-c", COLD, *argv], cwd=cold, env=_environment(),
                          capture_output=True, text=True)
    assert "numpy was imported" not in proc.stderr
    assert "numpy" in sys.modules
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(warm)
    code = run(argv)
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == 0
    assert _files(cold) == _files(warm)
    assert len(_files(cold)) > 2 or name in ("help", "version")


@pytest.mark.parametrize("command", ["grade", "degrade"])
def test_a_missing_footprint_is_located_without_numpy(tmp_path, command):
    (tmp_path / "in.json").write_text(json.dumps(NO_FOOTPRINT))
    argv = {"grade": ["grade", "--in", "in.json"],
            "degrade": ["degrade", "--in", "in.json", "--out", "out.json",
                        "--frac-oh", "0.5", "--frac-h", "0.2"]}[command]
    proc = subprocess.run([sys.executable, "-c", COLD, *argv], cwd=tmp_path, env=_environment(),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: image 'a', instance 1: instance missing footprint\n")
