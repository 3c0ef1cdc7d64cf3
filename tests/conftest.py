import math
import os
import pathlib
import shutil
import tempfile

import pytest

from offnadir.synth import SynthConfig, generate_scenes


@pytest.fixture(scope="session")
def int_scene_dataset():
    """Integer-offset scenes: offsets are exact integer vectors."""
    cfg = SynthConfig(
        image_w=160,
        image_h=160,
        n_images=6,
        buildings_per_image=(2, 6),
        height_range=(3.0, 30.0),
        tan_theta_range=(0.2, 1.0),
        phi_range=(0.0, 2.0 * math.pi),
        scale_s=1.0,
        shape_family="l_shape",
        integer_offsets=True,
        seed=20240311,
    )
    return generate_scenes(cfg)


@pytest.fixture(scope="session")
def float_scene_dataset():
    """Continuous-offset scenes: offsets follow the pose to float precision."""
    cfg = SynthConfig(
        image_w=192,
        image_h=160,
        n_images=5,
        buildings_per_image=(2, 5),
        height_range=(2.0, 18.0),
        tan_theta_range=(0.1, 1.1),
        phi_range=(0.0, 2.0 * math.pi),
        scale_s=1.4,
        shape_family="axis_rect",
        integer_offsets=False,
        seed=424242,
    )
    return generate_scenes(cfg)


@pytest.fixture(scope="module")
def module_dir(tmp_path_factory, request):
    """A directory for one module's tests, on tmpfs where /dev/shm is a
    writable directory: overwriting a file there costs no disk I/O, so tests
    that rewrite one file per example stay fast. Removed at teardown."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK | os.X_OK):
        path = tempfile.mkdtemp(prefix="offnadir-tests-", dir=shm)
    else:
        path = tmp_path_factory.mktemp(request.module.__name__.rpartition(".")[2])
    try:
        yield pathlib.Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
