"""Each demo script runs and prints exactly the output it printed when its
hash was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_graphs_and_cycles.py":
        "052070df59151a917b61589cfaf5d8bf7dec60083e92a5c76a764ef751b82e51",
    "02_orientations_and_circuits.py":
        "b2c8b643ff7cfcb1f6021b3c23dc07c98f197be56c485f0bea3c92d78ee3cdfc",
    "03_fan_geometry.py":
        "96a788611cc426a427491f43e7731286ad0028ebe5e161304f990419b82be3df",
    "04_hilbert_bases_and_multiplicity.py":
        "d375df34b2510cf5f39db8def5a9dcc54289a526e893be2fdb27e9861f0ac235",
    "05_ring_invariants.py":
        "ac40a8ce0953b78a555fddc3e5e5ca2f7c49b8742a4194fb74615850b67de434",
    "06_ring_equivalence.py":
        "233dffdb01e8978ded281d493ae38d08586f833412664f61fa1930c541b9c597",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_stdout(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                            capture_output=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[script]
