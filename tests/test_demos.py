"""Smoke test: every demo script runs to completion with small flags."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cstarkit

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SMALL_FLAGS = {
    "chsh_values.py": [],
    "norm_enumeration.py": ["--budget", "100"],
    "rounding_walkthrough.py": [],
    "seesaw_walkthrough.py": ["--iters", "5"],
    "semidecision_walkthrough.py": ["--budget", "200"],
    "witness_repair.py": [],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(SMALL_FLAGS)


@pytest.mark.parametrize("name", sorted(SMALL_FLAGS))
def test_demo_runs(name):
    # the demos import the same cstarkit sources as this test session
    src = str(Path(cstarkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / name), *SMALL_FLAGS[name]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stderr
