"""Smoke test: each narrative demo runs standalone and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ebloch

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SMOKE = ["01_jump_algebra.py", "02_two_level_kernels.py",
         "03_oscillator_fixed_points.py", "04_canonical_invariance.py",
         "05_kernel_benchmark.py"]


@pytest.mark.parametrize("name", SMOKE)
def test_demo_runs_standalone(name, tmp_path):
    src = str(Path(ebloch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
