"""Smoke runs of every demo, from ObservationWindow to the power studies."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_spanning_windows.py",
        "02_null_distributions.py",
        "03_threshold_calibration.py",  # the only demo that sets base_mean and base_scale
        "04_online_detection.py",
        "05_power_bounds.py",
        "06_detection_power_study.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
