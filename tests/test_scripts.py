"""Smoke tests: the scripts under scripts/ run with their defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["tightness_sweep.py",
                                    "width_scaling_demo.py"])
def test_script_runs_with_defaults(script):
    env = dict(os.environ)
    env.pop("FRACHH_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
