"""Smoke tests: the scripts under scripts/ run with their defaults, and
the README's command line and library examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _readme_commands():
    # every `frachh ...` line of the code block under "## Command line"
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("frachh ")]


def _readme_library_example():
    # the python block under "## Library"
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("script", ["tightness_sweep.py",
                                    "width_scaling_demo.py"])
def test_script_runs_with_defaults(script):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 3


@pytest.mark.parametrize("command", _readme_commands(), ids=lambda command:
                         "-".join(command.split()[1:4:2]))
def test_readme_command_runs(command, tmp_path):
    # in tmp_path, since an example may write a file (--out corpus.csv)
    argv = shlex.split(command)[1:]
    proc = subprocess.run([sys.executable, "-m", "frachh", *argv],
                          capture_output=True, text=True, env=_env(),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _readme_library_example()],
                          capture_output=True, text=True, env=_env(),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
