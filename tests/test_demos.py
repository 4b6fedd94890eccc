"""Every demo script and the README's library quick start run to completion against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos/*.py found"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    _run(str(demo))


def test_readme_library_quick_start_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert _run("-c", snippet).stdout.splitlines()[0] == "1"
