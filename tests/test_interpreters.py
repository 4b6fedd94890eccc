"""The fixture run writes the golden tree under every interpreter on the host.

Interpreters come from ``MULTIBRIDGE_PYTHONS`` (paths separated by
``os.pathsep``), or else from ``$PYENV_ROOT/versions/3.*/bin/python``
(``PYENV_ROOT`` defaults to ``~/.pyenv``), keeping the versions that
``requires-python`` in ``pyproject.toml`` admits. The versioned binaries are
run directly: pyenv's shims refuse a version that is not selected. Each
interpreter runs ``python -m multibridge.cli run`` on a copy of the fixture,
whose config keeps the legacy stage-directory keys. The tree must hold the
golden bytes and the hard-link groups of the in-process run. The metrics
layer needs numpy, which these interpreters may lack, so it stays out.

Each interpreter also runs ``nukta_contract.py``: under its own Unicode
database, the nukta tables must equal the derived composition-excluded
letters, and the sequences NFC composes must still normalize to their letters.
"""

import json
import os
import re
import shutil
import subprocess
from collections import defaultdict
from pathlib import Path

import pytest

from multibridge.config import load_config
from multibridge.pipeline import run_pipeline
from multibridge.scripts import DEFAULT_CANONICALIZATIONS

from nukta_contract import LANGS, NFC_COMPOSED

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "pipeline_fixture"
GOLDEN = ROOT / "tests" / "data" / "pipeline_golden" / "out"


def _version(name: str) -> tuple[int, int] | None:
    match = re.match(r"(\d+)\.(\d+)", name)
    return (int(match[1]), int(match[2])) if match else None


def _interpreters() -> list:
    """Each interpreter as a ``pytest.param``, or one skipped param when there is none."""
    listed = os.environ.get("MULTIBRIDGE_PYTHONS")
    if listed:
        return [pytest.param(Path(path), id=path) for path in listed.split(os.pathsep) if path]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minimum = _version(re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)[1])
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = sorted((_version(python.parents[1].name), python) for python in root.glob("versions/3.*/bin/python"))
    return [pytest.param(python, id=python.parents[1].name) for version, python in found
            if version and version >= minimum] or [
        pytest.param(None, marks=pytest.mark.skip(reason=f"no interpreter in MULTIBRIDGE_PYTHONS or {root}/versions"))
    ]


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _link_groups(root: Path) -> list[list[str]]:
    groups = defaultdict(list)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            groups[p.stat().st_ino].append(str(p.relative_to(root)))
    return sorted(groups.values())


@pytest.fixture(scope="module")
def in_process_groups(tmp_path_factory):
    work = tmp_path_factory.mktemp("in_process") / "run"
    shutil.copytree(FIXTURE, work)
    run_pipeline(load_config(work / "config.json"))
    return _link_groups(work / "out")


@pytest.mark.parametrize("python", _interpreters())
def test_fixture_run_matches_golden_tree(tmp_path, in_process_groups, python):
    work = tmp_path / "run"
    shutil.copytree(FIXTURE, work)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([str(python), "-m", "multibridge.cli", "run", "--config", str(work / "config.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _tree(work / "out") == _tree(GOLDEN)
    assert _link_groups(work / "out") == in_process_groups


@pytest.mark.parametrize("python", _interpreters())
def test_nukta_contract_holds(python):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([str(python), str(ROOT / "tests" / "nukta_contract.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["derived"] == DEFAULT_CANONICALIZATIONS
    assert found["composed"] == {code: list(NFC_COMPOSED.values()) for code in LANGS}
