"""The benchmark's recorded output digests still hold, checked in process.

``perfbench/run.py`` fails every operation of a repetition whose output
digest differs from ``perfbench/expected.json``. These tests compute the
same digests on the self-check (``tiny``) inputs with the benchmark's own
input writer, workload runner and digest functions, so a changed score
bit or output byte fails tier-1 too. They only read ``perfbench/``.
"""

import importlib
import json
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads``, ``child`` and ``run`` modules, importable as ``run.py`` imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return tuple(importlib.import_module(name) for name in ("workloads", "child", "run"))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_eval_nway_scores_match_recorded_digest(tmp_path, bench, seed):
    workloads, child, run = bench
    workloads.write_inputs("eval-nway", "tiny", tmp_path, seed)
    result = child.run_eval_workload(tmp_path, time.monotonic(), None)
    assert run.eval_digest(result) == EXPECTED["eval-nway"]["tiny"][str(seed)]


@pytest.mark.parametrize("workload", ["indic10", "bpe-heavy"])
def test_pipeline_tree_matches_recorded_digest(tmp_path, bench, workload):
    workloads, child, run = bench
    workloads.write_inputs(workload, "tiny", tmp_path, 0)
    child.run_pipeline_workload(tmp_path, time.monotonic(), None)
    assert run.tree_digest(tmp_path / "out") == EXPECTED[workload]["tiny"]["0"]
