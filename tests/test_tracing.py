"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` replaces module attributes of the package by
span-recording wrappers and reads stage times from the pipeline's log
records. Renaming or deleting a wrapped attribute, or rewording a stage
record, breaks the benchmark; this test makes it break tier-1 too.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "data" / "pipeline_fixture"

_RUN_TRACED = """
import json, sys
from pathlib import Path
from tracing import Tracer
from multibridge import config, pipeline

tracer = Tracer()
tracer.install()
work = Path(sys.argv[1])
pipeline.run_pipeline(config.load_config(work / "config.json"))
print(json.dumps(tracer.layer_metrics(work / "out")))
"""


def test_tracer_reports_the_fixture_run(tmp_path):
    work = tmp_path / "run"
    shutil.copytree(FIXTURE, work)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", _RUN_TRACED, str(work)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["mining.mine_calls"] == 3  # bn-hi, bn-ta, hi-ta
    for stage in ("extract", "sample", "preprocess", "learn_bpe", "apply_bpe", "tag"):
        assert metrics[f"pipeline.{stage}_s"] > 0, stage
