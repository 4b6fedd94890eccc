"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` replaces module attributes of the package by
span-recording wrappers and reads stage times from the pipeline's log
records. Renaming or deleting a wrapped attribute, or rewording a stage
record, breaks the benchmark; these tests make it break tier-1 too.
"""

import json
import os
import shutil
import subprocess
import sys
import time
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
    assert metrics["tags.tag_calls"] == 12  # one per direction: the tag stage checks no payload line
    for stage in ("extract", "sample", "preprocess", "learn_bpe", "apply_bpe", "tag"):
        assert metrics[f"pipeline.{stage}_s"] > 0, stage


_EVAL_TEXT = {
    "en": ["The cat sat on the mat.", "It rained & we stayed in.", "A dog barked twice!"],
    "hi": ["बिल्ली चटाई पर बैठी।", "बारिश हुई और हम अंदर रहे।", "कुत्ता दो बार भौंका!"],
}


def _write_embeddings(path: Path, rows: list[tuple[float, float]]) -> None:
    path.write_text("2 3\n" + "".join(f"{i} {x} {y}\n" for i, (x, y) in enumerate(rows)), encoding="utf-8")


def test_tracer_reports_the_metrics_layer(tmp_path):
    """A traced ``eval-nway`` repetition over en-hi and hi-en times every metrics span."""
    directions = ("en-hi", "hi-en")
    (tmp_path / "eval.json").write_text(json.dumps({"languages": ["en", "hi"], "directions": directions}))
    (tmp_path / "eval").mkdir()
    for label in directions:
        tgt = label.split("-")[1]
        stem = tmp_path / "eval" / label
        hyps = [_EVAL_TEXT[tgt][0], _EVAL_TEXT[tgt][2], _EVAL_TEXT[tgt][1]]
        Path(f"{stem}.hyp").write_text("\n".join(hyps) + "\n", encoding="utf-8")
        Path(f"{stem}.ref").write_text("\n".join(_EVAL_TEXT[tgt]) + "\n", encoding="utf-8")
        _write_embeddings(Path(f"{stem}.hyp.emb"), [(1.0, 0.0), (0.5, 0.5), (0.0, 2.0)])
        _write_embeddings(Path(f"{stem}.ref.emb"), [(1.0, 0.1), (0.5, 0.4), (0.3, 2.0)])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--kind", "eval", "--work", str(tmp_path),
               "--spawned", str(time.monotonic()), "--trace", "1"]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)["layers"]
    for name in ("metrics.bleu_13a_s", "metrics.bleu_none_s", "metrics.chrf2_s", "tokenizers.tokenize_13a_s",
                 "metrics.cosine_s", "metrics.load_embeddings_s", "metrics.nway_s"):
        assert metrics[name] > 0, name
