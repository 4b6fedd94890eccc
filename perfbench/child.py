"""One repetition of a workload, in a fresh interpreter.

A batch user pays interpreter start-up, the package import and every
lazily built table on each run, so each repetition starts from scratch.
Prints one JSON object: set-up time (from the moment the parent spawned
this process until the workload is ready to run, less the calibration),
wall and CPU time of the timed work, work units done, peak resident
memory, the calibration time measured before the package is imported,
and with ``--trace 1`` the per-layer metrics of :mod:`tracing`.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

_CAL_WORDS = [f"w{i}q" * (1 + i % 3) for i in range(4000)]
_CAL_RE = re.compile(r"([a-z])(\d)")


def calibrate() -> dict[str, float]:
    """Wall and CPU seconds of a fixed pure-Python loop (dict, regex, sort).

    It uses only the standard library and runs with the garbage collector
    off, in a process that has not imported the package: first in the
    child before the import, then in ``run.py`` once the child has exited.
    So neither package code nor the heap it leaves can alter its cost. On
    a shared host its time tracks how fast the CPU is running right now.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        counts: Counter = Counter()
        out = []
        for i in range(25000):
            word = _CAL_WORDS[(i * 7919) % 4000]
            counts[word] += 1
            out.append(_CAL_RE.sub(r"\1 \2", word))
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        " ".join(out).split()
        return {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
    finally:
        if enabled:
            gc.enable()


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def run_pipeline_workload(work: Path, spawned: float, tracer) -> dict:
    import multibridge  # noqa: F401  (set-up cost: the package import)
    from multibridge import config, pipeline

    if tracer is not None:
        tracer.install()
    cfg = config.load_config(work / "config.json")
    config.validate_config(cfg)
    setup = time.monotonic() - spawned

    wall0, cpu0 = time.perf_counter(), time.process_time()
    report = pipeline.run_pipeline(cfg)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "setup_s": setup, "wall_s": wall, "cpu_s": cpu, "units": report.manifest.total_pairs(),
    }


def run_eval_workload(work: Path, spawned: float, tracer) -> dict:
    import multibridge  # noqa: F401
    from multibridge import metrics
    from multibridge.corpus import TranslationDirection

    if tracer is not None:
        tracer.install()
    spec = json.loads((work / "eval.json").read_text(encoding="utf-8"))
    setup = time.monotonic() - spawned

    wall0, cpu0 = time.perf_counter(), time.process_time()
    scores: dict[str, list[float]] = {}
    reports = []
    segments = 0
    for label in spec["directions"]:
        src, tgt = label.split("-")
        stem = work / "eval" / label
        hyps = _lines(Path(f"{stem}.hyp"))
        refs = _lines(Path(f"{stem}.ref"))
        bleu_13a = metrics.bleu(hyps, refs, "13a")
        bleu_none = metrics.bleu(hyps, refs, "none")
        chrf = metrics.chrf2(hyps, refs)
        cosine = metrics.cosine_batch(
            metrics.load_embeddings(f"{stem}.hyp.emb"), metrics.load_embeddings(f"{stem}.ref.emb")
        )
        # English output is scored on raw text; Indic output as already
        # tokenized text, the paper's protocol.
        bleu = bleu_13a if tgt == "en" else bleu_none
        reports.append(metrics.EvalReport(TranslationDirection(src, tgt), (bleu, chrf, cosine), len(hyps)))
        scores[label] = [bleu_13a.value, bleu_none.value, chrf.value, cosine.value]
        segments += len(hyps)
    tables = {
        average: metrics.nway_compare(reports, spec["languages"], "en", average).to_tsv()
        for average in ("macro", "micro")
    }
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "setup_s": setup, "wall_s": wall, "cpu_s": cpu, "units": segments,
        "scores": scores, "tables": tables,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("pipeline", "eval"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cal_start = time.monotonic()
    calibration = calibrate()
    cal_spent = time.monotonic() - cal_start
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    run = run_pipeline_workload if args.kind == "pipeline" else run_eval_workload
    # Set-up time leaves the calibration out.
    result = run(args.work, args.spawned + cal_spent, tracer)
    result["calibration"] = [calibration]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out_dir = args.work / "out" if args.kind == "pipeline" else None
        result["layers"] = tracer.layer_metrics(out_dir)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
