"""In-memory spans around the package's public functions, from outside ``src/``.

:class:`Tracer` replaces each traced function at the module attribute the
program calls it through (``multibridge.pipeline.preprocess_line``,
``BpeSegmenter.segment`` and so on) with a wrapper that records a span:
name, start, end and the span that was open when it started (per thread,
because mining runs in a worker thread). Pipeline stage spans come from
the ``stage ...: start`` / ``done`` records that ``multibridge.pipeline``
already logs. Spans stay in memory; :meth:`Tracer.layer_metrics` turns
them into the per-layer metrics once the run has ended.

Function times are self times: a span's duration minus the time covered
by its traced child spans, so the layer times do not double count. The
exception is ``pipeline.preprocess_line_us``, the inclusive mean per call.
"""

from __future__ import annotations

import functools
import logging
import threading
import time
from collections import defaultdict
from pathlib import Path

STAGES = ("extract", "sample", "preprocess", "learn-bpe", "apply-bpe", "tag")


class _StageHandler(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.start: dict[str, float] = {}
        self.seconds: dict[str, float] = {}

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg == "stage %s: start":
            self.start[record.args[0]] = record.created
        elif record.msg == "stage %s: done in %.2fs":
            stage = record.args[0]
            self.seconds[stage] = record.created - self.start[stage]


class Tracer:
    def __init__(self) -> None:
        # One span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._local = threading.local()
        self._stages = _StageHandler()

    def _wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a function of the call's arguments
        that returns one. ``observe(args, kwargs, result)`` records counts.
        """
        fn = getattr(owner, attr)
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = len(spans)
            span = [name(*args, **kwargs) if callable(name) else name,
                    time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; the wrappers stay for the life of the process."""
        from multibridge import bpe, config, metrics, pipeline, rng, sampling, tokenizers

        counts, distinct = self.counts, self.distinct

        def on_index(args, kwargs, index):
            counts["mining.index_keys"] += len(index)

        def on_mine(args, kwargs, outcome):
            counts["mining.raw_pairs"] += outcome.raw_pair_count
            counts["mining.kept_pairs"] += len(outcome.corpus)
            counts["mining.capped_keys"] += len(outcome.capped_keys)

        def on_preprocess(args, kwargs, result):
            distinct["pipeline.preprocess_line"].add((args[1], args[0]))

        def on_learn(args, kwargs, model):
            counts["bpe.merges"] += len(model.merges)

        def on_segment(args, kwargs, result):
            tokens = args[1]
            counts["bpe.segment_tokens"] += len(tokens)
            distinct["bpe.segment"].update(tokens)

        self._wrap(config, "load_config", "config.load")
        self._wrap(config, "validate_config", "config.validate")
        self._wrap(pipeline, "validate_config", "config.validate")
        self._wrap(pipeline, "load_bitext", "corpus.load_bitext")
        self._wrap(pipeline, "write_bitext", "corpus.write_bitext")
        self._wrap(sampling, "write_bitext", "corpus.write_bitext")
        self._wrap(pipeline, "build_pivot_index", "mining.build_index", on_index)
        self._wrap(pipeline, "mine_pairs_detailed", "mining.mine", on_mine)
        self._wrap(pipeline, "assemble_training_set", "sampling.assemble")
        self._wrap(rng.Xoshiro256StarStar, "sample_indices", "rng.sample_indices")
        self._wrap(pipeline, "preprocess_line", "pipeline.preprocess_line", on_preprocess)
        self._wrap(pipeline, "normalize_unicode", "scripts.normalize_unicode")
        self._wrap(pipeline, "to_devanagari", "scripts.to_devanagari")
        self._wrap(pipeline, "tokenize", "tokenizers.tokenize")
        self._wrap(tokenizers, "tokenize_13a", "tokenizers.tokenize_13a")
        self._wrap(metrics, "tokenize_13a", "tokenizers.tokenize_13a")
        self._wrap(pipeline, "learn_bpe", "bpe.learn", on_learn)
        self._wrap(pipeline, "save_bpe", "bpe.save")
        self._wrap(bpe.BpeSegmenter, "segment", "bpe.segment", on_segment)
        self._wrap(pipeline, "tag", "tags.tag")
        self._wrap(metrics, "bleu", lambda hyps, refs, tokenization="13a": f"metrics.bleu_{tokenization}")
        self._wrap(metrics, "chrf2", "metrics.chrf2")
        self._wrap(metrics, "cosine_batch", "metrics.cosine")
        self._wrap(metrics, "load_embeddings", "metrics.load_embeddings")
        self._wrap(metrics, "nway_compare", "metrics.nway")

        stage_logger = logging.getLogger("multibridge.pipeline")
        stage_logger.addHandler(self._stages)
        stage_logger.setLevel(logging.INFO)

    def _per_name(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def layer_metrics(self, out_dir: Path | None) -> dict[str, float]:
        """Every per-layer metric of this run, by name (trace overhead excluded)."""
        calls, total, own = self._per_name()
        c = self.counts
        m: dict[str, float] = {}
        for stage in STAGES:
            m[f"pipeline.{stage.replace('-', '_')}_s"] = self._stages.seconds.get(stage, 0.0)
        n_pre = calls["pipeline.preprocess_line"]
        m["pipeline.preprocess_line_calls"] = n_pre
        m["pipeline.preprocess_line_us"] = 1e6 * total["pipeline.preprocess_line"] / n_pre if n_pre else 0.0
        m["pipeline.preprocess_distinct_ratio"] = (
            len(self.distinct["pipeline.preprocess_line"]) / n_pre if n_pre else 0.0
        )
        m["scripts.normalize_unicode_s"] = own["scripts.normalize_unicode"]
        m["scripts.to_devanagari_s"] = own["scripts.to_devanagari"]
        m["tokenizers.tokenize_s"] = own["tokenizers.tokenize"]
        m["tokenizers.tokenize_13a_s"] = own["tokenizers.tokenize_13a"]
        m["mining.build_index_s"] = own["mining.build_index"]
        m["mining.index_keys"] = c["mining.index_keys"]
        m["mining.mine_s"] = own["mining.mine"]
        m["mining.mine_calls"] = calls["mining.mine"]
        m["mining.raw_pairs"] = c["mining.raw_pairs"]
        m["mining.kept_ratio"] = c["mining.kept_pairs"] / c["mining.raw_pairs"] if c["mining.raw_pairs"] else 0.0
        m["mining.capped_keys"] = c["mining.capped_keys"]
        m["sampling.assemble_s"] = own["sampling.assemble"]
        m["rng.sample_indices_s"] = own["rng.sample_indices"]
        m["rng.sample_indices_calls"] = calls["rng.sample_indices"]
        m["bpe.learn_s"] = own["bpe.learn"]
        m["bpe.merges"] = c["bpe.merges"]
        m["bpe.word_types"] = _word_types(out_dir)
        m["bpe.learn_ms_per_merge"] = 1e3 * own["bpe.learn"] / c["bpe.merges"] if c["bpe.merges"] else 0.0
        m["bpe.segment_s"] = own["bpe.segment"]
        n_tok = c["bpe.segment_tokens"]
        m["bpe.segment_tokens"] = n_tok
        m["bpe.segment_distinct_ratio"] = len(self.distinct["bpe.segment"]) / n_tok if n_tok else 0.0
        m["bpe.save_s"] = own["bpe.save"]
        m["tags.tag_s"] = own["tags.tag"]
        m["tags.tag_calls"] = calls["tags.tag"]
        m["corpus.load_bitext_s"] = own["corpus.load_bitext"]
        m["corpus.write_bitext_s"] = own["corpus.write_bitext"]
        m["corpus.output_bytes"] = (
            sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) if out_dir else 0
        )
        m["metrics.bleu_13a_s"] = own["metrics.bleu_13a"]
        m["metrics.bleu_none_s"] = own["metrics.bleu_none"]
        m["metrics.chrf2_s"] = own["metrics.chrf2"]
        m["metrics.cosine_s"] = own["metrics.cosine"]
        m["metrics.load_embeddings_s"] = own["metrics.load_embeddings"]
        m["metrics.nway_s"] = own["metrics.nway"]
        m["config.load_s"] = own["config.load"]
        m["config.validate_s"] = own["config.validate"]
        return m


def _word_types(out_dir: Path | None) -> int:
    """Distinct tokens in the BPE training text.

    Mirrored directions hold the same sentences, so the token types of
    every preprocessed ``<direction>.src``/``.tgt`` file are exactly those
    ``learn_bpe`` counted.
    """
    if out_dir is None or not (out_dir / "prep").is_dir():
        return 0
    types: set[str] = set()
    for path in (out_dir / "prep").glob("*-*.*"):
        if path.suffix in (".src", ".tgt") and ".bpe." not in path.name:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    types.update(line.split())
    return len(types)
