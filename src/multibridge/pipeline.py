"""End-to-end orchestration: extract (which writes ``stats.tsv`` too), sample, preprocess, BPE, tag.

Each stage writes only into a directory it makes new; :func:`run_pipeline`
first deletes the ``mined/``, ``sampled/`` and ``prep/`` of an earlier
run, and locks ``out_dir`` from before that reset until its report is
written, so a second run on the same root is refused. The CLI's
``extract`` and ``sample`` subcommands run the same stage code as
:func:`run_pipeline`, so ``mined/`` and ``sampled/`` can be built stage
by stage with the bytes of a full run. The later stages run from
memory and cannot be resumed through the CLI. With a fixed seed the whole
output tree is byte-identical across runs and platforms: all stage outputs
are sorted, counts are integers, and every random draw goes through the
pinned generator. The one known exception is NFC, which uses the
interpreter's Unicode database: Python 3.10's Unicode 13.0 lacks the
Telugu nukta U+0C3C, so its ``prep/`` bytes for Telugu text holding it
differ from those of 3.11 and later.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping

from .bpe import BpeSegmenter, learn_bpe, save_bpe
from .config import PipelineConfig, raw_paths, validate_config
from .corpus import (BitextCorpus, TrainingManifest, clear_dirs, load_bitext, lock_dir, new_dir, write_bitext,
                     write_lines, write_once, write_text)
from .errors import MultibridgeError
from .languages import PIVOT, REGISTRY, get_language
from .mining import MiningError, StatsMatrix, build_pivot_index, extraction_stats, mine_pairs_detailed
from .sampling import assemble_training_set
from .scripts import normalize_unicode, to_devanagari
from .tags import tag
from .tokenizers import tokenize

logger = logging.getLogger(__name__)


class PipelineStageError(MultibridgeError):
    """A stage failed; carries the stage name plus the underlying cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunReport:
    stages: dict[str, dict]
    manifest: TrainingManifest
    stats: StatsMatrix


@contextmanager
def _stage(name: str):
    """Log the stage's start and duration; a data or I/O error leaves as a :class:`PipelineStageError`."""
    t0 = time.monotonic()
    logger.info("stage %s: start", name)
    try:
        yield
    except BaseException as exc:
        logger.error("stage %s: failed after %.2fs: %s", name, time.monotonic() - t0, exc)
        if isinstance(exc, (MultibridgeError, OSError)):
            raise PipelineStageError(name, exc) from exc
        raise  # a bug or an interrupt is not bad data
    logger.info("stage %s: done in %.2fs", name, time.monotonic() - t0)


def preprocess_line(text: str, lang: str) -> list[str]:
    """Normalize, script-unify, and tokenize one sentence."""
    text = normalize_unicode(text, lang)
    if get_language(lang).is_indic:
        text = to_devanagari(text, lang)
    return tokenize(text, lang)


def raw_languages(raw_dir: Path) -> list[str]:
    """Registered non-pivot languages with an ``en-xx.en`` file in ``raw_dir``, in code order."""
    languages = []
    for code in sorted(REGISTRY.keys() - {PIVOT}):
        en_path, x_path = raw_paths(raw_dir, code)
        if en_path.is_file():
            if not x_path.is_file():
                raise MultibridgeError(f"missing counterpart file for {en_path}")
            languages.append(code)
    if not languages:
        raise MultibridgeError(f"no {PIVOT}-xx corpora found in {raw_dir}")
    return languages


def load_english(raw_dir: Path, languages: Iterable[str]) -> dict[str, BitextCorpus]:
    """The English-centric corpus of each language, keyed by code in code order."""
    return {lang: load_bitext(*raw_paths(raw_dir, lang), PIVOT, lang) for lang in sorted(languages)}


def mined_paths(mined_dir: Path, a: str, b: str) -> tuple[Path, Path]:
    """The two files of the mined ``a-b`` corpus: ``a-b.a`` and ``a-b.b``."""
    return mined_dir / f"{a}-{b}.{a}", mined_dir / f"{a}-{b}.{b}"


def load_mined(mined_dir: Path, languages: Iterable[str]) -> dict[tuple[str, str], BitextCorpus]:
    """The mined pairs among ``languages``; other files in ``mined_dir`` are ignored."""
    mined = {}
    for a, b in combinations(sorted(languages), 2):
        a_file, b_file = mined_paths(mined_dir, a, b)
        if a_file.exists() and b_file.exists():
            mined[(a, b)] = load_bitext(a_file, b_file, a, b)
        elif a_file.exists() or b_file.exists():
            raise MultibridgeError(f"mined pair {a}-{b} in {mined_dir} has only one of its two files")
    if not mined:
        raise MultibridgeError(f"no mined corpora found in {mined_dir}")
    return mined


def extract(english: Mapping[str, BitextCorpus], pairs: Iterable[tuple[str, str]], xprod_cap: int,
            mined_dir: Path) -> tuple[dict[tuple[str, str], BitextCorpus], StatsMatrix, dict]:
    """Mine each pair into the new directory ``mined_dir``, with ``stats.tsv``; returns corpora, table and record."""
    pairs = sorted(pairs)
    if repeated := [f"{a}-{b}" for (a, b), n in Counter(pairs).items() if n > 1]:
        raise MiningError(f"duplicate pairs in extract pair list: {', '.join(repeated)}")
    if unloaded := sorted({lang for pair in pairs for lang in pair} - english.keys()):
        raise MultibridgeError(f"no {PIVOT}-xx corpus loaded for {', '.join(unloaded)}")
    if xprod_cap < 0:  # checked before lock_dir, so a bad cap makes no directory
        raise MiningError(f"cross-product cap must be non-negative, not {xprod_cap}")
    with lock_dir(mined_dir):
        new_dir(mined_dir)  # checked under the lock, so no other extract can be writing here
        index = build_pivot_index(english.values())
        outcomes = {(a, b): mine_pairs_detailed(index, a, b, xprod_cap) for a, b in pairs}
        for (a, b), outcome in outcomes.items():
            write_bitext(outcome.corpus, *mined_paths(mined_dir, a, b))
            logger.info("mined %s-%s: %d pairs (%d raw, %d capped keys)",
                        a, b, len(outcome.corpus), outcome.raw_pair_count, len(outcome.capped_keys))
        mined = {pair: outcome.corpus for pair, outcome in outcomes.items()}
        raw_counts = {pair: outcome.raw_pair_count for pair, outcome in outcomes.items()}
        stats = replace(extraction_stats(english.values(), mined), raw_pair_counts=raw_counts or None)
        write_text(mined_dir / "stats.tsv", stats.to_tsv())
    return mined, stats, {
        "pivot_keys": len(index),
        "mined_pairs": {f"{a}-{b}": len(corpus) for (a, b), corpus in mined.items()},
        "raw_pairs": {f"{a}-{b}": count for (a, b), count in raw_counts.items()},
        "capped_keys": sum(len(o.capped_keys) for o in outcomes.values()),
    }


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Run every stage, holding ``out_dir``'s lock after validation; any failure aborts with the stage name attached."""
    with _stage("validate"):
        validate_config(config)
    with lock_dir(config.out_dir):
        return _run_stages(config)


def _run_stages(config: PipelineConfig) -> RunReport:
    stages: dict[str, dict] = {}

    with _stage("extract"):
        english = load_english(config.raw_dir, config.languages)
        clear_dirs(config.stage_dirs)  # prep/ first, so a reset that fails part-way leaves no run_report.json
        mined, stats, stages["extract"] = extract(english, combinations(english, 2), config.xprod_cap,
                                                  config.mined_dir)
        stages["stats"] = {"grand_total": stats.grand_total(), "unique_pairs": stats.unique_unordered_total()}

    with _stage("sample"):
        manifest, columns = assemble_training_set(english.values(), mined, config.sampling, config.sampled_dir)
        stages["sample"] = {"strategy": config.sampling.strategy.name, "entries": len(manifest.entries),
                            "total_pairs": manifest.total_pairs()}
        # Only the sampled columns are read below; dropping the rest makes
        # room for the caches, so peak memory stays where sampling left it.
        del english, mined

    # Column (L, O) is L-O's source and O-L's target: each stage processes it
    # once and writes it once, as L-O, with its O-L names as hard links. Texts
    # also repeat across columns (mined pairs reuse English-centric sentences),
    # so each cache runs a step once per distinct input. Each stage's lines
    # replace the last stage's, and each cache goes when its stage ends.
    prep_dir, final_dir = config.prep_dir, config.final_dir

    with _stage("preprocess"):
        new_dir(prep_dir)
        prep = cache(lambda lang, text: " ".join(preprocess_line(text, lang)))
        columns = [(lang, other, [prep(lang, text) for text in texts]) for lang, other, texts in columns]
        for lang, other, lines in columns:
            write_once(lines, prep_dir / f"{lang}-{other}.src", prep_dir / f"{other}-{lang}.tgt")
        stages["preprocess"] = {"files": 2 * len(columns)}
        del prep

    with _stage("learn-bpe"):
        # Each column is counted once: counting a mirror direction too would
        # just double every frequency and shift the vocabulary threshold.
        training_lines = Counter(line for _, _, lines in columns for line in lines)
        model = learn_bpe(training_lines, config.bpe_num_merges, config.bpe_min_frequency)
        save_bpe(model, prep_dir / "bpe.codes", prep_dir / "bpe.vocab")
        stages["learn-bpe"] = {"merges": len(model.merges), "vocab": len(model.vocab)}

    with _stage("apply-bpe"):
        segmenter = BpeSegmenter(model)
        segment = cache(lambda line: " ".join(segmenter.segment(line.split())))
        columns = [(lang, other, [segment(line) for line in lines]) for lang, other, lines in columns]
        # final/O-L.tgt is O-L.bpe.tgt as is, so it is one more name of the column.
        new_dir(final_dir)
        for lang, other, lines in columns:
            write_once(lines, prep_dir / f"{lang}-{other}.bpe.src", prep_dir / f"{other}-{lang}.bpe.tgt",
                       final_dir / f"{other}-{lang}.tgt")
        stages["apply-bpe"] = {"files": 2 * len(columns)}
        del segment

    with _stage("tag"):
        for lang, other, lines in columns:
            # No payload token can be a tag: both tokenizers split every "_" off.
            head = " ".join(tag((), lang, other))
            write_lines(final_dir / f"{lang}-{other}.src", (f"{head} {line}" if line else head for line in lines))
        stages["tag"] = {"directions": len(columns)}

    record = {"seed": config.sampling.seed, "stages": stages}  # written last: it marks a complete run
    write_text(prep_dir / "run_report.json", json.dumps(record, indent=2, sort_keys=True) + "\n", atomic=True)
    return RunReport(stages, manifest, stats)

