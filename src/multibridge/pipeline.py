"""End-to-end orchestration: extract, stats, sample, preprocess, BPE, tag.

The CLI's ``extract`` (which also writes ``stats.tsv``) and ``sample``
subcommands run the same stage code as :func:`run_pipeline`, so
``mined/`` and ``sampled/`` can be built stage by stage with the bytes of
a full run; ``stats`` recomputes the table from disk, without the
raw-pair section. The later stages run from memory and cannot be resumed
through the CLI. With a fixed seed the whole output tree is
byte-identical across runs and platforms: all stage outputs are sorted,
counts are integers, and every random draw goes through the pinned
generator.
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
from .corpus import BitextCorpus, TrainingManifest, load_bitext, write_bitext, write_lines, write_once, write_text
from .errors import MultibridgeError
from .languages import PIVOT, REGISTRY, get_language
from .mining import MiningOutcome, StatsMatrix, build_pivot_index, extraction_stats, mine_pairs_detailed
from .sampling import assemble_training_set
from .scripts import normalize_unicode, to_devanagari
from .tags import src_tag, tag, tgt_tag
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


def extract(english: Mapping[str, BitextCorpus], pairs: Iterable[tuple[str, str]], xprod_cap: int | None,
            mined_dir: Path) -> tuple[dict[tuple[str, str], MiningOutcome], dict]:
    """Mine each canonical pair and write it to ``mined_dir``; returns the outcomes and the stage's record."""
    pairs = sorted(set(pairs))
    unloaded = sorted({lang for pair in pairs for lang in pair} - english.keys())
    if unloaded:
        raise MultibridgeError(f"no {PIVOT}-xx corpus loaded for {', '.join(unloaded)}")
    index = build_pivot_index(english.values())
    mined = {(a, b): mine_pairs_detailed(index, a, b, xprod_cap) for a, b in pairs}
    mined_dir.mkdir(parents=True, exist_ok=True)
    for (a, b), outcome in mined.items():
        write_bitext(outcome.corpus, *mined_paths(mined_dir, a, b))
        logger.info("mined %s-%s: %d pairs (%d raw, %d capped keys)",
                    a, b, len(outcome.corpus), outcome.raw_pair_count, len(outcome.capped_keys))
    return mined, {
        "pivot_keys": len(index),
        "mined_pairs": {f"{a}-{b}": len(o.corpus) for (a, b), o in mined.items()},
        "raw_pairs": {f"{a}-{b}": o.raw_pair_count for (a, b), o in mined.items()},
        "capped_keys": sum(len(o.capped_keys) for o in mined.values()),
    }


def write_stats(english: Mapping[str, BitextCorpus], mined: Mapping[tuple[str, str], MiningOutcome],
                mined_dir: Path) -> StatsMatrix:
    """Write ``stats.tsv`` next to the mined corpora, with the raw (pre-dedup) pair counts after the table."""
    corpora = {pair: outcome.corpus for pair, outcome in mined.items()}
    raw_counts = {pair: outcome.raw_pair_count for pair, outcome in mined.items()}
    stats = replace(extraction_stats(english.values(), corpora), raw_pair_counts=raw_counts or None)
    write_text(mined_dir / "stats.tsv", stats.to_tsv())
    return stats


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Run every stage; any failure aborts with the stage name attached."""
    stages: dict[str, dict] = {}

    with _stage("validate"):
        validate_config(config)

    with _stage("extract"):
        english = load_english(config.raw_dir, config.languages)
        mined, stages["extract"] = extract(english, combinations(english, 2), config.xprod_cap, config.mined_dir)

    with _stage("stats"):
        stats = write_stats(english, mined, config.mined_dir)
        stages["stats"] = {"grand_total": stats.grand_total(), "unique_pairs": stats.unique_unordered_total()}

    with _stage("sample"):
        mined_corpora = {pair: outcome.corpus for pair, outcome in mined.items()}
        manifest, corpora = assemble_training_set(
            english.values(), mined_corpora, config.sampling, config.sampled_dir
        )
        stages["sample"] = {
            "strategy": config.sampling.strategy.name,
            "entries": len(manifest.entries),
            "total_pairs": manifest.total_pairs(),
        }
        # Only the sampled corpora are read below; dropping the rest makes
        # room for the caches, so peak memory stays where sampling left it.
        del english, mined, mined_corpora

    # Mirrored directions (a-b and b-a), en-X and X-en, and mined pairs that
    # reuse a pivot-linked sentence all carry the same text, so from here on
    # each step runs once per distinct input and every file is written from
    # memory. Each cache holds distinct lines only and is dropped as soon as
    # no later stage reads it. A mirror direction shares its text columns
    # (BitextCorpus.swapped), so it also shares the line lists built from
    # them, and each list is written once: its other paths are hard links.

    with _stage("preprocess"):
        config.preprocessed_dir.mkdir(parents=True, exist_ok=True)
        prep = cache(lambda lang, text: " ".join(preprocess_line(text, lang)))
        columns: dict[tuple[str, int], list[str]] = {}  # (lang, id of a text column) -> its lines
        prep_lines: dict[tuple[str, str], list[str]] = {}
        for entry, corpus in zip(manifest.entries, corpora):
            for side, lang, texts in (("src", entry.direction.src, corpus.src_texts),
                                      ("tgt", entry.direction.tgt, corpus.tgt_texts)):
                if (lang, id(texts)) not in columns:
                    columns[lang, id(texts)] = [prep(lang, text) for text in texts]
                prep_lines[entry.path, side] = columns[lang, id(texts)]
        write_once((config.preprocessed_dir / f"{path}.{side}", lines) for (path, side), lines in prep_lines.items())
        stages["preprocess"] = {"files": len(prep_lines)}
        del prep, columns, corpora

    with _stage("learn-bpe"):
        # Each unordered corpus family contributes once (a-b and b-a mirror
        # each other, so counting both would just double every frequency and
        # shift the vocabulary threshold). Mined pairs reuse the sentences
        # of the English-centric corpora, so lines repeat and are counted
        # once each.
        training_lines = Counter(line for entry in manifest.entries if entry.direction.src < entry.direction.tgt
                                 for side in ("src", "tgt") for line in prep_lines[entry.path, side])
        model = learn_bpe(training_lines, config.bpe_num_merges, config.bpe_min_frequency)
        save_bpe(model, config.preprocessed_dir / "bpe.codes", config.preprocessed_dir / "bpe.vocab")
        stages["learn-bpe"] = {"merges": len(model.merges), "vocab": len(model.vocab or ())}

    with _stage("apply-bpe"):
        segmenter = BpeSegmenter(model)
        segment = cache(lambda line: " ".join(segmenter.segment(line.split())))
        segmented: dict[int, list[str]] = {}  # id of a preprocessed list -> its segmented lines
        bpe_lines: dict[tuple[str, str], list[str]] = {}
        for key, lines in prep_lines.items():
            if id(lines) not in segmented:
                segmented[id(lines)] = [segment(line) for line in lines]
            bpe_lines[key] = segmented[id(lines)]
        # final/X.tgt is X.bpe.tgt as is, so it is one more name of that list:
        # linking it here lets a rerun overwrite each list's file in place.
        final_dir = config.preprocessed_dir / "final"
        final_dir.mkdir(exist_ok=True)
        write_once([*((config.preprocessed_dir / f"{path}.bpe.{side}", lines)
                      for (path, side), lines in bpe_lines.items()),
                    *((final_dir / f"{entry.path}.tgt", bpe_lines[entry.path, "tgt"]) for entry in manifest.entries)])
        stages["apply-bpe"] = {"files": len(bpe_lines)}
        del segment, segmented, prep_lines

    with _stage("tag"):
        checked: set[str] = set()
        for entry in manifest.entries:
            src, tgt = entry.direction.src, entry.direction.tgt
            head = f"{src_tag(src)} {tgt_tag(tgt)}"
            src_lines = bpe_lines[entry.path, "src"]
            for line in src_lines:
                if line not in checked:  # tag() rejects reserved tokens in the payload
                    tag(line.split(), src, tgt)
                    checked.add(line)
            # The two tags, then the payload if there is one: tag()'s output, joined.
            tagged = (f"{head} {line}" if line else head for line in src_lines)
            write_lines(final_dir / f"{entry.path}.src", tagged)
        stages["tag"] = {"directions": len(manifest.entries)}

    report = RunReport(stages, manifest, stats)
    record = {"seed": config.sampling.seed, "stages": stages}
    write_text(config.preprocessed_dir / "run_report.json", json.dumps(record, indent=2, sort_keys=True) + "\n")
    return report

