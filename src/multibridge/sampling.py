"""Training-set construction under the three sampling regimes.

English-centric data is always used in full; the regimes differ only in
how much mined non-English data joins it:

* sample-pairs: all data, but only for a selected subset of language
  pairs that together span every language;
* sample-fraction: a capped number of pairs from every language pair;
* train-all: everything.

Every stochastic choice flows through the pinned generator in
:mod:`multibridge.rng`, with one labeled child stream per language pair,
so a fixed seed reproduces the training set byte for byte.

The sampler handles each unordered pair once, and the training set holds
it in both directions: of a corpus between ``L`` and ``O``, the column of
``L`` texts is the source of ``L-O`` and the target of ``O-L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import (
    BitextCorpus,
    ManifestEntry,
    TrainingManifest,
    TranslationDirection,
    new_dir,
    save_manifest,
    write_bitext,  # unused here, but kept as a module name: perfbench/tracing.py wraps sampling.write_bitext
    write_once,
)
from .errors import MultibridgeError
from .languages import PIVOT
from .mining import canonical_pair, check_orientation
from .rng import Xoshiro256StarStar, derive_seed

DEFAULT_PER_PAIR_TARGET = 100_000


class SamplingError(MultibridgeError):
    """Every sampling error: an infeasible plan or a pair that was never mined."""


@dataclass(frozen=True)
class SamplePairs:
    """Use all data, but only for these unordered non-English pairs."""

    pairs: tuple[tuple[str, str], ...]
    name = "sample-pairs"

    def __post_init__(self) -> None:
        canon = tuple(canonical_pair(*p) for p in self.pairs)
        if len(set(canon)) != len(canon):
            raise SamplingError("duplicate pairs in sample-pairs list")
        object.__setattr__(self, "pairs", canon)


@dataclass(frozen=True)
class SampleFraction:
    """Cap every pair's corpus at this many sentence pairs."""

    per_pair_target: int = DEFAULT_PER_PAIR_TARGET
    name = "sample-fraction"

    def __post_init__(self) -> None:
        if self.per_pair_target <= 0:
            raise SamplingError("per-pair target must be positive")


@dataclass(frozen=True)
class TrainAll:
    """Use all mined data from all pairs."""

    name = "train-all"


Strategy = SamplePairs | SampleFraction | TrainAll


@dataclass(frozen=True)
class SamplingPlan:
    strategy: Strategy
    seed: int


def spans_all_languages(pairs: Iterable[tuple[str, str]], languages: Iterable[str]) -> bool:
    """Independent spanning check: every language appears in some pair."""
    covered: set[str] = set()
    for a, b in pairs:
        covered.update((a, b))
    return set(languages) <= covered


def select_spanning_pairs(languages: Sequence[str], n_pairs: int, seed: int) -> list[tuple[str, str]]:
    """Pick ``n_pairs`` distinct unordered pairs covering every language.

    A random permutation is paired up greedily, which guarantees coverage
    with ceil(L/2) pairs; the remaining quota is filled uniformly from the
    unused pairs. Deterministic for a fixed seed.
    """
    langs = sorted(set(languages))
    if PIVOT in langs:
        raise SamplingError("spanning pairs are selected among non-English languages only")
    if len(langs) < 2:
        raise SamplingError("need at least two languages to form pairs")
    min_pairs = math.ceil(len(langs) / 2)
    if n_pairs < min_pairs:
        raise SamplingError(
            f"{n_pairs} pairs cover at most {2 * n_pairs} languages; {len(langs)} languages need >= {min_pairs}"
        )
    max_pairs = len(langs) * (len(langs) - 1) // 2
    if n_pairs > max_pairs:
        raise SamplingError(f"only {max_pairs} distinct pairs exist for {len(langs)} languages")

    rng = Xoshiro256StarStar(seed)
    perm = langs[:]
    rng.shuffle(perm)
    cover = [canonical_pair(perm[i], perm[i + 1]) for i in range(0, len(perm) - 1, 2)]
    if len(perm) % 2 == 1:
        leftover = perm[-1]
        others = [lang for lang in langs if lang != leftover]
        partner = others[rng.randbelow(len(others))]
        cover.append(canonical_pair(leftover, partner))

    chosen = set(cover)
    pool = [p for p in combinations(langs, 2) if p not in chosen]
    for idx in rng.sample_indices(len(pool), n_pairs - len(cover)):
        chosen.add(pool[idx])
    result = sorted(chosen)
    assert spans_all_languages(result, langs)
    return result


def sample_fraction(corpus: BitextCorpus, target_n: int, seed: int) -> BitextCorpus:
    """Uniform sample without replacement of at most ``target_n`` pairs.

    Corpora at or under the target are returned unchanged. Sampling keeps
    the original order (the result is a subsequence of the input).
    """
    if target_n <= 0:
        raise SamplingError("target must be positive")
    if len(corpus) <= target_n:
        return corpus
    rng = Xoshiro256StarStar(seed)
    keep = rng.sample_indices(len(corpus), target_n)
    return BitextCorpus._checked(corpus.src_lang, corpus.tgt_lang,
                                 tuple(corpus.src_texts[i] for i in keep), tuple(corpus.tgt_texts[i] for i in keep))


def build_training_set(
    english_corpora: Iterable[BitextCorpus],
    mined_corpora: Mapping[tuple[str, str], BitextCorpus],
    plan: SamplingPlan,
) -> list[tuple[BitextCorpus, str]]:
    """The corpus of each unordered pair a plan admits, with its manifest label, without touching disk.

    First each English-centric corpus as loaded (``en-xx``), in language
    order, then each selected mined pair ``a-b``, sampled where the plan
    says so, in pair order.
    """
    english = check_orientation(english_corpora, mined_corpora)
    if isinstance(plan.strategy, SamplePairs):
        for pair in plan.strategy.pairs:
            if PIVOT in pair:
                raise SamplingError(f"sample-pairs list may not include the pivot: {pair}")
            if pair not in mined_corpora:
                raise SamplingError(f"no mined corpus for pair {pair[0]}-{pair[1]}")
        selected = {pair: mined_corpora[pair] for pair in plan.strategy.pairs}
    elif isinstance(plan.strategy, SampleFraction):
        target = plan.strategy.per_pair_target
        selected = {
            pair: sample_fraction(corpus, target, derive_seed(plan.seed, f"frac:{pair[0]}-{pair[1]}"))
            for pair, corpus in mined_corpora.items()
        }
    else:
        selected = mined_corpora
    return ([(corpus, "english-centric") for _, corpus in sorted(english.items())]
            + [(selected[pair], plan.strategy.name) for pair in sorted(selected)])


def assemble_training_set(
    english_corpora: Iterable[BitextCorpus],
    mined_corpora: Mapping[tuple[str, str], BitextCorpus],
    plan: SamplingPlan,
    out_dir: str | Path,
) -> tuple[TrainingManifest, list[tuple[str, str, tuple[str, ...]]]]:
    """Materialize a training set in the new directory ``out_dir``: ``<src>-<tgt>.src``/``.tgt`` and ``manifest.json``.

    Each column ``(L, O, texts)`` is written once, as ``L-O.src``, with
    ``O-L.tgt`` a hard link of it, and gets one manifest entry, ``L-O``.
    Returns the manifest and the two columns of each corpus
    :func:`build_training_set` gave, in its order.
    """
    out = Path(out_dir)
    new_dir(out)
    entries, columns = [], []
    for corpus, label in build_training_set(english_corpora, mined_corpora, plan):
        a, b = corpus.src_lang, corpus.tgt_lang
        for lang, other, texts in ((a, b, corpus.src_texts), (b, a, corpus.tgt_texts)):
            entries.append(ManifestEntry(TranslationDirection(lang, other), f"{lang}-{other}", len(corpus), label))
            write_once(texts, out / f"{lang}-{other}.src", out / f"{other}-{lang}.tgt")
            columns.append((lang, other, texts))
    entries.sort(key=lambda entry: (entry.strategy != "english-centric", entry.direction))
    manifest = TrainingManifest(tuple(entries), plan.seed)
    save_manifest(manifest, out / "manifest.json")
    return manifest, columns
