"""Pivot extraction: mine X-Y parallel corpora out of English-centric bitext.

Two sentences in different non-English languages form a mined pair when
they were both observed as translations of the same English sentence.
Join equality is defined by :func:`normalize_pivot` (NFC plus whitespace
collapse) rather than raw string equality, which would miss trivially
variant duplicates.

The index is a plain dict from each normalized English sentence to its
per-language translation sets, so the join stays linear.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Iterable, Mapping, Sequence

from .corpus import BitextCorpus
from .errors import MultibridgeError
from .languages import PIVOT

logger = logging.getLogger(__name__)

#: Per-pivot-key ceiling on the translation cross product. Boilerplate
#: sentences ("Thank you.") can have hundreds of observed translations per
#: language; an uncapped join would blow up quadratically on them.
DEFAULT_XPROD_CAP = 64


class MiningError(MultibridgeError):
    """Every pivot-mining error, including a corpus that breaks the orientation rule."""


def normalize_pivot(text: str) -> str:
    """Canonical join key for an English sentence.

    Unicode NFC, outer whitespace stripped, inner whitespace runs collapsed
    to a single space. Casing is preserved: case differences are real
    content differences in English.
    """
    return " ".join(unicodedata.normalize("NFC", text).split())


#: Inverted index: normalized English sentence -> language -> observed translations.
PivotIndex = dict[str, dict[str, set[str]]]


def check_orientation(
    english_corpora: Iterable[BitextCorpus], mined: Mapping[tuple[str, str], BitextCorpus]
) -> dict[str, BitextCorpus]:
    """The English-centric corpora keyed by their non-English language, once every input is checked.

    English-centric corpora must be en->xx, one per language, and each mined
    corpus must be between two non-English languages, keyed by its own
    ``(src_lang, tgt_lang)`` in canonical order. Anything else is a
    :class:`MiningError` naming the corpus and the rule it broke.
    """
    english: dict[str, BitextCorpus] = {}
    for corpus in english_corpora:
        name = f"corpus {corpus.src_lang}-{corpus.tgt_lang}"
        if corpus.src_lang != PIVOT:
            raise MiningError(f"{name}: English-centric corpora must be {PIVOT}-xx")
        if corpus.tgt_lang in english:
            raise MiningError(f"{name}: given twice; English-centric corpora are one per language")
        english[corpus.tgt_lang] = corpus
    for key, corpus in mined.items():
        own = (corpus.src_lang, corpus.tgt_lang)
        name = f"corpus {corpus.src_lang}-{corpus.tgt_lang}"
        if PIVOT in own:
            raise MiningError(f"{name}: mined corpora are xx-yy, with no {PIVOT} side")
        if key != own or own != canonical_pair(*own):
            raise MiningError(f"{name}: keyed {key!r}, not by its own languages in canonical order")
    return english


def build_pivot_index(corpora: Iterable[BitextCorpus]) -> PivotIndex:
    """One-pass index construction over en->xx corpora, one per language.

    Duplicate (english, translation) observations collapse.
    """
    index: PivotIndex = {}
    for lang, corpus in check_orientation(corpora, {}).items():
        for english, text in zip(corpus.src_texts, corpus.tgt_texts):
            index.setdefault(normalize_pivot(english), {}).setdefault(lang, set()).add(text)
    return index


@dataclass(frozen=True)
class MiningOutcome:
    """A mined corpus plus the bookkeeping the stats reporter wants."""

    corpus: BitextCorpus
    raw_pair_count: int
    capped_keys: tuple[str, ...] = ()


def mine_pairs_detailed(
    index: PivotIndex,
    l1: str,
    l2: str,
    xprod_cap: int | None = DEFAULT_XPROD_CAP,
) -> MiningOutcome:
    """Join two languages' translation sets through shared pivot keys.

    For every pivot key with translations in both languages, emit the full
    cross product of the two sets (capped per key), then drop identical-text
    pairs and global duplicates. Traversal is sorted by pivot key and
    lexicographic within each cross product, so output is deterministic.
    ``index`` is one :func:`build_pivot_index` returns: its texts come from
    corpora that checked them, so the mined corpus does not check them again.
    """
    if PIVOT in (l1, l2):
        raise MiningError(f"cannot mine the pivot language {PIVOT!r}")
    if l1 == l2:
        raise MiningError(f"cannot mine a language against itself: {l1!r}")
    if xprod_cap is not None and xprod_cap < 0:
        raise MiningError(f"cross-product cap must be non-negative, not {xprod_cap}")

    # Pivot keys are unique, so the sort never compares the translation sets.
    candidates = sorted(
        (key, by_lang[l1], by_lang[l2]) for key, by_lang in index.items() if l1 in by_lang and l2 in by_lang
    )

    kept: dict[tuple[str, str], None] = {}  # insertion-ordered: a pair keeps its first place
    raw = 0
    capped: list[str] = []
    for key, side1, side2 in candidates:
        if xprod_cap is not None and len(side1) * len(side2) > xprod_cap:
            capped.append(key)
            logger.info("cross product capped at %d for pivot key %r", xprod_cap, key)
        for x, y in islice(product(sorted(side1), sorted(side2)), xprod_cap):
            raw += 1
            # Identical text on both sides is almost always an untranslated
            # sentence that leaked into the corpus.
            if x != y:
                kept[x, y] = None
    corpus = BitextCorpus._checked(l1, l2, tuple(x for x, _ in kept), tuple(y for _, y in kept))
    return MiningOutcome(corpus, raw, tuple(capped))


def canonical_pair(l1: str, l2: str) -> tuple[str, str]:
    """Unordered pair key: languages in lexicographic order."""
    if l1 == l2:
        raise ValueError(f"not a pair: {l1!r}, {l2!r}")
    return (l1, l2) if l1 < l2 else (l2, l1)


def mine_all(
    index: PivotIndex,
    languages: Sequence[str],
    xprod_cap: int | None = DEFAULT_XPROD_CAP,
) -> dict[tuple[str, str], BitextCorpus]:
    """Mine every unordered pair among ``languages``."""
    langs = list(dict.fromkeys(languages))
    if PIVOT in langs:
        raise MiningError(f"language list includes the pivot {PIVOT!r}")
    if len(langs) < 2:
        raise MiningError("need at least two non-pivot languages to mine pairs")
    return {(a, b): mine_pairs_detailed(index, a, b, xprod_cap).corpus for a, b in combinations(sorted(langs), 2)}


@dataclass(frozen=True)
class StatsMatrix:
    """Pair-count matrix: one English column plus a symmetric non-English block."""

    languages: tuple[str, ...]
    english_counts: dict[str, int]
    pair_counts: dict[tuple[str, str], int]
    raw_pair_counts: dict[tuple[str, str], int] | None = None

    def cell(self, row: str, col: str) -> int:
        if row == col:
            return 0
        if col == PIVOT:
            return self.english_counts.get(row, 0)
        return self.pair_counts.get(canonical_pair(row, col), 0)

    def column_sum(self, col: str) -> int:
        return sum(self.cell(row, col) for row in self.languages)

    def column_sums(self) -> dict[str, int]:
        return {col: self.column_sum(col) for col in (PIVOT, *self.languages)}

    def grand_total(self) -> int:
        """Sum of the non-English block: counts every mined pair twice."""
        return sum(self.column_sum(lang) for lang in self.languages)

    def unique_unordered_total(self) -> int:
        return self.grand_total() // 2

    def to_tsv(self) -> str:
        """Render the matrix in the layout of the dataset statistics table."""
        header = "\t".join(("", PIVOT, *self.languages))
        rows = [header]
        for row in self.languages:
            cells = [str(self.cell(row, col)) for col in (PIVOT, *self.languages)]
            rows.append("\t".join((row, *cells)))
        sums = self.column_sums()
        rows.append("\t".join(("SUM", *(str(sums[col]) for col in (PIVOT, *self.languages)))))
        rows.append("\t".join(("TOTAL", "", str(self.grand_total()))))
        if self.raw_pair_counts is not None:
            rows.append("")
            rows.append("\t".join(("# raw pair", "count")))
            for pair in sorted(self.raw_pair_counts):
                rows.append("\t".join((f"{pair[0]}-{pair[1]}", str(self.raw_pair_counts[pair]))))
        return "\n".join(rows) + "\n"


def extraction_stats(
    english_corpora: Iterable[BitextCorpus], mined: Mapping[tuple[str, str], BitextCorpus]
) -> StatsMatrix:
    """Build the statistics matrix from loaded corpora, over every language they hold.

    Mined deduplicated counts populate the symmetric block. The raw-pair
    section is left empty: only a run that has just mined knows those counts.
    """
    english_counts = {lang: len(corpus) for lang, corpus in check_orientation(english_corpora, mined).items()}
    pair_counts = {pair: len(corpus) for pair, corpus in mined.items()}
    observed = set(english_counts)
    for pair in pair_counts:
        observed.update(pair)
    return StatsMatrix(tuple(sorted(observed)), english_counts, pair_counts)
