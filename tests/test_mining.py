import dataclasses
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibridge.corpus import BitextCorpus
from multibridge.mining import (
    MiningError,
    StatsMatrix,
    build_pivot_index,
    canonical_pair,
    extraction_stats,
    mine_all,
    mine_pairs_detailed,
    normalize_pivot,
)
from multibridge.sampling import SamplingPlan, TrainAll, build_training_set

from oracles import corpus_observations, naive_capped_mine, nested_loop_mine
from synth import english_centric_fixture


def _corpus(src, tgt, rows):
    return BitextCorpus(src, tgt, tuple(a for a, _ in rows), tuple(b for _, b in rows))


def _rows(corpus):
    return list(zip(corpus.src_texts, corpus.tgt_texts))


class TestNormalizePivot:
    def test_whitespace_collapse(self):
        assert normalize_pivot("Hello  world ") == "Hello world"

    def test_fixed_point(self):
        assert normalize_pivot("Hello world") == "Hello world"

    def test_nfc_composition(self):
        decomposed = "café"  # e + combining acute
        expected = unicodedata.normalize("NFC", decomposed)
        assert expected == "café" and len(expected) == 4
        assert normalize_pivot(decomposed) == expected

    def test_tabs_and_runs(self):
        assert normalize_pivot("\ta \t b c ") == "a b c"


class TestBuildIndex:
    def test_single_pair(self):
        index = build_pivot_index([_corpus("en", "bn", [("hello", "B1")])])
        assert index["hello"]["bn"] == {"B1"}
        assert len(index) == 1

    def test_duplicates_collapse(self):
        index = build_pivot_index([_corpus("en", "bn", [("hello", "B1"), ("hello", "B1")])])
        assert index["hello"]["bn"] == {"B1"}

    def test_variant_translations_kept(self):
        index = build_pivot_index([_corpus("en", "bn", [("hello", "B1"), ("hello", "B2")])])
        assert index["hello"]["bn"] == {"B1", "B2"}

    def test_reversed_orientation(self):
        with pytest.raises(MiningError, match="^corpus bn-en: English-centric corpora must be en-xx$"):
            build_pivot_index([_corpus("bn", "en", [("B1", "hello")])])

    def test_whitespace_variants_share_key(self):
        index = build_pivot_index(
            [_corpus("en", "bn", [("hello  world", "B1"), ("hello world ", "B2")])]
        )
        assert index["hello world"]["bn"] == {"B1", "B2"}

    def test_non_pivot_corpus_rejected(self):
        with pytest.raises(MiningError, match="^corpus bn-hi: English-centric corpora must be en-xx$"):
            build_pivot_index([_corpus("bn", "hi", [("x", "y")])])


def _broken_inputs(case):
    """English-centric and mined corpora that break one orientation rule, and the corpus that breaks it."""
    english = english_centric_fixture(31, ["bn", "hi", "ta"], n_english=30)
    mined = mine_all(build_pivot_index(english.values()), ["bn", "hi", "ta"], 0)
    corpora = list(english.values())
    bn_en = BitextCorpus("bn", "en", english["bn"].tgt_texts, english["bn"].src_texts)
    if case == "xx-en":
        return [bn_en, english["hi"], english["ta"]], mined, "bn-en"
    if case == "second corpus":
        return [*corpora, english["bn"]], mined, "en-bn"
    if case == "pivot in mined":  # ("bn", "en") is canonical and the corpus's own key
        return corpora, {("bn", "en"): bn_en, **mined}, "bn-en"
    return corpora, {(b, a): BitextCorpus(b, a, c.tgt_texts, c.src_texts) for (a, b), c in mined.items()}, "hi-bn"


#: The rule each case of :func:`_broken_inputs` breaks, as the error states it.
_RULES = {
    "xx-en": "English-centric corpora must be en-xx",
    "second corpus": "given twice; English-centric corpora are one per language",
    "reversed mined key": r"keyed \('hi', 'bn'\), not by its own languages in canonical order",
    "pivot in mined": "mined corpora are xx-yy, with no en side",
}


class TestOrientationRule:
    @pytest.mark.parametrize("case", ["xx-en", "second corpus", "reversed mined key", "pivot in mined"])
    @pytest.mark.parametrize("consumer", ["build_pivot_index", "extraction_stats", "build_training_set"])
    def test_every_consumer_rejects(self, consumer, case):
        english, mined, culprit = _broken_inputs(case)
        # build_pivot_index reads a mined corpus as an English-centric one, so the first rule catches it.
        rule = _RULES["xx-en" if consumer == "build_pivot_index" and "mined" in case else case]
        with pytest.raises(MiningError, match=f"^corpus {culprit}: {rule}$"):
            if consumer == "build_pivot_index":
                # It takes no mined corpora: a mined corpus reaches it only as one of its inputs.
                build_pivot_index([*english, *mined.values()] if "mined" in case else english)
            elif consumer == "extraction_stats":
                extraction_stats(english, mined)
            else:
                build_training_set(english, mined, SamplingPlan(TrainAll(), seed=1))


class TestMinePairs:
    def test_basic_join(self):
        index = build_pivot_index([
            _corpus("en", "bn", [("hello", "B1")]),
            _corpus("en", "hi", [("hello", "H1"), ("bye", "H2")]),
        ])
        corpus = mine_pairs_detailed(index, "bn", "hi").corpus
        assert _rows(corpus) == [("B1", "H1")]

    def test_cross_product(self):
        index = build_pivot_index([
            _corpus("en", "bn", [("hello", "B1"), ("hello", "B2")]),
            _corpus("en", "hi", [("hello", "H1")]),
        ])
        corpus = mine_pairs_detailed(index, "bn", "hi").corpus
        assert set(_rows(corpus)) == {("B1", "H1"), ("B2", "H1")}

    def test_no_shared_keys(self):
        index = build_pivot_index([
            _corpus("en", "bn", [("one", "B1")]),
            _corpus("en", "hi", [("two", "H1")]),
        ])
        assert len(mine_pairs_detailed(index, "bn", "hi").corpus) == 0

    def test_identical_text_dropped(self):
        index = build_pivot_index([
            _corpus("en", "bn", [("hello", "same"), ("hello", "B1")]),
            _corpus("en", "hi", [("hello", "same")]),
        ])
        assert set(_rows(mine_pairs_detailed(index, "bn", "hi").corpus)) == {("B1", "same")}

    def test_global_dedup_across_keys(self):
        index = build_pivot_index([
            _corpus("en", "bn", [("hello", "B1"), ("hi there", "B1")]),
            _corpus("en", "hi", [("hello", "H1"), ("hi there", "H1")]),
        ])
        corpus = mine_pairs_detailed(index, "bn", "hi").corpus
        assert len(corpus) == 1

    def test_pivot_language_rejected(self):
        index = build_pivot_index([_corpus("en", "bn", [("x", "y")])])
        with pytest.raises(MiningError, match="^cannot mine the pivot language 'en'$"):
            mine_pairs_detailed(index, "en", "bn")
        with pytest.raises(MiningError, match="^language list includes the pivot 'en'$"):
            mine_all(index, ["en", "bn"])

    def test_self_pair_rejected(self):
        index = build_pivot_index([_corpus("en", "bn", [("x", "y")])])
        with pytest.raises(MiningError, match="^cannot mine a language against itself: 'bn'$"):
            mine_pairs_detailed(index, "bn", "bn")
        with pytest.raises(MiningError, match="^need at least two non-pivot languages to mine pairs$"):
            mine_all(index, ["bn", "bn"])
        with pytest.raises(ValueError, match="^not a pair: 'bn', 'bn'$"):
            canonical_pair("bn", "bn")

    def test_deterministic_order(self):
        corpora = [
            _corpus("en", "bn", [("b key", "B2"), ("a key", "B1"), ("b key", "B0")]),
            _corpus("en", "hi", [("a key", "H1"), ("b key", "H9"), ("b key", "H2")]),
        ]
        first = mine_pairs_detailed(build_pivot_index(corpora), "bn", "hi").corpus
        second = mine_pairs_detailed(build_pivot_index(list(reversed(corpora))), "bn", "hi").corpus
        assert first == second
        assert _rows(first) == [
            ("B1", "H1"), ("B0", "H2"), ("B0", "H9"), ("B2", "H2"), ("B2", "H9"),
        ]

    def test_cap_limits_blowup(self):
        rows = [("greeting", f"B{i}") for i in range(10)]
        other = [("greeting", f"H{i}") for i in range(10)]
        index = build_pivot_index([_corpus("en", "bn", rows), _corpus("en", "hi", other)])
        outcome = mine_pairs_detailed(index, "bn", "hi", xprod_cap=7)
        assert len(outcome.corpus) == 7
        assert outcome.capped_keys == ("greeting",)
        uncapped = mine_pairs_detailed(index, "bn", "hi", xprod_cap=0)
        assert len(uncapped.corpus) == 100
        assert uncapped.capped_keys == ()

    def test_negative_cap_rejected(self):
        index = build_pivot_index([_corpus("en", "bn", [("hi", "B")]), _corpus("en", "hi", [("hi", "H")])])
        with pytest.raises(MiningError, match="non-negative"):
            mine_pairs_detailed(index, "bn", "hi", xprod_cap=-1)

    def test_matches_nested_loop_oracle(self):
        corpora = english_centric_fixture(3, ["bn", "hi"], n_english=80, overlap=0.6)
        index = build_pivot_index(corpora.values())
        mined = mine_pairs_detailed(index, "bn", "hi", xprod_cap=0).corpus
        expected = nested_loop_mine(
            corpus_observations(corpora["bn"]), corpus_observations(corpora["hi"])
        )
        assert set(_rows(mined)) == expected
        assert len(mined) == len(expected)  # no duplicates slipped through

    # Few keys and a four-word vocabulary shared by both languages: identical
    # text, duplicates across keys, empty sets and keys above the cap are common.
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["k1", "k2", "k3", "Thank you.", "k 2"]),
        st.dictionaries(st.sampled_from(["bn", "hi", "ta"]), st.sets(st.sampled_from(["a", "b", "ab", "a b"]))),
        max_size=5,
    ))
    def test_cap_equals_budget_loop_oracle(self, index):
        size = max((len(s.get("bn", ())) * len(s.get("hi", ())) for s in index.values()), default=0)
        for cap in (0, 1, size, max(size - 1, 0)):
            outcome = mine_pairs_detailed(index, "bn", "hi", xprod_cap=cap)
            pairs, raw, capped = naive_capped_mine(index, "bn", "hi", cap)
            assert _rows(outcome.corpus) == pairs
            assert outcome.raw_pair_count == raw
            assert outcome.capped_keys == capped


class TestMineAll:
    def test_three_languages_three_pairs(self):
        corpora = english_centric_fixture(11, ["bn", "hi", "ta"], n_english=40)
        index = build_pivot_index(corpora.values())
        result = mine_all(index, ["bn", "hi", "ta"])
        assert set(result) == {("bn", "hi"), ("bn", "ta"), ("hi", "ta")}

    def test_swap_symmetry(self):
        corpora = english_centric_fixture(12, ["bn", "hi"], n_english=60)
        index = build_pivot_index(corpora.values())
        forward = mine_pairs_detailed(index, "bn", "hi", xprod_cap=0).corpus
        backward = mine_pairs_detailed(index, "hi", "bn", xprod_cap=0).corpus
        assert len(forward) == len(backward)
        assert set(_rows(forward)) == set(zip(backward.tgt_texts, backward.src_texts))

    def test_monotonicity(self):
        base = english_centric_fixture(13, ["bn", "hi", "ta"], n_english=50)
        extra = english_centric_fixture(14, ["bn", "hi", "ta"], n_english=30)
        small = mine_all(build_pivot_index(base.values()), ["bn", "hi", "ta"], 0)
        grown_corpora = [
            BitextCorpus("en", lang, base[lang].src_texts + extra[lang].src_texts,
                         base[lang].tgt_texts + extra[lang].tgt_texts)
            for lang in ["bn", "hi", "ta"]
        ]
        grown = mine_all(build_pivot_index(grown_corpora), ["bn", "hi", "ta"], 0)
        for pair in small:
            assert len(grown[pair]) >= len(small[pair])

    def test_needs_two_languages(self):
        corpora = english_centric_fixture(15, ["bn"], n_english=10)
        index = build_pivot_index(corpora.values())
        with pytest.raises(MiningError):
            mine_all(index, ["bn"])


# One row per language of the published WAT 2021 statistics table
# (thousands of sentences): English-centric column first, then the
# symmetric mined block.
TABLE1_LANGS = ["bn", "gu", "hi", "kn", "ml", "mr", "or", "pa", "ta", "te"]
TABLE1_ENGLISH = dict(zip(TABLE1_LANGS, [960, 500, 2553, 382, 1018, 479, 180, 496, 1207, 352]))
TABLE1_ROWS = {
    "bn": [0, 264, 819, 221, 1396, 264, 58, 274, 500, 218],
    "gu": [264, 0, 390, 289, 297, 303, 58, 326, 320, 219],
    "hi": [819, 390, 0, 345, 925, 407, 153, 432, 789, 314],
    "kn": [221, 289, 345, 0, 319, 297, 26, 268, 277, 232],
    "ml": [1396, 297, 925, 319, 0, 310, 45, 295, 588, 277],
    "mr": [264, 303, 407, 297, 310, 0, 71, 288, 300, 243],
    "or": [58, 58, 153, 26, 45, 71, 0, 76, 79, 39],
    "pa": [274, 326, 432, 268, 295, 288, 76, 0, 356, 208],
    "ta": [500, 320, 789, 277, 588, 300, 79, 356, 0, 231],
    "te": [218, 219, 314, 232, 277, 243, 39, 208, 231, 0],
}
TABLE1_SUMS = dict(zip(
    TABLE1_LANGS, [4014, 2466, 4574, 2274, 4452, 2483, 605, 2523, 3440, 1981]
))


def table1_matrix() -> StatsMatrix:
    pair_counts = {}
    for i, a in enumerate(TABLE1_LANGS):
        for b in TABLE1_LANGS[i + 1:]:
            pair_counts[canonical_pair(a, b)] = TABLE1_ROWS[a][TABLE1_LANGS.index(b)]
    return StatsMatrix(tuple(TABLE1_LANGS), dict(TABLE1_ENGLISH), pair_counts)


class TestStatsMatrix:
    def test_published_table_consistency(self):
        matrix = table1_matrix()
        sums = matrix.column_sums()
        assert sums["en"] == 8127
        for lang, expected in TABLE1_SUMS.items():
            assert sums[lang] == expected, lang
        assert matrix.grand_total() == 28812
        assert matrix.unique_unordered_total() == 14406

    def test_symmetry_and_zero_diagonal(self):
        matrix = table1_matrix()
        for a in TABLE1_LANGS:
            assert matrix.cell(a, a) == 0
            for b in TABLE1_LANGS:
                assert matrix.cell(a, b) == matrix.cell(b, a)

    def test_empty_mined_set(self):
        corpora = english_centric_fixture(21, ["bn", "hi"], n_english=20)
        matrix = extraction_stats(corpora.values(), {})
        assert matrix.languages == ("bn", "hi")
        assert matrix.grand_total() == 0
        assert matrix.column_sum("en") == sum(len(c) for c in corpora.values())

    def test_from_corpora(self):
        corpora = english_centric_fixture(22, ["bn", "hi", "ta"], n_english=50)
        index = build_pivot_index(corpora.values())
        mined = mine_all(index, ["bn", "hi", "ta"], 0)
        matrix = extraction_stats(corpora.values(), mined)
        assert matrix.languages == ("bn", "hi", "ta")
        total = sum(len(c) for c in mined.values())
        assert matrix.grand_total() == 2 * total
        assert matrix.unique_unordered_total() == total

    def test_equality_compares_every_count(self):
        matrix = StatsMatrix(("bn", "hi"), {"bn": 3, "hi": 4}, {("bn", "hi"): 2})
        assert matrix == StatsMatrix(("bn", "hi"), {"bn": 3, "hi": 4}, {("bn", "hi"): 2})
        for changes in ({"english_counts": {"bn": 3, "hi": 5}}, {"pair_counts": {("bn", "hi"): 1}},
                        {"raw_pair_counts": {("bn", "hi"): 9}}):
            other = dataclasses.replace(matrix, **changes)
            assert other.to_tsv() != matrix.to_tsv()
            assert other != matrix, changes

    def test_tsv_layout(self):
        matrix = table1_matrix()
        lines = matrix.to_tsv().splitlines()
        assert lines[0].split("\t") == ["", "en", *TABLE1_LANGS]
        assert lines[1].split("\t")[0] == "bn"
        assert lines[-2].split("\t")[0] == "SUM"
        assert lines[-1].split("\t")[:3] == ["TOTAL", "", "28812"]
