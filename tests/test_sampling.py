import filecmp
import re

import pytest

from multibridge import sampling
from multibridge.corpus import BitextCorpus, CorpusError, load_manifest, verify_manifest
from multibridge.mining import MiningError, build_pivot_index, mine_all
from multibridge.sampling import (
    SampleFraction,
    SamplePairs,
    SamplingError,
    SamplingPlan,
    TrainAll,
    assemble_training_set,
    build_training_set,
    sample_fraction,
    select_spanning_pairs,
    spans_all_languages,
)

from synth import english_centric_fixture

INDIC_10 = ["bn", "gu", "hi", "kn", "ml", "mr", "or", "pa", "ta", "te"]

# The published 11-pair spanning selection over the ten Indic languages.
PUBLISHED_PAIRS = [
    ("bn", "hi"), ("bn", "mr"), ("bn", "or"), ("gu", "pa"), ("gu", "te"),
    ("hi", "ta"), ("kn", "pa"), ("kn", "ta"), ("ml", "or"), ("ml", "te"),
    ("mr", "te"),
]


def _tiny_corpus(src, tgt, n, prefix=""):
    return BitextCorpus(src, tgt, tuple(f"{prefix}{src}{i}" for i in range(n)),
                        tuple(f"{prefix}{tgt}{i}" for i in range(n)))


class TestSpanning:
    def test_published_pair_list_spans(self):
        assert spans_all_languages(PUBLISHED_PAIRS, INDIC_10)

    def test_two_languages_single_pair(self):
        assert select_spanning_pairs(["bn", "hi"], 1, seed=0) == [("bn", "hi")]

    def test_pigeonhole_infeasible(self):
        with pytest.raises(SamplingError, match="^4 pairs cover at most 8 languages; 10 languages need >= 5$"):
            select_spanning_pairs(INDIC_10, 4, seed=0)

    def test_too_many_pairs_rejected(self):
        with pytest.raises(SamplingError):
            select_spanning_pairs(["bn", "hi"], 2, seed=0)

    def test_english_rejected(self):
        with pytest.raises(SamplingError):
            select_spanning_pairs(["en", "hi", "bn"], 2, seed=0)

    @pytest.mark.parametrize("languages", [[], ["hi"], ["hi", "hi"]], ids=["none", "one", "one-twice"])
    def test_fewer_than_two_languages_rejected(self, languages):
        with pytest.raises(SamplingError, match="^need at least two languages to form pairs$"):
            select_spanning_pairs(languages, 1, seed=0)

    def test_selection_spans_and_is_deterministic(self):
        first = select_spanning_pairs(INDIC_10, 11, seed=42)
        second = select_spanning_pairs(INDIC_10, 11, seed=42)
        assert first == second
        assert len(first) == 11
        assert len(set(first)) == 11
        assert spans_all_languages(first, INDIC_10)
        assert all(a < b for a, b in first)
        different = select_spanning_pairs(INDIC_10, 11, seed=43)
        assert different != first  # overwhelmingly likely

    @pytest.mark.parametrize("seed", range(25))
    def test_odd_language_count_spans(self, seed):
        langs = ["bn", "gu", "hi", "kn", "ml"]
        pairs = select_spanning_pairs(langs, 3, seed=seed)
        assert spans_all_languages(pairs, langs)
        assert len(set(pairs)) == 3


class TestSampleFraction:
    def test_small_corpus_unchanged(self):
        corpus = _tiny_corpus("bn", "hi", 50)
        assert sample_fraction(corpus, 100, seed=1) is corpus

    def test_exact_target_subsequence(self):
        corpus = _tiny_corpus("bn", "hi", 1000)
        sampled = sample_fraction(corpus, 100, seed=1)
        assert len(sampled) == 100
        positions = [int(text[2:]) for text in sampled.src_texts]
        assert positions == sorted(positions)  # order preserved
        assert set(zip(sampled.src_texts, sampled.tgt_texts)) <= set(zip(corpus.src_texts, corpus.tgt_texts))

    def test_seed_determinism_and_sensitivity(self):
        corpus = _tiny_corpus("bn", "hi", 1000)
        base = sample_fraction(corpus, 100, seed=7)
        assert sample_fraction(corpus, 100, seed=7) == base
        distinct = sum(
            1 for s in range(20) if sample_fraction(corpus, 100, seed=s) != base
        )
        assert distinct >= 19  # different seeds virtually always differ

    def test_target_must_be_positive(self):
        with pytest.raises(SamplingError):
            sample_fraction(_tiny_corpus("bn", "hi", 5), 0, seed=1)

    @pytest.mark.parametrize("target", [0, -3])
    def test_strategy_target_must_be_positive(self, target):
        with pytest.raises(SamplingError, match="^per-pair target must be positive$"):
            SampleFraction(target)

    def test_self_pair_is_sampling_error(self):
        with pytest.raises(SamplingError, match="^sample-pairs list pairs 'bn' with itself$"):
            SamplePairs((("hi", "ta"), ("bn", "bn")))

    @pytest.mark.parametrize("entry", [("bn",), ("bn", "hi", "ta"), "bnhi", (1, 2)],
                             ids=["one-item", "three-items", "string", "not-strings"])
    def test_entry_that_is_not_a_pair_of_codes_is_sampling_error(self, entry):
        with pytest.raises(SamplingError) as info:
            SamplePairs((("hi", "ta"), entry))
        assert str(info.value) == f"sample-pairs entry {entry!r} is not a pair of two language codes"


def _mined_fixture(seed=30, langs=("bn", "hi", "ta")):
    corpora = english_centric_fixture(seed, list(langs), n_english=60, overlap=0.7)
    index = build_pivot_index(corpora.values())
    return corpora, mine_all(index, list(langs), 0)


class TestBuildTrainingSet:
    def test_sample_pairs_empty_list_is_english_only(self):
        corpora, mined = _mined_fixture()
        plan = SamplingPlan(SamplePairs(()), seed=5)
        entries = build_training_set(corpora.values(), mined, plan)
        assert entries == [(corpora[lang], "english-centric") for lang in ("bn", "hi", "ta")]

    def test_both_directions_mirror(self, tmp_path):
        # Each unordered pair comes once; its other direction is the same
        # corpus read the other way, on disk as in the returned columns.
        corpora, mined = _mined_fixture()
        plan = SamplingPlan(TrainAll(), seed=5)
        entries = build_training_set(corpora.values(), mined, plan)
        pairs = [(c.src_lang, c.tgt_lang) for c, _ in entries]
        assert pairs == [("en", "bn"), ("en", "hi"), ("en", "ta"), ("bn", "hi"), ("bn", "ta"), ("hi", "ta")]
        manifest, columns = assemble_training_set(corpora.values(), mined, plan, tmp_path)
        assert len(manifest.entries) == len(columns) == 2 * len(entries)
        for entry in manifest.entries:
            s, t = entry.direction.src, entry.direction.tgt
            assert (tmp_path / f"{s}-{t}.src").read_bytes() == (tmp_path / f"{t}-{s}.tgt").read_bytes()
        for (corpus, _), forward, backward in zip(entries, columns[::2], columns[1::2]):
            a, b = corpus.src_lang, corpus.tgt_lang
            assert forward == (a, b, corpus.src_texts) and backward == (b, a, corpus.tgt_texts)

    def test_missing_corpus(self):
        corpora, mined = _mined_fixture()
        plan = SamplingPlan(SamplePairs((("bn", "te"),)), seed=5)
        with pytest.raises(SamplingError, match="^no mined corpus for pair bn-te$"):
            build_training_set(corpora.values(), mined, plan)

    def test_reversed_mined_keys_rejected(self):
        corpora, mined = _mined_fixture()
        flipped = {(b, a): BitextCorpus(b, a, c.tgt_texts, c.src_texts) for (a, b), c in mined.items()}
        with pytest.raises(MiningError, match=r"^corpus hi-bn: keyed \('hi', 'bn'\), not by its own languages"):
            build_training_set(corpora.values(), flipped, SamplingPlan(TrainAll(), seed=5))

    def test_mismatched_corpus_languages_rejected(self):
        corpora, mined = _mined_fixture()
        bad = {("bn", "te"): mined[("bn", "hi")]}
        with pytest.raises(MiningError, match=r"^corpus bn-hi: keyed \('bn', 'te'\)"):
            build_training_set(corpora.values(), bad, SamplingPlan(TrainAll(), 5))

    def test_sample_fraction_totals(self, tmp_path):
        corpora, mined = _mined_fixture()
        target = 10
        plan = SamplingPlan(SampleFraction(target), seed=5)
        entries = build_training_set(corpora.values(), mined, plan)
        expected = sum(min(len(c), target) for c in mined.values())
        assert sum(len(c) for c, label in entries if label == "sample-fraction") == expected
        manifest, _ = assemble_training_set(corpora.values(), mined, plan, tmp_path)
        assert sum(e.count for e in manifest.entries if e.strategy == "sample-fraction") == 2 * expected

    def test_subset_of_train_all(self):
        corpora, mined = _mined_fixture()
        all_entries = {
            (c.src_lang, c.tgt_lang): set(zip(c.src_texts, c.tgt_texts))
            for c, _ in build_training_set(corpora.values(), mined, SamplingPlan(TrainAll(), 5))
        }
        for strategy in (SamplePairs((("bn", "hi"),)), SampleFraction(7)):
            for c, label in build_training_set(corpora.values(), mined, SamplingPlan(strategy, 5)):
                pair = (c.src_lang, c.tgt_lang)
                assert set(zip(c.src_texts, c.tgt_texts)) <= all_entries[pair], (strategy, pair, label)


class TestAssembleTrainingSet:
    def test_manifest_counts_match_disk(self, tmp_path):
        corpora, mined = _mined_fixture()
        plan = SamplingPlan(SampleFraction(8), seed=9)
        manifest, _ = assemble_training_set(corpora.values(), mined, plan, tmp_path / "out")
        verify_manifest(manifest, tmp_path / "out")
        assert load_manifest(tmp_path / "out" / "manifest.json") == manifest
        assert {e.strategy for e in manifest.entries} == {"english-centric", "sample-fraction"}

    @pytest.mark.parametrize("strategy", [TrainAll(), SampleFraction(8), SamplePairs((("bn", "ta"),))],
                             ids=["train-all", "sample-fraction", "sample-pairs"])
    def test_returns_both_columns_of_each_pair(self, tmp_path, monkeypatch, strategy):
        corpora, mined = _mined_fixture()
        built = []

        def recording(*args):
            built.extend(build_training_set(*args))
            return built

        monkeypatch.setattr(sampling, "build_training_set", recording)
        manifest, columns = assemble_training_set(corpora.values(), mined, SamplingPlan(strategy, 9), tmp_path)
        expected = [(c.src_lang, c.tgt_lang, c.src_texts, c.tgt_texts, label) for c, label in built]
        assert len(columns) == len(manifest.entries) == 2 * len(built)
        for (a, b, src, tgt, _), forward, backward in zip(expected, columns[::2], columns[1::2]):
            assert forward[:2] == (a, b) and forward[2] is src
            assert backward[:2] == (b, a) and backward[2] is tgt
        # One manifest entry per column: English-centric first, then by direction.
        listed = [(e.direction.src, e.direction.tgt, e.count, e.strategy) for e in manifest.entries]
        want = [(lang, other, len(src), label) for a, b, src, _, label in expected for lang, other in ((a, b), (b, a))]
        assert listed == sorted(want, key=lambda e: (e[3] != "english-centric", e[:2]))

    def test_only_mirror_names_share_a_file(self, tmp_path):
        # Empty columns are all the same object, the interned empty tuple,
        # so the links must follow the names, not object identity.
        corpora, _ = _mined_fixture()
        mined = {pair: BitextCorpus(*pair, (), ()) for pair in (("bn", "hi"), ("bn", "ta"))}
        assemble_training_set(corpora.values(), mined, SamplingPlan(TrainAll(), 1), tmp_path)
        inode = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
        assert inode["bn-hi.src"] == inode["hi-bn.tgt"] and inode["bn-hi.tgt"] == inode["hi-bn.src"]
        assert len({inode[f"{pair}.{side}"] for pair in ("bn-hi", "bn-ta") for side in ("src", "tgt")}) == 4

    def test_directory_that_is_not_empty_is_refused_before_sampling(self, tmp_path, monkeypatch):
        # A set written beside an earlier one would leave files its manifest does not list.
        corpora, mined = _mined_fixture()
        (tmp_path / "bn-ta.src").write_text("stale\n")

        def never(*args):
            raise AssertionError("sampled before the directory was checked")

        monkeypatch.setattr(sampling, "build_training_set", never)
        with pytest.raises(CorpusError, match=f"^{re.escape(str(tmp_path))} exists and is not an empty directory"):
            assemble_training_set(corpora.values(), mined, SamplingPlan(TrainAll(), 1), tmp_path)
        assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("bn-ta.src", "stale\n")]

    @pytest.mark.parametrize("pair,message", [
        (("bn", "en"), "sample-pairs list may not include the pivot: bn-en"),
        (("bn", "te"), "no mined corpus for pair bn-te"),
    ], ids=["pivot", "not-mined"])
    def test_plan_that_cannot_run_makes_no_directory(self, tmp_path, pair, message):
        corpora, mined = _mined_fixture()
        with pytest.raises(SamplingError, match=f"^{message}$"):
            assemble_training_set(corpora.values(), mined, SamplingPlan(SamplePairs((pair,)), 5), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tmp_path):
        corpora, mined = _mined_fixture()
        plan = SamplingPlan(SampleFraction(8), seed=9)
        assemble_training_set(corpora.values(), mined, plan, tmp_path / "a")
        assemble_training_set(corpora.values(), mined, plan, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
        assert not mismatch and not errors
