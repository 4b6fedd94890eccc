"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance. The conftest hook prints a PASS/FAIL line per criterion at the
end of the run.
"""

import filecmp
import random
import shutil
import time
from pathlib import Path

import pytest

from multibridge.bpe import BpeSegmenter, learn_bpe, revert_bpe
from multibridge.config import load_config
from multibridge.corpus import TranslationDirection
from multibridge.languages import BLOCK_SIZE, REGISTRY
from multibridge.metrics import EvalReport, MetricScore, bleu, chrf2, cosine_batch, nway_compare
from multibridge.metrics import EmbeddingTable
from multibridge.mining import build_pivot_index, mine_all
from multibridge.pipeline import run_pipeline
from multibridge.sampling import (
    SampleFraction,
    SamplePairs,
    SamplingPlan,
    TrainAll,
    assemble_training_set,
    build_training_set,
    select_spanning_pairs,
    spans_all_languages,
)

from oracles import brute_force_learn, corpus_observations, naive_mean_cosine, nested_loop_mine
from synth import english_centric_fixture
from test_metrics import GOLDEN, TABLE4_AVG, TABLE4_ROWS
from test_mining import table1_matrix
from test_sampling import INDIC_10, PUBLISHED_PAIRS

FIXTURE = Path(__file__).parent / "data" / "pipeline_fixture"

NON_ENGLISH = ["bn", "gu", "hi", "kn", "ml", "mr", "or", "pa", "ta", "te"]


def test_pivot_mining_oracle_equivalence():
    """>=50 randomized fixtures, 3-11 languages, exact set equality, <10s."""
    started = time.monotonic()
    rng = random.Random(2024)
    n_fixtures = 0
    for i in range(48):
        n_langs = rng.randint(2, 10)  # plus English: 3-11 languages total
        langs = NON_ENGLISH[:n_langs]
        overlap = rng.choice([0.2, 0.5, 0.8])
        n_english = rng.randint(30, 120)
        corpora = english_centric_fixture(
            1000 + i, langs, n_english=n_english, overlap=overlap,
            max_variants=rng.choice([1, 2, 3]),
        )
        index = build_pivot_index(corpora.values())
        mined = mine_all(index, langs, xprod_cap=None)
        for (a, b), corpus in mined.items():
            expected = nested_loop_mine(
                corpus_observations(corpora[a]), corpus_observations(corpora[b])
            )
            got = set(zip(corpus.src_texts, corpus.tgt_texts))
            assert got == expected, f"fixture {i}, pair {a}-{b}"
            assert len(corpus) == len(expected), f"fixture {i}: duplicates in {a}-{b}"
        n_fixtures += 1
    for i, n_english in enumerate((800, 1200)):  # a couple of heavier joins
        langs = NON_ENGLISH[:2]
        corpora = english_centric_fixture(2000 + i, langs, n_english=n_english, overlap=0.6)
        index = build_pivot_index(corpora.values())
        mined = mine_all(index, langs, xprod_cap=None)
        for (a, b), corpus in mined.items():
            expected = nested_loop_mine(
                corpus_observations(corpora[a]), corpus_observations(corpora[b])
            )
            assert set(zip(corpus.src_texts, corpus.tgt_texts)) == expected
        n_fixtures += 1
    elapsed = time.monotonic() - started
    assert n_fixtures >= 50
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"


def test_table1_consistency():
    """The published statistics matrix reproduces its own SUM row exactly."""
    matrix = table1_matrix()
    sums = matrix.column_sums()
    expected_sums = {
        "en": 8127, "bn": 4014, "gu": 2466, "hi": 4574, "kn": 2274,
        "ml": 4452, "mr": 2483, "or": 605, "pa": 2523, "ta": 3440, "te": 1981,
    }
    for lang, expected in expected_sums.items():
        assert sums[lang] == expected, lang
    assert matrix.grand_total() == 28812
    assert matrix.unique_unordered_total() == 14406


def test_spanning_pair_validation():
    """Published 11-pair list validates; 1000 seeded selections all span."""
    assert spans_all_languages(PUBLISHED_PAIRS, INDIC_10)
    for seed in range(1000):
        pairs = select_spanning_pairs(INDIC_10, 11, seed=seed)
        assert len(pairs) == 11 and len(set(pairs)) == 11
        assert spans_all_languages(pairs, INDIC_10), f"seed {seed} failed to span"


def test_sampling_contracts(tmp_path):
    """Totals, byte-identical reruns, and subset relations hold exactly."""
    langs = ["bn", "hi", "ta", "te"]
    corpora = english_centric_fixture(321, langs, n_english=120, overlap=0.7)
    mined = mine_all(build_pivot_index(corpora.values()), langs, None)

    target = 15
    plan = SamplingPlan(SampleFraction(target), seed=11)
    entries = build_training_set(corpora.values(), mined, plan)
    sampled_total = sum(len(c) for c, label in entries if label == "sample-fraction")
    assert sampled_total == sum(min(len(c), target) for c in mined.values())

    manifest, _ = assemble_training_set(corpora.values(), mined, plan, tmp_path / "one")
    assemble_training_set(corpora.values(), mined, plan, tmp_path / "two")
    assert sum(e.count for e in manifest.entries if e.strategy == "sample-fraction") == 2 * sampled_total
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "one", tmp_path / "two", names, shallow=False)
    assert not mismatch and not errors
    one = tmp_path / "one"
    for entry in manifest.entries:  # both directions of a pair are the same texts, mirrored
        s, t = entry.direction.src, entry.direction.tgt
        assert (one / f"{s}-{t}.src").read_bytes() == (one / f"{t}-{s}.tgt").read_bytes()

    train_all = {
        (c.src_lang, c.tgt_lang): set(zip(c.src_texts, c.tgt_texts))
        for c, _ in build_training_set(corpora.values(), mined, SamplingPlan(TrainAll(), 11))
    }
    for strategy in (SamplePairs((("bn", "hi"), ("ta", "te"))), SampleFraction(target)):
        for c, _ in build_training_set(corpora.values(), mined, SamplingPlan(strategy, 11)):
            assert set(zip(c.src_texts, c.tgt_texts)) <= train_all[(c.src_lang, c.tgt_lang)]


def test_bpe_learn_oracle_and_revert_identity():
    """100 random corpora merge-for-merge; revert(apply(x)) on 1e5 tokens."""
    rng = random.Random(77)
    for i in range(100):
        alphabet = rng.choice(["ab", "abc", "abcdef", "abcdefghij"])
        n_tokens = rng.choice([20, 50, 200, 1000, 3000, 10_000])
        tokens = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(n_tokens)
        ]
        num_merges = rng.choice([5, 15, 30])
        model = learn_bpe([" ".join(tokens)], num_merges=num_merges, min_frequency=1)
        assert list(model.merges) == brute_force_learn(tokens, num_merges), f"corpus {i}"

    model = learn_bpe(["low low lower newest newest newest widest"], num_merges=10, min_frequency=1)
    segmenter = BpeSegmenter(model)
    charset = "abcdefXYZ@_-.क़খиαñ"
    tokens = []
    while len(tokens) < 100_000:
        token = "".join(rng.choice(charset) for _ in range(rng.randint(1, 10)))
        if "@@" not in token:
            tokens.append(token)
    for start in range(0, len(tokens), 5000):
        chunk = tokens[start:start + 5000]
        assert revert_bpe(segmenter.segment(chunk)) == chunk


def test_transliteration_exhaustive_round_trip():
    """Every codepoint of every supported block survives the round trip."""
    from multibridge.scripts import from_devanagari, to_devanagari

    failures = 0
    for code, lang in REGISTRY.items():
        if not lang.is_indic:
            continue
        base = lang.block_base
        for offset in range(BLOCK_SIZE):
            char = chr(base + offset)
            if from_devanagari(to_devanagari(char, code), code) != char:
                failures += 1
    assert failures == 0


def test_metrics_golden_suite():
    """BLEU (both tokenizations) and chrF2 within 0.1 of the reference
    scorer; perfect matches exactly 100.0; cosine within 1e-9 relative."""
    for case in GOLDEN["cases"]:
        hyps, refs = case["hypotheses"], case["references"]
        assert bleu(hyps, refs, "13a").value == pytest.approx(case["bleu_13a"], abs=0.1), case["name"]
        assert bleu(hyps, refs, "none").value == pytest.approx(case["bleu_none"], abs=0.1), case["name"]
        assert chrf2(hyps, refs).value == pytest.approx(case["chrf2"], abs=0.1), case["name"]

    perfect = ["The cat sat on the mat.", "नमस्ते दुनिया ।"]
    assert bleu(perfect, list(perfect), "13a").value == 100.0
    assert bleu(perfect, list(perfect), "none").value == 100.0
    assert chrf2(perfect, list(perfect)).value == 100.0

    import numpy as np

    rng = random.Random(9)
    va = [[rng.uniform(-3, 3) for _ in range(16)] for _ in range(10)]
    vb = [[rng.uniform(-3, 3) for _ in range(16)] for _ in range(10)]
    got = cosine_batch(
        EmbeddingTable(tuple(range(10)), np.asarray(va)),
        EmbeddingTable(tuple(range(10)), np.asarray(vb)),
    ).value
    assert got == pytest.approx(naive_mean_cosine(va, vb), rel=1e-9)


def test_table4_arithmetic():
    """The AVG row reproduces the printed averages to +-0.05."""
    langs = sorted(TABLE4_ROWS)
    reports = []
    tset = {}
    for src, (labse, chrf, bleu_score, sim) in TABLE4_ROWS.items():
        tgt = next(l for l in langs if l != src)
        direction = TranslationDirection(src, tgt)
        reports.append(EvalReport(direction, (
            MetricScore("cosine", labse, "s"),
            MetricScore("chrf2", chrf, "s"),
            MetricScore("bleu", bleu_score, "s"),
        ), 239))
        tset[direction] = sim
    table = nway_compare(reports, langs, testset_similarity=tset)
    for metric, printed in (("cosine", TABLE4_AVG["cosine"]), ("chrf2", TABLE4_AVG["chrf2"]),
                            ("bleu", TABLE4_AVG["bleu"]), ("tset_sim", TABLE4_AVG["tset_sim"])):
        assert abs(table.avg_row[metric] - printed) <= 0.05 + 1e-9, metric


def test_end_to_end_determinism(tmp_path):
    """Two runs of the bundled fixture: byte-identical trees, under 60s."""
    started = time.monotonic()
    trees = []
    for name in ("first", "second"):
        work = tmp_path / name
        shutil.copytree(FIXTURE, work)
        run_pipeline(load_config(work / "config.json"))
        trees.append({
            str(p.relative_to(work / "out")): p.read_bytes()
            for p in sorted((work / "out").rglob("*")) if p.is_file()
        })
    elapsed = time.monotonic() - started
    assert trees[0] == trees[1]
    assert len(trees[0]) > 50  # the tree is substantial, not trivially equal
    assert elapsed < 60.0, f"end-to-end runs took {elapsed:.1f}s"
