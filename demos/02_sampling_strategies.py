"""The three regimes for choosing how much mined data enters training.

English-centric data is always used in full; the regimes only govern the
mined non-English pairs. Everything is seeded: rerunning this script
prints exactly the same numbers.
"""

from multibridge import (
    BitextCorpus,
    SampleFraction,
    SamplePairs,
    SamplingPlan,
    TrainAll,
    sample_fraction,
    select_spanning_pairs,
    spans_all_languages,
)
from multibridge.sampling import build_training_set

LANGS = ["bn", "gu", "hi", "kn", "ml", "mr", "or", "pa", "ta", "te"]

# -- spanning pair selection ------------------------------------------------
pairs = select_spanning_pairs(LANGS, n_pairs=11, seed=4)
print("11 selected pairs:", " ".join(f"{a}-{b}" for a, b in pairs))
print("spans all ten languages:", spans_all_languages(pairs, LANGS))

# -- capped per-pair sampling -------------------------------------------------
big = BitextCorpus("bn", "hi", tuple(f"bn sentence {i}" for i in range(5000)),
                   tuple(f"hi sentence {i}" for i in range(5000)))
sampled = sample_fraction(big, target_n=100, seed=12)
print(f"\nsample_fraction: {len(big)} -> {len(sampled)} pairs (order-preserving subsequence)")
print("first three kept:", list(sampled.src_texts[:3]))

again = sample_fraction(big, target_n=100, seed=12)
print("same seed, same sample:", sampled == again)

# -- assembling a training set under each strategy ---------------------------
def toy_corpus(a, b, n):
    return BitextCorpus(a, b, tuple(f"{a} line {i}" for i in range(n)), tuple(f"{b} line {i}" for i in range(n)))

english = [toy_corpus("en", lang, 40) for lang in ("bn", "hi", "ta")]
mined = {
    ("bn", "hi"): toy_corpus("bn", "hi", 30),
    ("bn", "ta"): toy_corpus("bn", "ta", 8),
    ("hi", "ta"): toy_corpus("hi", "ta", 22),
}

for strategy in (SamplePairs((("bn", "hi"),)), SampleFraction(10), TrainAll()):
    entries = build_training_set(english, mined, SamplingPlan(strategy, seed=5))
    mined_total = sum(len(c) for c, label in entries if label != "english-centric")
    english_total = sum(len(c) for c, label in entries if label == "english-centric")
    print(f"\n{strategy.name}: {len(entries)} pairs, each trained in both directions, "
          f"{english_total} English-centric + {mined_total} mined sentence pairs")
    for corpus, label in entries:
        a, b = corpus.src_lang, corpus.tgt_lang
        print(f"    {a}-{b} and {b}-{a}  {len(corpus):>3} pairs  [{label}]")
