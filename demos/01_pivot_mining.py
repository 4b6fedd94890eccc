"""Pivot mining walkthrough.

Two English-centric corpora share some English sentences; joining on the
shared side yields a direct Bengali-Hindi corpus that never existed in
the input.
"""

from multibridge import (
    BitextCorpus,
    build_pivot_index,
    extraction_stats,
    mine_all,
    normalize_pivot,
)

# A corpus is two aligned columns: English texts, then their translations.
en_bn = BitextCorpus(
    "en", "bn",
    ("good morning", "good morning", "the river is wide", "thank you"),
    ("সুপ্রভাত", "শুভ সকাল", "নদীটি প্রশস্ত", "ধন্যবাদ"),  # "good morning" has two translations
)

en_hi = BitextCorpus(
    "en", "hi",
    ("good  morning ", "the river is wide", "see you tomorrow"),  # messy whitespace: still joins
    ("सुप्रभात", "नदी चौड़ी है", "कल मिलते हैं"),
)

en_ta = BitextCorpus("en", "ta", ("thank you", "the river is wide"), ("நன்றி", "ஆறு அகலமானது"))

print("join keys are normalized English sentences:")
print("   ", repr(normalize_pivot("good  morning ")))

index = build_pivot_index([en_bn, en_hi, en_ta])
print(f"\nindex holds {len(index)} distinct pivot sentences")

mined = mine_all(index, ["bn", "hi", "ta"])
for (a, b), corpus in sorted(mined.items()):
    print(f"\nmined {a}-{b}: {len(corpus)} pairs")
    for src_text, tgt_text in zip(corpus.src_texts, corpus.tgt_texts):
        print(f"    {src_text}  |||  {tgt_text}")

# "good morning" has two Bengali translations, so the bn-hi corpus gets
# the full cross product: 2 pairs from that single pivot key.

print("\nstatistics matrix (counts, English column first):")
print(extraction_stats([en_bn, en_hi, en_ta], mined).to_tsv())
