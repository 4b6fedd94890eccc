"""BPE subword segmentation: learn, apply, revert.

Merges are learned greedily from pair frequencies; applying them
segments any token into known subwords with "@@" marking non-final
pieces, and revert_bpe undoes it exactly.
"""

from multibridge import BpeSegmenter, learn_bpe, load_bpe, revert_bpe, save_bpe, tag

CORPUS = "low low low lower lower newest newest newest newest widest wide wide"

model = learn_bpe([CORPUS], num_merges=12, min_frequency=2)
print("learned merges (in order):")
for i, (left, right) in enumerate(model.merges):
    print(f"  {i:>2}: {left} + {right} -> {left}{right}")

print("\nvocabulary (frequency >= 2):", sorted(model.vocab))

segmenter = BpeSegmenter(model)  # builds the rank table and caches once, for every call below
for token in ("newest", "lowest", "wideness", "xyz"):
    subwords = segmenter.segment([token])
    print(f"\nsegment([{token!r}]) = {subwords}")
    print("  revert:", revert_bpe(subwords))

# Out-of-vocabulary subwords are re-split into characters at apply time,
# the standard vocabulary-threshold behaviour.
rare = learn_bpe(["low low lower"], num_merges=10, min_frequency=2)
print("\nwith a frequency floor, rare subwords fall back to characters:")
print("  segment(['lower']) =", BpeSegmenter(rare).segment(["lower"]))

# Segment first, then prepend the language control tags, so BPE never sees them.
segmented = segmenter.segment(["newest", "lowest"])
print("\nsegmented + tagged:", tag(segmented, "bn", "hi"))

# The codes file round-trips byte-identically.
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    codes = Path(tmp) / "codes.txt"
    save_bpe(model, codes, Path(tmp) / "vocab.txt")
    print("\ncodes file head:")
    for line in codes.read_text().splitlines()[:4]:
        print("   ", line)
    reloaded = load_bpe(codes, Path(tmp) / "vocab.txt")
    print("reload equals original:", reloaded == model)
