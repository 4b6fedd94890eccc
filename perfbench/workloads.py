"""Seeded input generators and parameters for the benchmark workloads.

Inputs come from ``random.Random`` seeded with the workload seed, never
from the package's own generator, so input generation stays independent
of the code under test. Every Indic language draws its syllables from
its own Unicode block, so script unification maps real codepoints.

The corpus generator plants every case the pipeline treats specially:
nukta sequences that ``normalize_unicode`` composes (hi/bn/or/pa),
danda and double danda, digit groups (``1,000``, ``3.14``) and English
punctuation for the 13a rules, whitespace-variant pivots, exact duplicate
pairs, identical-text leaks (an untranslated English line used as the
"translation" in several languages) and boilerplate pivot keys whose
translation cross product exceeds the ``xprod_cap``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import unicodedata
from pathlib import Path

INDIC = ("bn", "gu", "hi", "kn", "ml", "mr", "or", "pa", "ta", "te")
PIVOT = "en"

#: First codepoint of each language's 128-codepoint Unicode block.
BLOCK_BASE = {
    "bn": 0x0980, "gu": 0x0A80, "hi": 0x0900, "kn": 0x0C80, "ml": 0x0D00,
    "mr": 0x0900, "or": 0x0B00, "pa": 0x0A00, "ta": 0x0B80, "te": 0x0C00,
}

#: Decomposed base+nukta sequences (the composition-excluded kind, which
#: NFC leaves alone and the preprocess step must compose itself).
NUKTA_SEQUENCES = {
    "hi": ("क़", "ख़", "ग़", "ज़", "ड़", "फ़"),
    "bn": ("ড়", "ঢ়", "য়"),
    "or": ("ଡ଼", "ଢ଼"),
    "pa": ("ਲ਼", "ਸ਼", "ਖ਼", "ਗ਼", "ਜ਼", "ਫ਼"),
}

#: Scripts whose sentences end with a danda rather than a full stop.
DANDA_LANGS = frozenset({"bn", "hi", "mr", "or", "pa"})
DANDA, DOUBLE_DANDA = "।", "॥"

_EN_SEED_WORDS = (
    "the a this that cat dog house river mountain child teacher farmer reads "
    "writes builds carries sells buys green red heavy small old new quickly "
    "slowly today tomorrow market school village city road bridge water rice "
    "train station doctor hospital letter government people year work"
).split()

BOILERPLATE = ("Thank you.", "Click here to continue.", "All rights reserved.")

# Workload parameters. ``full`` is what the benchmark measures; ``tiny``
# is the self-check size and keeps the same stage mix at a fraction of the
# work. Each repetition runs the whole workload in a fresh interpreter.
WORKLOADS = {
    "indic10": {
        "kind": "pipeline",
        "full": {
            "languages": list(INDIC), "n_english": 200, "overlap": 0.5, "max_variants": 3,
            "sampling": {"strategy": "sample-fraction", "per_pair_target": 70},
            "bpe": {"num_merges": 200, "min_frequency": 2}, "xprod_cap": 64,
        },
        "tiny": {
            "languages": list(INDIC), "n_english": 60, "overlap": 0.5, "max_variants": 3,
            "sampling": {"strategy": "sample-fraction", "per_pair_target": 20},
            "bpe": {"num_merges": 30, "min_frequency": 2}, "xprod_cap": 64,
        },
    },
    "bpe-heavy": {
        "kind": "pipeline",
        "full": {
            "languages": ["hi", "ta"], "n_english": 600, "overlap": 0.8, "max_variants": 1,
            "sampling": {"strategy": "train-all"},
            "bpe": {"num_merges": 2000, "min_frequency": 2}, "xprod_cap": 64,
        },
        "tiny": {
            "languages": ["hi", "ta"], "n_english": 150, "overlap": 0.8, "max_variants": 1,
            "sampling": {"strategy": "train-all"},
            "bpe": {"num_merges": 150, "min_frequency": 2}, "xprod_cap": 64,
        },
    },
    "eval-nway": {
        "kind": "eval",
        "full": {"languages": [PIVOT, *INDIC], "segments": 20, "dim": 64},
        "tiny": {"languages": [PIVOT, *INDIC], "segments": 4, "dim": 64},
    },
}


def _block_chars(lang: str, lo: int, hi: int, categories: tuple[str, ...]) -> list[str]:
    base = BLOCK_BASE[lang]
    return [
        chr(base + off) for off in range(lo, hi + 1)
        if unicodedata.category(chr(base + off)) in categories
    ]


class _Lexicon:
    """A fixed word list per language, drawn from with Zipf weights."""

    def __init__(self, words: list[str]):
        self.words = words
        self._cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(words))))

    def word(self, rng: random.Random) -> str:
        return self.words[bisect.bisect(self._cum, rng.random() * self._cum[-1])]


def _indic_lexicon(rng: random.Random, lang: str, size: int) -> _Lexicon:
    vowels = _block_chars(lang, 0x05, 0x14, ("Lo",))
    consonants = _block_chars(lang, 0x15, 0x39, ("Lo",))
    signs = _block_chars(lang, 0x3E, 0x4C, ("Mn", "Mc"))
    nuktas = NUKTA_SEQUENCES.get(lang, ())
    words: set[str] = set()
    ordered: list[str] = []
    while len(ordered) < size:
        parts = [rng.choice(vowels)] if rng.random() < 0.1 else []
        for _ in range(rng.randint(1, 4)):
            base = rng.choice(nuktas) if nuktas and rng.random() < 0.08 else rng.choice(consonants)
            parts.append(base + (rng.choice(signs) if rng.random() < 0.6 else ""))
        word = "".join(parts)
        if word not in words:
            words.add(word)
            ordered.append(word)
    return _Lexicon(ordered)


def _english_lexicon(rng: random.Random, size: int) -> _Lexicon:
    words = list(_EN_SEED_WORDS)
    seen = set(words)
    while len(words) < size:
        word = "".join(rng.choice("abcdefghijklmnoprstuvwy") for _ in range(rng.randint(2, 9)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return _Lexicon(words)


def _number(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"{rng.randint(1, 99)},{rng.randint(0, 999):03d}"
    if kind == 1:
        return f"{rng.randint(0, 99)}.{rng.randint(0, 99):02d}"
    if kind == 2:
        return f"{rng.randint(1, 9)}-{rng.randint(10, 99)}"
    return str(rng.randint(1, 2025))


def english_sentence(rng: random.Random, lex: _Lexicon) -> str:
    words = [lex.word(rng) for _ in range(rng.randint(4, 12))]
    words[0] = words[0].capitalize()
    if rng.random() < 0.3:
        words.insert(rng.randrange(1, len(words) + 1), _number(rng))
    if rng.random() < 0.2:
        words[rng.randrange(len(words) - 1)] += ","
    if rng.random() < 0.1:
        i = rng.randrange(len(words))
        words[i] = f'"{words[i]}"'
    if rng.random() < 0.05:
        words.insert(rng.randrange(1, len(words)), "&")
    if rng.random() < 0.05:
        i = rng.randrange(1, len(words))
        words[i] = f"({words[i]})"
    return " ".join(words) + rng.choice((".", ".", ".", "?", "!"))


def indic_sentence(rng: random.Random, lang: str, lex: _Lexicon) -> str:
    words = [lex.word(rng) for _ in range(rng.randint(3, 11))]
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words) + 1), _number(rng))
    if rng.random() < 0.15:
        words[rng.randrange(len(words) - 1)] += ","
    if rng.random() < 0.05:
        words.insert(rng.randrange(len(words)), "(" + lex.word(rng) + ")")
    if lang in DANDA_LANGS:
        end = DOUBLE_DANDA if rng.random() < 0.05 else DANDA
        return " ".join(words) + (" " if rng.random() < 0.5 else "") + end
    return " ".join(words) + rng.choice((".", ".", "?"))


def english_centric_corpora(
    seed: int, languages: list[str], n_english: int, overlap: float, max_variants: int
) -> dict[str, list[tuple[str, str]]]:
    """One English-centric pair list per language, with every drop path planted.

    Counts are exact rather than drawn (each language has ``overlap *
    n_english`` pivot sentences, variant counts cycle through 1..
    ``max_variants``), so the amount of work barely moves with the seed.
    """
    rng = random.Random(seed)
    en_lex = _english_lexicon(rng, 1500)
    lexicons = {lang: _indic_lexicon(rng, lang, 1200) for lang in languages}
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < n_english:
        sentence = english_sentence(rng, en_lex)
        if sentence not in seen:
            seen.add(sentence)
            pool.append(sentence)
    # 1% of English lines "leak" untranslated into every corpus that has
    # them, so mining sees identical text on both sides of a pair.
    leaked = set(rng.sample(range(n_english), max(1, n_english // 100)))
    n_shared = round(overlap * n_english)

    corpora: dict[str, list[tuple[str, str]]] = {}
    for lang in languages:
        lex = lexicons[lang]
        chosen = sorted(rng.sample(range(n_english), n_shared))
        variant_counts = [1 + k % max_variants for k in range(n_shared)]
        rng.shuffle(variant_counts)
        pairs: list[tuple[str, str]] = []
        for i, variants in zip(chosen, variant_counts):
            sentence = pool[i]
            for _ in range(1 if i in leaked else variants):
                stored = sentence
                if rng.random() < 0.1:
                    # Whitespace variant: must still join after normalization.
                    stored = sentence.replace(" ", "  ", 1) + " "
                translation = sentence if i in leaked else indic_sentence(rng, lang, lex)
                pairs.append((stored, translation))
        # 5% exact duplicate pairs.
        pairs.extend(pairs[k] for k in rng.sample(range(len(pairs)), len(pairs) // 20))
        for sentence in BOILERPLATE:
            # 10 translations per language: 100 pairs per key, above a cap of 64.
            pairs.extend((sentence, indic_sentence(rng, lang, lex)) for _ in range(10))
        rng.shuffle(pairs)
        corpora[lang] = pairs
    return corpora


def write_pipeline_inputs(work: Path, seed: int, params: dict) -> Path:
    """Write raw bitext plus ``config.json`` under ``work``; returns the config path."""
    corpora = english_centric_corpora(
        seed, params["languages"], params["n_english"], params["overlap"], params["max_variants"]
    )
    raw = work / "raw"
    raw.mkdir(parents=True)
    for lang, pairs in corpora.items():
        for path, side in ((raw / f"{PIVOT}-{lang}.{PIVOT}", 0), (raw / f"{PIVOT}-{lang}.{lang}", 1)):
            path.write_text("".join(p[side] + "\n" for p in pairs), encoding="utf-8", newline="\n")
    config = {
        "pivot": PIVOT,
        "languages": params["languages"],
        "raw_dir": "raw",
        "mined_dir": "out/mined",
        "sampled_dir": "out/sampled",
        "preprocessed_dir": "out/prep",
        "sampling": params["sampling"],
        "bpe": params["bpe"],
        "xprod_cap": params["xprod_cap"],
        "seed": seed,
        "workers": 1,
    }
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def _perturb(rng: random.Random, sentence: str, lex: _Lexicon) -> str:
    words = sentence.split()
    out = []
    for word in words:
        roll = rng.random()
        if roll < 0.08 and len(words) > 2:
            continue  # dropped word
        out.append(lex.word(rng) if roll < 0.25 else word)
        if rng.random() < 0.04:
            out.append(lex.word(rng))  # inserted word
    if len(out) > 2 and rng.random() < 0.3:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    return " ".join(out) if out else sentence


def eval_directions(languages: list[str]) -> list[tuple[str, str]]:
    return [(s, t) for s in languages for t in languages if s != t]


def write_eval_inputs(work: Path, seed: int, params: dict) -> Path:
    """Hypothesis/reference text and embedding files for every ordered direction."""
    rng = random.Random(seed)
    languages = params["languages"]
    lexicons = {
        lang: _english_lexicon(rng, 1500) if lang == PIVOT else _indic_lexicon(rng, lang, 1200)
        for lang in languages
    }
    n, dim = params["segments"], params["dim"]
    out = work / "eval"
    out.mkdir(parents=True)
    for src, tgt in eval_directions(languages):
        lex = lexicons[tgt]
        make = (lambda: english_sentence(rng, lex)) if tgt == PIVOT else (lambda: indic_sentence(rng, tgt, lex))
        refs = [make() for _ in range(n)]
        hyps = [_perturb(rng, ref, lex) for ref in refs]
        stem = out / f"{src}-{tgt}"
        Path(f"{stem}.ref").write_text("".join(r + "\n" for r in refs), encoding="utf-8", newline="\n")
        Path(f"{stem}.hyp").write_text("".join(h + "\n" for h in hyps), encoding="utf-8", newline="\n")
        ref_vecs = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(n)]
        hyp_vecs = [[x + rng.gauss(0.0, 0.6) for x in vec] for vec in ref_vecs]
        for suffix, vecs in (("ref.emb", ref_vecs), ("hyp.emb", hyp_vecs)):
            ids = list(range(n))
            rng.shuffle(ids)  # row order differs between files; ids align them
            rows = "".join(
                f"{sid} " + " ".join(f"{x:.6f}" for x in vecs[sid]) + "\n" for sid in ids
            )
            Path(f"{stem}.{suffix}").write_text(f"{dim} {n}\n{rows}", encoding="utf-8", newline="\n")
    spec = {"languages": languages, "directions": [f"{s}-{t}" for s, t in eval_directions(languages)]}
    path = work / "eval.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def write_inputs(workload: str, scale: str, work: Path, seed: int) -> Path:
    spec = WORKLOADS[workload]
    params = spec[scale]
    if spec["kind"] == "pipeline":
        return write_pipeline_inputs(work, seed, params)
    return write_eval_inputs(work, seed, params)
