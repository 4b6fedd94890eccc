"""Deterministic synthetic corpus builders for tests.

Built on ``random.Random`` (not the package's pinned generator) so that
fixture construction stays independent of the code under test.
"""

from __future__ import annotations

import random

from multibridge.corpus import BitextCorpus

_EN_WORDS = (
    "the a this that cat dog house river mountain child teacher farmer "
    "reads writes builds carries sells buys green red heavy small old new "
    "quickly slowly today tomorrow market school village city road bridge"
).split()

# Syllable pools per script so transliteration sees real block codepoints.
_INDIC_SYLLABLES = {
    "bn": ["কা", "খি", "গু", "ঘে", "চো", "ছা", "জি", "ঝু", "টে", "ঠো", "ডা", "ণি"],
    "hi": ["का", "खि", "गु", "घे", "चो", "छा", "जि", "झु", "टे", "ठो", "डा", "णि"],
    "ta": ["கா", "கி", "கு", "கே", "கோ", "சா", "சி", "சு", "டே", "டோ", "தா", "நி"],
    "te": ["కా", "ఖి", "గు", "ఘే", "చో", "ఛా", "జి", "ఝు", "టే", "ఠో", "డా", "ణి"],
}


def english_sentence(rng: random.Random, n_words: int | None = None) -> str:
    n = n_words if n_words is not None else rng.randint(3, 9)
    return " ".join(rng.choice(_EN_WORDS) for _ in range(n))


def pseudo_translation(rng: random.Random, lang: str, n_words: int | None = None) -> str:
    """A made-up sentence in the language's native script."""
    syllables = _INDIC_SYLLABLES.get(lang)
    n = n_words if n_words is not None else rng.randint(2, 7)
    words = []
    for _ in range(n):
        if syllables is None:
            words.append("".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(2, 6))))
        else:
            words.append("".join(rng.choice(syllables) for _ in range(rng.randint(1, 3))))
    return " ".join(words)


def english_centric_fixture(
    seed: int,
    languages: list[str],
    n_english: int = 100,
    overlap: float = 0.5,
    max_variants: int = 2,
    allow_duplicates: bool = True,
) -> dict[str, BitextCorpus]:
    """Build one English-centric corpus per language with controlled overlap.

    ``overlap`` is the probability that an English sentence appears in any
    given language's corpus, so distinct languages share pivot sentences
    at roughly ``overlap**2``. ``max_variants`` allows one English
    sentence several distinct translations (exercising cross products),
    and ``allow_duplicates`` repeats some exact pairs (exercising dedup).
    """
    rng = random.Random(seed)
    english_pool = []
    seen = set()
    while len(english_pool) < n_english:
        sentence = english_sentence(rng)
        if sentence not in seen:
            seen.add(sentence)
            english_pool.append(sentence)

    corpora: dict[str, BitextCorpus] = {}
    for lang in languages:
        english: list[str] = []
        texts: list[str] = []
        for sentence in english_pool:
            if rng.random() > overlap:
                continue
            n_variants = 1 + rng.randrange(max_variants)
            for _ in range(n_variants):
                stored = sentence
                if rng.random() < 0.15:
                    # whitespace-variant pivot: must still join after
                    # normalization
                    stored = sentence.replace(" ", "  ", 1) + " "
                translation = pseudo_translation(rng, lang)
                english.append(stored)
                texts.append(translation)
                if allow_duplicates and rng.random() < 0.1:
                    english.append(stored)
                    texts.append(translation)
        if not english:  # degenerate draw; corpora must be non-trivial
            english.append(english_pool[0])
            texts.append(pseudo_translation(rng, lang))
        order = list(range(len(english)))
        rng.shuffle(order)  # one shuffle for both columns
        corpora[lang] = BitextCorpus("en", lang, tuple(english[i] for i in order), tuple(texts[i] for i in order))
    return corpora
