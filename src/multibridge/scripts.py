"""Unicode normalization and Indic <-> Devanagari transliteration.

The major Brahmic blocks are laid out in parallel with Devanagari, so
script unification is a per-codepoint offset: Bengali U+0995 sits at the
same block offset as Devanagari U+0915, and so on. The mapping is built
per language as a pair of translation tables:

* forward: every codepoint of the language's block that Unicode 14.0
  assigns maps to the Devanagari codepoint at the same offset (unassigned
  slots cannot occur in real text and pass through untouched);
* reverse: the exact inverse; Devanagari codepoints whose positional
  counterpart is unassigned in the target script (e.g. OM has no Bengali
  slot) have no counterpart and trigger the unmappable policy.

Normalization is NFC plus nukta canonicalization. NFC composes every
base+nukta letter but the composition-excluded ones, which it always
leaves decomposed, so each script's table lists exactly the base+nukta
decompositions of its composition-excluded letters: 8 Devanagari,
3 Bengali, 6 Gurmukhi and 2 Oriya.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache

from .errors import MultibridgeError
from .languages import BLOCK_SIZE, DEVANAGARI_BASE, Language, get_language

#: Per script, the base+nukta decomposition of each composition-excluded letter, and the letter.
DEFAULT_CANONICALIZATIONS: dict[str, dict[str, str]] = {
    "Devanagari": {
        "क़": "क़",
        "ख़": "ख़",
        "ग़": "ग़",
        "ज़": "ज़",
        "ड़": "ड़",
        "ढ़": "ढ़",
        "फ़": "फ़",
        "य़": "य़",
    },
    "Bengali": {
        "ড়": "ড়",
        "ঢ়": "ঢ়",
        "য়": "য়",
    },
    "Oriya": {
        "ଡ଼": "ଡ଼",
        "ଢ଼": "ଢ଼",
    },
    "Gurmukhi": {
        "ਲ਼": "ਲ਼",
        "ਸ਼": "ਸ਼",
        "ਖ਼": "ਖ਼",
        "ਗ਼": "ਗ਼",
        "ਜ਼": "ਜ਼",
        "ਫ਼": "ਫ਼",
    },
}

#: Devanagari-block codepoints every Indic script borrows as-is (the other
#: blocks intentionally leave these slots unassigned): danda and double
#: danda. They pass through both directions unchanged.
SHARED_CODEPOINTS = frozenset({0x0964, 0x0965})

#: The block offsets Unicode 14.0 assigns, per script: bit ``i`` is set when
#: ``block_base + i`` is a character. Pinned here rather than read from the
#: interpreter's database, which differs between Python versions, so the
#: tables and every transliterated byte are the same on each of them.
ASSIGNED_OFFSETS = {
    "Bengali": 0x7fffffcfb080799ff3c5fdfffff99fef,
    "Devanagari": 0xffffffffffffffffffffffffffffffff,
    "Gujarati": 0xfe03ffcf00013bbff3edfdfffffbbfee,
    "Gurmukhi": 0x007fffc05e023987d36dfdfffff987ee,
    "Kannada": 0x0006ffcf60603ddff3effdfffffddfff,
    "Malayalam": 0xffffffcffff0fddffffffffffffddfff,
    "Oriya": 0x00ffffcfb0e0399ff3edfdfffff99fee,
    "Tamil": 0x07ffffc000813dc7c3ffc718d63dc7ec,
    "Telugu": 0xff80ffcf27603ddff3fffdfffffddfff,
}


class ScriptError(MultibridgeError):
    """Every script-processing error: a language with no Indic block, or an unmappable codepoint."""


def normalize_unicode(text: str, lang: str) -> str:
    """NFC normalization plus script-specific nukta composition.

    For an Indic ``lang`` only its script's table applies; for English all
    tables do (they touch disjoint blocks, so this is safe).
    """
    text = unicodedata.normalize("NFC", text)
    language = get_language(lang)
    if language.is_indic:
        selected = [DEFAULT_CANONICALIZATIONS.get(language.script, {})]
    else:
        selected = DEFAULT_CANONICALIZATIONS.values()
    for table in selected:
        for seq, composed in table.items():
            if seq in text:
                text = text.replace(seq, composed)
    return text


class ScriptMap:
    """Positional codepoint mapping between one Indic block and Devanagari."""

    __slots__ = ("block_base", "forward", "reverse", "unmappable")

    def __init__(self, lang: Language):
        if not lang.is_indic:
            raise ScriptError(f"{lang.code} has no Indic block to map")
        self.block_base = lang.block_base
        assigned = ASSIGNED_OFFSETS[lang.script]
        forward: dict[int, int] = {}
        reverse: dict[int, int] = {}
        unmappable: set[int] = set()
        for offset in range(BLOCK_SIZE):
            src_cp = lang.block_base + offset
            deva_cp = DEVANAGARI_BASE + offset
            if deva_cp in SHARED_CODEPOINTS:
                continue  # danda family: identity in both directions
            if assigned >> offset & 1:
                forward[src_cp] = deva_cp
                reverse[deva_cp] = src_cp
            else:
                unmappable.add(deva_cp)
        self.forward = forward
        self.reverse = reverse
        self.unmappable = frozenset(unmappable)


@lru_cache(maxsize=None)
def _script_map(code: str) -> ScriptMap:
    return ScriptMap(get_language(code))


def to_devanagari(text: str, lang: str) -> str:
    """Map every codepoint of ``lang``'s block to its Devanagari position.

    Codepoints outside the block (digits, punctuation, Latin) pass through
    unchanged. For natively-Devanagari languages this is the identity.
    """
    smap = _script_map(lang)
    if smap.block_base == DEVANAGARI_BASE:
        return text
    return text.translate(smap.forward)


def from_devanagari(text: str, lang: str, on_unmappable: str = "error") -> str:
    """Exact inverse of :func:`to_devanagari` on its image.

    A Devanagari codepoint with no counterpart in ``lang``'s script raises
    :class:`ScriptError` by default (surfacing corrupt model output
    early); pass ``on_unmappable="pass"`` to let such codepoints through.
    """
    if on_unmappable not in ("error", "pass"):
        raise ValueError(f"unknown unmappable policy: {on_unmappable!r}")
    smap = _script_map(lang)
    if smap.block_base == DEVANAGARI_BASE:
        return text
    if on_unmappable == "error" and smap.unmappable:
        for ch in text:
            if ord(ch) in smap.unmappable:
                raise ScriptError(f"U+{ord(ch):04X} ({unicodedata.name(ch, '?')}) has no {lang} counterpart")
    return text.translate(smap.reverse)
