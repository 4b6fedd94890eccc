"""The language table: ISO 639-1 codes, scripts, and Unicode block bases.

The table is fixed: English (the pivot) plus the ten Indic languages of
the WAT 2021 MultiIndicMT shared task. Each Brahmic script occupies a
128-codepoint Unicode block laid out in parallel with Devanagari, which
is what makes offset transliteration (see :mod:`multibridge.scripts`)
possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MultibridgeError

DEVANAGARI_BASE = 0x0900
BLOCK_SIZE = 0x80


class UnknownLanguage(MultibridgeError):
    """A language code is not in the language table."""


@dataclass(frozen=True)
class Language:
    """One language of the table.

    ``block_base`` is the first codepoint of the script's Unicode block,
    or ``None`` for non-Brahmic scripts (English/Latin).
    """

    code: str
    name: str
    script: str
    block_base: int | None

    @property
    def is_indic(self) -> bool:
        return self.block_base is not None


# Registry order follows the conventional en + alphabetical Indic ordering
# used by the WAT shared-task data.
_DEFAULT_LANGUAGES = [
    Language("en", "English", "Latin", None),
    Language("bn", "Bengali", "Bengali", 0x0980),
    Language("gu", "Gujarati", "Gujarati", 0x0A80),
    Language("hi", "Hindi", "Devanagari", 0x0900),
    Language("kn", "Kannada", "Kannada", 0x0C80),
    Language("ml", "Malayalam", "Malayalam", 0x0D00),
    Language("mr", "Marathi", "Devanagari", 0x0900),
    Language("or", "Odia", "Oriya", 0x0B00),
    Language("pa", "Punjabi", "Gurmukhi", 0x0A00),
    Language("ta", "Tamil", "Tamil", 0x0B80),
    Language("te", "Telugu", "Telugu", 0x0C00),
]

REGISTRY: dict[str, Language] = {lang.code: lang for lang in _DEFAULT_LANGUAGES}

#: The pivot language. Exactly one language per pipeline run plays this
#: role; everything here assumes it is English.
PIVOT = "en"


def get_language(code: str) -> Language:
    """Look up a language by code, raising :class:`UnknownLanguage` if absent."""
    try:
        return REGISTRY[code]
    except KeyError:
        raise UnknownLanguage(f"unknown language code: {code!r}") from None


def indic_codes() -> list[str]:
    """Codes of the table's Indic languages, in table order."""
    return [lang.code for lang in REGISTRY.values() if lang.is_indic]
