import unicodedata

import pytest

from multibridge.languages import BLOCK_SIZE, REGISTRY, get_language
from multibridge.scripts import (
    ASSIGNED_OFFSETS,
    DEFAULT_CANONICALIZATIONS,
    ScriptError,
    ScriptMap,
    from_devanagari,
    normalize_unicode,
    to_devanagari,
    _script_map,
)

from nukta_contract import LANGS, NFC_COMPOSED, composition_excluded

INDIC = [code for code, lang in REGISTRY.items() if lang.is_indic]
NON_DEVA = [code for code in INDIC if get_language(code).block_base != 0x0900]


class TestNormalizeUnicode:
    def test_plain_nfc_text_unchanged(self):
        for text in ("hello world", "नमस्ते", "ঢাকা", "", "abc 123 !?"):
            assert normalize_unicode(text, "en") == text

    def test_nfd_recomposed(self):
        assert normalize_unicode("é", "en") == "é"

    def test_devanagari_qa_composed(self):
        # base + nukta -> precomposed QA, which plain NFC never produces
        # (U+0958 is composition-excluded).
        decomposed = "क़"
        assert unicodedata.normalize("NFC", decomposed) == decomposed
        assert normalize_unicode(decomposed, "hi") == "क़"

    def test_precomposed_qa_stable(self):
        # NFC decomposes U+0958; the canonicalization table restores it,
        # so the precomposed form is the fixed point.
        assert normalize_unicode("क़", "hi") == "क़"
        assert normalize_unicode(normalize_unicode("क़", "hi"), "hi") == "क़"

    def test_bengali_rra_composed(self):
        assert normalize_unicode("ড়", "bn") == "ড়"

    def test_language_selects_table(self):
        # A Bengali-language call must not touch Devanagari sequences.
        assert normalize_unicode("क़", "bn") == "क़"

    @pytest.mark.parametrize("db", [unicodedata, unicodedata.ucd_3_2_0], ids=["interpreter", "ucd_3_2_0"])
    def test_tables_hold_exactly_the_composition_excluded_letters(self, db):
        # A sequence that NFC composes could never match an entry.
        assert composition_excluded(db) == DEFAULT_CANONICALIZATIONS
        assert {script: len(table) for script, table in DEFAULT_CANONICALIZATIONS.items()} == {
            "Devanagari": 8, "Bengali": 3, "Oriya": 2, "Gurmukhi": 6}

    @pytest.mark.parametrize("code", LANGS)
    def test_nfc_composes_the_letters_without_a_table_entry(self, code):
        for seq, letter in NFC_COMPOSED.items():
            assert normalize_unicode(seq, code) == normalize_unicode(letter, code) == letter
            assert normalize_unicode(f"a{seq}\u093e b", code) == f"a{letter}\u093e b"

    def test_ascii_unchanged(self):
        assert normalize_unicode("plain ascii, nothing else!", "en") == "plain ascii, nothing else!"


class TestToDevanagari:
    def test_bengali_ka_offset(self):
        assert to_devanagari("ক", "bn") == "क"

    def test_native_devanagari_identity(self):
        text = "नमस्ते दुनिया।"
        assert to_devanagari(text, "hi") == text
        assert to_devanagari(text, "mr") == text

    def test_passthrough_outside_block(self):
        assert to_devanagari("abc ক 123!", "bn") == "abc क 123!"

    def test_unsupported_language(self):
        with pytest.raises(ScriptError, match="^en has no Indic block to map$"):
            to_devanagari("hello", "en")
        with pytest.raises(Exception):
            to_devanagari("hello", "zz")

    def test_whole_word(self):
        # Bengali "bhasha" (language) maps to its Devanagari skeleton.
        assert to_devanagari("ভাষা", "bn") == "भाषा"


class TestFromDevanagari:
    def test_inverse_of_forward(self):
        assert from_devanagari("क", "bn") == "ক"

    def test_round_trip_sentence(self):
        text = "ঢাকা বাংলাদেশের রাজধানী।"
        assert from_devanagari(to_devanagari(text, "bn"), "bn") == text

    def test_unmappable_raises_by_default(self):
        # OM (U+0950) has no slot in the Bengali block (U+09D0 unassigned).
        with pytest.raises(ScriptError, match=r"^U\+0950 \(DEVANAGARI OM\) has no bn counterpart$"):
            from_devanagari("ॐ", "bn")

    def test_unmappable_passthrough_policy(self):
        assert from_devanagari("ॐ", "bn", on_unmappable="pass") == "ॐ"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            from_devanagari("x", "bn", on_unmappable="ignore")


@pytest.mark.parametrize("code", INDIC)
def test_exhaustive_block_round_trip(code):
    base = get_language(code).block_base
    text = "".join(chr(base + offset) for offset in range(BLOCK_SIZE))
    assert from_devanagari(to_devanagari(text, code), code) == text


@pytest.mark.parametrize("code", NON_DEVA)
def test_forward_map_injective_on_block(code):
    smap = ScriptMap(get_language(code))
    assert len(set(smap.forward.values())) == len(smap.forward)
    # forward never changes codepoint length: it is a per-codepoint map
    base = get_language(code).block_base
    text = "".join(chr(base + offset) for offset in range(BLOCK_SIZE))
    assert len(to_devanagari(text, code)) == len(text)


@pytest.fixture
def fresh_tables():
    _script_map.cache_clear()
    yield
    _script_map.cache_clear()


def _tables(code):
    smap = _script_map(code)
    return smap.forward, smap.reverse, smap.unmappable


def test_tables_ignore_the_interpreter_database(monkeypatch, fresh_tables):
    # Unicode 15.0 assigns U+0CF3 (Kannada); Unicode 13.0 leaves U+0C3C
    # (Telugu nukta) unassigned. Neither may change a table or an output.
    pinned = {code: _tables(code) for code in INDIC}
    category = unicodedata.category
    other_version = {"\u0cf3": "Mc", "\u0c3c": "Cn"}
    monkeypatch.setattr("multibridge.scripts.unicodedata.category", lambda ch: other_version.get(ch, category(ch)))
    _script_map.cache_clear()
    assert {code: _tables(code) for code in INDIC} == pinned
    assert to_devanagari("\u0c95\u0cf3", "kn") == "\u0915\u0cf3"
    assert to_devanagari("\u0c15\u0c3c", "te") == "\u0915\u093c"
    with pytest.raises(ScriptError, match=r"^U\+0973 \(DEVANAGARI LETTER OE\) has no kn counterpart$"):
        from_devanagari("\u0915\u0973", "kn")


@pytest.mark.skipif(unicodedata.unidata_version != "14.0.0", reason="the masks pin Unicode 14.0")
def test_masks_equal_unicode_14_assignments():
    assert set(ASSIGNED_OFFSETS) == {lang.script for lang in REGISTRY.values() if lang.is_indic}
    for lang in REGISTRY.values():
        if lang.is_indic:
            assigned = [unicodedata.category(chr(lang.block_base + i)) != "Cn" for i in range(BLOCK_SIZE)]
            assert [bool(ASSIGNED_OFFSETS[lang.script] >> i & 1) for i in range(BLOCK_SIZE)] == assigned, lang.script
