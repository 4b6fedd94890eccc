import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibridge.languages import REGISTRY
from multibridge.pipeline import preprocess_line
from multibridge.tokenizers import detokenize, tokenize, tokenize_13a

from oracles import naive_tokenize_13a, naive_tokenize_indic

# Every 13a rule fires: the padded class, ' , - . in and out of numbers, the
# entities, the line-break rules, Unicode whitespace and non-ASCII letters.
_13A_PIECES = st.sampled_from([
    *string.punctuation, *"09azAZ", " ", "\t", "\n", "-\n", "\u00a0",
    "&quot;", "&amp;", "&lt;", "&gt;", "<skipped>", "\u0915", "\u093f", "\u0964", "\u0967",
])

# Half the pieces build numeric runs ("1 ,\t000") that the tokenizer re-joins
# only after collapsing whitespace; \x1c and \x85 are whitespace to both
# str.split and re's \s.
_INDIC_PIECES = st.one_of(
    st.sampled_from([*string.digits, ",", ".", ":", "/", " ", "\t", "\x1c", "\x85", "\u00a0"]),
    st.sampled_from([*string.punctuation, "।", "॥", "\u0915", "\u093f", "\u0967", "नमस्ते"]),
)


class Test13a:
    def test_basic_punct(self):
        assert tokenize_13a("hello, world.") == "hello , world ."

    def test_numbers_keep_separators(self):
        assert tokenize_13a("It costs 1,000.50 today") == "It costs 1,000.50 today"

    def test_digit_dash_split(self):
        assert tokenize_13a("1990-1995") == "1990 - 1995"

    def test_html_entities(self):
        assert tokenize_13a("&quot;a&amp;b&quot;") == '" a & b "'

    def test_apostrophes_not_split(self):
        assert tokenize_13a("don't stop") == "don't stop"

    def test_idempotent_on_own_output(self):
        line = "It costs $3.50, tax-free (really)!"
        once = tokenize_13a(line)
        assert tokenize_13a(once) == once

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_13A_PIECES, max_size=24).map("".join))
    def test_equals_regex_oracle(self, line):
        assert tokenize_13a(line) == naive_tokenize_13a(line)


class TestTokenize:
    def test_english_words_and_punct(self):
        assert tokenize("hello, world.", "en") == ["hello", ",", "world", "."]

    def test_empty_string(self):
        assert tokenize("", "en") == []
        assert tokenize("", "hi") == []

    def test_hindi_danda(self):
        assert tokenize("नमस्ते।", "hi") == ["नमस्ते", "।"]

    def test_double_danda(self):
        assert tokenize("इति॥", "hi") == ["इति", "॥"]

    def test_indic_numbers_not_split(self):
        assert tokenize("कीमत 1,000.50 थी।", "hi") == ["कीमत", "1,000.50", "थी", "।"]

    def test_indic_ascii_punct(self):
        assert tokenize('उसने कहा, "ठीक है।"', "hi") == [
            "उसने", "कहा", ",", '"', "ठीक", "है", "।", '"',
        ]

    def test_bengali(self):
        assert tokenize("আমি ভাত খাই।", "bn") == ["আমি", "ভাত", "খাই", "।"]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_INDIC_PIECES, max_size=24).map("".join))
    def test_indic_equals_stitch_loop_oracle(self, text):
        assert tokenize(text, "hi") == naive_tokenize_indic(text)


def test_every_codepoint_below_u1000_equals_the_oracles():
    # The properties above draw from fixed alphabets; this pins each
    # tokenizer's character classes themselves, one codepoint at a time,
    # between letters, between digits and at the end of a word.
    texts = [text for cp in range(0x1000) for text in (f"a{chr(cp)}b", f"1{chr(cp)}2", f"x{chr(cp)}")]
    assert [text for text in texts if tokenize_13a(text) != naive_tokenize_13a(text)] == []
    assert [text for text in texts if tokenize(text, "hi") != naive_tokenize_indic(text)] == []


# Underscores, tag-shaped strings and the text around them in a real line:
# 13a's entity and <skipped> rules, numeric runs, Latin and Indic letters.
_UNDERSCORE_PIECES = st.sampled_from([
    "_", "__", "__src_hi__", "x__tgt_bn__y", "__tgt_en__", "src_ta", "<skipped>", "&quot;", " ", "\u00a0",
    *"09,.:/-", "a", "Z", "\u0915", "\u093f", "\u0985", "\u0ba4", "\u0967",
])


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(REGISTRY)), st.lists(_UNDERSCORE_PIECES, max_size=16).map("".join))
def test_every_underscore_is_a_token_of_its_own(lang, text):
    # run prepends the tags after BPE and checks no payload for them: this
    # is why no preprocessed token can be a __src_xx__ or __tgt_yy__ tag.
    assert [token for token in preprocess_line(text, lang) if "_" in token and token != "_"] == []


SAMPLE_SENTENCES = [
    ("hello, world.", "en"),
    ("It costs $3.50 (tax included)!", "en"),
    ('She said "yes" twice; then left.', "en"),
    ("Values: 1,000.50 and 42%.", "en"),
    ("One [two] {three} end.", "en"),
    ("नमस्ते।", "hi"),
    ("उसने कहा, \"ठीक है।\"", "hi"),
    ("कीमत 1,000.50 थी; फिर बढ़ी।", "hi"),
    ("আমি ভাত খাই, তুমি?", "bn"),
    ("இது ஒரு (நல்ல) சோதனை.", "ta"),
]


@pytest.mark.parametrize("text,lang", SAMPLE_SENTENCES)
def test_detokenize_round_trip(text, lang):
    assert detokenize(tokenize(text, lang)) == text


def test_detokenize_empty():
    assert detokenize([]) == ""
