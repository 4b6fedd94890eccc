import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibridge.languages import UnknownLanguage
from multibridge.tags import TagError, is_tag_token, tag, untag

from oracles import naive_reserved_token


class TestTag:
    def test_basic(self):
        assert tag(["hello"], "en", "hi") == ["__src_en__", "__tgt_hi__", "hello"]

    def test_empty_payload(self):
        assert tag([], "bn", "ta") == ["__src_bn__", "__tgt_ta__"]

    def test_reserved_token_rejected(self):
        with pytest.raises(TagError, match="^payload contains reserved token '__tgt_hi__'$"):
            tag(["x", "__tgt_hi__"], "en", "hi")

    def test_same_language_rejected(self):
        with pytest.raises(TagError):
            tag(["x"], "hi", "hi")

    @pytest.mark.parametrize("src,tgt", [("english", "hi"), ("bn", "zz")])
    def test_code_outside_language_table_rejected(self, src, tgt):
        with pytest.raises(UnknownLanguage):
            tag(["a", "b"], src, tgt)


class TestUntag:
    def test_round_trip(self):
        src, tgt, payload = untag(tag(["a", "b"], "bn", "hi"))
        assert (src, tgt, payload) == ("bn", "hi", ["a", "b"])

    def test_round_trip_empty(self):
        assert untag(tag([], "en", "ta")) == ("en", "ta", [])

    def test_wrong_order(self):
        with pytest.raises(TagError, match="^expected a __src_xx__ tag first, got '__tgt_hi__'$"):
            untag(["__tgt_hi__", "__src_en__", "x"])
        with pytest.raises(TagError, match="^expected a __tgt_yy__ tag second, got '__src_hi__'$"):
            untag(["__src_en__", "__src_hi__", "x"])

    @pytest.mark.parametrize("tokens", [["__src_zz__", "__tgt_hi__", "a"], ["__src_bn__", "__tgt_xx__"]])
    def test_code_outside_language_table_rejected(self, tokens):
        with pytest.raises(UnknownLanguage):
            untag(tokens)

    def test_missing_tags(self):
        with pytest.raises(TagError, match="^expected a __src_xx__ tag first, got 'plain'$"):
            untag(["plain", "tokens"])
        with pytest.raises(TagError, match="^sequence shorter than the two leading tags$"):
            untag(["__src_en__"])

    def test_same_language_tags_rejected(self):
        with pytest.raises(TagError, match="^source and target tags agree on 'hi'$"):
            untag(["__src_hi__", "__tgt_hi__", "x"])


def test_is_tag_token():
    assert is_tag_token("__src_en__")
    assert is_tag_token("__tgt_ta__")
    assert not is_tag_token("__src_eng__")
    assert not is_tag_token("src_en")
    assert not is_tag_token("__both_en__")


_payload_token = st.text(
    st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1, max_size=10,
).filter(lambda t: not is_tag_token(t))


@given(st.lists(_payload_token, max_size=12))
def test_untag_tag_identity(tokens):
    assert untag(tag(tokens, "bn", "hi")) == ("bn", "hi", tokens)


# Tag-shaped text with near misses in every part, glued to the separators a
# joined line could hide.
_near_tag = st.tuples(
    st.sampled_from(["__src_", "__tgt_", "_src_", "__sr_"]),
    st.sampled_from(["hi", "zz", "az", "a", "hA", "hin", "h_", ""]),
    st.sampled_from(["__", "__\n", "_", "__ ", "___"]),
).map("".join)
_glued = st.lists(st.one_of(_near_tag, st.sampled_from(["x", "_", " ", "\n", "\t"])), max_size=3).map("".join)
_tag_payload = st.lists(st.one_of(_near_tag, _glued), max_size=6)


@settings(max_examples=500, deadline=None)
@given(_tag_payload)
def test_reserved_token_check_equals_per_token_oracle(tokens):
    reserved = naive_reserved_token(tokens)
    if reserved is None:
        assert tag(tokens, "bn", "hi") == ["__src_bn__", "__tgt_hi__", *tokens]
    else:
        with pytest.raises(TagError, match=f"^payload contains reserved token {re.escape(repr(reserved))}$"):
            tag(tokens, "bn", "hi")

