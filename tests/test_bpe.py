import dataclasses
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibridge.bpe import (
    BpeError,
    BpeModel,
    BpeSegmenter,
    apply_bpe,
    learn_bpe,
    _encode,
    load_bpe,
    revert_bpe,
    save_bpe,
)

from multibridge.corpus import CorpusError

from oracles import brute_force_learn, naive_segment, naive_vocab, sequential_apply

TOY = "low low lower newest newest newest widest"


class TestLearn:
    def test_toy_corpus_matches_brute_force(self):
        model = learn_bpe([TOY], num_merges=10, min_frequency=1)
        expected = brute_force_learn(TOY.split(), 10)
        assert list(model.merges) == expected

    def test_first_merge_is_most_frequent_pair(self):
        # "newest" x3 dominates; among its adjacent pairs each occurs 3
        # times, so the lexicographically smallest wins the tie.
        model = learn_bpe([TOY], num_merges=1, min_frequency=1)
        counts = {}
        for token in TOY.split():
            symbols = list(token[:-1]) + [token[-1] + "</w>"]
            for pair in zip(symbols, symbols[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        best = max(counts.values())
        assert model.merges[0] == min(p for p, c in counts.items() if c == best)

    def test_single_char_token_no_merges(self):
        model = learn_bpe(["a a a"], num_merges=10, min_frequency=1)
        assert model.merges == ()

    def test_zero_merges_gives_char_segmentation(self):
        model = learn_bpe(["abc abc"], num_merges=0, min_frequency=1)
        assert model.merges == ()
        assert apply_bpe(model, ["abc"]) == ["a@@", "b@@", "c"]

    def test_merge_floor_stops_early(self):
        # every word unique: all pair counts are 1 < floor 2
        model = learn_bpe(["abcd efgh ijkl"], num_merges=100, min_frequency=1)
        assert model.merges == ()

    def test_empty_corpus(self):
        with pytest.raises(BpeError, match="^no tokens to learn from$"):
            learn_bpe([])
        with pytest.raises(BpeError, match="^no tokens to learn from$"):
            learn_bpe(["   "])

    @pytest.mark.parametrize("argument", ["num_merges", "min_frequency", "merge_floor"])
    def test_negative_argument_rejected_before_reading(self, argument):
        def unread():
            raise AssertionError("input read before the arguments were checked")
            yield

        with pytest.raises(BpeError, match=f"'{argument}' must be an integer >= 0, not -1"):
            learn_bpe(unread(), **{argument: -1})

    def test_vocabulary_filtered_by_frequency(self):
        model = learn_bpe([TOY], num_merges=10, min_frequency=3)
        assert all(count >= 3 for count in model.vocab.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_random_corpora_match_brute_force(self, seed):
        rng = random.Random(seed)
        tokens = [
            "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(5, 400))
        ]
        fast = learn_bpe([" ".join(tokens)], num_merges=30, min_frequency=1)
        assert list(fast.merges) == brute_force_learn(tokens, 30)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["a", "ab", "abc"]).flatmap(
        lambda alphabet: st.lists(st.text(alphabet, min_size=1, max_size=10), min_size=1, max_size=25)
    ),
    st.integers(0, 40),
    st.sampled_from([0, 1, 2, 3]),
)
def test_learner_matches_brute_force_property(tokens, num_merges, merge_floor):
    # Tiny alphabets make ties and runs such as "aaaa" and "abab", whose
    # merge sites are adjacent: the cases the heap and the edge deltas
    # are most likely to get wrong.
    merges = learn_bpe([" ".join(tokens)], num_merges, 1, merge_floor).merges
    assert list(merges) == brute_force_learn(tokens, num_merges, merge_floor)
    assert len(set(merges)) == len(merges)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["a", "ab", "abc", "aab"]).flatmap(
        lambda alphabet: st.lists(st.text(alphabet, min_size=1, max_size=10), min_size=1, max_size=25)
    ),
    st.integers(0, 60),
    st.integers(0, 2),
)
def test_training_segments_equal_rank_order_encoding(tokens, num_merges, merge_floor):
    model = learn_bpe([" ".join(tokens)], num_merges, 1, merge_floor)
    ranks = model.ranks()
    assert model.training_segments.keys() <= set(tokens)
    for token, symbols in model.training_segments.items():
        assert symbols == _encode(token, ranks)


class TestTrainingSegments:
    # The literal end-of-word marker inside a token lets merge 4 ("b", "</w>")
    # rebuild the pair ("a", "b</w>") in "ab</w>ab" after merge 3 took it.
    RECREATES = ["ab</w>ab", "b</w></w>", "ab"]

    def test_word_whose_merge_recreates_an_earlier_pair_is_left_out(self):
        model = learn_bpe(self.RECREATES, num_merges=5, min_frequency=0)
        assert model.merges[3:] == (("a", "b</w>"), ("b", "</w>"))
        learner_order = sequential_apply("ab</w>ab", list(model.merges))
        assert learner_order != naive_segment(["ab</w>ab"], list(model.merges), None)
        assert set(model.training_segments) == {"b</w></w>", "ab"}

    def test_learned_and_loaded_models_segment_alike(self, tmp_path):
        for tokens, num_merges, min_frequency in ((TOY.split(), 10, 2), (self.RECREATES, 5, 1)):
            model = learn_bpe(tokens, num_merges, min_frequency, merge_floor=1)
            save_bpe(model, tmp_path / "codes.txt", tmp_path / "vocab.txt")
            loaded = load_bpe(tmp_path / "codes.txt", tmp_path / "vocab.txt")
            assert loaded == model and not loaded.training_segments
            assert BpeSegmenter(model).segment(tokens) == BpeSegmenter(loaded).segment(tokens)

    def test_pair_rebuilt_by_a_later_merge_is_learned_once(self, tmp_path):
        # Merge 5 ("b", "</w>") rebuilds ("a", "b</w>") in "ab</w>ab"; with a
        # floor of 1 its count of 1 would make it merge 6 as well.
        model = learn_bpe(self.RECREATES, num_merges=10, min_frequency=1, merge_floor=1)
        assert len(set(model.merges)) == len(model.merges) == 9
        assert model.merges[:5] == learn_bpe(self.RECREATES, num_merges=5, min_frequency=1, merge_floor=1).merges
        save_bpe(model, tmp_path / "codes.txt", tmp_path / "vocab.txt")
        assert load_bpe(tmp_path / "codes.txt", tmp_path / "vocab.txt") == model

    def test_table_is_not_a_constructor_argument_and_is_not_carried_over(self):
        model = learn_bpe([TOY], num_merges=10, min_frequency=1)
        assert model.training_segments
        with pytest.raises(TypeError):
            BpeModel(model.merges, model.vocab, 10, 1, model.training_segments)
        assert not dataclasses.replace(model, merges=model.merges[:3]).training_segments


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.text("abc", min_size=1, max_size=6), max_size=5).map(" ".join), min_size=1, max_size=20),
    st.integers(0, 30),
    st.integers(0, 2),
)
def test_line_counts_learn_as_the_repeated_lines(lines, num_merges, min_frequency):
    if not any(line.split() for line in lines):
        return
    streamed = learn_bpe(iter(lines), num_merges, min_frequency, merge_floor=1)
    counted = learn_bpe(Counter(lines), num_merges, min_frequency, merge_floor=1)
    assert counted == streamed
    assert counted.training_segments == streamed.training_segments


# Tie-heavy pieces; "</w>" makes tokens whose later merges rebuild a taken pair.
_PIECES = [("a",), ("a", "b"), ("a", "b", "c"), ("a", "a", "b"), ("a", "b", "</w>")]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_PIECES).flatmap(lambda pieces: st.lists(
        st.lists(st.sampled_from(pieces), min_size=1, max_size=8).map("".join), min_size=1, max_size=25)),
    st.integers(0, 40),
    st.integers(0, 4),
    st.integers(0, 2),
    st.data(),
)
def test_per_symbol_vocabulary_and_segmenter_equal_per_word_oracles(tokens, num_merges, min_frequency,
                                                                   merge_floor, data):
    model = learn_bpe(tokens, num_merges, min_frequency, merge_floor)
    merges = list(model.merges)
    assert len(set(merges)) == len(merges)
    assert model.vocab == naive_vocab(tokens, merges, min_frequency)

    unseen = data.draw(st.lists(st.text("abcz", min_size=1, max_size=8), max_size=5))
    queries = tokens + unseen
    with tempfile.TemporaryDirectory() as tmp:
        codes, vocab = Path(tmp) / "codes.txt", Path(tmp) / "vocab.txt"
        save_bpe(model, codes, vocab)
        models = [model, load_bpe(codes, vocab), load_bpe(codes)]
    for m in models:
        assert BpeSegmenter(m).segment(queries) == naive_segment(queries, merges, m.vocab)


class TestSeparatorInToken:
    @pytest.mark.parametrize("token", ["lo@@w", "low@@", "@@low", "@@"])
    def test_learner_rejects_it(self, token):
        with pytest.raises(BpeError) as info:
            learn_bpe(["low " + token], num_merges=5, min_frequency=1)
        assert str(info.value) == f"token {token!r} contains the separator '@@'"

    @pytest.mark.parametrize("token", ["lo@@w", "low@@", "@@low", "@@"])
    def test_rank_order_encoding_rejects_it(self, token):
        model = learn_bpe([TOY], num_merges=10, min_frequency=1)
        for m in (model, BpeModel(model.merges, None, model.num_merges, model.min_frequency)):
            with pytest.raises(BpeError, match="contains the separator"):
                apply_bpe(m, ["low", token])


class TestApply:
    def test_frequent_token_emitted_whole(self):
        model = learn_bpe([TOY], num_merges=50, min_frequency=1)
        assert apply_bpe(model, ["newest"]) == ["newest"]

    def test_unseen_characters_fully_split(self):
        model = learn_bpe([TOY], num_merges=50, min_frequency=1)
        assert apply_bpe(model, ["xyz"]) == ["x@@", "y@@", "z"]

    def test_deterministic(self):
        model = learn_bpe([TOY], num_merges=50, min_frequency=1)
        assert apply_bpe(model, ["lowest"]) == apply_bpe(model, ["lowest"])

    def test_matches_sequential_reference(self):
        rng = random.Random(99)
        tokens = [
            "".join(rng.choice("abcde") for _ in range(rng.randint(1, 7)))
            for _ in range(300)
        ]
        model = learn_bpe([" ".join(tokens)], num_merges=40, min_frequency=1)
        unfiltered = BpeModel(model.merges, None, model.num_merges, model.min_frequency)
        for token in set(tokens) | {"aabbccdd", "eee", "z"}:
            assert apply_bpe(unfiltered, [token]) == sequential_apply(token, list(model.merges))

    def test_oov_subword_resplit_to_chars(self):
        # "low" appears twice, "lower" once; with threshold 2 the whole-word
        # subword "lower" falls out of the vocabulary and is re-split.
        model = learn_bpe(["low low lower"], num_merges=100, min_frequency=2)
        segmented = apply_bpe(model, ["lower"])
        assert segmented == ["l@@", "o@@", "w@@", "e@@", "r"]
        assert apply_bpe(model, ["low"]) == ["low"]

    def test_segmenter_bulk_equals_single(self):
        model = learn_bpe([TOY], num_merges=50, min_frequency=1)
        segmenter = BpeSegmenter(model)
        tokens = TOY.split() + ["unseen"]
        assert segmenter.segment(tokens) == apply_bpe(model, tokens)


class TestRevert:
    def test_basic(self):
        assert revert_bpe(["lo@@", "w"]) == ["low"]

    def test_dangling(self):
        with pytest.raises(BpeError, match=r"^subword stream ends mid-word \(trailing @@\)$"):
            revert_bpe(["a@@"])

    def test_empty(self):
        assert revert_bpe([]) == []

    def test_round_trip_toy(self):
        model = learn_bpe([TOY], num_merges=10, min_frequency=1)
        tokens = TOY.split() + ["unseen", "xyzzy"]
        assert revert_bpe(apply_bpe(model, tokens)) == tokens


_token = st.text(
    st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1, max_size=12,
).filter(lambda t: "@@" not in t and not t.isspace())


@settings(max_examples=150, deadline=None)
@given(st.lists(_token, min_size=0, max_size=30))
def test_revert_apply_identity_property(tokens):
    model = learn_bpe([TOY], num_merges=10, min_frequency=1)
    assert revert_bpe(apply_bpe(model, tokens)) == tokens


@settings(max_examples=50, deadline=None)
@given(st.lists(_token, min_size=1, max_size=20))
def test_concatenation_reproduces_token(tokens):
    model = learn_bpe([" ".join(tokens)], num_merges=20, min_frequency=1)
    for token in tokens:
        subwords = apply_bpe(model, [token])
        assert "".join(s.removesuffix("@@") for s in subwords) == token


class TestModelFile:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = learn_bpe([TOY], num_merges=10, min_frequency=2)
        save_bpe(model, tmp_path / "codes.txt", tmp_path / "vocab.txt")
        loaded = load_bpe(tmp_path / "codes.txt", tmp_path / "vocab.txt")
        assert loaded == model
        save_bpe(loaded, tmp_path / "codes2.txt", tmp_path / "vocab2.txt")
        assert (tmp_path / "codes.txt").read_bytes() == (tmp_path / "codes2.txt").read_bytes()
        assert (tmp_path / "vocab.txt").read_bytes() == (tmp_path / "vocab2.txt").read_bytes()

    def test_codes_file_shape(self, tmp_path):
        model = learn_bpe([TOY], num_merges=10, min_frequency=1)
        save_bpe(model, tmp_path / "codes.txt")
        lines = (tmp_path / "codes.txt").read_text().splitlines()
        assert lines[0].startswith("#bpe ")
        assert "num_merges=10" in lines[0] and "min_frequency=1" in lines[0]
        for line in lines[1:]:
            assert len(line.split(" ")) == 2

    def test_load_without_vocab_disables_filter(self, tmp_path):
        model = learn_bpe(["low low lower"], num_merges=100, min_frequency=2)
        save_bpe(model, tmp_path / "codes.txt")
        loaded = load_bpe(tmp_path / "codes.txt")
        assert loaded.vocab is None
        # with the vocab filter "lo@@" is out-of-vocabulary and re-split;
        # without it the learned merges apply untouched
        assert apply_bpe(model, ["lower"]) == ["l@@", "o@@", "w@@", "e@@", "r"]
        assert apply_bpe(loaded, ["lower"]) == ["lo@@", "w@@", "e@@", "r"]

    def test_reject_garbage(self, tmp_path):
        (tmp_path / "bad.txt").write_text("not a header\n")
        with pytest.raises(BpeError) as info:
            load_bpe(tmp_path / "bad.txt")
        assert str(info.value) == f"{tmp_path / 'bad.txt'}:1: not a BPE codes file"

    GOOD_CODES = b"#bpe num_merges=5 min_frequency=1\nl o\n"
    CRLF = "carriage return (CRLF line ending?); lines must end in LF"

    @pytest.mark.parametrize("codes,vocab,bad,line,error", [
        (b"#bpe num_merges=5 min_frequency=1\r\nl o\r\n", None, "codes", 1, CRLF),
        (b"#bpe num_merges=5 min_frequency=1\nl \xffo\n", None, "codes", 2, "invalid UTF-8"),
        (b"#bpe num_merges=x min_frequency=1\n", None, "codes", 1, BpeError),
        (b"#bpe num_merges=5 min_frequency=1.5\n", None, "codes", 1, BpeError),
        # Only the header save_bpe writes: a field-by-field parse would load
        # these four, the first as a 0-merge model.
        (b"#bpe num_merges=5 num_merges=0 min_frequency=1\n", None, "codes", 1, BpeError),
        (b"#bpexyz num_merges=5 min_frequency=1 foo=bar\n", None, "codes", 1, BpeError),
        (b"#bpe junk num_merges=2 min_frequency=1\n", None, "codes", 1, BpeError),
        (b"#bpe min_frequency=1 num_merges=5\n", None, "codes", 1, BpeError),
        (GOOD_CODES, b"lo 2\r\n", "vocab", 1, CRLF),
        (GOOD_CODES, b"lo 2\n\xff 1\n", "vocab", 2, "invalid UTF-8"),
        (GOOD_CODES, b"lo 2\nb x\n", "vocab", 2, BpeError),
        # rsplit(" ", 1) would load these three as {'w ': 3}, {'': 3} and {'w 3': 4}.
        (GOOD_CODES, b"lo 2\nw  3\n", "vocab", 2, BpeError),
        (GOOD_CODES, b"lo 2\n 3\n", "vocab", 2, BpeError),
        (GOOD_CODES, b"lo 2\nw 3 4\n", "vocab", 2, BpeError),
    ], ids=["codes-crlf", "codes-utf8", "num-merges", "min-frequency", "header-repeated-field",
            "header-suffixed-tag", "header-extra-word", "header-reordered", "vocab-crlf", "vocab-utf8", "vocab-count",
            "vocab-double-space", "vocab-empty-symbol", "vocab-three-fields"])
    def test_malformed_files_are_typed_errors(self, tmp_path, codes, vocab, bad, line, error):
        (tmp_path / "codes").write_bytes(codes)
        if vocab is not None:
            (tmp_path / "vocab").write_bytes(vocab)
        # A string names the line-format error: a CorpusError with exactly that message.
        with pytest.raises(CorpusError if isinstance(error, str) else error) as info:
            load_bpe(tmp_path / "codes", None if vocab is None else tmp_path / "vocab")
        assert f"{tmp_path / bad}:{line}:" in str(info.value)
        if isinstance(error, str):
            assert str(info.value) == f"{tmp_path / bad}:{line}: {error}"

    def test_duplicate_merge_names_both_lines(self, tmp_path):
        # ranks() keeps the last index of a repeated rule, and _encode's
        # len(ranks) sentinel then never applies it; a codes file lists
        # each merge once.
        (tmp_path / "codes").write_text("#bpe num_merges=5 min_frequency=1\nl o\no w\nl o\n")
        with pytest.raises(BpeError) as info:
            load_bpe(tmp_path / "codes")
        assert str(info.value) == f"{tmp_path / 'codes'}:4: duplicate merge 'l o' (first at line 2)"

    @pytest.mark.parametrize("codes,line,error", [
        ("#bpe num_merges=5 min_frequency=1\nl o\na \n", 3, "expected 'left right'"),
        ("#bpe num_merges=5 min_frequency=1\n o\n", 2, "expected 'left right'"),
        ("#bpe num_merges=0 min_frequency=1\nl o\n", 2, "more merges than the configured budget (0)"),
        ("#bpe num_merges=1 min_frequency=1\nl o\no w\n", 3, "more merges than the configured budget (1)"),
    ], ids=["empty-right", "empty-left", "budget-0", "budget-1"])
    def test_bad_merge_line_names_its_line(self, tmp_path, codes, line, error):
        (tmp_path / "codes").write_text(codes)
        with pytest.raises(BpeError) as info:
            load_bpe(tmp_path / "codes")
        assert str(info.value) == f"{tmp_path / 'codes'}:{line}: {error}"

    def test_duplicate_vocab_symbol_names_both_lines(self, tmp_path):
        # A dict load would keep the last count, 1, without a word.
        (tmp_path / "codes").write_bytes(self.GOOD_CODES)
        (tmp_path / "vocab").write_text("ab 3\nlo 2\nab 1\n")
        with pytest.raises(BpeError) as info:
            load_bpe(tmp_path / "codes", tmp_path / "vocab")
        assert str(info.value) == f"{tmp_path / 'vocab'}:3: duplicate symbol 'ab' (first at line 1)"

    def test_duplicate_merge_built_in_code_rejected(self):
        with pytest.raises(BpeError, match=r"duplicate merge rule \('l', 'o'\)"):
            BpeModel((("l", "o"), ("o", "w"), ("l", "o")), None, 5, 1)

    @pytest.mark.parametrize("codes,vocab,bad,line", [
        ("#bpe num_merges=५ min_frequency=1\n", None, "codes", 1),
        ("#bpe num_merges=+5 min_frequency=1\n", None, "codes", 1),
        ("#bpe num_merges=5 min_frequency=1_0\n", None, "codes", 1),
        (GOOD_CODES.decode(), "lo १०\n", "vocab", 1),
        (GOOD_CODES.decode(), "lo 2\nw 1_0\n", "vocab", 2),
        (GOOD_CODES.decode(), "lo 2\nw -1\n", "vocab", 2),
    ], ids=["devanagari-digit", "plus-sign", "underscore", "vocab-devanagari", "vocab-underscore",
            "vocab-negative"])
    def test_counts_are_ascii_digits_only(self, tmp_path, codes, vocab, bad, line):
        # int() alone accepts all of these; a count is [0-9]+ and nothing else.
        (tmp_path / "codes").write_text(codes, encoding="utf-8")
        if vocab is not None:
            (tmp_path / "vocab").write_text(vocab, encoding="utf-8")
        with pytest.raises(BpeError) as info:
            load_bpe(tmp_path / "codes", None if vocab is None else tmp_path / "vocab")
        assert f"{tmp_path / bad}:{line}: expected an integer" in str(info.value)
