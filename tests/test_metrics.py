import decimal
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multibridge.cli import main
from multibridge.corpus import CorpusError, TranslationDirection, parse_floats
from multibridge.errors import MultibridgeError
from multibridge.metrics import (
    EmbeddingTable,
    EvalReport,
    MetricError,
    MetricScore,
    _parse_rows,
    _ranks,
    bleu,
    chrf2,
    cosine_batch,
    load_embeddings,
    nway_compare,
)

from oracles import naive_bleu, naive_chrf2, naive_load_embeddings, naive_mean_cosine, naive_nway

GOLDEN = json.loads((Path(__file__).parent / "data" / "metrics_golden.json").read_text())


def _golden_cases():
    return [pytest.param(c, id=c["name"]) for c in GOLDEN["cases"]]


class TestBleu:
    def test_perfect_match_exactly_100(self):
        hyps = ["The cat sat.", "A dog barked loudly!"]
        assert bleu(hyps, list(hyps)).value == 100.0
        assert bleu(hyps, list(hyps), "none").value == 100.0

    def test_imperfect_below_100(self):
        score = bleu(["the cat sat on a mat"], ["the cat sat on the mat"])
        assert 0.0 < score.value < 100.0

    def test_hand_computed_smoothing(self):
        # 5 shared unigrams minus 2, 1 shared bigram, zero tri/4-grams:
        # p1=3/5, p2=1/4, p3=exp-smoothed 1/(2*3), p4=1/(4*2), BP=1.
        value = bleu(["the swift brown fox leaps"], ["the quick brown fox jumps"], "none").value
        expected = 100.0 * math.exp(
            (math.log(3 / 5) + math.log(1 / 4) + math.log(1 / 6) + math.log(1 / 8)) / 4
        )
        assert value == pytest.approx(expected, abs=1e-9)

    def test_signature_shape(self):
        score = bleu(["a b c d"], ["a b c d"], "13a")
        assert score.signature.startswith("BLEU+case.mixed+numrefs.1+smooth.exp+tok.13a+version.")
        assert bleu(["a b c d"], ["a b c d"], "none").signature.count("+tok.none+") == 1

    def test_case_sensitive(self):
        assert bleu(["The Cat"], ["the cat"]).value < 100.0

    def test_errors(self):
        with pytest.raises(MetricError, match="^1 hypotheses vs 2 references$"):
            bleu(["a"], ["a", "b"])
        with pytest.raises(MetricError, match="^nothing to score$"):
            bleu([], [])
        with pytest.raises(MetricError):
            bleu(["a"], ["a"], tokenization="intl")

    def test_permutation_invariant(self):
        hyps = ["the cat sat down", "a dog barked", "birds fly south in winter"]
        refs = ["the cat sat down now", "a dog barked twice", "birds flew south in winter"]
        base = bleu(hyps, refs).value
        order = [2, 0, 1]
        assert bleu([hyps[i] for i in order], [refs[i] for i in order]).value == pytest.approx(base)

    @pytest.mark.parametrize("case", _golden_cases())
    def test_golden_13a(self, case):
        value = bleu(case["hypotheses"], case["references"], "13a").value
        assert value == pytest.approx(case["bleu_13a"], abs=0.1)

    @pytest.mark.parametrize("case", _golden_cases())
    def test_golden_none(self, case):
        value = bleu(case["hypotheses"], case["references"], "none").value
        assert value == pytest.approx(case["bleu_none"], abs=0.1)


class TestChrf2:
    def test_identical_exactly_100(self):
        assert chrf2(["abc def"], ["abc def"]).value == 100.0

    def test_disjoint_zero(self):
        assert chrf2(["aaaa"], ["zzzz"]).value == 0.0

    def test_whitespace_invariant(self):
        assert chrf2(["ab cd"], ["abcd"]).value == 100.0

    def test_errors(self):
        with pytest.raises(MetricError, match="^1 hypotheses vs 0 references$"):
            chrf2(["a"], [])
        with pytest.raises(MetricError, match="^nothing to score$"):
            chrf2([], [])

    @pytest.mark.parametrize("case", _golden_cases())
    def test_golden(self, case):
        value = chrf2(case["hypotheses"], case["references"]).value
        assert value == pytest.approx(case["chrf2"], abs=0.1)


# Few distinct pieces, so n-grams repeat and tie; " " gives empty and whitespace-only
# lines, "&amp;" a 13a entity, and 0-12 pieces lines shorter than every order.
_PIECES = st.sampled_from(["a", "b", "ab", "\u0915", "\u0964", ".", ",", "1", "&amp;", " "])
_LINE = st.lists(_PIECES, max_size=12).map("".join)


class TestNgramStatistics:
    """The sorted n-gram kernel gives the per-sentence ``Counter`` scores to the last bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_LINE, _LINE), min_size=1, max_size=6))
    def test_scores_equal_counter_oracle(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        for tokenization in ("13a", "none"):
            assert bleu(hyps, refs, tokenization).value == naive_bleu(hyps, refs, tokenization)
        assert chrf2(hyps, refs).value == naive_chrf2(hyps, refs)

    def test_chrf2_matches_only_within_a_pair(self):
        assert chrf2(["ab", "cd"], ["cd", "ab"]).value == 0.0

    def test_bleu_matches_only_within_a_pair(self):
        assert bleu(["a b c d", "e f g h"], ["e f g h", "a b c d"], "none").value == 3.993394401539203

    def test_bleu_ngrams_do_not_cross_lines(self):
        # No line has a 3-gram, so orders 3 and 4 have no n-grams and the score is 0.
        assert bleu(["a b", "c d"], ["a b", "c d"], "none").value == 0.0

    def test_chrf2_lone_surrogate(self):
        assert chrf2(["\ud800a"], ["\ud800a"]).value == 100.0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
        st.lists(st.integers(-2, 2), max_size=40),  # tie-heavy
        st.tuples(st.integers(-(2**63), 2**63 - 1), st.integers(0, 40)).map(lambda v: [v[0]] * v[1]),  # all equal
    ))
    @example([])
    @example([7])
    def test_ranks_equal_np_unique_inverse(self, values):
        keys = np.array(values, dtype=np.int64)
        expected = np.unique(keys, return_inverse=True)[1]
        got = _ranks(keys)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def _table(vectors, ids=None):
    matrix = np.asarray(vectors, dtype=np.float64)
    return EmbeddingTable(tuple(ids or range(len(vectors))), matrix)


class TestCosine:
    def test_self_similarity_100(self):
        table = _table([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        assert cosine_batch(table, table).value == pytest.approx(100.0)

    def test_orthogonal_zero(self):
        a = _table([[1.0, 0.0]])
        b = _table([[0.0, 1.0]])
        assert cosine_batch(a, b).value == pytest.approx(0.0)

    def test_matches_naive_recomputation(self):
        rng = random.Random(4)
        va = [[rng.uniform(-2, 2) for _ in range(8)] for _ in range(10)]
        vb = [[rng.uniform(-2, 2) for _ in range(8)] for _ in range(10)]
        got = cosine_batch(_table(va), _table(vb)).value
        expected = naive_mean_cosine(va, vb)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_symmetric(self):
        rng = random.Random(5)
        va = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(6)]
        vb = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(6)]
        assert cosine_batch(_table(va), _table(vb)).value == cosine_batch(_table(vb), _table(va)).value

    def test_id_alignment_not_row_order(self):
        a = _table([[1.0, 0.0], [0.0, 1.0]], ids=[1, 2])
        b = _table([[0.0, 1.0], [1.0, 0.0]], ids=[2, 1])
        assert cosine_batch(a, b).value == pytest.approx(100.0)

    def test_errors(self):
        with pytest.raises(MetricError, match="^dimension 2 vs 3$"):
            cosine_batch(_table([[1.0, 0.0]]), _table([[1.0, 0.0, 0.0]]))
        with pytest.raises(MetricError, match="^embedding tables cover different sentence ids$"):
            cosine_batch(_table([[1.0]], ids=[0]), _table([[1.0]], ids=[5]))
        with pytest.raises(MetricError, match="^zero-norm embedding encountered$"):
            cosine_batch(_table([[0.0, 0.0]]), _table([[1.0, 0.0]]))
        empty = EmbeddingTable((), np.zeros((0, 2)))
        with pytest.raises(MetricError, match="^empty embedding tables$"):
            cosine_batch(empty, empty)


def _load_outcome(loader, path):
    """The ids and exact matrix bytes a loader returns, or the type and message it raises."""
    try:
        table = loader(path)
    except MultibridgeError as exc:
        return type(exc), str(exc)
    return table.ids, table.matrix.dtype, table.matrix.shape, table.matrix.tobytes()


_EMB_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-3, 3).map(lambda x: f"{x:.6f}"),
    st.sampled_from(["0", "-0", "+1", ".5", "5.", "1e5", "-2.5E-3"]),
)
_EMB_SEPARATOR = st.sampled_from([" ", "\t", "  ", " \t "])
# float() alone accepts the last five bad floats, and int() the ids "-1", "+0" and "\u0967".
_BAD_FLOAT = st.sampled_from(["abc", "1.2.3", "1e", "--1", "inf", "-nan", "1e999", "1_0", "\u0967.\u096b"])
_BAD_ID = st.sampled_from(["x", "-1", "+0", "1.0", "\u0967"])


def _near_halfway(x: float, nudge: int) -> str:
    """The exact decimal halfway between ``x`` and the next float up, plus ``nudge`` units 900 digits down."""
    context = decimal.Context(prec=2000)  # exact: a float's decimal has at most 767 significant digits
    halfway = context.divide(context.add(decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))), 2)
    return str(context.add(halfway, decimal.Decimal(nudge).scaleb(halfway.adjusted() - 900)))


_SUBNORMAL = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
# Fields of the bytes the one-call path lets through: random strings of its alphabet, reprs,
# subnormals, and mantissas of 300 digits and more, among them the hardest to round: a
# decimal at, just below or just above the halfway point between two floats.
_CLEAN_FIELD = st.one_of(
    st.text("0123456789+-.eE", min_size=1, max_size=12),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _SUBNORMAL.map(repr),
    st.builds(_near_halfway, st.one_of(_SUBNORMAL, st.floats(-1e308, 1e308)), st.sampled_from([-1, 0, 1])),
    st.builds("{}.{}e{}".format, st.integers(1, 9), st.text("0123456789", min_size=300, max_size=400),
              st.integers(-700, 400)),
    st.sampled_from(["-0", "+0", "-0.0", "-0e5", "-1e-999", "1e999", "-1e999", "4.9e-324", "2.4703282292062327e-324",
                     "2.4703282292062328e-324"]),
)
_DEFECTS = ("float", "field-count", "id", "duplicate-id", "utf8", "cr", "comment", "blank", "spaces", "blank-end",
            "count")


@st.composite
def _embedding_file(draw, defects):
    """An embedding file; with ``defects`` > 0, that many drawn defects on different rows."""
    dim = draw(st.integers(1, 4))
    n_rows = draw(st.integers(max(defects, 2) if defects else 0, 6))
    ids = draw(st.lists(st.integers(0, 10**20), min_size=n_rows, max_size=n_rows, unique=True))
    rows = [[str(sid), *draw(st.lists(_EMB_VALUE, min_size=dim, max_size=dim))] for sid in ids]
    header = [str(dim), str(n_rows)]
    damage: dict[int, tuple[int, bytes]] = {}  # line index -> (byte position, byte to insert)
    extra: dict[int, bytes] = {}  # line index -> a line put before it
    end = draw(st.sampled_from([b"\n", b""]))
    keep_rows = True
    for row in draw(st.permutations(range(n_rows)))[:defects]:
        kind = draw(st.sampled_from(_DEFECTS))
        fields = rows[row]
        if kind == "float":
            fields[draw(st.integers(1, dim))] = draw(_BAD_FLOAT)
        elif kind == "field-count":
            fields[:] = fields[:-1] if draw(st.booleans()) else [*fields, draw(_EMB_VALUE)]
        elif kind == "id":
            fields[0] = draw(_BAD_ID)
        elif kind == "duplicate-id":
            fields[0] = rows[draw(st.sampled_from([r for r in range(n_rows) if r != row]))][0]
        elif kind in ("blank", "spaces"):  # a line of nothing, or of separators only, before this row
            extra[row + 1] = b"" if kind == "blank" else draw(_EMB_SEPARATOR).encode()
        elif kind == "blank-end":
            end = b"\n\n"
        elif kind == "count":  # the header's row count off by one, or "d 0" with or without the rows
            header[1] = str(draw(st.sampled_from([n_rows - 1, n_rows + 1, 0])))
            keep_rows = header[1] != "0" or draw(st.booleans())
        elif kind == "comment":
            damage[row + 1] = (draw(st.integers(0, 100)), b"#")
        else:  # a byte put into the line: this row's, or the header's
            line = draw(st.sampled_from([row + 1, 0]))
            damage[line] = (draw(st.integers(0, 100)), b"\xff" if kind == "utf8" else b"\r")
    lines = []
    for index, fields in enumerate([header, *(rows if keep_rows else [])]):
        sep = draw(_EMB_SEPARATOR)
        line = (draw(st.sampled_from(["", sep])) + sep.join(fields) + draw(st.sampled_from(["", sep]))).encode()
        if index in damage:
            at, byte = damage[index]
            at = min(at, len(line))
            line = line[:at] + byte + line[at:]
        lines += [extra[index], line] if index in extra else [line]
    return b"\n".join(lines) + end


class TestEmbeddingFile:
    @staticmethod
    def _write(table, path):
        rows = (" ".join([str(sid), *map(repr, row.tolist())]) for sid, row in zip(table.ids, table.matrix))
        path.write_text("\n".join([f"{table.dim} {len(table.ids)}", *rows]) + "\n")

    def test_round_trip(self, tmp_path):
        table = _table([[0.25, -1.5, 3.0], [1.0, 2.0, -0.125]], ids=[10, 11])
        self._write(table, tmp_path / "e.tsv")
        loaded = load_embeddings(tmp_path / "e.tsv")
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.matrix, table.matrix)
        header = (tmp_path / "e.tsv").read_text().splitlines()[0]
        assert header == "3 2"

    def test_reject_bad_row(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("2 1\n0\t1.0\n")
        with pytest.raises(MetricError):
            load_embeddings(tmp_path / "bad.tsv")

    @pytest.mark.parametrize("content,line,error", [
        (b"2 1\r\n0\t1.0\t0.0\r\n", 1, "carriage return (CRLF line ending?); lines must end in LF"),
        (b"2 1\n0\t1.0\t\xff\n", 2, "invalid UTF-8"),
        (b"2 1\n0 1.0 abc\n", 2, MetricError),
        (b"2 1\n0 1.0 1.2.3\n", 2, MetricError),
        # float() alone accepts the next five.
        ("2 1\n0 1.0 १.५\n".encode(), 2, MetricError),
        (b"2 1\n0 1.0 1_0\n", 2, MetricError),
        (b"2 1\n0 1.0 inf\n", 2, MetricError),
        (b"2 1\n0 1.0 -nan\n", 2, MetricError),
        (b"2 1\n0 1.0 1e999\n", 2, MetricError),
        (b"2 1\nx 1.0 0.0\n", 2, MetricError),
        (b"2 x\n", 1, MetricError),
    ], ids=["crlf", "invalid-utf8", "bad-float", "two-points", "devanagari-float", "underscore-float", "inf", "nan",
            "overflow", "bad-id", "bad-header"])
    def test_malformed_file_is_typed_error(self, tmp_path, content, line, error):
        (tmp_path / "bad.tsv").write_bytes(content)
        # A string names the line-format error: a CorpusError with exactly that message.
        with pytest.raises(CorpusError if isinstance(error, str) else error) as info:
            load_embeddings(tmp_path / "bad.tsv")
        assert f"{tmp_path / 'bad.tsv'}:{line}:" in str(info.value)
        if isinstance(error, str):
            assert str(info.value) == f"{tmp_path / 'bad.tsv'}:{line}: {error}"

    @pytest.mark.parametrize("content,line", [
        ("-1 0\n", 1),
        ("0 0\n", 1),
        ("0 1\n0\n", 1),
        ("१ 1\n0 1.0\n", 1),
        ("1 1_0\n", 1),
        ("1 1\n१ 1.0\n", 2),
        ("1 1\n+0 1.0\n", 2),
        ("1 1\n-1 1.0\n", 2),
    ], ids=["negative-dim", "zero-dim", "zero-dim-rows", "devanagari-dim", "underscore-rows",
            "devanagari-id", "plus-id", "negative-id"])
    def test_header_and_ids_are_ascii_counts(self, tmp_path, content, line):
        (tmp_path / "bad.tsv").write_text(content, encoding="utf-8")
        with pytest.raises(MetricError) as info:
            load_embeddings(tmp_path / "bad.tsv")
        assert f"{tmp_path / 'bad.tsv'}:{line}:" in str(info.value)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        (tmp_path / "dup.tsv").write_text("1 3\n0 1.0\n1 3.0\n0 2.0\n")
        with pytest.raises(MetricError) as info:
            load_embeddings(tmp_path / "dup.tsv")
        assert str(info.value) == f"{tmp_path / 'dup.tsv'}:4: duplicate sentence id 0 (first at line 2)"

    # str.split() also splits at each of these characters.
    @pytest.mark.parametrize("content,line", [
        ("2 1\n0 1.0\u00a02.0\n", 2),
        ("2 1\n0 1.0\v2.0\n", 2),
        ("2\u20031\n0 1.0 2.0\n", 1),
        ("2 1\u3000\n0 1.0 2.0\n", 1),
        ("2 1\n0 1.0 2.0\f\n", 2),
        ("2 1\n\u00850 1.0 2.0\n", 2),
        ("2 1\n0\x1f1.0 2.0\n", 2),
        ("2 1\n0 1.0\u20282.0\n", 2),
    ], ids=["nbsp", "vertical-tab", "em-space-header", "ideographic-space-header", "form-feed-at-end",
            "next-line-at-start", "unit-separator-after-id", "line-separator"])
    def test_only_spaces_and_tabs_separate_fields(self, tmp_path, capsys, content, line):
        path = tmp_path / "e.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(MetricError, match=f"^{tmp_path / 'e.tsv'}:{line}: "):
            load_embeddings(path)
        assert main(["evaluate", "--metric", "cosine", "--emb-a", str(path), "--emb-b", str(path)]) == 2
        assert f"multibridge: {path}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("line5", [b"3 1.0", b"3 1.0 \xff", b"3 1.0 2.0\r", b"0 1.0 2.0"],
                             ids=["short-row", "invalid-utf8", "cr", "duplicate-id"])
    def test_bad_float_wins_over_a_later_error(self, tmp_path, line5):
        (tmp_path / "e.tsv").write_bytes(b"2 4\n0 1.0 2.0\n1 1.0 x\n2 1.0 2.0\n" + line5 + b"\n")
        with pytest.raises(MetricError) as info:
            load_embeddings(tmp_path / "e.tsv")
        assert str(info.value) == f"{tmp_path / 'e.tsv'}:3: expected 2 finite decimal floats"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_row_by_row_oracle(self, data):
        content = data.draw(_embedding_file(defects=data.draw(st.integers(0, 2))))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.tsv"
            path.write_bytes(content)
            assert _load_outcome(load_embeddings, path) == _load_outcome(naive_load_embeddings, path)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_CLEAN_FIELD, min_size=1, max_size=3), _EMB_SEPARATOR)
    def test_text_reader_accepts_exactly_what_float_accepts(self, fields, sep):
        # The one-call path's premise: on the bytes it lets through, numpy's reader as the
        # loader calls it takes exactly the fields float() takes, to the bit (-0.0 included).
        try:
            expected = ((1, len(fields)), np.array([list(map(float, fields))]).tobytes())
        except ValueError:
            expected = "rejected"
        try:
            table = _parse_rows(sep.join(fields).encode())
            got = (table.shape, table.tobytes())
        except ValueError:
            got = "rejected"
        assert got == expected

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
    def test_every_finite_repr_loads_back(self, values):
        assert parse_floats([repr(v) for v in values], "e.tsv", 2, MetricError) == values

    def test_reject_nonfinite(self):
        with pytest.raises(MetricError):
            _table([[float("nan"), 1.0]])


def _score(metric, value):
    return MetricScore(metric, value, f"{metric}+test")


def _report(src, tgt, values: dict, n=100):
    scores = tuple(_score(metric, value) for metric, value in values.items())
    return EvalReport(TranslationDirection(src, tgt), scores, n)


# Per-source aggregate rows of the published n-way comparison (labse
# cosine, chrF2, BLEU, testset similarity), used as an arithmetic check.
TABLE4_ROWS = {
    "bn": (81.2, 45.8, 14.6, 78.1),
    "gu": (84.4, 51.1, 19.0, 83.2),
    "hi": (86.0, 52.9, 19.7, 83.8),
    "kn": (82.8, 47.9, 16.4, 81.7),
    "ml": (83.1, 47.3, 16.0, 80.1),
    "mr": (82.6, 47.9, 16.2, 81.6),
    "or": (82.2, 48.3, 17.0, 79.6),
    "pa": (85.1, 52.3, 19.5, 82.6),
    "ta": (82.1, 46.2, 15.4, 80.3),
    "te": (83.9, 48.2, 16.3, 74.5),
}
TABLE4_AVG = {"cosine": 83.3, "chrf2": 48.8, "bleu": 17.0, "tset_sim": 80.6}


class TestNwayCompare:
    def test_single_direction_is_its_own_row(self):
        reports = [_report("bn", "hi", {"bleu": 12.5, "chrf2": 40.0})]
        table = nway_compare(reports, ["bn", "hi"])
        rows = dict(table.rows)
        assert rows["bn"]["bleu"] == pytest.approx(12.5)
        assert rows["hi"]["bleu"] is None
        assert TranslationDirection("hi", "bn") in table.missing

    def test_published_avg_row(self):
        # One synthetic direction per source carrying the published
        # per-source aggregates; the AVG row must reproduce the printed
        # averages within rounding.
        langs = sorted(TABLE4_ROWS)
        reports = []
        tset = {}
        for src, (labse, chrf, bleu_score, sim) in TABLE4_ROWS.items():
            tgt = next(l for l in langs if l != src)
            reports.append(_report(src, tgt, {"cosine": labse, "chrf2": chrf, "bleu": bleu_score}))
            tset[TranslationDirection(src, tgt)] = sim
        table = nway_compare(reports, langs, testset_similarity=tset)
        for metric, printed in TABLE4_AVG.items():
            assert abs(table.avg_row[metric] - printed) <= 0.05 + 1e-9, metric

    def test_micro_vs_macro_hand_weighted(self):
        reports = [
            _report("bn", "hi", {"bleu": 10.0}, n=100),
            _report("bn", "ta", {"bleu": 20.0}, n=300),
            _report("hi", "ta", {"bleu": 30.0}, n=600),
        ]
        langs = ["bn", "hi", "ta"]
        macro = nway_compare(reports, langs, average="macro")
        micro = nway_compare(reports, langs, average="micro")
        rows_macro = dict(macro.rows)
        rows_micro = dict(micro.rows)
        assert rows_macro["bn"]["bleu"] == pytest.approx((10 + 20) / 2)
        assert rows_micro["bn"]["bleu"] == pytest.approx((10 * 100 + 20 * 300) / 400)
        # pooled micro average across all three directions
        assert micro.avg_row["bleu"] == pytest.approx((10 * 100 + 20 * 300 + 30 * 600) / 1000)
        assert macro.avg_row["bleu"] == pytest.approx((15.0 + 30.0) / 2)

    def test_english_row_separate(self):
        reports = [
            _report("en", "hi", {"bleu": 25.0}),
            _report("bn", "hi", {"bleu": 12.0}),
        ]
        table = nway_compare(reports, ["bn", "hi"])
        assert table.pivot_row["bleu"] == pytest.approx(25.0)
        assert table.avg_row["bleu"] == pytest.approx(12.0)

    def test_into_english_excluded_from_rows(self):
        reports = [
            _report("bn", "en", {"bleu": 30.0}),
            _report("bn", "hi", {"bleu": 10.0}),
        ]
        table = nway_compare(reports, ["bn", "hi"])
        assert dict(table.rows)["bn"]["bleu"] == pytest.approx(10.0)

    def test_pivot_other_than_english_rejected(self):
        reports = [_report("hi", "bn", {"bleu": 25.0}), _report("bn", "hi", {"bleu": 12.0})]
        with pytest.raises(MetricError):
            nway_compare(reports, ["bn", "hi"], pivot="hi")
        table = nway_compare(reports, ["bn", "hi", "en"], "en")
        assert [label for label, _ in table.rows] == ["bn", "hi"]

    def test_two_reports_for_one_direction_rejected(self):
        reports = [_report("bn", "hi", {"bleu": 10.0}), _report("bn", "hi", {"bleu": 30.0})]
        with pytest.raises(MetricError, match="bn-hi"):
            nway_compare(reports, ["bn", "hi"])

    def test_language_listed_twice_rejected(self):
        reports = [_report("bn", "hi", {"bleu": 10.0}), _report("hi", "bn", {"bleu": 30.0})]
        with pytest.raises(MetricError, match="'bn'"):
            nway_compare(reports, ["bn", "hi", "bn"])
        with pytest.raises(MetricError, match="'en'"):
            nway_compare(reports, ["en", "bn", "hi", "en"])

    def test_report_score_outside_report_metrics_rejected(self):
        reports = [_report("bn", "hi", {"tset_sim": 5.0, "ter": 3.0})]
        with pytest.raises(MetricError, match="^report bn-hi: 'tset_sim' is not bleu, chrf2 or cosine$"):
            nway_compare(reports, ["bn", "hi"])

    def test_tsv_layout(self):
        reports = [_report("bn", "hi", {"bleu": 12.345})]
        text = nway_compare(reports, ["bn", "hi"]).to_tsv()
        lines = text.splitlines()
        assert lines[0] == "# average: macro"
        assert lines[1].split("\t") == ["src", "bleu"]
        assert "12.3" in lines[2]
        assert any(line.startswith("AVG\t") for line in lines)


# Codes for the n-way property: "mr" is never in ``languages``, so its
# directions are reports from (and into) a source outside the table. Rows of
# three or more directions, with values off the binary grid (k / 997), make
# the summation order visible in the floats.
_NWAY_CODES = ("en", "bn", "hi", "ta", "te", "gu")


def _nway_value(lo, hi):
    return st.floats(lo, hi) | st.integers(lo * 997, hi * 997).map(lambda k: k / 997)


# "ter" is outside METRIC_ORDER, and "tset_sim" comes only from test-set
# similarities: a report holding either is an error.
_NWAY_VALUES = {
    "bleu": _nway_value(0, 100),
    "chrf2": _nway_value(0, 100),
    "cosine": _nway_value(-100, 100),
    "tset_sim": _nway_value(-1000, 1000),
    "ter": _nway_value(-1000, 1000),
}


@st.composite
def _nway_inputs(draw):
    codes = draw(st.permutations(_NWAY_CODES))
    languages = list(codes[: draw(st.integers(0, len(codes)))])
    pool = sorted({*languages, "en", "mr"})
    directions = [TranslationDirection(a, b) for a in pool for b in pool if a != b]
    table_metrics = draw(st.lists(st.sampled_from(sorted(_NWAY_VALUES)), unique=True))
    reports = []
    chosen = draw(st.permutations([d for d in directions if draw(st.booleans())]))
    for d in chosen[::-1] if draw(st.booleans()) else chosen:  # permutations stay near sorted
        scores = tuple(_score(m, draw(_NWAY_VALUES[m])) for m in table_metrics if draw(st.integers(0, 3)))
        reports.append(EvalReport(d, scores, draw(st.integers(0, 50))))
    tset = draw(st.dictionaries(st.sampled_from(directions), _nway_value(0, 100), max_size=12))
    return reports, languages, draw(st.sampled_from(["macro", "micro"])), draw(st.none() | st.just(tset))


# Reports in reverse direction order whose sum depends on its order:
# (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
_NWAY_ORDER_EXAMPLE = (
    [_report("bn", tgt, {"bleu": value}) for tgt, value in (("te", 0.1), ("ta", 0.2), ("hi", 0.3))],
    ["bn", "hi", "ta", "te"], "macro", None,
)


class TestNwayOracle:
    @settings(max_examples=200, deadline=None)
    @given(_nway_inputs())
    @example(_NWAY_ORDER_EXAMPLE)
    def test_matches_rescanning_oracle(self, inputs):
        reports, languages, average, tset = inputs
        foreign = next((r for r in reports for s in r.scores if s.metric in ("tset_sim", "ter")), None)
        if foreign is not None:  # a report score outside bleu, chrf2 and cosine
            with pytest.raises(MetricError, match=f"^report {foreign.direction.label()}: '(tset_sim|ter)'"):
                nway_compare(reports, languages, average=average, testset_similarity=tset)
            return
        table = nway_compare(reports, languages, average=average, testset_similarity=tset)
        expected = naive_nway(reports, languages, average=average, testset_similarity=tset)
        assert table.rows == expected.rows
        assert table.avg_row == expected.avg_row
        assert table.pivot_row == expected.pivot_row
        assert table.metrics == expected.metrics
        assert table.missing == expected.missing
        assert table.to_tsv() == expected.to_tsv()
        assert repr(table) == repr(expected)  # bit-identical floats, -0.0 included


class TestMetricScoreInvariants:
    def test_range_enforced(self):
        with pytest.raises(MetricError):
            MetricScore("bleu", 101.0, "sig")
        with pytest.raises(MetricError):
            MetricScore("chrf2", -0.5, "sig")
        MetricScore("cosine", -100.0, "sig")

    def test_duplicate_metric_rejected(self):
        with pytest.raises(MetricError):
            EvalReport(
                TranslationDirection("bn", "hi"),
                (_score("bleu", 1.0), _score("bleu", 2.0)),
                10,
            )
