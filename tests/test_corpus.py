import errno
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibridge.corpus import (
    BitextCorpus,
    CorpusError,
    ManifestEntry,
    TrainingManifest,
    TranslationDirection,
    iter_lines,
    load_bitext,
    load_manifest,
    lock_dir,
    save_manifest,
    verify_manifest,
    write_bitext,
    write_lines,
    write_once,
)
from multibridge.mining import build_pivot_index, mine_pairs_detailed
from multibridge.sampling import sample_fraction

from oracles import naive_lines_text


def _write(path, content: bytes):
    path.write_bytes(content)
    return path


class TestBitextCorpus:
    def test_same_language_rejected(self):
        with pytest.raises(ValueError):
            BitextCorpus("en", "en", (), ())

    def test_rejects_blank_sides(self):
        with pytest.raises(ValueError, match="^src text is empty after trimming$"):
            BitextCorpus("en", "hi", ("  ",), ("ok",))
        with pytest.raises(ValueError, match="^tgt text is empty after trimming$"):
            BitextCorpus("en", "hi", ("ok",), ("\t",))

    def test_rejects_newlines(self):
        with pytest.raises(ValueError, match="^src text contains a newline$"):
            BitextCorpus("en", "hi", ("a\nb",), ("ok",))

    def test_rejects_unequal_columns(self):
        with pytest.raises(ValueError, match="^2 source texts vs 1 target texts$"):
            BitextCorpus("en", "hi", ("a", "b"), ("c",))


# Drawn texts, biased towards the edge cases: empty, whitespace-only
# (Unicode spaces too), LF, CR, and the line breaks other than LF and CR
# (U+2028, NEL), which a text may hold.
_any_text = st.one_of(
    st.sampled_from(["", " ", "\t", "\u3000", "\u2028", "a\x85b", "a\nb", "a\r", "\r\n", "ok", " ok "]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_text, max_size=5), st.lists(_any_text, max_size=5))
def test_bitext_corpus_rejects_exactly_the_bad_texts_property(src, tgt):
    bad = [text for text in src + tgt if all(map(str.isspace, text)) or "\n" in text or "\r" in text]
    if bad or len(src) != len(tgt):
        with pytest.raises(ValueError):
            BitextCorpus("en", "hi", tuple(src), tuple(tgt))
    else:
        corpus = BitextCorpus("en", "hi", tuple(src), tuple(tgt))
        assert len(corpus) == len(src)


def _rebuilt(corpus: BitextCorpus) -> BitextCorpus:
    """The public constructor, with every check, on a corpus's own columns."""
    return BitextCorpus(corpus.src_lang, corpus.tgt_lang, corpus.src_texts, corpus.tgt_texts)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_text, max_size=5), st.lists(_any_text, max_size=5))
def test_loaded_corpus_equals_public_constructor_property(src, tgt):
    # load_bitext skips the constructor's text walk: its own line checks must
    # reject every file whose lines the walk would reject, and build the same
    # corpus from every other file.
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name, texts in (("f.en", src), ("f.hi", tgt)):
            files.append(Path(tmp) / name)
            files[-1].write_bytes("".join(f"{text}\n" for text in texts).encode())
        try:
            loaded = load_bitext(*files, "en", "hi")
        except CorpusError:
            loaded = None
    lines = ["".join(f"{text}\n" for text in texts).split("\n")[:-1] for texts in (src, tgt)]
    try:
        public = BitextCorpus("en", "hi", *lines)
    except ValueError:
        public = None
    assert loaded == public


_pivot_rows = st.lists(st.tuples(st.sampled_from(["a", "b", "A ", "c"]), st.sampled_from(["x", "y", "a", "x y"])),
                       max_size=8)


@settings(max_examples=200, deadline=None)
@given(_pivot_rows, _pivot_rows, st.sampled_from([0, 1, 3]), st.integers(1, 6), st.integers(0, 2**64 - 1))
def test_derived_corpora_equal_public_constructor_property(bn_rows, hi_rows, cap, target, seed):
    # Mined and sampled corpora skip the constructor's text walk, since they
    # select texts from checked corpora; each equals the corpus the public
    # constructor builds from the same columns.
    english = [BitextCorpus("en", lang, tuple(e for e, _ in rows), tuple(t for _, t in rows))
               for lang, rows in (("bn", bn_rows), ("hi", hi_rows))]
    mined = mine_pairs_detailed(build_pivot_index(english), "bn", "hi", cap).corpus
    for corpus in (mined, sample_fraction(mined, target, seed), *(sample_fraction(c, target, seed) for c in english)):
        assert corpus == _rebuilt(corpus)


class TestLoadBitext:
    def test_identity_load(self, tmp_path):
        src = _write(tmp_path / "f.en", b"one\ntwo\nthree\n")
        tgt = _write(tmp_path / "f.hi", "एक\nदो\nतीन\n".encode())
        corpus = load_bitext(src, tgt, "en", "hi")
        assert len(corpus) == 3
        assert (corpus.src_texts[0], corpus.tgt_texts[0]) == ("one", "एक")
        assert corpus.src_texts == ("one", "two", "three")

    def test_line_count_mismatch(self, tmp_path):
        src = _write(tmp_path / "f.en", b"one\ntwo\nthree\n")
        tgt = _write(tmp_path / "f.hi", b"a\nb\nc\nd\n")
        with pytest.raises(CorpusError) as exc:
            load_bitext(src, tgt, "en", "hi")
        assert str(exc.value) == "line count mismatch: 3 source lines vs 4 target lines"

    def test_whitespace_only_line(self, tmp_path):
        src = _write(tmp_path / "f.en", b"one\n   \nthree\n")
        tgt = _write(tmp_path / "f.hi", b"a\nb\nc\n")
        with pytest.raises(CorpusError) as exc:
            load_bitext(src, tgt, "en", "hi")
        assert str(exc.value) == f"{src}:2: empty or whitespace-only line"

    def test_invalid_utf8(self, tmp_path):
        src = _write(tmp_path / "f.en", b"ok\n\xff\xfe broken\n")
        tgt = _write(tmp_path / "f.hi", b"a\nb\n")
        with pytest.raises(CorpusError) as exc:
            load_bitext(src, tgt, "en", "hi")
        assert str(exc.value) == f"{src}:2: invalid UTF-8"

    @pytest.mark.parametrize(
        "content", [b"one\ntwo\r\nthree\n", b"one\ntwo\rmore\nthree\n"], ids=["crlf", "lone-cr"]
    )
    def test_carriage_return_is_a_typed_error(self, tmp_path, content):
        src = _write(tmp_path / "f.en", content)
        tgt = _write(tmp_path / "f.hi", b"a\nb\nc\n")
        with pytest.raises(CorpusError) as exc:
            load_bitext(src, tgt, "en", "hi")
        assert str(exc.value) == f"{src}:2: carriage return (CRLF line ending?); lines must end in LF"

    def test_missing_trailing_newline_ok(self, tmp_path):
        src = _write(tmp_path / "f.en", b"one\ntwo")
        tgt = _write(tmp_path / "f.hi", b"a\nb")
        assert len(load_bitext(src, tgt, "en", "hi")) == 2


class TestWriteBitext:
    def test_empty_corpus_round_trip(self, tmp_path):
        corpus = BitextCorpus("en", "hi", (), ())
        write_bitext(corpus, tmp_path / "e.en", tmp_path / "e.hi")
        assert (tmp_path / "e.en").read_bytes() == b""
        assert load_bitext(tmp_path / "e.en", tmp_path / "e.hi", "en", "hi") == corpus

    def test_round_trip_non_ascii(self, tmp_path):
        corpus = BitextCorpus(
            "en", "bn",
            ("naïve café", "ok"), ("আমি ভাত খাই", "ঠিক আছে"),
        )
        write_bitext(corpus, tmp_path / "c.en", tmp_path / "c.bn")
        loaded = load_bitext(tmp_path / "c.en", tmp_path / "c.bn", "en", "bn")
        assert loaded == corpus
        write_bitext(loaded, tmp_path / "d.en", tmp_path / "d.bn")
        assert (tmp_path / "c.en").read_bytes() == (tmp_path / "d.en").read_bytes()
        assert (tmp_path / "c.bn").read_bytes() == (tmp_path / "d.bn").read_bytes()


class TestHardLinks:
    def test_writing_one_name_leaves_its_links(self, tmp_path):
        write_lines(tmp_path / "a", ["old"])
        os.link(tmp_path / "a", tmp_path / "b")
        write_lines(tmp_path / "b", ["new"])
        assert (tmp_path / "a").read_bytes() == b"old\n"
        assert (tmp_path / "b").read_bytes() == b"new\n"
        assert (tmp_path / "a").stat().st_nlink == (tmp_path / "b").stat().st_nlink == 1

    def test_a_symlink_is_written_through(self, tmp_path):
        write_lines(tmp_path / "a", ["old"])
        (tmp_path / "b").symlink_to(tmp_path / "a")
        write_lines(tmp_path / "b", ["new"])
        assert (tmp_path / "b").is_symlink()
        assert (tmp_path / "a").read_bytes() == b"new\n"

    def test_write_once_writes_the_lines_once_and_links_the_other_paths(self, tmp_path):
        write_once(["x", "y"], tmp_path / "a", tmp_path / "b", tmp_path / "c")
        assert {p.stat().st_ino for p in tmp_path.iterdir()} == {(tmp_path / "a").stat().st_ino}
        assert (tmp_path / "a").stat().st_nlink == 3
        assert (tmp_path / "a").read_bytes() == b"x\ny\n"

    def test_write_once_over_existing_names_leaves_an_outside_link(self, tmp_path):
        write_once(["old"], *(tmp_path / name for name in "abc"))
        os.link(tmp_path / "a", tmp_path / "outside")
        write_once(["new"], *(tmp_path / name for name in "abc"))
        assert [(p.name, p.read_bytes()) for p in sorted(tmp_path.iterdir())] == [
            ("a", b"new\n"), ("b", b"new\n"), ("c", b"new\n"), ("outside", b"old\n")]
        assert (tmp_path / "outside").stat().st_nlink == 1

    def test_write_once_writes_where_links_are_refused(self, tmp_path, monkeypatch):
        def refused(*args, **kwargs):
            raise PermissionError("hard links not supported")

        monkeypatch.setattr(os, "link", refused)
        column = ["x"]
        write_once(column, tmp_path / "a", tmp_path / "b")
        assert (tmp_path / "b").read_bytes() == b"x\n"
        assert (tmp_path / "a").stat().st_nlink == (tmp_path / "b").stat().st_nlink == 1

    @pytest.mark.parametrize("code", ["ENOSPC", "EIO", "ENOENT", None])
    def test_write_once_link_fault_is_a_corpus_error(self, tmp_path, monkeypatch, code):
        def failing(*args, **kwargs):
            raise OSError(getattr(errno, code), code) if code else OSError("fault")

        monkeypatch.setattr(os, "link", failing)
        with pytest.raises(CorpusError, match=f"^cannot write {re.escape(str(tmp_path / 'b'))} as a link of "):
            write_once(["x"], tmp_path / "a", tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_write_once_writes_through_a_symlink_at_a_later_path(self, tmp_path):
        (tmp_path / "elsewhere").write_bytes(b"old\n")
        (tmp_path / "b").symlink_to(tmp_path / "elsewhere")
        column = ["x"]
        write_once(column, tmp_path / "a", tmp_path / "b")
        assert (tmp_path / "b").is_symlink()
        assert (tmp_path / "elsewhere").read_bytes() == b"x\n"

    def test_write_once_to_a_directory_is_a_corpus_error(self, tmp_path):
        (tmp_path / "b").mkdir()
        column = ["x"]
        with pytest.raises(CorpusError, match="^cannot write "):
            write_once(column, tmp_path / "a", tmp_path / "b")


_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    min_size=1, max_size=40,
).filter(lambda s: s.strip())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_text, _text), min_size=0, max_size=20))
def test_write_load_identity_property(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("bitext")
    corpus = BitextCorpus("en", "ta", tuple(a for a, _ in rows), tuple(b for _, b in rows))
    write_bitext(corpus, tmp / "x.en", tmp / "x.ta")
    assert load_bitext(tmp / "x.en", tmp / "x.ta", "en", "ta") == corpus


# Pieces that probe the line format: CRLF and lone CR, a BOM, NUL, U+2028
# (a line break to str.splitlines, not to the format), invalid and
# truncated UTF-8, and ordinary Latin and Indic text.
_PIECES = [b"\n", b"\r\n", b"\r", b"\xef\xbb\xbf", b"\x00", "\u2028".encode(), b"\xff", b"\xe0\xa4",
           b"a", b" ", b"\t", "\u0915".encode()]
_FILE_BYTES = st.one_of(st.binary(max_size=64), st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join))


class TestLockDir:
    def test_second_holder_is_refused_until_the_first_lets_go(self, tmp_path):
        root = tmp_path / "a" / "out"
        with lock_dir(root):
            assert root.is_dir() and not any(root.iterdir())
            with pytest.raises(CorpusError, match=f"^another run is using {re.escape(str(root))}$"):
                with lock_dir(root):
                    pass
        with lock_dir(root):
            pass
        assert not any(root.iterdir())

    def test_path_that_is_a_file_is_refused(self, tmp_path):
        path = tmp_path / "out"
        path.write_text("not a directory\n")
        with pytest.raises(CorpusError, match="exists and is not an empty directory"):
            with lock_dir(path):
                pass
        assert path.read_text() == "not a directory\n"

    def test_without_fcntl_the_directory_is_made_and_nothing_is_locked(self, tmp_path):
        # As on Windows: the module imports without fcntl, and a second holder is let in.
        code = textwrap.dedent(f"""
            import sys
            sys.modules["fcntl"] = None
            from multibridge.corpus import lock_dir
            with lock_dir({str(tmp_path / "out")!r}), lock_dir({str(tmp_path / "out")!r}):
                print("both held")
        """)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "both held\n"
        assert (tmp_path / "out").is_dir()


class TestLineFormat:
    @settings(max_examples=300, deadline=None)
    @given(_FILE_BYTES)
    def test_round_trip_or_typed_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "in", Path(tmp) / "out"
            src.write_bytes(raw)
            try:
                lines = list(iter_lines(src))
            except CorpusError:
                assert b"\r" in raw or _not_utf8(raw) or raw.startswith(b"\xef\xbb\xbf")
                return
            write_lines(out, lines)
            assert out.read_bytes() == (raw if raw.endswith(b"\n") or not raw else raw + b"\n")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(""), st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)),
                    max_size=12))
    def test_write_lines_equals_per_line_oracle(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            write_lines(out, lines)
            assert out.read_bytes() == naive_lines_text(lines).encode()

    def test_lines_split_on_lf_only(self, tmp_path):
        text = "a\u2028b\x00\x0c\x1c\x85c\n\ufeffd\n"
        _write(tmp_path / "f", text.encode())
        assert list(iter_lines(tmp_path / "f")) == ["a\u2028b\x00\x0c\x1c\x85c", "\ufeffd"]

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(CorpusError, match=f"^cannot read {re.escape(str(tmp_path / 'missing'))}: "):
            list(iter_lines(tmp_path / "missing"))


def _not_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


class TestDirection:
    def test_distinct_from_reverse(self):
        d = TranslationDirection("bn", "hi")
        assert d != TranslationDirection("hi", "bn")
        assert d.label() == "bn-hi"
        with pytest.raises(ValueError):
            TranslationDirection("bn", "bn")


class TestManifest:
    def _manifest(self):
        return TrainingManifest(
            (
                ManifestEntry(TranslationDirection("en", "hi"), "en-hi", 2, "english-centric"),
                ManifestEntry(TranslationDirection("hi", "en"), "hi-en", 2, "english-centric"),
            ),
            seed=7,
        )

    def test_duplicate_directions_rejected(self):
        entry = ManifestEntry(TranslationDirection("en", "hi"), "en-hi", 2, "x")
        with pytest.raises(CorpusError, match="^duplicate directions in manifest$"):
            TrainingManifest((entry, entry), seed=1)

    def test_json_round_trip(self, tmp_path):
        manifest = self._manifest()
        save_manifest(manifest, tmp_path / "m.json")
        assert load_manifest(tmp_path / "m.json") == manifest
        doc = json.loads((tmp_path / "m.json").read_text())
        assert set(doc) == {"entries", "seed"}
        assert set(doc["entries"][0]) == {"src", "tgt", "path", "count", "strategy"}

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["entries"][0].pop("count"),
        lambda doc: doc.pop("seed"),
        lambda doc: doc["entries"][0].update(count="١٢"),
        lambda doc: doc.update(seed="1_0"),
        lambda doc: doc["entries"][0].update(count=True),
        lambda doc: doc["entries"][0].update(count=2.0),
        lambda doc: doc["entries"][0].update(count=-1),
        lambda doc: doc["entries"][0].update(src="hi", tgt="hi"),
        lambda doc: doc["entries"][1].update(src="en", tgt="hi"),
        lambda doc: doc["entries"][0].update(path=5),
    ], ids=["missing-count", "missing-seed", "arabic-indic-count", "underscore-seed", "bool-count", "float-count",
            "negative-count", "same-language", "duplicate-direction", "int-path"])
    def test_malformed_entry_is_manifest_error(self, tmp_path, edit):
        # int() would load the string, bool and float counts and seeds silently.
        path = tmp_path / "m.json"
        save_manifest(self._manifest(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: "):
            load_manifest(path)

    @pytest.mark.parametrize("content", [b'{"entries": [], "seed": "\xff"}', b'{"entries": [], "seed": 1', b"[]"],
                             ids=["invalid-utf8", "bad-json", "not-an-object"])
    def test_malformed_document_is_manifest_error(self, tmp_path, content):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: "):
            load_manifest(path)

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_manifest_is_manifest_error(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(CorpusError, match=f"^cannot read {re.escape(str(path))}: "):
            load_manifest(path)

    def test_verify_against_disk(self, tmp_path):
        manifest = self._manifest()
        corpus = BitextCorpus("en", "hi", ("a", "c"), ("b", "d"))
        write_bitext(corpus, tmp_path / "en-hi.src", tmp_path / "en-hi.tgt")
        write_bitext(BitextCorpus("hi", "en", ("b", "d"), ("a", "c")), tmp_path / "hi-en.src", tmp_path / "hi-en.tgt")
        verify_manifest(manifest, tmp_path)
        (tmp_path / "hi-en.src").write_text("only one line\n")
        short = re.escape(str(tmp_path / "hi-en.src"))
        with pytest.raises(CorpusError, match=f"^{short}: 1 lines on disk but manifest says 2$"):
            verify_manifest(manifest, tmp_path)
