"""The CLI surfaces every external interface; exercise them like a user."""

import glob
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from multibridge import cli, pipeline, sampling
from multibridge.bpe import load_bpe
from multibridge.cli import main
from multibridge.corpus import BitextCorpus, load_bitext, load_manifest
from multibridge.languages import indic_codes
from multibridge.pipeline import preprocess_line
from multibridge.version import __version__

README = Path(__file__).resolve().parent.parent / "README.md"
FIXTURE = Path(__file__).parent / "data" / "pipeline_fixture"
GOLDEN = Path(__file__).parent / "data" / "pipeline_golden" / "out"
GOLDEN_MINED = GOLDEN / "mined"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run_cli(*args, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "multibridge.cli", *args],
        input=stdin, capture_output=True, text=True,
    )


@pytest.fixture()
def raw_dir(tmp_path):
    shutil.copytree(FIXTURE / "raw", tmp_path / "raw")
    return tmp_path / "raw"


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run_cli("extract").returncode == 1
        assert run_cli("no-such-command").returncode == 1

    def test_data_error_is_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = run_cli("extract", "--inputs", str(empty), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "multibridge:" in proc.stderr

    def test_success_is_0(self):
        assert run_cli("--version").returncode == 0

    def test_stats_is_an_unknown_subcommand(self, tmp_path):
        # extract and run write the pair-count table; no subcommand rebuilds it from disk.
        proc = run_cli("stats", "--inputs", str(tmp_path / "raw"), "--mined", str(tmp_path / "mined"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: multibridge ")
        assert "multibridge: error: argument command: invalid choice: 'stats'" in proc.stderr
        assert proc.stdout == "" and list(tmp_path.iterdir()) == []


def test_version_matches_pyproject():
    # Every metric signature embeds version.__version__, and metrics_golden.json pins those signatures.
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    project = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == __version__


class TestExtractStatsSample:
    def test_extract_then_sample(self, tmp_path, raw_dir):
        mined = tmp_path / "mined"
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(mined)]) == 0
        corpus = load_bitext(mined / "bn-hi.bn", mined / "bn-hi.hi", "bn", "hi")
        assert len(corpus) > 0

        sampled = tmp_path / "sampled"
        assert main([
            "sample", "--strategy", "sample-fraction", "--per-pair", "5", "--seed", "3",
            "--inputs", str(raw_dir), "--mined", str(mined), "--out", str(sampled),
        ]) == 0
        manifest = load_manifest(sampled / "manifest.json")
        assert manifest.seed == 3
        sampled_entries = [e for e in manifest.entries if e.strategy == "sample-fraction"]
        assert sampled_entries and all(e.count <= 5 for e in sampled_entries)

    @pytest.mark.parametrize("out", ["raw", "raw/mined"], ids=["equal", "nested"])
    def test_extract_out_overlapping_inputs_is_data_error(self, tmp_path, raw_dir, capsys, out):
        before = _tree(raw_dir)
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(tmp_path / out)]) == 2
        assert "'--inputs' and '--out' overlap" in capsys.readouterr().err
        assert _tree(raw_dir) == before

    @pytest.mark.parametrize("out,other", [("mined", "--mined"), ("mined/sampled", "--mined"), ("raw", "--inputs")],
                             ids=["equal-mined", "nested-in-mined", "equal-inputs"])
    def test_sample_out_overlapping_inputs_is_data_error(self, tmp_path, raw_dir, capsys, out, other):
        mined = tmp_path / "mined"
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(mined)]) == 0
        before = _tree(tmp_path)
        assert main([
            "sample", "--strategy", "train-all", "--seed", "1",
            "--inputs", str(raw_dir), "--mined", str(mined), "--out", str(tmp_path / out),
        ]) == 2
        assert f"{other!r} and '--out' overlap" in capsys.readouterr().err
        assert _tree(tmp_path) == before

    def test_extract_then_sample_reproduce_the_golden_run(self, tmp_path, raw_dir):
        # The fixture config's strategy, cap and seed, given as flags.
        out = tmp_path / "out"
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(out / "mined")]) == 0
        assert main([
            "sample", "--strategy", "sample-fraction", "--per-pair", "12", "--seed", "77",
            "--inputs", str(raw_dir), "--mined", str(out / "mined"), "--out", str(out / "sampled"),
        ]) == 0
        for stage in ("mined", "sampled"):
            got, expected = _tree(out / stage), _tree(GOLDEN / stage)
            assert sorted(got) == sorted(expected)
            for rel in expected:
                assert got[rel] == expected[rel], f"content differs: {stage}/{rel}"

    def test_sample_out_holding_an_earlier_set_is_refused(self, tmp_path, raw_dir, capsys):
        # Written beside the first set, a second would leave pairs its manifest does not list.
        out = tmp_path / "sampled"
        argv = ["--seed", "1", "--inputs", str(raw_dir), "--mined", str(GOLDEN_MINED), "--out", str(out)]
        assert main(["sample", "--strategy", "train-all", *argv]) == 0
        inodes = {p.name: (p.stat().st_ino, p.stat().st_nlink) for p in out.iterdir()}
        before = _tree(out)
        assert main(["sample", "--strategy", "sample-pairs", "--pairs", "bn-hi,hi-ta", *argv]) == 2
        assert capsys.readouterr().err == f"multibridge: {out} exists and is not an empty directory\n"
        assert _tree(out) == before
        assert {p.name: (p.stat().st_ino, p.stat().st_nlink) for p in out.iterdir()} == inodes

    @pytest.mark.parametrize("kind", ["stale-pair", "file", "symlink"])
    def test_extract_out_that_is_not_an_empty_directory_is_refused(self, tmp_path, raw_dir, capsys, kind):
        out = tmp_path / "mined"
        if kind == "stale-pair":
            shutil.copytree(GOLDEN_MINED, out)
            for name in ("gu-hi.gu", "gu-hi.hi"):
                shutil.copy(out / "bn-hi.bn", out / name)
        elif kind == "file":
            out.write_text("not a directory\n")
        else:
            (tmp_path / "empty").mkdir()
            out.symlink_to(tmp_path / "empty", target_is_directory=True)
        before = _tree(tmp_path)
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"multibridge: {out} exists and is not an empty directory")
        assert _tree(tmp_path) == before

    def test_empty_out_directories_are_written(self, tmp_path, raw_dir):
        out = tmp_path / "out"
        for stage in ("mined", "sampled"):
            (out / stage).mkdir(parents=True)
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(out / "mined")]) == 0
        assert main([
            "sample", "--strategy", "sample-fraction", "--per-pair", "12", "--seed", "77",
            "--inputs", str(raw_dir), "--mined", str(out / "mined"), "--out", str(out / "sampled"),
        ]) == 0
        assert _tree(out) == {rel: data for rel, data in _tree(GOLDEN).items() if not rel.startswith("prep/")}

    def test_byte_order_mark_bitext_is_data_error(self, tmp_path, raw_dir):
        en_bn = raw_dir / "en-bn.en"
        en_bn.write_bytes(b"\xef\xbb\xbf" + en_bn.read_bytes())
        proc = run_cli("extract", "--inputs", str(raw_dir), "--out", str(tmp_path / "mined"))
        assert proc.returncode == 2
        assert f"multibridge: {en_bn}:1: byte-order mark" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "mined").exists()

    # Each stray file's content is copied from a real corpus file.
    STRAYS = {"en-en.en": "en-bn.en", "en-zz.en": "en-bn.en", "en-zz.zz": "en-bn.bn"}

    @pytest.mark.parametrize("strays", [["en-en.en"], ["en-zz.en", "en-zz.zz"], list(STRAYS)],
                             ids=["pivot", "unregistered", "both"])
    def test_inputs_are_registered_languages_only(self, tmp_path, raw_dir, strays):
        for name in strays:
            shutil.copy(raw_dir / self.STRAYS[name], raw_dir / name)
        mined = tmp_path / "mined"
        proc = run_cli("extract", "--inputs", str(raw_dir), "--out", str(mined))
        assert proc.returncode == 0, proc.stderr
        assert _tree(mined) == _tree(GOLDEN_MINED)

    @pytest.mark.parametrize("argv,message", [
        (["--xprod-cap", "-1"], "cross-product cap must be non-negative"),
        (["--pairs", "bn-zz"], "no en-xx corpus loaded for zz"),
        (["--pairs", "bn-en"], "no en-xx corpus loaded for en"),
        (["--pairs", "bn-hi,hi-hi"], "'hi-hi' names one language twice"),
        (["--pairs", "bn"], "malformed pair 'bn'"),
    ], ids=["negative-cap", "pair-without-corpus", "pair-with-pivot", "same-language", "malformed"])
    def test_bad_extract_arguments_are_data_errors(self, tmp_path, raw_dir, argv, message):
        out = tmp_path / "mined"
        proc = run_cli("extract", "--inputs", str(raw_dir), "--out", str(out), *argv)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_sample_pairs_canonicalised(self, tmp_path, raw_dir):
        sampled = tmp_path / "sampled"
        assert main([
            "sample", "--strategy", "sample-pairs", "--pairs", "hi-bn,ta-hi", "--seed", "1",
            "--inputs", str(raw_dir), "--mined", str(GOLDEN_MINED), "--out", str(sampled),
        ]) == 0
        mined = {e.direction.label() for e in load_manifest(sampled / "manifest.json").entries
                 if e.strategy == "sample-pairs"}
        assert mined == {"bn-hi", "hi-bn", "hi-ta", "ta-hi"}

    def test_extract_pair_subset(self, tmp_path, raw_dir):
        mined = tmp_path / "mined"
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(mined), "--pairs", "bn-hi"]) == 0
        assert (mined / "bn-hi.bn").exists()
        assert not (mined / "bn-ta.bn").exists()

    @pytest.mark.parametrize("pairs,message", [
        ("bn-en", "sample-pairs list may not include the pivot: bn-en"),
        ("bn-hi,hi-bn", "duplicate pairs in sample-pairs list"),
    ], ids=["pivot", "duplicate"])
    def test_bad_sample_pairs_are_data_errors(self, tmp_path, raw_dir, pairs, message):
        out = tmp_path / "sampled"
        proc = run_cli("sample", "--strategy", "sample-pairs", "--pairs", pairs, "--seed", "1",
                       "--inputs", str(raw_dir), "--mined", str(GOLDEN_MINED), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"multibridge: {message}\n"
        assert not out.exists()

    def test_english_file_without_its_counterpart_is_data_error(self, tmp_path, raw_dir, capsys):
        (raw_dir / "en-hi.hi").unlink()
        mined = tmp_path / "mined"
        assert main(["extract", "--inputs", str(raw_dir), "--out", str(mined)]) == 2
        assert capsys.readouterr().err == f"multibridge: missing counterpart file for {raw_dir / 'en-hi.en'}\n"
        assert not mined.exists()

    def test_mined_directory_without_pairs_is_data_error(self, tmp_path, raw_dir, capsys):
        mined, out = tmp_path / "mined", tmp_path / "sampled"
        mined.mkdir()
        (mined / "stats.tsv").write_text("\ten\n")
        assert main(["sample", "--strategy", "train-all", "--seed", "1",
                     "--inputs", str(raw_dir), "--mined", str(mined), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"multibridge: no mined corpora found in {mined}\n"
        assert not out.exists()

    def test_sample_pairs_requires_pairs(self, raw_dir, tmp_path):
        proc = run_cli(
            "sample", "--strategy", "sample-pairs", "--seed", "1",
            "--inputs", str(raw_dir), "--mined", str(raw_dir), "--out", str(tmp_path / "s"),
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv,key", [
        (["--strategy", "train-all", "--pairs", "bn-hi"], "pairs"),
        (["--strategy", "train-all", "--per-pair", "3"], "per_pair_target"),
        (["--strategy", "sample-fraction", "--pairs", "bn-hi"], "pairs"),
        (["--strategy", "sample-pairs", "--pairs", "bn-hi", "--per-pair", "3"], "per_pair_target"),
    ], ids=["train-all-pairs", "train-all-per-pair", "fraction-pairs", "pairs-per-pair"])
    def test_sample_flag_the_strategy_ignores_is_data_error(self, tmp_path, raw_dir, argv, key):
        out = tmp_path / "sampled"
        proc = run_cli("sample", *argv, "--seed", "1",
                       "--inputs", str(raw_dir), "--mined", str(GOLDEN_MINED), "--out", str(out))
        assert proc.returncode == 2
        assert f"'sampling.{key}' is read only by" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_sample_ignores_stale_pair_files(self, tmp_path, raw_dir):
        stale = tmp_path / "stale"
        shutil.copytree(GOLDEN_MINED, stale)
        shutil.copy(stale / "bn-hi.bn", stale / "gu-hi.gu")
        shutil.copy(stale / "bn-hi.hi", stale / "gu-hi.hi")
        sampled = tmp_path / "sampled"
        assert main(["sample", "--strategy", "sample-fraction", "--per-pair", "12", "--seed", "77",
                     "--inputs", str(raw_dir), "--mined", str(stale), "--out", str(sampled)]) == 0
        assert _tree(sampled) == _tree(GOLDEN / "sampled")

    def test_half_written_pair_is_data_error(self, tmp_path, raw_dir):
        mined = tmp_path / "mined"
        shutil.copytree(GOLDEN_MINED, mined)
        (mined / "bn-ta.ta").unlink()
        out = tmp_path / "sampled"
        proc = run_cli("sample", "--strategy", "train-all", "--seed", "1",
                       "--inputs", str(raw_dir), "--mined", str(mined), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"multibridge: mined pair bn-ta in {mined} has only one of its two files\n"
        assert not out.exists()

    def test_crlf_bitext_is_data_error(self, tmp_path, raw_dir):
        en_bn = raw_dir / "en-bn.en"
        en_bn.write_bytes(en_bn.read_bytes().replace(b"\n", b"\r\n"))
        proc = run_cli("extract", "--inputs", str(raw_dir), "--out", str(tmp_path / "mined"))
        assert proc.returncode == 2
        assert f"{en_bn}:1: carriage return" in proc.stderr
        assert "Traceback" not in proc.stderr


def _run_cli_bytes(*args, stdin: bytes):
    return subprocess.run(
        [sys.executable, "-m", "multibridge.cli", *args], input=stdin, capture_output=True,
    )


@pytest.fixture()
def bpe_codes(tmp_path):
    codes = tmp_path / "codes.txt"
    train = tmp_path / "train.txt"
    train.write_text("low low lower\n")
    assert main(["learn-bpe", "--merges", "5", "--min-freq", "1",
                 "--input", str(train), "--model", str(codes)]) == 0
    return codes


class TestStrictStdin:
    SUBCOMMANDS = [
        ["preprocess", "--lang", "en", "--tokenize"],
        ["learn-bpe", "--model", "{tmp}/new-codes.txt"],
        ["apply-bpe", "--model", "{codes}"],
        ["tag", "--src", "bn", "--tgt", "hi"],
    ]

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("stdin,message", [
        (b"fine\nab\xffc\n", "<stdin>:2: invalid UTF-8"),
        (b"fine\r\n", "<stdin>:1: carriage return"),
    ], ids=["invalid-utf8", "crlf"])
    def test_bad_stdin_is_data_error(self, tmp_path, bpe_codes, argv, stdin, message):
        argv = [arg.format(tmp=tmp_path, codes=bpe_codes) for arg in argv]
        proc = _run_cli_bytes(*argv, stdin=stdin)
        assert proc.returncode == 2
        assert message in proc.stderr.decode()
        assert b"\xef\xbf\xbd" not in proc.stdout  # no U+FFFD replacement leaked through

    def test_byte_order_mark_is_data_error(self):
        # Kept, U+FEFF would be text: glued to the first token, or splitting a pivot key from its twin.
        proc = _run_cli_bytes("preprocess", "--lang", "en", "--tokenize", stdin=b"\xef\xbb\xbfhello world\n")
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("multibridge: <stdin>:1: byte-order mark")
        assert proc.stdout == b""

    def test_bad_input_file_is_data_error(self, tmp_path, bpe_codes):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ok\n\xff\n")
        proc = run_cli("apply-bpe", "--model", str(bpe_codes), "--input", str(bad))
        assert proc.returncode == 2
        assert f"{bad}:2: invalid UTF-8" in proc.stderr


# 5,000 digits: past the limit CPython 3.11 and later put on int() of a string.
_HUGE = b"9" * 5000
_HUGE_UNCONVERTED = pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                                       reason="this interpreter converts 5,000-digit integers")


class TestStrictModelFiles:
    """Codes, vocabulary and embedding files follow the same line rule as corpora."""

    CODES = b"#bpe num_merges=5 min_frequency=1\nl o\n"
    EMB = b"2 1\n0\t1.0\t0.0\n"
    CASES = [
        ("codes", b"#bpe num_merges=5 min_frequency=1\r\nl o\r\n", 1),
        ("codes", b"#bpe num_merges=5 min_frequency=1\nl \xffo\n", 2),
        ("codes", b"#bpe num_merges=x min_frequency=1\n", 1),
        ("codes", b"#bpe num_merges=5 num_merges=0 min_frequency=1\n", 1),
        ("codes", b"#bpexyz num_merges=5 min_frequency=1 foo=bar\n", 1),
        ("codes", b"#bpe junk num_merges=2 min_frequency=1\n", 1),
        ("codes", b"#bpe min_frequency=1 num_merges=5\n", 1),
        ("codes", b"#bpe num_merges=5 min_frequency=1\nl o\nl o\n", 3),
        ("codes", b"#bpe num_merges=5 min_frequency=1\nl o\na \n", 3),
        ("codes", b"#bpe num_merges=0 min_frequency=1\nl o\n", 2),
        ("vocab", b"lo 2\r\n", 1),
        ("vocab", b"lo 2\n\xff 1\n", 2),
        ("vocab", b"lo 2\nb x\n", 2),
        ("vocab", b"ab 3\nab 1\n", 2),
        ("emb", b"2 1\r\n0\t1.0\t0.0\r\n", 1),
        ("emb", b"2 1\n0\t1.0\t\xff\n", 2),
        ("emb", b"2 1\n0 1.0 abc\n", 2),
        ("emb", b"2 x\n", 1),
        ("emb", b"2 2\n0 1.0 0.0\n0 2.0 0.0\n", 3),
        pytest.param("emb", b"1 " + _HUGE + b"\n0 1.0\n", 1, marks=_HUGE_UNCONVERTED),
        pytest.param("emb", b"1 1\n" + _HUGE + b" 1.0\n", 2, marks=_HUGE_UNCONVERTED),
        pytest.param("codes", b"#bpe num_merges=" + _HUGE + b" min_frequency=1\nl o\n", 1, marks=_HUGE_UNCONVERTED),
        pytest.param("vocab", b"lo " + _HUGE + b"\n", 1, marks=_HUGE_UNCONVERTED),
    ]

    @pytest.mark.parametrize("kind,content,line", CASES, ids=[
        "codes-crlf", "codes-utf8", "codes-number", "codes-header-repeated-field", "codes-header-suffixed-tag",
        "codes-header-extra-word", "codes-header-reordered", "codes-duplicate", "codes-empty-side", "codes-budget",
        "vocab-crlf", "vocab-utf8", "vocab-number", "vocab-duplicate",
        "emb-crlf", "emb-utf8", "emb-number", "emb-header", "emb-duplicate-id",
        "emb-huge-count", "emb-huge-id", "codes-huge-count", "vocab-huge-count",
    ])
    def test_bad_file_is_data_error(self, tmp_path, capsys, kind, content, line):
        files = {"codes": self.CODES, "vocab": b"lo 2\n", "emb": self.EMB, "input": b"low\n"}
        files[kind] = content
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        if kind == "emb":
            argv = ["evaluate", "--metric", "cosine", "--emb-a", str(tmp_path / "emb"), "--emb-b", str(tmp_path / "emb")]
        else:
            argv = ["apply-bpe", "--model", str(tmp_path / "codes"), "--vocab", str(tmp_path / "vocab"),
                    "--input", str(tmp_path / "input")]
        assert main(argv) == 2
        assert f"multibridge: {tmp_path / kind}:{line}:" in capsys.readouterr().err



class TestPreprocess:
    def test_to_devanagari_tokenize(self):
        proc = run_cli("preprocess", "--lang", "bn", "--normalize", "--to-devanagari", "--tokenize",
                       stdin="আমি ভাত খাই।\n")
        assert proc.returncode == 0
        assert proc.stdout == "आमि भात खाइ ।\n"

    def test_round_trip_through_cli(self):
        forward = run_cli("preprocess", "--lang", "bn", "--to-devanagari", stdin="আমি ভাত খাই।\n")
        backward = run_cli("preprocess", "--lang", "bn", "--from-devanagari", stdin=forward.stdout)
        assert backward.stdout == "আমি ভাত খাই।\n"

    def test_detokenize(self):
        proc = run_cli("preprocess", "--lang", "en", "--detokenize", stdin="Hello , world !\n( 1,000 )\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "Hello, world!\n(1,000)\n"

    def test_unmappable_policy(self):
        proc = run_cli("preprocess", "--lang", "bn", "--from-devanagari", stdin="ॐ\n")
        assert proc.returncode == 2
        relaxed = run_cli("preprocess", "--lang", "bn", "--from-devanagari", "--unmappable", "pass",
                          stdin="ॐ\n")
        assert relaxed.returncode == 0 and relaxed.stdout == "ॐ\n"

    # A decomposed nukta sequence for each script table, punctuation and a number.
    NUKTA_TEXT = "Qa is \u0915\u093c here, \u09a1\u09bc \u0b21\u0b3c \u0a38\u0a3c (1,000)!"

    @pytest.mark.parametrize("lang", ["en", *indic_codes()])
    def test_forward_chain_equals_run(self, lang):
        steps = ["--normalize", "--tokenize"] if lang == "en" else ["--normalize", "--to-devanagari", "--tokenize"]
        proc = run_cli("preprocess", "--lang", lang, *steps, stdin=self.NUKTA_TEXT + "\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == " ".join(preprocess_line(self.NUKTA_TEXT, lang)) + "\n"

    def test_mixed_directions_rejected(self):
        proc = run_cli("preprocess", "--lang", "bn", "--tokenize", "--detokenize", stdin="x\n")
        assert proc.returncode == 1
        assert "forward and reverse operations cannot be combined" in proc.stderr and proc.stdout == ""

    def test_no_operation_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["preprocess", "--lang", "bn"])
        assert info.value.code == 1
        assert "nothing to do" in capsys.readouterr().err

    @pytest.mark.parametrize("operation", ["--tokenize", "--normalize", "--to-devanagari", "--detokenize"])
    def test_unmappable_without_from_devanagari_is_usage_error(self, capsys, operation):
        with pytest.raises(SystemExit) as info:
            main(["preprocess", "--lang", "bn", operation, "--unmappable", "pass"])
        assert info.value.code == 1
        assert "only --from-devanagari reads --unmappable" in capsys.readouterr().err

    @pytest.mark.parametrize("operation", ["--to-devanagari", "--from-devanagari"])
    def test_script_mapping_for_english_is_usage_error_whatever_the_input(self, operation):
        for stdin in ("", "hello\n"):
            proc = run_cli("preprocess", "--lang", "en", operation, stdin=stdin)
            assert proc.returncode == 1, stdin
            assert "en has no Indic block to map" in proc.stderr and proc.stdout == ""


class TestBpeCommands:
    def test_learn_and_apply(self, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("low low low lower newest newest newest newest widest\n")
        codes = tmp_path / "codes.txt"
        vocab = tmp_path / "vocab.txt"
        assert main(["learn-bpe", "--merges", "20", "--min-freq", "1",
                     "--input", str(train), "--model", str(codes), "--vocab", str(vocab)]) == 0
        assert codes.exists() and vocab.exists()

        proc = run_cli("apply-bpe", "--model", str(codes), "--vocab", str(vocab), stdin="lowest\n")
        assert proc.returncode == 0
        out_tokens = proc.stdout.split()
        assert "".join(t.removesuffix("@@") for t in out_tokens) == "lowest"

    def test_apply_with_files(self, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("abc abc abc abd\n")
        codes = tmp_path / "codes.txt"
        assert main(["learn-bpe", "--merges", "5", "--min-freq", "1",
                     "--input", str(train), "--model", str(codes)]) == 0
        src = tmp_path / "in.txt"
        src.write_text("abc abd\n")
        out = tmp_path / "out.txt"
        assert main(["apply-bpe", "--model", str(codes), "--input", str(src), "--output", str(out)]) == 0
        assert out.read_text().endswith("\n")

    @pytest.mark.parametrize("flag,argument", [
        ("--merges", "num_merges"), ("--min-freq", "min_frequency"), ("--merge-floor", "merge_floor"),
    ])
    def test_negative_argument_is_data_error(self, tmp_path, capsys, flag, argument):
        train = tmp_path / "train.txt"
        train.write_text("low low lower\n")
        codes = tmp_path / "codes.txt"
        assert main(["learn-bpe", flag, "-1", "--input", str(train), "--model", str(codes)]) == 2
        assert f"'{argument}' must be an integer >= 0, not -1" in capsys.readouterr().err
        assert not codes.exists()

    # Both reserved strings; a separator case is named by its command alone.
    @pytest.mark.parametrize("command,token,reserved", [
        pytest.param(command, token, reserved, id=command if token == "lo@@w" else f"{command}-{token}")
        for token, reserved in (
            ("lo@@w", "the separator '@@'"), ("ab</w>ab", "the end-of-word marker '</w>'"),
            ("</w>", "the end-of-word marker '</w>'"), ("x</w>", "the end-of-word marker '</w>'"),
        ) for command in ("learn-bpe", "apply-bpe")
    ])
    def test_token_holding_the_separator_is_data_error(self, tmp_path, capsys, bpe_codes, command, token, reserved):
        src = tmp_path / "in.txt"
        src.write_text(f"low {token}\n")
        model = tmp_path / "new-codes.txt" if command == "learn-bpe" else bpe_codes
        assert main([command, "--input", str(src), "--model", str(model)]) == 2
        assert capsys.readouterr().err == f"multibridge: token {token!r} contains {reserved}\n"
        assert model.exists() == (command == "apply-bpe")


    @pytest.mark.parametrize("outputs,inputs,flags", [
        (["--vocab", "codes.txt"], ["train.txt"], "'--model' and '--vocab'"),
        (["--vocab", "vocab.txt"], ["codes.txt"], "'--input' and '--model'"),
        (["--vocab", "vocab.txt"], ["train.txt", "vocab.txt"], "'--input' and '--vocab'"),
        ([], ["./codes.txt"], "'--input' and '--model'"),
    ], ids=["vocab-is-model", "input-is-model", "input-is-vocab", "input-is-model-spelled-apart"])
    def test_output_over_its_own_file_is_data_error(self, tmp_path, monkeypatch, capsys, outputs, inputs, flags):
        monkeypatch.chdir(tmp_path)
        for name in ("train.txt", "codes.txt", "vocab.txt"):
            (tmp_path / name).write_text("low low lower\n")
        assert main(["learn-bpe", "--min-freq", "1", "--input", *inputs, "--model", "codes.txt", *outputs]) == 2
        assert f"{flags} overlap" in capsys.readouterr().err
        assert all((tmp_path / name).read_text() == "low low lower\n" for name in ("train.txt", "codes.txt", "vocab.txt"))

    @pytest.mark.parametrize("argv,flags", [
        (["apply-bpe", "--model", "m.codes", "--vocab", "m.vocab", "--input", "in.txt", "--output", "m.codes"],
         "'--model' and '--output'"),
        (["apply-bpe", "--model", "m.codes", "--vocab", "m.vocab", "--output", "./m.vocab"],
         "'--vocab' and '--output'"),
        (["apply-bpe", "--model", "m.codes", "--input", "in.txt", "--output", "in.txt"], "'--input' and '--output'"),
        (["evaluate", "--metric", "bleu", "--hyp", "h.txt", "--ref", "h.txt", "--json", "h.txt"],
         "'--hyp' and '--json'"),
        (["evaluate", "--metric", "chrf2", "--hyp", "h.txt", "--ref", "r.txt", "--json", "r.txt"],
         "'--ref' and '--json'"),
        (["evaluate", "--metric", "cosine", "--emb-a", "a.tsv", "--emb-b", "b.tsv", "--json", "b.tsv"],
         "'--emb-b' and '--json'"),
    ], ids=["apply-output-is-model", "apply-output-is-vocab", "apply-output-is-input", "evaluate-json-is-hyp",
            "evaluate-json-is-ref", "evaluate-json-is-embeddings"])
    def test_command_output_over_its_own_input_is_data_error(self, tmp_path, monkeypatch, capsys, argv, flags):
        monkeypatch.chdir(tmp_path)
        names = ("m.codes", "m.vocab", "in.txt", "h.txt", "r.txt", "a.tsv", "b.tsv")
        for name in names:
            (tmp_path / name).write_text("low low lower\n")
        assert main(argv) == 2
        assert f"{flags} overlap" in capsys.readouterr().err
        assert all((tmp_path / name).read_text() == "low low lower\n" for name in names)

    def test_repeated_input_is_allowed(self, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("low low lower\n")
        codes = tmp_path / "codes.txt"
        assert main(["learn-bpe", "--min-freq", "1", "--input", str(train), str(train), "--model", str(codes)]) == 0
        assert load_bpe(codes).merges

    def test_repeated_input_flag_reads_every_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("low low lower\n")
        (tmp_path / "b.txt").write_text("newest newest widest\n")
        learn = ["learn-bpe", "--min-freq", "1", "--merges", "50"]
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main([*learn, "--input", a, "--input", b, "--model", str(tmp_path / "flags.txt")]) == 0
        assert main([*learn, "--input", a, b, "--model", str(tmp_path / "list.txt")]) == 0
        merges = load_bpe(tmp_path / "flags.txt").merges
        assert merges == load_bpe(tmp_path / "list.txt").merges
        assert ("l", "o") in merges  # only a.txt holds an "lo"

    def test_input_flag_without_a_file_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("abc abd abc\n"))
        with pytest.raises(SystemExit) as info:
            main(["learn-bpe", "--merges", "2", "--min-freq", "1", "--input", "--model", str(tmp_path / "m.txt")])
        assert info.value.code == 1
        assert "argument --input: expected at least one argument" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()


class TestTagCommand:
    def test_tag_and_strip(self):
        tagged = run_cli("tag", "--src", "bn", "--tgt", "hi", stdin="हेलो वर्ल्ड\n")
        assert tagged.stdout == "__src_bn__ __tgt_hi__ हेलो वर्ल्ड\n"
        stripped = run_cli("tag", "--strip", stdin=tagged.stdout)
        assert stripped.stdout == "हेलो वर्ल्ड\n"

    def test_tag_requires_languages(self):
        assert run_cli("tag", stdin="x\n").returncode == 1

    @pytest.mark.parametrize("src,tgt,bad", [("english", "hi", "english"), ("bn", "zz", "zz")])
    def test_code_outside_language_table_is_data_error(self, src, tgt, bad):
        proc = run_cli("tag", "--src", src, "--tgt", tgt, stdin="a b\n")
        assert proc.returncode == 2
        assert f"unknown language code: {bad!r}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("src,tgt,message", [
        ("en", "en", "source and target language are both 'en'"),
        ("zz", "hi", "unknown language code: 'zz'"),
    ], ids=["same", "unknown"])
    def test_codes_are_checked_before_stdin_is_read(self, src, tgt, message):
        for stdin in ("", "a b\n"):
            proc = run_cli("tag", "--src", src, "--tgt", tgt, stdin=stdin)
            assert proc.returncode == 2, stdin
            assert f"multibridge: {message}" in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("flags", [["--src", "bn"], ["--tgt", "hi"], ["--src", "bn", "--tgt", "hi"]],
                             ids=["src", "tgt", "both"])
    def test_strip_with_language_flag_is_usage_error(self, capsys, flags):
        with pytest.raises(SystemExit) as info:
            main(["tag", "--strip", *flags])
        assert info.value.code == 1
        assert "--strip does not read --src or --tgt" in capsys.readouterr().err

    def test_strip_code_outside_language_table_is_data_error(self):
        proc = run_cli("tag", "--strip", stdin="__src_zz__ __tgt_hi__ a b\n")
        assert proc.returncode == 2
        assert "unknown language code: 'zz'" in proc.stderr
        assert proc.stdout == ""


class TestEvaluate:
    def test_bleu_tsv_json(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the cat sat on the mat\nhello world\n")
        ref.write_text("the cat sat on the mat\nhello there world\n")
        json_out = tmp_path / "r.json"
        proc = run_cli("evaluate", "--metric", "bleu", "--tok", "13a",
                       "--hyp", str(hyp), "--ref", str(ref), "--json", str(json_out))
        assert proc.returncode == 0
        metric, value, signature, n = proc.stdout.strip().split("\t")
        assert metric == "bleu" and n == "2"
        assert signature.startswith("BLEU+case.mixed+numrefs.1+smooth.exp+tok.13a")
        doc = json.loads(json_out.read_text())
        assert doc["n_sentences"] == 2

    def test_tsv_report_option_is_usage_error(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("hello world\n")
        proc = run_cli("evaluate", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(hyp),
                       "--tsv", str(tmp_path / "r.tsv"))
        assert proc.returncode == 1
        assert "unrecognized arguments: --tsv" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "r.tsv").exists()

    def test_perfect_match_prints_100(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("identical line\n")
        proc = run_cli("evaluate", "--metric", "chrf2", "--hyp", str(hyp), "--ref", str(hyp),
                       "--json", str(tmp_path / "r.json"))
        assert proc.stdout.split("\t")[1] == "100.0"
        assert json.loads((tmp_path / "r.json").read_text())["value"] == 100.0

    def test_cosine_from_files(self, tmp_path):
        emb = tmp_path / "a.tsv"
        emb.write_text("2 2\n0\t1.0\t0.0\n1\t0.0\t2.0\n")
        proc = run_cli("evaluate", "--metric", "cosine", "--emb-a", str(emb), "--emb-b", str(emb),
                       "--json", str(tmp_path / "r.json"))
        assert proc.returncode == 0
        assert proc.stdout.split("\t")[1] == "100.0"
        assert json.loads((tmp_path / "r.json").read_text())["value"] == 100.0

    @pytest.mark.parametrize("argv,message", [
        (["--metric", "bleu", "--hyp", "h.txt"], "bleu needs --hyp and --ref"),
        (["--metric", "chrf2", "--ref", "r.txt"], "chrf2 needs --hyp and --ref"),
        (["--metric", "cosine", "--emb-a", "a.tsv"], "cosine needs --emb-a and --emb-b"),
    ], ids=["bleu", "chrf2", "cosine"])
    def test_missing_input_flag_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(["evaluate", *argv])
        assert info.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("metric,flag", [
        ("chrf2", "--tok"), ("cosine", "--tok"),
        ("bleu", "--emb-a"), ("bleu", "--emb-b"), ("chrf2", "--emb-a"), ("chrf2", "--emb-b"),
        ("cosine", "--hyp"), ("cosine", "--ref"),
    ])
    def test_flag_the_metric_does_not_read_is_usage_error(self, capsys, metric, flag):
        inputs = ["--emb-a", "a.tsv", "--emb-b", "b.tsv"] if metric == "cosine" else ["--hyp", "h.txt", "--ref", "r.txt"]
        with pytest.raises(SystemExit) as info:
            main(["evaluate", "--metric", metric, *inputs, flag, "none" if flag == "--tok" else "x.txt"])
        assert info.value.code == 1
        assert f"{metric} does not read {flag}" in capsys.readouterr().err

    def test_bleu_tokenizes_13a_by_default(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("hello, world\n")
        assert main(["evaluate", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(hyp)]) == 0
        assert "+tok.13a+" in capsys.readouterr().out

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        ("2 3\n0 1.0 0.0\n1 0.0 1.0\n", "{path}: header says 3 rows, found 2"),
    ], ids=["missing-file", "header-row-count"])
    def test_bad_embedding_file_is_data_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "a.emb"
        if content is not None:
            path.write_text(content)
        assert main(["evaluate", "--metric", "cosine", "--emb-a", str(path), "--emb-b", str(path)]) == 2
        assert capsys.readouterr().err == "multibridge: " + message.format(path=path) + "\n"

    def test_length_mismatch_is_data_error(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("one\n")
        ref.write_text("one\ntwo\n")
        assert run_cli("evaluate", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref)).returncode == 2


class TestOrientation:
    @pytest.mark.parametrize("command", ["extract", "sample", "run"])
    def test_xx_en_corpus_is_data_error(self, tmp_path, raw_dir, monkeypatch, capsys, command):
        load = pipeline.load_english

        def flipped(raw, languages):
            return {lang: BitextCorpus(lang, c.src_lang, c.tgt_texts, c.src_texts)
                    for lang, c in load(raw, languages).items()}

        monkeypatch.setattr(pipeline, "load_english", flipped)
        monkeypatch.setattr(cli, "load_english", flipped)
        shutil.copytree(FIXTURE, tmp_path / "work")
        argv = {
            "extract": ["--out", str(tmp_path / "mined")],
            "sample": ["--strategy", "train-all", "--seed", "1", "--mined", str(GOLDEN_MINED),
                       "--out", str(tmp_path / "sampled")],
        }
        if command == "run":
            assert main(["run", "--config", str(tmp_path / "work" / "config.json")]) == 2
        else:
            assert main([command, "--inputs", str(raw_dir), *argv[command]]) == 2
        assert "corpus bn-en: English-centric corpora must be en-xx" in capsys.readouterr().err


class TestRunCommand:
    def test_full_run(self, tmp_path):
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        assert main(["run", "--config", str(work / "config.json")]) == 0
        assert (work / "out" / "prep" / "run_report.json").exists()

    @pytest.mark.parametrize("prep", ["out/sampled", "out/sampled/prep"])
    def test_overlapping_dirs_are_data_error(self, tmp_path, capsys, prep):
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        doc["preprocessed_dir"] = prep
        (work / "config.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(work / "config.json")]) == 2
        assert "multibridge: 'out_dir' replaced" in capsys.readouterr().err
        assert not (work / "out").exists()

    # Each is a change to the fixture's config; None deletes a key. The
    # fixture names its stage directories with the legacy keys.
    LEGACY = dict.fromkeys(("mined_dir", "sampled_dir", "preprocessed_dir"))

    @pytest.mark.parametrize("change", [
        {"preprocessed_dir": None},
        {"sampled_dir": None, "preprocessed_dir": None},
        {"mined_dir": "elsewhere/mined"},
        {"preprocessed_dir": "out/preprocessed"},
        {"out_dir": "out"},
        {"out_dir": "out", "mined_dir": None, "sampled_dir": None},
        {**LEGACY, "out_dir": "raw"},
        {**LEGACY, "out_dir": "raw/out"},
        {**LEGACY, "out_dir": "."},
        {"mined_dir": "raw/mined", "sampled_dir": "raw/sampled", "preprocessed_dir": "raw/prep"},
        LEGACY,
    ], ids=["partial-legacy-set", "one-legacy-key", "non-sibling", "renamed-subdirectory", "out-dir-and-legacy",
            "out-dir-and-one-legacy-key", "out-dir-is-raw", "out-dir-inside-raw", "out-dir-contains-raw",
            "legacy-root-is-raw", "no-output-root"])
    def test_misplaced_output_root_is_data_error(self, tmp_path, capsys, change):
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        doc.update(change)
        (work / "config.json").write_text(json.dumps({key: value for key, value in doc.items() if value is not None}))
        before = sorted(work.rglob("*"))
        assert main(["run", "--config", str(work / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("multibridge: ") and "'out_dir'" in err
        assert sorted(work.rglob("*")) == before

    @pytest.mark.parametrize("seed", [-1, 2**64, 77 + 2**64, 77 - 2**64],
                             ids=["negative", "2-64", "77-plus-2-64", "77-minus-2-64"])
    def test_seed_outside_64_bits_is_data_error(self, tmp_path, raw_dir, capsys, seed):
        # The generator keeps a seed's low 64 bits, so 77 + 2**64 would draw
        # what 77 draws and record another seed. `sample --seed` shares the check.
        message = f"multibridge: 'seed' must be an integer in [0, 2**64), not {seed}\n"
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        (work / "config.json").write_text(json.dumps({**doc, "seed": seed}))
        assert main(["run", "--config", str(work / "config.json")]) == 2
        assert capsys.readouterr().err == message
        assert not (work / "out").exists()
        out = tmp_path / "sampled"
        assert main(["sample", "--strategy", "train-all", "--seed", str(seed),
                     "--inputs", str(raw_dir), "--mined", str(GOLDEN_MINED), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("change,message", [
        ({"sampling": {"strategy": "sample-pairs", "pairs": []}}, "sample-pairs needs a non-empty 'pairs' list"),
        ({"sampling": {"strategy": "sample-pairs", "pairs": ["bn-hi", "hi-bn"]}},
         "duplicate pairs in sample-pairs list"),
        ({"languages": ["bn"]}, "stage 'validate' failed: need at least two non-pivot languages"),
        ({"raw_dir": "nowhere"}, "stage 'validate' failed: raw corpus directory not found: {work}/nowhere"),
    ], ids=["empty-sample-pairs", "duplicate-sample-pairs", "one-language", "missing-raw-dir"])
    def test_bad_config_value_is_data_error(self, tmp_path, capsys, change, message):
        work = (tmp_path / "run").resolve()
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        (work / "config.json").write_text(json.dumps({**doc, **change}))
        assert main(["run", "--config", str(work / "config.json")]) == 2
        assert capsys.readouterr().err == "multibridge: " + message.format(work=work) + "\n"
        assert not (work / "out").exists()

    @pytest.mark.parametrize("name,reason", [("missing.json", "[Errno 2] No such file or directory"),
                                             (".", "[Errno 21] Is a directory")], ids=["missing", "directory"])
    def test_unreadable_config_is_data_error(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"multibridge: cannot read config {path}: {reason}: '{path}'\n"

    def test_registry_key_is_rejected(self, tmp_path, capsys):
        # The language table is fixed; a registry file, even a valid one, is a config error.
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        entry = {"code": "bn", "name": "Bengali", "script": "Bengali", "block_base": "0x0980"}
        (work / "registry.json").write_text(json.dumps([entry]))
        doc = json.loads((work / "config.json").read_text())
        doc["registry"] = "registry.json"
        (work / "config.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(work / "config.json")]) == 2
        assert "unknown config key 'registry'" in capsys.readouterr().err
        assert not (work / "out").exists()

    def test_toml_config_is_data_error(self, tmp_path, capsys):
        # The fixture config, written as TOML: configs are JSON only.
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        (work / "config.toml").write_text(
            'languages = ["bn", "hi", "ta"]\nraw_dir = "raw"\nmined_dir = "out/mined"\n'
            'sampled_dir = "out/sampled"\npreprocessed_dir = "out/prep"\nseed = 77\n'
            '[sampling]\nstrategy = "sample-fraction"\nper_pair_target = 12\n'
        )
        assert main(["run", "--config", str(work / "config.toml")]) == 2
        assert "config.toml: invalid JSON" in capsys.readouterr().err
        assert not (work / "out").exists()


class TestOneRunPerDirectory:
    # Command A, in this process, starts command B at A's first file write (or
    # at the call named) and waits for it. When both would use one directory,
    # B must be refused before it deletes or writes anything, and A must then
    # finish as if it were alone.
    @staticmethod
    def _race(monkeypatch, module, name: str, watched: Path, first: list[str], second: list[str]):
        """Run ``first``, which must exit 0, with ``second`` started at its first call of ``module.name``.

        Returns ``second``'s process and the tree of ``watched`` before and after it ran.
        """
        seen = []
        call = getattr(module, name)

        def first_call_starts_b(*args, **kwargs):
            if not seen:
                before = _tree(watched)
                seen.append((run_cli(*second), before, _tree(watched)))
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, first_call_starts_b)
        assert main(first) == 0
        [(proc, before, after)] = seen
        return proc, before, after

    @classmethod
    def _check(cls, monkeypatch, module, name: str, out: Path, argv: list[str], second: list[str] | None = None):
        proc, before, after = cls._race(monkeypatch, module, name, out, argv, second or argv)
        assert proc.returncode == 2
        assert proc.stderr == f"multibridge: another run is using {out}\n"
        assert after == before

    def test_run(self, tmp_path, monkeypatch):
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        out = (work / "out").resolve()
        self._check(monkeypatch, sampling, "write_once", out, ["run", "--config", str(work / "config.json")])
        assert _tree(out) == _tree(GOLDEN)

    def test_extract(self, tmp_path, raw_dir, monkeypatch):
        out = tmp_path / "mined"
        argv = ["extract", "--inputs", str(raw_dir), "--out", str(out)]
        self._check(monkeypatch, pipeline, "write_bitext", out, argv)
        assert _tree(out) == _tree(GOLDEN_MINED)

    def test_sample(self, tmp_path, raw_dir, monkeypatch):
        out = tmp_path / "sampled"
        argv = ["sample", "--strategy", "sample-fraction", "--per-pair", "12", "--seed", "77",
                "--inputs", str(raw_dir), "--mined", str(GOLDEN_MINED), "--out", str(out)]
        self._check(monkeypatch, sampling, "write_once", out, argv)
        assert _tree(out) == _tree(GOLDEN / "sampled")

    # A stage command that writes into a stage directory of a run's root,
    # against that run, in both orders: the stage command holds a shared lock
    # on the parent of --out, and the run an exclusive one on its root.
    def test_extract_into_a_run_root_refuses_the_run(self, tmp_path, monkeypatch):
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        out = (work / "out").resolve()
        argv = ["extract", "--inputs", str(work / "raw"), "--pairs", "bn-hi", "--out"]
        self._check(monkeypatch, pipeline, "write_bitext", out, [*argv, str(out / "mined")],
                    second=["run", "--config", str(work / "config.json")])
        alone = tmp_path / "alone" / "mined"
        assert main([*argv, str(alone)]) == 0
        assert _tree(out) == {f"mined/{rel}": data for rel, data in _tree(alone).items()}
        assert {rel: data for rel, data in _tree(alone).items() if rel.startswith("bn-hi.")} == {
            rel: data for rel, data in _tree(GOLDEN_MINED).items() if rel.startswith("bn-hi.")}

    def test_run_refuses_an_extract_into_its_root(self, tmp_path, monkeypatch):
        # B starts once A has reset the root and before A's extract makes mined/.
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        out = (work / "out").resolve()
        self._check(monkeypatch, pipeline, "extract", out, ["run", "--config", str(work / "config.json")],
                    second=["extract", "--inputs", str(work / "raw"), "--pairs", "bn-hi", "--out", str(out / "mined")])
        assert _tree(out) == _tree(GOLDEN)

    def test_extracts_into_sibling_directories_run_side_by_side(self, tmp_path, raw_dir, monkeypatch):
        first, second = tmp_path / "out" / "a", tmp_path / "out" / "b"
        proc, before, after = self._race(monkeypatch, pipeline, "write_bitext", first,
                                         ["extract", "--inputs", str(raw_dir), "--out", str(first)],
                                         ["extract", "--inputs", str(raw_dir), "--out", str(second)])
        assert proc.returncode == 0, proc.stderr
        assert after == before
        assert _tree(first) == _tree(second) == _tree(GOLDEN_MINED)


def _readme_cli_commands() -> list[list[str]]:
    """The argument lists of the README's CLI quick start, without shell redirections or ``echo ... |``."""
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    return [shlex.split(re.sub(r"[<>]\s*\S+", "", line.rsplit("|", 1)[-1])) for line in block.splitlines()]


@pytest.mark.parametrize("words", _readme_cli_commands(), ids=lambda words: words[1])
def test_readme_cli_examples_parse(words):
    assert words[0] == "multibridge"
    cli.build_parser().parse_args(words[1:])


def test_readme_learn_bpe_example_runs_on_a_run_tree(tmp_path, monkeypatch):
    # The glob must pick the preprocessed files of a `run` tree, not its
    # BPE-segmented `*.bpe.src` files, whose `@@` tokens learn-bpe rejects.
    shutil.copytree(GOLDEN / "prep", tmp_path / "prep")
    monkeypatch.chdir(tmp_path)
    words = next(words for words in _readme_cli_commands() if words[1] == "learn-bpe")
    expand = {word: sorted(glob.glob(word)) for word in words if "*" in word or "?" in word}
    assert [len(paths) for paths in expand.values()] == [12]  # one file per direction of the fixture run
    assert main([path for word in words[1:] for path in expand.get(word, [word])]) == 0
    assert Path("codes.txt").is_file() and Path("vocab.txt").is_file()
