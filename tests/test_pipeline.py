import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
from collections import defaultdict
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibridge import corpus, pipeline
from multibridge.bpe import BpeSegmenter, learn_bpe, load_bpe, revert_bpe
from multibridge.cli import main
from multibridge.config import load_config, parse_sampling, validate_config
from multibridge.corpus import load_manifest
from multibridge.errors import ConfigError
from multibridge.pipeline import PipelineStageError, preprocess_line, run_pipeline
from multibridge.tags import tag, untag

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "data" / "pipeline_fixture"
GOLDEN = Path(__file__).parent / "data" / "pipeline_golden" / "out"


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_fixture(tmp_path: Path, name: str) -> Path:
    work = tmp_path / name
    shutil.copytree(FIXTURE, work)
    run_pipeline(load_config(work / "config.json"))
    return work / "out"


class TestRunPipeline:
    def test_matches_golden_tree(self, tmp_path):
        out = _run_fixture(tmp_path, "run")
        got = _tree(out)
        expected = _tree(GOLDEN)
        assert sorted(got) == sorted(expected)
        for rel in expected:
            assert got[rel] == expected[rel], f"content differs: {rel}"

    @pytest.mark.parametrize("order", permutations(json.loads((FIXTURE / "config.json").read_text())["languages"]),
                             ids="-".join)
    def test_language_order_does_not_change_the_tree(self, tmp_path, order):
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        (work / "config.json").write_text(json.dumps({**doc, "languages": list(order)}))
        run_pipeline(load_config(work / "config.json"))
        assert _tree(work / "out") == _tree(GOLDEN)

    @pytest.mark.parametrize("seed", range(3))
    def test_raw_line_order_only_reorders_the_english_centric_files(self, tmp_path, seed):
        # Shuffle the lines of each en-xx.en/en-xx.xx pair jointly. Mining,
        # statistics, the BPE model and every xx-yy direction must not move;
        # each en-xx/xx-en file must be the golden file's lines in the new order.
        work = tmp_path / "run"
        shutil.copytree(FIXTURE, work)
        rng = random.Random(seed)
        orders = {}
        for lang in json.loads((work / "config.json").read_text())["languages"]:
            paths = [work / "raw" / f"en-{lang}.en", work / "raw" / f"en-{lang}.{lang}"]
            columns = [path.read_bytes().removesuffix(b"\n").split(b"\n") for path in paths]
            orders[lang] = rng.sample(range(len(columns[0])), len(columns[0]))
            for path, lines in zip(paths, columns):
                path.write_bytes(b"".join(lines[i] + b"\n" for i in orders[lang]))
        run_pipeline(load_config(work / "config.json"))
        got, golden = _tree(work / "out"), _tree(GOLDEN)
        assert sorted(got) == sorted(golden)
        centric = {rel: match.group(1) or match.group(2)
                   for rel in golden if (match := re.fullmatch(r"(?:en-(\w\w)|(\w\w)-en)\..*", Path(rel).name))}
        assert len(centric) == 48  # sampled/, prep/ (plain and .bpe) and prep/final/, both sides of six directions
        for rel, expected in golden.items():
            if rel in centric:
                lines = expected.removesuffix(b"\n").split(b"\n")
                expected = b"".join(lines[i] + b"\n" for i in orders[centric[rel]])
            assert got[rel] == expected, f"content differs: {rel}"

    def test_out_dir_config_writes_the_golden_tree(self, tmp_path):
        legacy = _run_fixture(tmp_path, "legacy")
        work = tmp_path / "out_dir"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        for key in ("mined_dir", "sampled_dir", "preprocessed_dir"):
            del doc[key]
        (work / "config.json").write_text(json.dumps({**doc, "out_dir": "out"}))
        run_pipeline(load_config(work / "config.json"))
        assert _tree(work / "out") == _tree(GOLDEN)
        assert sorted(_inodes(work / "out").values()) == sorted(_inodes(legacy).values())

    def test_reruns_byte_identical(self, tmp_path):
        first = _tree(_run_fixture(tmp_path, "a"))
        second = _tree(_run_fixture(tmp_path, "b"))
        assert first == second

    def test_missing_corpus_fails_validation_before_work(self, tmp_path):
        work = tmp_path / "broken"
        shutil.copytree(FIXTURE, work)
        (work / "raw" / "en-ta.ta").unlink()
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(load_config(work / "config.json"))
        assert exc.value.stage == "validate"
        assert isinstance(exc.value.cause, ConfigError)
        assert not (work / "out").exists()

    def test_sample_pair_outside_languages_fails_validation_before_work(self, tmp_path):
        work = tmp_path / "broken"
        shutil.copytree(FIXTURE, work)
        config = json.loads((work / "config.json").read_text())
        config["sampling"] = {"strategy": "sample-pairs", "pairs": ["bn-te"]}
        (work / "config.json").write_text(json.dumps(config))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(load_config(work / "config.json"))
        assert exc.value.stage == "validate"
        assert isinstance(exc.value.cause, ConfigError)
        assert "bn-te" in str(exc.value.cause)
        assert not (work / "out").exists()

    @pytest.mark.parametrize("error", [TypeError("unsupported operand"), KeyboardInterrupt()],
                             ids=["bug", "interrupt"])
    def test_bug_or_interrupt_is_not_a_data_error(self, tmp_path, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(pipeline, "learn_bpe", failing)
        work = tmp_path / "bug"
        shutil.copytree(FIXTURE, work)
        with pytest.raises(type(error)) as exc:
            main(["run", "--config", str(work / "config.json")])
        assert exc.value is error

    def test_os_error_is_a_stage_error(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "save_bpe", failing)
        with pytest.raises(PipelineStageError) as exc:
            _run_fixture(tmp_path, "disk")
        assert exc.value.stage == "learn-bpe"
        assert isinstance(exc.value.cause, OSError)

    def test_run_report_written(self, tmp_path):
        out = _run_fixture(tmp_path, "report")
        doc = json.loads((out / "prep" / "run_report.json").read_text())
        assert doc["seed"] == 77
        assert set(doc["stages"]) >= {"extract", "stats", "sample", "preprocess", "learn-bpe", "apply-bpe", "tag"}


class TestComputeOnce:
    def test_each_distinct_sentence_preprocessed_once(self, tmp_path, monkeypatch):
        calls = []
        real = pipeline.preprocess_line

        def counting(text, lang):
            calls.append((lang, text))
            return real(text, lang)

        monkeypatch.setattr(pipeline, "preprocess_line", counting)
        out = _run_fixture(tmp_path, "memo")

        manifest = load_manifest(out / "sampled" / "manifest.json")
        inputs = []
        for entry in manifest.entries:
            for side, lang in (("src", entry.direction.src), ("tgt", entry.direction.tgt)):
                text = (out / "sampled" / f"{entry.path}.{side}").read_text(encoding="utf-8")
                inputs += [(lang, line) for line in text.split("\n")[:-1]]
        assert len(calls) == len(set(calls)) == len(set(inputs))
        assert len(calls) < len(inputs)

        for entry in manifest.entries:
            mirror = f"{entry.direction.tgt}-{entry.direction.src}"
            assert (out / "prep" / f"{entry.path}.src").read_bytes() == (out / "prep" / f"{mirror}.tgt").read_bytes()

    def test_builds_one_corpus_per_pair_and_stage(self, tmp_path, monkeypatch):
        # Loaded en-xx corpora, mined xx-yy corpora, and the sample of each
        # mined pair; a reversed direction is the same corpus's other column.
        # Each is built by one of the two constructors; the run's texts are
        # all checked on reading, so none goes through the public one's walk.
        built, walked = [], []
        real_post_init, real_checked = corpus.BitextCorpus.__post_init__, corpus.BitextCorpus._checked

        def counting_post_init(self):
            walked.append(f"{self.src_lang}-{self.tgt_lang}")
            real_post_init(self)

        def counting_checked(src_lang, tgt_lang, src_texts, tgt_texts):
            built.append(f"{src_lang}-{tgt_lang}")
            return real_checked(src_lang, tgt_lang, src_texts, tgt_texts)

        monkeypatch.setattr(corpus.BitextCorpus, "__post_init__", counting_post_init)
        monkeypatch.setattr(corpus.BitextCorpus, "_checked", staticmethod(counting_checked))
        _run_fixture(tmp_path, "built")
        assert walked == []
        assert sorted(built) == ["bn-hi", "bn-hi", "bn-ta", "bn-ta", "en-bn", "en-hi", "en-ta", "hi-ta", "hi-ta"]

    def test_reads_only_the_raw_corpora(self, tmp_path, monkeypatch):
        # Every stage after extract works from memory: sampled files are
        # written for the record, never read back.
        read = []
        real = corpus.iter_lines

        def recording(path=None):
            read.append(Path(path).relative_to(tmp_path / "read"))
            return real(path)

        monkeypatch.setattr(corpus, "iter_lines", recording)
        _run_fixture(tmp_path, "read")
        assert sorted(read) == sorted(Path("raw") / p.name for p in (FIXTURE / "raw").iterdir())

    def test_learned_model_segments_as_the_saved_model(self, tmp_path, monkeypatch):
        # run segments with the learner's table; apply-bpe --model encodes from the saved ranks.
        models = []

        def learn(*args, **kwargs):
            models.append(learn_bpe(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(pipeline, "learn_bpe", learn)
        prep = _run_fixture(tmp_path, "table") / "prep"
        [model] = models
        loaded = load_bpe(prep / "bpe.codes", prep / "bpe.vocab")
        assert loaded == model
        lines = [line.split() for path in sorted(prep.glob("*-*.*")) if ".bpe." not in path.name
                 for line in corpus.iter_lines(path)]
        assert {token for line in lines for token in line} <= model.training_segments.keys()
        learned, fresh = BpeSegmenter(model), BpeSegmenter(loaded)
        for line in lines:
            assert learned.segment(line) == fresh.segment(line)

    def test_final_lines_revert_to_preprocessed_lines(self, tmp_path):
        # Every final line, untagged (.src only) and BPE-reverted, is its prep/ line again.
        prep = _run_fixture(tmp_path, "round_trip") / "prep"
        finals = sorted((prep / "final").iterdir())
        assert {path.suffix for path in finals} == {".src", ".tgt"}
        for path in finals:
            reverted = []
            for line in corpus.iter_lines(path):
                tokens = line.split()
                if path.suffix == ".src":
                    src, tgt, tokens = untag(tokens)
                    assert f"{src}-{tgt}" == path.stem
                reverted.append(" ".join(revert_bpe(tokens)))
            assert reverted == list(corpus.iter_lines(prep / path.name)), path.name

    def test_final_files_equal_tag_of_segmented_files(self, tmp_path):
        # "<skipped>" tokenizes to nothing, so one payload is empty.
        work = tmp_path / "empty_payload"
        shutil.copytree(FIXTURE, work)
        en = work / "raw" / "en-bn.en"
        en.write_text("<skipped>\n" + en.read_text(encoding="utf-8").split("\n", 1)[1], encoding="utf-8")
        run_pipeline(load_config(work / "config.json"))
        prep = work / "out" / "prep"

        empty_payloads = 0
        for entry in load_manifest(work / "out" / "sampled" / "manifest.json").entries:
            src, tgt = entry.direction.src, entry.direction.tgt
            bpe_src = (prep / f"{entry.path}.bpe.src").read_text(encoding="utf-8").split("\n")[:-1]
            expected = "".join(" ".join(tag(line.split(), src, tgt)) + "\n" for line in bpe_src)
            assert (prep / "final" / f"{entry.path}.src").read_text(encoding="utf-8") == expected
            assert (prep / "final" / f"{entry.path}.tgt").read_bytes() == (prep / f"{entry.path}.bpe.tgt").read_bytes()
            empty_payloads += bpe_src.count("")
        assert empty_payloads > 0


def _inodes(root: Path) -> dict[int, list[str]]:
    """The files under ``root`` grouped by inode, as paths relative to ``root``."""
    groups = defaultdict(list)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            groups[p.stat().st_ino].append(str(p.relative_to(root)))
    return groups


class TestHardLinks:
    # Each stage directory's distinct contents in the fixture run; prep/ includes final/.
    DISTINCT = {"mined": 7, "sampled": 13, "prep": 39}

    def test_equal_files_share_one_inode_within_each_stage_directory(self, tmp_path):
        out = _run_fixture(tmp_path, "links")
        seen = set(_inodes(out.parent / "raw"))
        paths = 0
        for stage, distinct in self.DISTINCT.items():
            inodes = _inodes(out / stage)
            contents = {(out / stage / group[0]).read_bytes() for group in inodes.values()}
            assert len(inodes) == len(contents) == distinct, stage
            assert not seen & inodes.keys(), f"{stage} shares an inode with an earlier directory or raw/"
            seen |= inodes.keys()
            paths += sum(map(len, inodes.values()))
        assert paths == len(_tree(out)) == 107

    def test_without_hard_links_the_tree_is_unchanged(self, tmp_path, monkeypatch):
        def refused(*args, **kwargs):
            raise PermissionError("hard links not supported")

        monkeypatch.setattr(os, "link", refused)
        out = _run_fixture(tmp_path, "no_links")
        assert _tree(out) == _tree(GOLDEN)
        assert all(p.stat().st_nlink == 1 for p in out.rglob("*") if p.is_file())

    # The errors by which os.link says the file system cannot link here: each writes a copy.
    @pytest.mark.parametrize("code", ["EPERM", "EMLINK", "EXDEV", "ENOTSUP", "EOPNOTSUPP", "EEXIST"])
    def test_where_a_link_cannot_be_made_the_tree_is_unchanged(self, tmp_path, monkeypatch, code):
        def refused(*args, **kwargs):
            raise OSError(getattr(errno, code), code)

        monkeypatch.setattr(os, "link", refused)
        out = _run_fixture(tmp_path, "no_links")
        assert _tree(out) == _tree(GOLDEN)

    # Any other failed link is a fault, as a failed write is: exit 2 and no run report.
    @pytest.mark.parametrize("code", ["ENOSPC", "EIO", None])
    def test_a_link_that_fails_otherwise_is_exit_2(self, tmp_path, monkeypatch, capsys, code):
        work, link, made = tmp_path / "work", os.link, []
        shutil.copytree(FIXTURE, work)

        def fifth_fails(src, dst):
            made.append(dst)
            if len(made) == 5:
                raise OSError(getattr(errno, code), code) if code else OSError("fault")
            link(src, dst)

        monkeypatch.setattr(os, "link", fifth_fails)
        assert main(["run", "--config", str(work / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("multibridge: ") and f"cannot write {made[4]} as a link of " in err
        assert len(made) == 5
        assert not (work / "out" / "prep" / "run_report.json").exists()

    def test_rerun_over_a_linked_tree_equals_a_fresh_run(self, tmp_path):
        # The second config changes every .bpe. and final/ file, which share
        # inodes in the first tree.
        out = _run_fixture(tmp_path, "rerun")
        config = out.parent / "config.json"
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, "bpe": {**doc["bpe"], "num_merges": 30}}))
        before = _tree(out)
        run_pipeline(load_config(config))

        fresh = tmp_path / "fresh"
        shutil.copytree(FIXTURE, fresh)
        shutil.copy(config, fresh / "config.json")
        run_pipeline(load_config(fresh / "config.json"))
        assert _tree(out) == _tree(fresh / "out") != before
        assert sorted(_inodes(out).values()) == sorted(_inodes(fresh / "out").values())

    def test_cli_sample_over_a_linked_tree_is_refused(self, tmp_path, capsys):
        # sample --out must be absent or empty, so it never writes beside a
        # run's files, nor through the links they share.
        out = _run_fixture(tmp_path, "resample")
        before, groups = _tree(out), sorted(_inodes(out).values())
        assert main(["sample", "--strategy", "train-all", "--seed", "1", "--inputs", str(out.parent / "raw"),
                     "--mined", str(out / "mined"), "--out", str(out / "sampled")]) == 2
        assert capsys.readouterr().err.startswith(f"multibridge: {out / 'sampled'} exists and is not an empty")
        assert _tree(out) == before
        assert sorted(_inodes(out).values()) == groups


def _out_dir_config(out_dir: str) -> dict:
    """The fixture's config with ``out_dir`` in place of its three legacy stage keys."""
    doc = json.loads((FIXTURE / "config.json").read_text())
    for key in ("mined_dir", "sampled_dir", "preprocessed_dir"):
        del doc[key]
    return {**doc, "out_dir": out_dir}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory) -> Path:
    """A fixture work directory after one full bn/hi/ta run; tests link to it and must not write into it."""
    return _run_fixture(tmp_path_factory.mktemp("full"), "work").parent


class TestRerun:
    # A run replaces mined/, sampled/ and prep/, so a rerun over any earlier
    # tree equals a fresh run of its own config.
    @pytest.mark.parametrize("change", [
        {"languages": ["bn", "hi"]},
        {"languages": ["bn", "ta"]},
        {"languages": ["hi", "ta"]},
        {"sampling": {"strategy": "train-all"}},
    ], ids=["bn-hi", "bn-ta", "hi-ta", "train-all"])
    def test_rerun_over_a_full_tree_equals_a_fresh_run(self, tmp_path, full_run, change):
        # Linked, not copied, so the earlier tree keeps its link groups; the
        # shared run must come through unchanged, as the run never writes
        # through a link.
        work = tmp_path / "rerun"
        shutil.copytree(full_run, work, copy_function=os.link)
        doc = {**json.loads((FIXTURE / "config.json").read_text()), **change}
        (work / "changed.json").write_text(json.dumps(doc))
        run_pipeline(load_config(work / "changed.json"))

        fresh = tmp_path / "fresh"
        shutil.copytree(FIXTURE, fresh)
        (fresh / "changed.json").write_text(json.dumps(doc))
        run_pipeline(load_config(fresh / "changed.json"))
        assert _tree(work / "out") == _tree(fresh / "out")
        assert len(_tree(work / "out")) == (55 if len(doc["languages"]) == 2 else 107)
        assert sorted(_inodes(work / "out").values()) == sorted(_inodes(fresh / "out").values())
        assert _tree(full_run / "out") == _tree(GOLDEN)

    def test_failed_rerun_leaves_no_run_report(self, tmp_path, monkeypatch, capsys):
        out = _run_fixture(tmp_path, "failed")
        calls, write_lines = [], corpus.write_lines

        def failing(*args):
            calls.append(args[0])
            if len(calls) == 3:
                raise OSError("disk full")
            write_lines(*args)

        monkeypatch.setattr(pipeline, "write_lines", failing)
        assert main(["run", "--config", str(out.parent / "config.json")]) == 2
        assert capsys.readouterr().err.startswith("multibridge: ")
        assert len(calls) == 3
        assert not (out / "prep" / "run_report.json").exists()

    @pytest.mark.parametrize("stage", ["mined", "sampled", "prep"])
    @pytest.mark.parametrize("kind", ["symlink", "file", "legacy-symlink"])
    def test_stage_path_that_is_not_a_directory_is_a_data_error(self, tmp_path, capsys, stage, kind):
        # All three are checked before anything is deleted, and a symlink's
        # target is never deleted through. The config names out_dir, or for
        # legacy-symlink keeps the fixture's three legacy stage keys.
        out = _run_fixture(tmp_path, "odd")
        if kind != "legacy-symlink":
            (out.parent / "config.json").write_text(json.dumps(_out_dir_config("out")))
        target = tmp_path / "elsewhere"
        (out / stage).rename(target)
        if kind.endswith("symlink"):
            (out / stage).symlink_to(target, target_is_directory=True)
        else:
            (out / stage).write_text("not a directory\n")
        before, kept = _tree(out), _tree(target)
        assert main(["run", "--config", str(out.parent / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("multibridge: stage 'extract' failed: not a plain directory") and str(out / stage) in err
        assert _tree(out) == before
        assert _tree(target) == kept


@contextlib.contextmanager
def _failing_disk(fail_from: float, persist: bool = True):
    """Patch every call by which ``corpus`` changes the disk; call number ``fail_from`` raises OSError.

    With ``persist`` every later call raises too, as on a full disk; without
    it only that one call fails. Yields the list of the names of the calls made.
    """
    calls = []

    def counted(fn, name):
        def call(*args, **kwargs):
            if name != "open" or set(args[1] if len(args) > 1 else kwargs.get("mode", "r")) - set("rbt"):
                calls.append(name)
                if len(calls) == fail_from or persist and len(calls) > fail_from:
                    raise OSError(f"injected fault at disk operation {len(calls)} ({name})")
            return fn(*args, **kwargs)
        return call

    patched_os = SimpleNamespace(**vars(os))
    for name in ("makedirs", "unlink", "link"):
        setattr(patched_os, name, counted(getattr(os, name), name))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "os", patched_os)
        patch.setattr(corpus, "shutil", SimpleNamespace(rmtree=counted(shutil.rmtree, "rmtree")))
        patch.setattr(corpus, "open", counted(open, "open"), raising=False)
        yield calls


class TestFaultAtEveryOperation:
    # A train-all run over the fixture's sample-fraction tree, so the two
    # trees differ. The fault either persists from operation k on, as a full
    # disk does, or hits operation k alone.
    CHANGE = {"sampling": {"strategy": "train-all"}}

    def _rerun(self, full_run: Path, work: Path, fail_from: float,
               persist: bool = True) -> tuple[int, str, list[str]]:
        shutil.copytree(full_run, work, copy_function=os.link)
        (work / "changed.json").write_text(json.dumps({**json.loads((FIXTURE / "config.json").read_text()),
                                                       **self.CHANGE}))
        with _failing_disk(fail_from, persist) as calls, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", "--config", str(work / "changed.json")])
        return code, err.getvalue(), calls

    @pytest.fixture(scope="class")
    def operations(self, full_run, tmp_path_factory) -> list[str]:
        """The disk operations of a clean rerun, in order."""
        code, err, calls = self._rerun(full_run, tmp_path_factory.mktemp("clean") / "work", math.inf)
        assert code == 0, err
        return calls

    def _check(self, full_run: Path, work: Path, k: int, persist: bool = True) -> None:
        code, err, calls = self._rerun(full_run, work, k, persist)
        assert code == 2
        assert err.startswith("multibridge: ") and "injected fault" in err and "Traceback" not in err
        if k == 1:  # the reset's first delete is prep/: nothing has changed, and the earlier report is true
            assert _tree(work / "out") == _tree(full_run / "out")
        else:
            assert not (work / "out" / "prep" / "run_report.json").exists()

    def test_operations_are_the_seam_calls(self, operations):
        assert operations[:3] == ["rmtree"] * 3 and operations[3] == "makedirs"
        assert operations[-1] == "open"  # run_report.json, written last
        assert set(operations) == {"rmtree", "makedirs", "open", "link"}

    # The first two are the reset's first two deletes: after one delete, the report must be gone.
    @pytest.mark.parametrize("which", ["first", "second", "last"])
    def test_fault_at_a_fixed_operation(self, full_run, operations, tmp_path, which):
        self._check(full_run, tmp_path / "work", {"first": 1, "second": 2, "last": len(operations)}[which])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fault_at_a_drawn_operation(self, full_run, operations, tmp_path_factory, data):
        k = data.draw(st.integers(1, len(operations)), label="k")
        self._check(full_run, tmp_path_factory.mktemp("fault") / "work", k)

    # A failed link is a fault like any other, not a reason to write a copy.
    @pytest.mark.parametrize("which", ["first", "second", "first link", "last link", "last"])
    def test_single_fault_at_a_fixed_operation(self, full_run, operations, tmp_path, which):
        links = [k for k, name in enumerate(operations, start=1) if name == "link"]
        k = {"first": 1, "second": 2, "first link": links[0], "last link": links[-1], "last": len(operations)}[which]
        self._check(full_run, tmp_path / "work", k, persist=False)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_single_fault_at_a_drawn_operation(self, full_run, operations, tmp_path_factory, data):
        k = data.draw(st.integers(1, len(operations)), label="k")
        self._check(full_run, tmp_path_factory.mktemp("single") / "work", k, persist=False)


class TestConfig:
    def test_relative_paths_resolve_against_config(self, tmp_path):
        work = tmp_path / "cfg"
        shutil.copytree(FIXTURE, work)
        config = load_config(work / "config.json")
        assert config.raw_dir == (work / "raw").resolve()

    def test_unknown_strategy_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc["sampling"] = {"strategy": "everything"}
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_unknown_language_rejected(self, tmp_path):
        work = tmp_path / "cfg2"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        doc["languages"] = ["bn", "xx"]
        (work / "config.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            validate_config(load_config(work / "config.json"))

    def test_removed_keys_accepted_at_old_default(self, tmp_path):
        work = tmp_path / "legacy"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        assert doc["pivot"] == "en"
        doc["workers"] = 1
        (work / "config.json").write_text(json.dumps(doc))
        config = load_config(work / "config.json")
        assert not hasattr(config, "pivot") and not hasattr(config, "workers")

    @pytest.mark.parametrize("key,value", [("pivot", "hi"), ("workers", 0), ("workers", 4)])
    def test_removed_keys_rejected_at_other_values(self, tmp_path, key, value):
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc[key] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=key):
            load_config(bad)

    def test_eval_key_rejected_at_old_default(self, tmp_path):
        # 'eval' changed no output even at its one accepted value, so it is now an unknown key.
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc["eval"] = {"bleu_tokenization": "13a"}
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="^unknown config key 'eval'$"):
            load_config(bad)

    @pytest.mark.parametrize("value", [{"bleu_tokenization": "none"}, {"bleu_tokenization": "intl"}, {}])
    def test_eval_key_rejected_at_other_values(self, tmp_path, value):
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc["eval"] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="'eval'"):
            load_config(bad)

    @pytest.mark.parametrize("table,key,name", [
        (None, "xprod-cap", "'xprod-cap'"),
        ("bpe", "num_merge", "'bpe.num_merge'"),
        ("sampling", "per_pair", "'sampling.per_pair'"),
    ])
    def test_unknown_key_rejected(self, tmp_path, table, key, name):
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        (doc if table is None else doc[table])[key] = 0
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"unknown config key {name}"):
            load_config(bad)

    @pytest.mark.parametrize("name,content", [
        ("list.json", b"[]"),
        ("bytes.json", b'{"seed": "\xff"}'),
        ("bytes.toml", b'seed = "\xff"'),
        ("syntax.toml", b"seed = = 1"),
        # A well-formed TOML config: configs are JSON only, whatever the file's suffix.
        pytest.param("valid.toml", b'languages = ["bn", "hi"]\nraw_dir = "raw"\nmined_dir = "mined"\n'
                     b'sampled_dir = "sampled"\npreprocessed_dir = "prep"\n', id="valid.toml"),
    ])
    def test_malformed_document_rejected(self, tmp_path, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_section_that_is_not_a_table_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc["bpe"] = 5
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="bpe"):
            load_config(bad)

    @pytest.mark.parametrize("key,value,name", [
        ("seed", "abc", "'seed'"),
        ("seed", True, "'seed'"),
        ("seed", 1.5, "'seed'"),
        ("seed", -1, "'seed'"),
        ("seed", 2**64, "'seed'"),
        ("seed", 77 + 2**64, "'seed'"),
        ("seed", 77 - 2**64, "'seed'"),
        ("bpe", None, "'bpe' must be a table, not NoneType"),
        ("sampling", None, "'sampling' must be a table, not NoneType"),
        ("bpe", {"num_merges": "x"}, "'bpe.num_merges'"),
        ("bpe", {"num_merges": -3}, "'bpe.num_merges'"),
        ("bpe", {"min_frequency": -1}, "'bpe.min_frequency'"),
        ("languages", "bn", "'languages'"),
        ("languages", ["bn", 5], "'languages'"),
        ("languages", ["bn", "hi", "bn"], "'languages'"),
        ("xprod_cap", -1, "'xprod_cap'"),
        ("xprod_cap", "64", "'xprod_cap'"),
        ("raw_dir", 5, "'raw_dir'"),
        ("sampling", {"strategy": "sample-fraction", "per_pair_target": "12"}, "'sampling.per_pair_target'"),
        ("sampling", {"strategy": "sample-fraction", "per_pair_target": 0}, "'sampling.per_pair_target'"),
        ("sampling", {"strategy": "sample-pairs", "pairs": "bn-hi"}, "'xx-yy' pairs"),
        ("sampling", {"strategy": "sample-pairs", "pairs": [5]}, "malformed pair 5"),
        ("sampling", {"strategy": "sample-pairs", "pairs": ["bn-bn"]}, "'bn-bn'"),
        ("sampling", {"strategy": "sample-pairs", "pairs": [["bn", "hi"]]}, "malformed pair ['bn', 'hi']"),
    ], ids=[
        "seed-str", "seed-bool", "seed-float", "seed-negative", "seed-2-64", "seed-77-plus-2-64",
        "seed-77-minus-2-64", "bpe-null", "sampling-null", "merges-str", "merges-negative", "min-frequency-negative",
        "languages-str", "languages-int-item", "languages-duplicate", "cap-negative", "cap-str", "raw-dir-int",
        "per-pair-str", "per-pair-zero", "pairs-str", "pair-int", "pair-same-language", "pair-list",
    ])
    def test_wrong_type_or_range_rejected_at_load(self, tmp_path, key, value, name):
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc[key] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_config(bad)

    @pytest.mark.parametrize("sampling,key", [
        ({"strategy": "train-all", "pairs": ["bn-hi"]}, "pairs"),
        ({"strategy": "train-all", "per_pair_target": 5}, "per_pair_target"),
        ({"strategy": "sample-fraction", "pairs": ["bn-hi"]}, "pairs"),
        ({"strategy": "sample-pairs", "pairs": ["bn-hi"], "per_pair_target": 5}, "per_pair_target"),
    ], ids=["train-all-pairs", "train-all-per-pair", "fraction-pairs", "pairs-per-pair"])
    def test_sampling_key_the_strategy_ignores_rejected(self, tmp_path, sampling, key):
        with pytest.raises(ConfigError, match=f"'sampling.{key}'.*{sampling['strategy']!r}"):
            parse_sampling(sampling, 1)
        bad = tmp_path / "bad.json"
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc["sampling"] = sampling
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"'sampling.{key}'"):
            load_config(bad)

    # The stage directories sit at fixed names under one output root: a
    # legacy stage key placed anywhere else, and an output root overlapping
    # raw_dir, are errors naming 'out_dir'.
    @pytest.mark.parametrize("key,value,message", [
        ("preprocessed_dir", "out/sampled", "'out_dir' replaced"),
        ("preprocessed_dir", "out/sampled/prep", "'out_dir' replaced"),
        ("mined_dir", "{work}/out/prep/../sampled", "'out_dir' replaced"),
        ("raw_dir", "out", "'raw_dir' and 'out_dir' overlap"),
    ], ids=["equal", "nested", "absolute-equal", "output-inside-raw"])
    def test_overlapping_dirs_rejected(self, tmp_path, key, value, message):
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc[key] = value.format(work=tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(tmp_path / "c.json")

    def test_legacy_stage_keys_are_read_as_out_dir(self, tmp_path):
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc.update(mined_dir=f"{tmp_path}/elsewhere/../out/mined", sampled_dir="out/./sampled")
        (tmp_path / "c.json").write_text(json.dumps(doc))
        config = load_config(tmp_path / "c.json")
        out = (tmp_path / "out").resolve()
        assert config.out_dir == out
        assert (config.mined_dir, config.sampled_dir, config.prep_dir, config.final_dir) == (
            out / "mined", out / "sampled", out / "prep", out / "prep" / "final")

    @pytest.mark.parametrize("stage", ["mined", "sampled", "prep", "prep/final"])
    def test_config_inside_a_stage_directory_rejected(self, tmp_path, capsys, stage):
        # A run deletes its stage directories, and the config would go with them.
        out = _run_fixture(tmp_path, "inside")
        doc = {**_out_dir_config(str(out)), "raw_dir": str(out.parent / "raw")}
        (out / "c.json").write_text(json.dumps(doc))
        assert load_config(out / "c.json").out_dir == out.resolve()  # out_dir itself is not replaced
        (out / stage / "c.json").write_text(json.dumps(doc))
        before = _tree(out)
        with pytest.raises(ConfigError, match="is inside a stage directory under 'out_dir'"):
            load_config(out / stage / "c.json")
        assert main(["run", "--config", str(out / stage / "c.json")]) == 2
        assert capsys.readouterr().err.startswith("multibridge: config ")
        assert _tree(out) == before

    @pytest.mark.parametrize("seed", [0, 77, 2**64 - 1])
    def test_every_64_bit_seed_accepted(self, tmp_path, seed):
        doc = json.loads((FIXTURE / "config.json").read_text())
        (tmp_path / "c.json").write_text(json.dumps({**doc, "seed": seed}))
        assert load_config(tmp_path / "c.json").sampling.seed == seed
        assert parse_sampling({"strategy": "train-all"}, seed).seed == seed

    def test_every_config_the_repository_writes_loads(self, tmp_path):
        # The fixture and the benchmark's pipeline workloads keep the legacy
        # stage keys; each must load, validate and put its tree in <work>/out.
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        configs = {"fixture": FIXTURE / "config.json"}
        for name, workload in workloads.WORKLOADS.items():
            if workload["kind"] == "pipeline":
                configs[name] = workloads.write_inputs(name, "tiny", tmp_path / name, 1)
        assert len(configs) == 3
        for name, path in configs.items():
            config = load_config(path)
            validate_config(config)
            assert config.out_dir == (path.parent / "out").resolve(), name

    def test_cap_zero_or_null_disables(self, tmp_path):
        for value in (0, None):
            doc = json.loads((FIXTURE / "config.json").read_text())
            doc["xprod_cap"] = value
            (tmp_path / "c.json").write_text(json.dumps(doc))
            assert load_config(tmp_path / "c.json").xprod_cap is None

    def test_pivot_in_languages_rejected(self, tmp_path):
        work = tmp_path / "cfg3"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        doc["languages"] = ["en", "bn"]
        (work / "config.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            validate_config(load_config(work / "config.json"))


class TestPreprocessLine:
    def test_indic_is_normalized_transliterated_tokenized(self):
        assert preprocess_line("আমি ভাত খাই।", "bn") == ["आमि", "भात", "खाइ", "।"]

    def test_english_is_13a_tokenized(self):
        assert preprocess_line("Hello, world.", "en") == ["Hello", ",", "world", "."]

    def test_hindi_unchanged_script(self):
        assert preprocess_line("नमस्ते।", "hi") == ["नमस्ते", "।"]
