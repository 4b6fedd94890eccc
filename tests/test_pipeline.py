import json
import os
import random
import re
import shutil
from collections import defaultdict
from itertools import permutations
from pathlib import Path

import pytest

from multibridge import corpus, pipeline
from multibridge.bpe import BpeSegmenter, learn_bpe, load_bpe, revert_bpe
from multibridge.cli import main
from multibridge.config import load_config, parse_sampling, validate_config
from multibridge.corpus import load_manifest
from multibridge.errors import ConfigError
from multibridge.pipeline import PipelineStageError, preprocess_line, run_pipeline
from multibridge.tags import tag, untag

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

    def test_rerun_over_a_linked_tree_equals_a_fresh_run(self, tmp_path, monkeypatch):
        # The second config changes every .bpe. and final/ file, so the rerun
        # rewrites names that share an inode with names it relinks later.
        out = _run_fixture(tmp_path, "rerun")
        config = out.parent / "config.json"
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, "bpe": {**doc["bpe"], "num_merges": 30}}))
        before = _tree(out)
        unlinked, unlink = [], os.unlink
        monkeypatch.setattr(os, "unlink", lambda path: (unlinked.append(path), unlink(path)))
        run_pipeline(load_config(config))
        monkeypatch.undo()
        # Only the links are unlinked and made again; each file written
        # first is overwritten in place.
        groups = _inodes(out).values()
        assert len(unlinked) == sum(len(group) - 1 for group in groups) == 48

        fresh = tmp_path / "fresh"
        shutil.copytree(FIXTURE, fresh)
        shutil.copy(config, fresh / "config.json")
        run_pipeline(load_config(fresh / "config.json"))
        assert _tree(out) == _tree(fresh / "out") != before
        assert sorted(_inodes(out).values()) == sorted(_inodes(fresh / "out").values())

    def test_cli_sample_over_a_linked_tree_leaves_the_other_stages(self, tmp_path):
        out = _run_fixture(tmp_path, "resample")
        before = {stage: _tree(out / stage) for stage in ("mined", "sampled", "prep")}
        assert main(["sample", "--strategy", "train-all", "--seed", "1", "--inputs", str(out.parent / "raw"),
                     "--mined", str(out / "mined"), "--out", str(out / "sampled")]) == 0
        assert _tree(out / "sampled") != before["sampled"]
        for stage in ("mined", "prep"):
            assert _tree(out / stage) == before[stage], stage


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

    def test_eval_key_accepted_at_old_default(self, tmp_path):
        work = tmp_path / "legacy_eval"
        shutil.copytree(FIXTURE, work)
        doc = json.loads((work / "config.json").read_text())
        doc["eval"] = {"bleu_tokenization": "13a"}
        (work / "config.json").write_text(json.dumps(doc))
        config = load_config(work / "config.json")
        assert not hasattr(config, "eval_tokenization")

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
        "seed-str", "seed-bool", "seed-float", "merges-str", "merges-negative", "min-frequency-negative",
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

    @pytest.mark.parametrize("key,value,other", [
        ("preprocessed_dir", "out/sampled", "sampled_dir"),
        ("preprocessed_dir", "out/sampled/prep", "sampled_dir"),
        ("mined_dir", "{work}/out/prep/../sampled", "sampled_dir"),
        ("raw_dir", "out", "mined_dir"),
    ], ids=["equal", "nested", "absolute-equal", "output-inside-raw"])
    def test_overlapping_dirs_rejected(self, tmp_path, key, value, other):
        doc = json.loads((FIXTURE / "config.json").read_text())
        doc[key] = value.format(work=tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"{other!r} and {key!r} overlap|{key!r} and {other!r} overlap"):
            load_config(tmp_path / "c.json")

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
