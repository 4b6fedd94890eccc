import json
import shutil
from pathlib import Path

import pytest

from multibridge.config import load_config, validate_config
from multibridge.errors import ConfigError
from multibridge.pipeline import PipelineStageError, preprocess_line, run_pipeline

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

    def test_run_report_written(self, tmp_path):
        out = _run_fixture(tmp_path, "report")
        doc = json.loads((out / "prep" / "run_report.json").read_text())
        assert doc["seed"] == 77
        assert set(doc["stages"]) >= {"extract", "stats", "sample", "preprocess", "learn-bpe", "apply-bpe", "tag"}


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
