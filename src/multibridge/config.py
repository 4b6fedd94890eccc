"""Pipeline configuration: one JSON (or TOML, Python 3.11+) document.

Relative paths resolve against the directory containing the config file.
Validation resolves every referenced input before any stage runs.

Example::

    {
      "languages": ["bn", "hi", "ta"],
      "raw_dir": "raw",
      "mined_dir": "out/mined",
      "sampled_dir": "out/sampled",
      "preprocessed_dir": "out/prep",
      "sampling": {"strategy": "sample-fraction", "per_pair_target": 100000},
      "bpe": {"num_merges": 32000, "min_frequency": 5},
      "xprod_cap": 64,
      "seed": 1
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .languages import PIVOT, REGISTRY, Language, register
from .sampling import (
    DEFAULT_PER_PAIR_TARGET,
    SampleFraction,
    SamplePairs,
    SamplingPlan,
    TrainAll,
)


@dataclass(frozen=True)
class PipelineConfig:
    languages: tuple[str, ...]
    raw_dir: Path
    mined_dir: Path
    sampled_dir: Path
    preprocessed_dir: Path
    sampling: SamplingPlan
    bpe_num_merges: int = 32000
    bpe_min_frequency: int = 5
    xprod_cap: int | None = 64
    seed: int = 1
    registry_path: Path | None = None

    def raw_paths(self, lang: str) -> tuple[Path, Path]:
        """The English-centric corpus files for one language."""
        prefix = self.raw_dir / f"{PIVOT}-{lang}"
        return Path(f"{prefix}.{PIVOT}"), Path(f"{prefix}.{lang}")


#: Keys that no longer change output. Old configs still carry them, so each
#: is accepted at the one value the pipeline always had and rejected otherwise.
_LEGACY_KEYS = {"pivot": PIVOT, "workers": 1, "eval": {"bleu_tokenization": "13a"}}

#: Every key a config may hold, per table; anything else is a typo.
_TOP_KEYS = {
    "languages", "raw_dir", "mined_dir", "sampled_dir", "preprocessed_dir",
    "sampling", "bpe", "xprod_cap", "seed", "registry", *_LEGACY_KEYS,
}
_SAMPLING_KEYS = {"strategy", "pairs", "per_pair_target"}
_BPE_KEYS = {"num_merges", "min_frequency"}


def _table(value: object, known: set[str], where: str) -> dict:
    """``value`` as a table whose keys are all in ``known``; ``where`` prefixes key names."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config'} must be a table, not {type(value).__name__}")
    unknown = sorted(set(value) - known)
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(repr(where + key) for key in unknown))
    return value


def _parse_strategy(doc: dict, seed: int) -> SamplingPlan:
    sampling = _table(doc.get("sampling", {"strategy": "train-all"}), _SAMPLING_KEYS, "sampling.")
    name = sampling.get("strategy")
    if name == "sample-pairs":
        raw_pairs = sampling.get("pairs")
        if not raw_pairs:
            raise ConfigError("sample-pairs needs a non-empty 'pairs' list")
        pairs = []
        for item in raw_pairs:
            parts = item.split("-") if isinstance(item, str) else list(item)
            if len(parts) != 2:
                raise ConfigError(f"malformed pair {item!r} (want 'xx-yy')")
            pairs.append((parts[0], parts[1]))
        strategy = SamplePairs(tuple(pairs))
    elif name == "sample-fraction":
        strategy = SampleFraction(int(sampling.get("per_pair_target", DEFAULT_PER_PAIR_TARGET)))
    elif name == "train-all":
        strategy = TrainAll()
    else:
        raise ConfigError(f"unknown sampling strategy {name!r}")
    return SamplingPlan(strategy, seed)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and normalize a config document (no filesystem validation yet)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ConfigError("TOML configs need Python 3.11+; use JSON instead") from None
        try:
            doc = tomllib.loads(raw.decode("utf-8"))
        except ValueError as exc:  # TOMLDecodeError or UnicodeDecodeError
            raise ConfigError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            doc = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc

    _table(doc, _TOP_KEYS, "")
    base = path.parent

    def resolve(key: str) -> Path:
        if key not in doc:
            raise ConfigError(f"config is missing {key!r}")
        return (base / doc[key]).resolve() if not Path(doc[key]).is_absolute() else Path(doc[key])

    seed = int(doc.get("seed", 1))
    bpe = _table(doc.get("bpe", {}), _BPE_KEYS, "bpe.")
    registry_path = (base / doc["registry"]).resolve() if "registry" in doc else None
    cap = doc.get("xprod_cap", 64)
    for key, only_value in _LEGACY_KEYS.items():
        if key in doc and doc[key] != only_value:
            raise ConfigError(
                f"{key!r} was removed; it is accepted only as {only_value!r}, not {doc[key]!r}"
            )
    return PipelineConfig(
        languages=tuple(doc.get("languages", ())),
        raw_dir=resolve("raw_dir"),
        mined_dir=resolve("mined_dir"),
        sampled_dir=resolve("sampled_dir"),
        preprocessed_dir=resolve("preprocessed_dir"),
        sampling=_parse_strategy(doc, seed),
        bpe_num_merges=int(bpe.get("num_merges", 32000)),
        bpe_min_frequency=int(bpe.get("min_frequency", 5)),
        xprod_cap=None if cap in (None, 0) else int(cap),
        seed=seed,
        registry_path=registry_path,
    )


def load_registry_file(path: str | Path) -> list[Language]:
    """Register extra languages from a JSON registry file."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    registered = []
    for entry in entries:
        block = entry.get("block_base")
        lang = Language(
            entry["code"],
            entry.get("name", entry["code"]),
            entry.get("script", "unknown"),
            int(block, 0) if isinstance(block, str) else block,
        )
        register(lang)
        registered.append(lang)
    return registered


def validate_config(config: PipelineConfig) -> None:
    """Fail fast, before any stage runs, if inputs cannot be resolved."""
    if config.registry_path is not None:
        if not config.registry_path.exists():
            raise ConfigError(f"registry file not found: {config.registry_path}")
        load_registry_file(config.registry_path)
    if len(config.languages) < 2:
        raise ConfigError("need at least two non-pivot languages")
    for code in config.languages:
        if code == PIVOT:
            raise ConfigError("the pivot cannot appear in 'languages'")
        if code not in REGISTRY:
            raise ConfigError(f"language {code!r} is not registered")
    if not config.raw_dir.is_dir():
        raise ConfigError(f"raw corpus directory not found: {config.raw_dir}")
    for code in config.languages:
        for file_path in config.raw_paths(code):
            if not file_path.is_file():
                raise ConfigError(f"missing corpus file: {file_path}")
