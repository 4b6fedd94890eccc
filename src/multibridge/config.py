"""Pipeline configuration: one JSON document.

Relative paths resolve against the directory containing the config file.
A run replaces ``mined/``, ``sampled/`` and ``prep/`` under ``out_dir``, which
must neither equal, contain nor sit inside ``raw_dir``; nor may the config
file sit inside the three. Older configs name the three instead
(``mined_dir``, ``sampled_dir``, ``preprocessed_dir``); they are read as
``out_dir`` P only as P/mined, P/sampled and P/prep. Validation resolves
every referenced input before any stage runs.

Example::

    {
      "languages": ["bn", "hi", "ta"],
      "raw_dir": "raw",
      "out_dir": "out",
      "sampling": {"strategy": "sample-fraction", "per_pair_target": 100000},
      "bpe": {"num_merges": 32000, "min_frequency": 5},
      "xprod_cap": 64,
      "seed": 1
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Mapping

from .bpe import DEFAULT_MIN_FREQUENCY, DEFAULT_NUM_MERGES
from .errors import ConfigError
from .languages import PIVOT, REGISTRY
from .mining import DEFAULT_XPROD_CAP, canonical_pair
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
    out_dir: Path
    sampling: SamplingPlan
    bpe_num_merges: int
    bpe_min_frequency: int
    xprod_cap: int  # 0 is no cap
    # The fixed layout of the tree under out_dir.
    mined_dir = property(lambda self: self.out_dir / "mined")
    sampled_dir = property(lambda self: self.out_dir / "sampled")
    prep_dir = property(lambda self: self.out_dir / "prep")
    final_dir = property(lambda self: self.out_dir / "prep" / "final")
    stage_dirs = property(lambda self: (self.prep_dir, self.mined_dir, self.sampled_dir))  # what a run replaces


def raw_paths(raw_dir: Path, lang: str) -> tuple[Path, Path]:
    """The English-centric corpus files of one language: ``en-xx.en`` and ``en-xx.xx``."""
    prefix = raw_dir / f"{PIVOT}-{lang}"
    return Path(f"{prefix}.{PIVOT}"), Path(f"{prefix}.{lang}")


#: Keys that no longer change output. Old configs still carry them, so each
#: is accepted at the one value the pipeline always had and rejected otherwise.
_LEGACY_KEYS = {"pivot": PIVOT, "workers": 1}

#: The stage-directory keys ``out_dir`` replaced, each with its fixed name under it.
_LEGACY_STAGE_DIRS = {"mined_dir": "mined", "sampled_dir": "sampled", "preprocessed_dir": "prep"}

#: Every key a config may hold, per table; anything else is a typo.
_TOP_KEYS = {
    "languages", "raw_dir", "out_dir", "sampling", "bpe", "xprod_cap", "seed",
    *_LEGACY_KEYS, *_LEGACY_STAGE_DIRS,
}
_SAMPLING_KEYS = {"strategy", "pairs", "per_pair_target"}
_BPE_KEYS = {"num_merges", "min_frequency"}


def _table(value: object, known: set[str], where: str) -> dict:
    """``value`` as a table whose keys are all in ``known``; ``where`` prefixes key names."""
    if not isinstance(value, dict):
        name = repr(where.removesuffix(".")) if where else "config"
        raise ConfigError(f"{name} must be a table, not {type(value).__name__}")
    unknown = sorted(set(value) - known)
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(repr(where + key) for key in unknown))
    return value


def _int(table: dict, key: str, default: int, where: str, minimum: int) -> int:
    """``table[key]`` (or ``default``) as an integer of at least ``minimum``; ``where`` prefixes the key."""
    value = table.get(key, default)
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{where + key!r} must be an integer >= {minimum}, not {value!r}")
    return value


def parse_pairs(items: object) -> tuple[tuple[str, str], ...]:
    """A list of ``xx-yy`` pairs, each in canonical order."""
    if not isinstance(items, list):
        raise ConfigError(f"expected a list of 'xx-yy' pairs, not {items!r}")
    pairs = []
    for item in items:
        parts = item.split("-") if isinstance(item, str) else []
        if len(parts) != 2 or not all(parts):
            raise ConfigError(f"malformed pair {item!r} (want 'xx-yy')")
        if parts[0] == parts[1]:
            raise ConfigError(f"pair {item!r} names one language twice")
        pairs.append(canonical_pair(*parts))
    return tuple(pairs)


def parse_sampling(sampling: object, seed: object) -> SamplingPlan:
    """The sampling plan of a ``sampling`` table: ``strategy`` plus its ``pairs`` or ``per_pair_target``."""
    if type(seed) is not int or not 0 <= seed < 2**64:  # the generator would draw a wider seed mod 2**64
        raise ConfigError(f"'seed' must be an integer in [0, 2**64), not {seed!r}")
    sampling = _table(sampling, _SAMPLING_KEYS, "sampling.")
    name = sampling.get("strategy")
    if name == "sample-pairs":
        if not sampling.get("pairs"):
            raise ConfigError("sample-pairs needs a non-empty 'pairs' list")
        strategy = SamplePairs(parse_pairs(sampling["pairs"]))
    elif name == "sample-fraction":
        strategy = SampleFraction(_int(sampling, "per_pair_target", DEFAULT_PER_PAIR_TARGET, "sampling.", 1))
    elif name == "train-all":
        strategy = TrainAll()
    else:
        raise ConfigError(f"unknown sampling strategy {name!r}")
    for key, reader in (("pairs", "sample-pairs"), ("per_pair_target", "sample-fraction")):
        if key in sampling and name != reader:  # a key the strategy would silently ignore
            raise ConfigError(f"'sampling.{key}' is read only by {reader}, not by strategy {name!r}")
    return SamplingPlan(strategy, seed)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and normalize a config document (no filesystem validation yet)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc

    _table(doc, _TOP_KEYS, "")
    base = path.parent

    def path_of(key: str) -> Path:
        if key not in doc:
            raise ConfigError(f"config is missing {key!r}")
        if not isinstance(doc[key], str):
            raise ConfigError(f"{key!r} must be a path string, not {doc[key]!r}")
        return base / doc[key]

    languages = doc.get("languages", [])
    if not (isinstance(languages, list) and all(isinstance(code, str) for code in languages)):
        raise ConfigError(f"'languages' must be a list of language codes, not {languages!r}")
    if len(set(languages)) != len(languages):
        raise ConfigError(f"'languages' lists a language twice: {languages!r}")
    bpe = _table(doc.get("bpe", {}), _BPE_KEYS, "bpe.")
    for key, only_value in _LEGACY_KEYS.items():
        if key in doc and doc[key] != only_value:
            raise ConfigError(
                f"{key!r} was removed; it is accepted only as {only_value!r}, not {doc[key]!r}"
            )
    dirs = {"raw_dir": path_of("raw_dir").resolve(), "out_dir": _out_dir(doc, path_of)}
    check_disjoint(dirs)
    config = PipelineConfig(
        languages=tuple(languages),
        **dirs,
        sampling=parse_sampling(doc.get("sampling", {"strategy": "train-all"}), doc.get("seed", 1)),
        bpe_num_merges=_int(bpe, "num_merges", DEFAULT_NUM_MERGES, "bpe.", 0),
        bpe_min_frequency=_int(bpe, "min_frequency", DEFAULT_MIN_FREQUENCY, "bpe.", 0),
        xprod_cap=_int(doc, "xprod_cap", DEFAULT_XPROD_CAP, "", 0),
    )
    if any(path.resolve().is_relative_to(stage_dir) for stage_dir in config.stage_dirs):
        raise ConfigError(f"config {path} is inside a stage directory under 'out_dir', which a run deletes")
    return config


def _out_dir(doc: dict, path_of: Callable[[str], Path]) -> Path:
    """``out_dir``, or ``P`` where the legacy stage keys name exactly ``P/mined``, ``P/sampled`` and ``P/prep``."""
    legacy = _LEGACY_STAGE_DIRS.keys() & doc.keys()
    if not legacy:
        return path_of("out_dir").resolve()
    if "out_dir" not in doc and legacy == _LEGACY_STAGE_DIRS.keys():
        # Only each key's parent is resolved: a stage path that is a symlink still names its
        # place under P, and the run rejects the link.
        stages = {key: path_of(key) for key in _LEGACY_STAGE_DIRS}
        parent = stages["mined_dir"].parent.resolve()
        if all(path.parent.resolve() == parent and path.name == _LEGACY_STAGE_DIRS[key]
               for key, path in stages.items()):
            return parent
    raise ConfigError(
        "'out_dir' replaced 'mined_dir', 'sampled_dir' and 'preprocessed_dir': the three are accepted "
        "only together, without 'out_dir', as P/mined, P/sampled and P/prep of one directory P"
    )


def check_disjoint(paths: Mapping[str, str | Path]) -> None:
    """Raise :class:`ConfigError` if any two of the named paths, directories or files, are equal or nested."""
    resolved = {name: Path(path).resolve() for name, path in paths.items()}
    for (name_a, path_a), (name_b, path_b) in combinations(resolved.items(), 2):
        if path_a.is_relative_to(path_b) or path_b.is_relative_to(path_a):
            raise ConfigError(f"{name_a!r} and {name_b!r} overlap: {path_a} and {path_b}; each needs its own path")


def validate_config(config: PipelineConfig) -> None:
    """Fail fast, before any stage runs, if inputs cannot be resolved."""
    if len(config.languages) < 2:
        raise ConfigError("need at least two non-pivot languages")
    for code in config.languages:
        if code == PIVOT:
            raise ConfigError("the pivot cannot appear in 'languages'")
        if code not in REGISTRY:
            raise ConfigError(f"language {code!r} is not in the language table")
    if not config.raw_dir.is_dir():
        raise ConfigError(f"raw corpus directory not found: {config.raw_dir}")
    if isinstance(config.sampling.strategy, SamplePairs):
        for pair in config.sampling.strategy.pairs:
            if not set(pair) <= set(config.languages):
                raise ConfigError(f"sampling pair {pair[0]}-{pair[1]} names a language outside 'languages'")
    for code in config.languages:
        for file_path in raw_paths(config.raw_dir, code):
            if not file_path.is_file():
                raise ConfigError(f"missing corpus file: {file_path}")
