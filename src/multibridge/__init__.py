"""multibridge: corpus engineering for many-to-many multilingual NMT.

The toolkit covers the data side of training one translation model for
every direction among English and a set of Indic languages:

* pivot mining: extracting X-Y parallel corpora from English-centric
  bitext by joining on the shared English sentence;
* sampling: the three regimes for deciding how much mined data to train
  on, all seeded and byte-reproducible;
* preprocessing: Unicode normalization, transliteration of every Indic
  script into Devanagari (and back), tokenization;
* subwords: BPE learning and application with a frequency-filtered
  shared vocabulary;
* language tags: the reserved source/target control tokens;
* evaluation: BLEU, chrF2, embedding cosine similarity, and n-way
  per-direction comparison tables.

Model training itself is out of scope; the pipeline produces the tagged,
BPE-segmented training files a standard NMT toolkit consumes.

The evaluation names load :mod:`multibridge.metrics`, and numpy with it, on
first access, so the pipeline and the CLI's other subcommands never pay for
numpy's import.
"""

from .bpe import (
    BpeModel,
    BpeSegmenter,
    apply_bpe,
    learn_bpe,
    load_bpe,
    revert_bpe,
    save_bpe,
)
from .config import PipelineConfig, load_config, validate_config
from .corpus import (
    BitextCorpus,
    ManifestEntry,
    TrainingManifest,
    TranslationDirection,
    load_bitext,
    load_manifest,
    save_manifest,
    verify_manifest,
    write_bitext,
)
from .errors import ConfigError, MultibridgeError
from .languages import Language, REGISTRY, get_language, indic_codes
from .mining import (
    MiningOutcome,
    PivotIndex,
    StatsMatrix,
    build_pivot_index,
    extraction_stats,
    mine_all,
    mine_pairs_detailed,
    normalize_pivot,
)
from .pipeline import RunReport, preprocess_line, run_pipeline
from .sampling import (
    SampleFraction,
    SamplePairs,
    SamplingPlan,
    TrainAll,
    assemble_training_set,
    build_training_set,
    sample_fraction,
    select_spanning_pairs,
    spans_all_languages,
)
from .scripts import from_devanagari, normalize_unicode, to_devanagari
from .tags import tag, untag
from .tokenizers import detokenize, tokenize, tokenize_13a
from .version import __version__

_METRICS_NAMES = frozenset({
    "ComparisonTable",
    "EmbeddingTable",
    "EvalReport",
    "MetricScore",
    "bleu",
    "chrf2",
    "cosine_batch",
    "load_embeddings",
    "nway_compare",
})


def __getattr__(name: str):
    if name in _METRICS_NAMES:
        from . import metrics

        return getattr(metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _METRICS_NAMES)


__all__ = [
    "__version__",
    "BitextCorpus",
    "BpeModel",
    "BpeSegmenter",
    "ComparisonTable",
    "ConfigError",
    "EmbeddingTable",
    "EvalReport",
    "Language",
    "ManifestEntry",
    "MetricScore",
    "MiningOutcome",
    "MultibridgeError",
    "PipelineConfig",
    "PivotIndex",
    "REGISTRY",
    "RunReport",
    "SampleFraction",
    "SamplePairs",
    "SamplingPlan",
    "StatsMatrix",
    "TrainAll",
    "TrainingManifest",
    "TranslationDirection",
    "apply_bpe",
    "assemble_training_set",
    "bleu",
    "build_pivot_index",
    "build_training_set",
    "chrf2",
    "cosine_batch",
    "detokenize",
    "extraction_stats",
    "from_devanagari",
    "get_language",
    "indic_codes",
    "learn_bpe",
    "load_bitext",
    "load_bpe",
    "load_config",
    "load_embeddings",
    "load_manifest",
    "mine_all",
    "mine_pairs_detailed",
    "normalize_pivot",
    "normalize_unicode",
    "nway_compare",
    "preprocess_line",
    "revert_bpe",
    "run_pipeline",
    "sample_fraction",
    "save_bpe",
    "save_manifest",
    "select_spanning_pairs",
    "spans_all_languages",
    "tag",
    "to_devanagari",
    "tokenize",
    "tokenize_13a",
    "untag",
    "validate_config",
    "verify_manifest",
    "write_bitext",
]
