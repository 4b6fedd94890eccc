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

Each public name imports its own module on first use, and so does
``multibridge.<layer>`` for each layer in ``_EXPORTS`` below. So
``import multibridge`` loads only :mod:`multibridge.version`, scoring loads
no pipeline layer, and the pipeline never loads numpy.
"""

import sys

from .version import __version__

#: Each layer module and the public names it defines.
_EXPORTS = {
    "bpe": ("BpeModel", "BpeSegmenter", "apply_bpe", "learn_bpe", "load_bpe", "revert_bpe", "save_bpe"),
    "config": ("PipelineConfig", "load_config", "validate_config"),
    "corpus": ("BitextCorpus", "ManifestEntry", "TrainingManifest", "TranslationDirection", "load_bitext",
               "load_manifest", "save_manifest", "verify_manifest", "write_bitext"),
    "errors": ("ConfigError", "MultibridgeError"),
    "languages": ("Language", "REGISTRY", "get_language", "indic_codes"),
    "metrics": ("ComparisonTable", "EmbeddingTable", "EvalReport", "MetricScore", "bleu", "chrf2",
                "cosine_batch", "load_embeddings", "nway_compare"),
    "mining": ("MiningOutcome", "PivotIndex", "StatsMatrix", "build_pivot_index", "extraction_stats", "mine_all",
               "mine_pairs_detailed", "normalize_pivot"),
    "pipeline": ("RunReport", "preprocess_line", "run_pipeline"),
    "rng": (),
    "sampling": ("SampleFraction", "SamplePairs", "SamplingPlan", "TrainAll", "assemble_training_set",
                 "build_training_set", "sample_fraction", "select_spanning_pairs", "spans_all_languages"),
    "scripts": ("from_devanagari", "normalize_unicode", "to_devanagari"),
    "tags": ("tag", "untag"),
    "tokenizers": ("detokenize", "tokenize", "tokenize_13a"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")  # also binds the submodule in globals()
        return sys.modules[f"{__name__}.{name}"]
    if name in _HOME:
        value = getattr(__getattr__(_HOME[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys() | _HOME.keys())
