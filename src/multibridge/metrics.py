"""Corpus-level BLEU, chrF2, and embedding-cosine similarity.

BLEU reproduces the sacrebleu recipe exactly: 13a (or no) tokenization,
n-grams up to 4, clipped counts, exponential smoothing of zero precisions
(each successive zero halves the credited precision), brevity penalty,
case-sensitive, single reference, 0-100 scale. chrF2 is the character
n-gram F-score with beta=2 over orders 1..6 with all whitespace removed,
averaging precision and recall over the orders attested in both sides.
Both take their n-gram statistics as exact integer counts from one sorted
pass per order over the whole corpus, so no float enters before the formula:
``_ranks`` numbers each order's distinct n-grams with one ``argsort``.

Sentence embeddings are consumed from files produced externally (this
toolkit never loads an encoder); cosine similarity is averaged over
sentences and reported x100. An embedding file is read one of two ways. A
clean file, whose bytes are only those of decimal floats, spaces, tabs and
LFs, is converted in one call to numpy's C text reader, without a Python
object per field; its shape and values are checked after. Every other file
is read row by row, so its first bad line names the error.

No metric calls a BLAS routine, so numpy is imported with a one-thread
OpenBLAS pool: more threads would only busy-wait, costing CPU time, and one
thread fixes the summation order of any BLAS call a later metric makes,
whatever the host's core count. A thread count the caller set, in
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``,
wins; a process that imported numpy first keeps its pool; and
``os.environ`` is left as it was found, so later-loaded libraries and
subprocesses see the caller's environment.
"""

from __future__ import annotations

import io
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

if os.environ.keys() & {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:  # OpenBLAS reads all three
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .corpus import TranslationDirection, iter_lines, parse_count, parse_floats
from .errors import MultibridgeError
from .languages import PIVOT
from .tokenizers import tokenize_13a
from .version import __version__

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2

#: Stand-in for log(0): drives the score to zero without raising.
_LOG_ZERO = -9999999999

METRIC_RANGES = {
    "bleu": (0.0, 100.0),
    "chrf2": (0.0, 100.0),
    "cosine": (-100.0, 100.0),
}

METRIC_ORDER = ("bleu", "chrf2", "cosine", "tset_sim")


class MetricError(MultibridgeError):
    """Every evaluation error: mismatched or empty inputs, bad embedding files or scores."""


@dataclass(frozen=True)
class MetricScore:
    metric: str
    value: float
    signature: str

    def __post_init__(self) -> None:
        lo, hi = METRIC_RANGES.get(self.metric, (-math.inf, math.inf))
        if not (lo <= self.value <= hi):
            raise MetricError(f"{self.metric} value {self.value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class EvalReport:
    """Per-direction scores on one test set."""

    direction: TranslationDirection
    scores: tuple[MetricScore, ...]
    n_sentences: int

    def __post_init__(self) -> None:
        metrics = [s.metric for s in self.scores]
        if len(set(metrics)) != len(metrics):
            raise MetricError("one score per metric per direction")

    def score(self, metric: str) -> MetricScore | None:
        return next((s for s in self.scores if s.metric == metric), None)


def _check_streams(hypotheses: Sequence[str], references: Sequence[str]) -> None:
    if len(hypotheses) != len(references):
        raise MetricError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise MetricError("nothing to score")


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys, ``np.unique(keys, return_inverse=True)[1]`` with one sort."""
    order = np.argsort(keys)
    ordered = keys[order]
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[:1] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=ranks[1:])  # 1 where a new key starts
    ranks[order] = np.cumsum(ranks)
    return ranks


def _clipped_ngram_stats(symbols: np.ndarray, lengths: list[int], max_order: int) -> list[tuple[int, int, int]]:
    """Per order 1..max_order: hypothesis n-grams, reference n-grams and clipped matches.

    ``symbols`` is every hypothesis line and then every reference line, one
    integer per character or token; ``lengths`` gives each line's length, so
    line ``j`` and line ``j + len(lengths) // 2`` are pair ``j``. Each count
    is summed over the pairs, and a match is clipped to the count in its own
    pair's reference.
    """
    n_pairs = len(lengths) // 2
    n_hyp_symbols = sum(lengths[:n_pairs])  # hypothesis windows start before this position
    pair = np.repeat(np.arange(len(lengths)) % n_pairs, lengths)
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(symbols))  # symbols left in the line
    # An n-gram id is its key's rank among the distinct keys. An order-1 key is (pair, symbol):
    # only the two lines of one pair share ids.
    unigram = ids = _ranks(pair * (int(symbols.max(initial=0)) + 1) + symbols)
    stats = []
    for n in range(1, max_order + 1):
        if n > 1:
            # The id of the n-gram at i is the rank of (id of the (n-1)-gram at i, id of symbol
            # i+n-1). Both are below len(symbols), so keys stay below len(symbols)**2 and int64
            # is exact for any input that fits in memory.
            ids = _ranks(ids[:-1] * len(symbols) + unigram[n - 1 :])
        inside = room[: len(ids)] >= n  # windows that run past the end of their line are not n-grams
        hyp = ids[:n_hyp_symbols][inside[:n_hyp_symbols]]
        ref = ids[n_hyp_symbols:][inside[n_hyp_symbols:]]
        clipped = np.minimum(np.bincount(hyp, minlength=len(ids)), np.bincount(ref, minlength=len(ids)))
        stats.append((len(hyp), len(ref), int(clipped.sum())))
    return stats


def _log_or_floor(value: float) -> float:
    return math.log(value) if value != 0.0 else _LOG_ZERO


def bleu(hypotheses: Sequence[str], references: Sequence[str], tokenization: str = "13a") -> MetricScore:
    """Corpus-level BLEU-4 with exponential smoothing, 0-100 scale.

    ``tokenization`` is ``"13a"`` for raw text or ``"none"`` for input that
    is already tokenized (space-separated), the protocol used when scoring
    Indic output after external tokenization.
    """
    if tokenization not in ("13a", "none"):
        raise MetricError(f"unknown tokenization {tokenization!r}")
    _check_streams(hypotheses, references)

    vocab: dict[str, int] = {}  # token -> id, shared by both sides
    symbols: list[int] = []
    lengths: list[int] = []
    for line in (*hypotheses, *references):
        line = line.rstrip()
        tokens = (tokenize_13a(line) if tokenization == "13a" else line).split()
        symbols.extend([vocab.setdefault(token, len(vocab)) for token in tokens])
        lengths.append(len(tokens))
    stats = _clipped_ngram_stats(np.array(symbols, dtype=np.int64), lengths, BLEU_ORDER)
    sys_len, ref_len, _ = stats[0]

    precisions = [0.0] * BLEU_ORDER
    smooth = 1.0
    for n, (n_hyp, _, n_match) in enumerate(stats):
        if n_hyp == 0:
            break
        if n_match == 0:
            smooth *= 2
            precisions[n] = 100.0 / (smooth * n_hyp)
        else:
            precisions[n] = 100.0 * n_match / n_hyp

    if sys_len == 0:
        bp = 0.0
    elif sys_len < ref_len:
        bp = math.exp(1 - ref_len / sys_len)
    else:
        bp = 1.0

    if bp == 1.0 and all(p == 100.0 for p in precisions):
        score = 100.0  # exact by construction for perfect matches
    else:
        score = bp * math.exp(sum(_log_or_floor(p) for p in precisions) / BLEU_ORDER)
        score = min(score, 100.0)
    signature = f"BLEU+case.mixed+numrefs.1+smooth.exp+tok.{tokenization}+version.{__version__}"
    return MetricScore("bleu", score, signature)


def chrf2(hypotheses: Sequence[str], references: Sequence[str]) -> MetricScore:
    """chrF with beta=2: character n-grams 1..6, whitespace removed, 0-100."""
    _check_streams(hypotheses, references)
    texts = ["".join(line.split()) for line in (*hypotheses, *references)]
    codepoints = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    stats = _clipped_ngram_stats(codepoints, [len(text) for text in texts], CHRF_ORDER)

    avg_precision = 0.0
    avg_recall = 0.0
    effective_order = 0
    for n_hyp, n_ref, n_match in stats:
        if n_hyp > 0 and n_ref > 0:
            avg_precision += n_match / n_hyp
            avg_recall += n_match / n_ref
            effective_order += 1
    if effective_order == 0 or avg_precision + avg_recall == 0.0:
        score = 0.0
    else:
        avg_precision /= effective_order
        avg_recall /= effective_order
        beta_sq = CHRF_BETA**2
        denominator = beta_sq * avg_precision + avg_recall
        score = 0.0 if denominator == 0 else 100.0 * (1 + beta_sq) * avg_precision * avg_recall / denominator
    signature = f"chrF2+numchars.{CHRF_ORDER}+space.false+version.{__version__}"
    return MetricScore("chrf2", score, signature)


@dataclass(frozen=True)
class EmbeddingTable:
    """Fixed-dimension sentence embeddings keyed by integer sentence id."""

    ids: tuple[int, ...]
    matrix: np.ndarray  # (n, dim), row i belongs to ids[i]

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.ids):
            raise MetricError("embedding matrix shape does not match ids")
        if len(set(self.ids)) != len(self.ids):
            raise MetricError("duplicate sentence ids in embedding table")
        if not np.all(np.isfinite(self.matrix)):
            raise MetricError("embedding table contains non-finite values")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _fields(line: str) -> list[str]:
    """The fields of one embedding-file line, split at runs of spaces and tabs.

    ``str.split()`` would also split at other whitespace (U+00A0, ``\\v``, ...);
    here such a character stays inside its field and fails that field's check.
    """
    fields = line.replace("\t", " ").split(" ")
    return [field for field in fields if field] if "" in fields else fields


#: Every byte of a clean embedding file. On fields of these alone numpy's
#: text reader accepts exactly what float() accepts, and both round each
#: decimal correctly, so they give the same bits.
_CLEAN_BYTES = b"0123456789+-.eE \t\n"


def _parse_rows(body: bytes) -> np.ndarray:
    """Every row of ``body`` as float64 in one call to numpy's C text reader; ValueError on a bad field.

    It skips blank rows and, without ``usecols``, fails on a row whose field count differs from the first's.
    """
    return np.loadtxt(io.BytesIO(body), dtype=np.float64, comments=None, ndmin=2)


def _load_clean(path) -> EmbeddingTable | None:
    """The table of the clean file at ``path`` (never stdin), or None: the row-by-row reader then judges it."""
    try:
        data = Path(path).read_bytes()
    except OSError:  # unreadable: the row-by-row reader names the path
        return None
    if data.translate(None, _CLEAN_BYTES):  # deleting them leaves something: CR, '#', non-ASCII, ...
        return None
    header, _, body = data.partition(b"\n")
    fields = header.split()
    rows = body.removesuffix(b"\n").split(b"\n")  # [b""] when there are none
    heads = [(row.split(maxsplit=1) or [b""])[0] for row in rows]  # b"" for a blank row
    if len(fields) != 2 or not all(count.isdigit() for count in [*fields, *heads]):
        return None
    try:
        dim, n = map(int, fields)
        ids = tuple(map(int, heads))  # exact, where the reader's float64 copy of a long id is not
        table = _parse_rows(body)
    except ValueError:  # a bad field, or a count past int()'s limit on digits, which parse_count names
        return None
    # Every row has an id, so the reader skipped none and the shape counts them all.
    if dim < 1 or len(set(ids)) != len(ids) or table.shape != (n, dim + 1) or not np.isfinite(table[:, 1:]).all():
        return None
    return EmbeddingTable(ids, table[:, 1:])


def _load_rows(path) -> EmbeddingTable:
    """Row by row: each row's fields, id and floats checked in turn, so the first bad line raises."""
    lines = iter_lines(path)
    header = _fields(next(lines, ""))
    if len(header) != 2:
        raise MetricError(f"{path}:1: expected 'd n' header")
    dim, n = (parse_count(field, path, 1, MetricError) for field in header)
    if dim < 1:
        raise MetricError(f"{path}:1: dimension must be at least 1, got {dim}")
    first_line: dict[int, int] = {}  # sentence id -> line it first appears on, in file order
    rows = []
    for line_no, line in enumerate(lines, start=2):
        parts = _fields(line)
        if len(parts) != dim + 1:
            raise MetricError(f"{path}:{line_no}: expected id plus {dim} floats")
        sid = parse_count(parts[0], path, line_no, MetricError)
        if sid in first_line:
            raise MetricError(f"{path}:{line_no}: duplicate sentence id {sid} (first at line {first_line[sid]})")
        first_line[sid] = line_no
        rows.append(parse_floats(parts[1:], path, line_no, MetricError))
    ids = tuple(first_line)
    if len(ids) != n:
        raise MetricError(f"{path}: header says {n} rows, found {len(ids)}")
    return EmbeddingTable(ids, np.array(rows, dtype=np.float64).reshape(len(ids), dim))


def load_embeddings(path) -> EmbeddingTable:
    """Read the file at ``path`` (no stdin): header ``d n``, then ``id v1 ... vd`` rows, split on spaces and tabs.

    A clean file (only ASCII digits, ``+-.eE``, spaces, tabs and LFs; a
    ``d n`` header of counts; ``n`` rows with unique ids; ``d + 1`` finite
    fields on every row) is converted in one call to numpy's C text reader,
    which rounds each decimal exactly as ``float()`` does. Every other file
    goes to a row-by-row reader, which raises the first error in file
    order: a bad float on line 3 wins over a short row on line 5.
    """
    return _load_clean(path) or _load_rows(path)


def cosine_batch(a: EmbeddingTable, b: EmbeddingTable) -> MetricScore:
    """Mean per-sentence cosine similarity between two tables, x100."""
    if a.dim != b.dim:
        raise MetricError(f"dimension {a.dim} vs {b.dim}")
    if set(a.ids) != set(b.ids):
        raise MetricError("embedding tables cover different sentence ids")
    if not a.ids:
        raise MetricError("empty embedding tables")
    # Both tables in sentence-id order, compared as Python ints so ids past int64 stay exact.
    mat_a = a.matrix[np.argsort(np.array(a.ids, dtype=object))]
    mat_b = b.matrix[np.argsort(np.array(b.ids, dtype=object))]
    norms_a = np.linalg.norm(mat_a, axis=1)
    norms_b = np.linalg.norm(mat_b, axis=1)
    if np.any(norms_a == 0) or np.any(norms_b == 0):
        raise MetricError("zero-norm embedding encountered")
    cosines = np.sum(mat_a * mat_b, axis=1) / (norms_a * norms_b)
    value = 100.0 * float(np.mean(cosines))
    value = max(-100.0, min(100.0, value))  # guard rounding at the boundary
    signature = f"cosine+dim.{a.dim}+scale.100+version.{__version__}"
    return MetricScore("cosine", value, signature)


@dataclass(frozen=True)
class ComparisonTable:
    """Per-source aggregate of metric scores, in the n-way layout."""

    rows: tuple[tuple[str, dict[str, float | None]], ...]
    avg_row: dict[str, float | None]
    pivot_row: dict[str, float | None] | None
    metrics: tuple[str, ...]
    average: str
    missing: tuple[TranslationDirection, ...] = ()

    def to_tsv(self) -> str:
        lines = [f"# average: {self.average}", "\t".join(("src", *self.metrics))]

        def fmt(values: dict[str, float | None]) -> list[str]:
            return ["" if values.get(m) is None else f"{values[m]:.1f}" for m in self.metrics]

        for label, values in self.rows:
            lines.append("\t".join((label, *fmt(values))))
        lines.append("\t".join(("AVG", *fmt(self.avg_row))))
        if self.pivot_row is not None:
            lines.append("\t".join((PIVOT, *fmt(self.pivot_row))))
        if self.missing:
            lines.append("# missing: " + " ".join(d.label() for d in self.missing))
        return "\n".join(lines) + "\n"


def _aggregate(values: list[tuple[float, int]], average: str) -> float | None:
    if not values:
        return None
    if average == "micro":
        weight = sum(n for _, n in values)
        if weight == 0:
            return None
        return sum(v * n for v, n in values) / weight
    return sum(v for v, _ in values) / len(values)


def nway_compare(
    reports: Iterable[EvalReport],
    languages: Sequence[str],
    pivot: str = PIVOT,
    average: str = "macro",
    testset_similarity: Mapping[TranslationDirection, float] | None = None,
) -> ComparisonTable:
    """Aggregate per-direction reports into one row per source language.

    Each row averages a source's outgoing directions into non-English
    targets; English gets its own row outside the AVG. ``average`` is
    ``macro`` (unweighted over directions) or ``micro`` (weighted by
    sentence counts). Expected-but-absent directions are listed in
    ``missing`` rather than failing the comparison. ``pivot`` must be
    :data:`~multibridge.languages.PIVOT`, the toolkit's only pivot. A
    language listed twice, two reports for one direction, or a report score
    outside bleu, chrf2 and cosine is an error.
    """
    if pivot != PIVOT:
        raise MetricError(f"the pivot is {PIVOT!r}, not {pivot!r}")
    if average not in ("macro", "micro"):
        raise MetricError(f"unknown average {average!r}")
    seen_languages: set[str] = set()
    for code in languages:
        if code in seen_languages:
            raise MetricError(f"language {code!r} listed twice")
        seen_languages.add(code)
    non_english = [code for code in languages if code != PIVOT]
    by_direction: dict[TranslationDirection, EvalReport] = {}
    for r in reports:
        if r.direction in by_direction:
            raise MetricError(f"two reports for direction {r.direction.label()}")
        for s in r.scores:
            if s.metric not in METRIC_RANGES:
                raise MetricError(f"report {r.direction.label()}: {s.metric!r} is not bleu, chrf2 or cosine")
        by_direction[r.direction] = r
    tset = dict(testset_similarity or {})

    metric_names = [
        m for m in METRIC_ORDER
        if any(r.score(m) for r in by_direction.values()) or (m == "tset_sim" and tset)
    ]

    expected = [TranslationDirection(src, tgt) for src in (*non_english, PIVOT) for tgt in non_english if src != tgt]
    missing = tuple(d for d in expected if d not in by_direction)

    # (score, sentence count) of each direction into a non-English target, by (source, metric)
    # in sorted-direction order. Test-set similarity comes only from ``tset``; a test-set
    # direction without a report weighs 1.
    groups: defaultdict[tuple[str, str], list[tuple[float, int]]] = defaultdict(list)
    for d in sorted(by_direction):
        for s in by_direction[d].scores:
            if d.tgt in non_english:
                groups[d.src, s.metric].append((s.value, by_direction[d].n_sentences))
    for d in sorted(tset):
        if d.tgt in non_english:
            groups[d.src, "tset_sim"].append((tset[d], by_direction[d].n_sentences if d in by_direction else 1))

    def row_for(src: str) -> dict[str, float | None]:
        return {metric: _aggregate(groups.get((src, metric), []), average) for metric in metric_names}

    rows = tuple((src, row_for(src)) for src in non_english)

    avg_row: dict[str, float | None] = {}
    for metric in metric_names:
        if average == "micro":  # every direction pooled, in ``languages`` order
            values = [value for src in non_english for value in groups.get((src, metric), [])]
        else:  # the mean of the rows
            values = [(row[metric], 1) for _, row in rows if row[metric] is not None]
        avg_row[metric] = _aggregate(values, average)

    pivot_row = row_for(PIVOT)
    if all(v is None for v in pivot_row.values()):
        pivot_row = None

    return ComparisonTable(rows, avg_row, pivot_row, tuple(metric_names), average, missing)
