"""Independent reference implementations the fast code is checked against.

Everything here trades efficiency for obviousness and stays decoupled
from the package internals: its own normalization, its own counting, no
index structures, no incremental updates.
"""

from __future__ import annotations

import math
import re
import string
import unicodedata
from collections import Counter

import numpy as np

from multibridge.corpus import TranslationDirection, iter_lines, parse_count, parse_floats
from multibridge.metrics import METRIC_ORDER, ComparisonTable, EmbeddingTable, MetricError
from multibridge.tokenizers import tokenize_13a


def oracle_normalize(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).split())


def nested_loop_mine(
    observations_l1: list[tuple[str, str]],
    observations_l2: list[tuple[str, str]],
) -> set[tuple[str, str]]:
    """O(n*m) join of (english, translation) observation lists.

    Returns the deduplicated pair set with identical-text pairs dropped,
    i.e. exactly what mining should produce when no cross-product cap
    interferes.
    """
    obs1 = [(oracle_normalize(e), x) for e, x in observations_l1]
    obs2 = [(oracle_normalize(e), y) for e, y in observations_l2]
    return {(x, y) for e1, x in obs1 for e2, y in obs2 if e1 == e2 and x != y}


def corpus_observations(corpus, pivot: str = "en") -> list[tuple[str, str]]:
    """Flatten a bitext corpus into (english, other) observation tuples."""
    if corpus.src_lang == pivot:
        return list(zip(corpus.src_texts, corpus.tgt_texts))
    return list(zip(corpus.tgt_texts, corpus.src_texts))


_13A_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_13A_PERIOD_BEFORE = re.compile(r"([^0-9])([\.,])")
_13A_PERIOD_AFTER = re.compile(r"([\.,])([^0-9])")
_13A_DIGIT_DASH = re.compile(r"([0-9])(-)")
_WS = re.compile(r"\s+")


def naive_sample_indices(gen, n: int, k: int) -> list[int]:
    """Partial Fisher-Yates over a full ``list(range(n))``, drawing from ``gen.randbelow``; sorted first k slots."""
    indices = list(range(n))
    for i in range(k):
        j = i + gen.randbelow(n - i)
        indices[i], indices[j] = indices[j], indices[i]
    return sorted(indices[:k])


def naive_tokenize_13a(line: str) -> str:
    """mteval-v13a as a chain of regex substitutions, every rule on every line."""
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = norm.replace("&quot;", '"').replace("&amp;", "&")
    norm = norm.replace("&lt;", "<").replace("&gt;", ">")

    norm = f" {norm} "
    norm = _13A_PUNCT.sub(r" \1 ", norm)
    # Periods and commas stay attached inside numbers (3.14, 1,000).
    norm = _13A_PERIOD_BEFORE.sub(r"\1 \2 ", norm)
    norm = _13A_PERIOD_AFTER.sub(r" \1 \2", norm)
    norm = _13A_DIGIT_DASH.sub(r"\1 \2 ", norm)
    return _WS.sub(" ", norm).strip()


_INDIC_PUNCT = re.compile("([" + re.escape(string.punctuation) + "।॥])")
_NUM_SEQ = re.compile(r"([0-9]+ [,.:/] )+[0-9]+")


def naive_tokenize_indic(text: str) -> list[str]:
    """Indic tokenization as a regex collapse plus a find-and-stitch loop over numeric runs."""
    padded = _INDIC_PUNCT.sub(r" \1 ", text.replace("\t", " "))
    collapsed = _WS.sub(" ", padded).strip()
    if not collapsed:
        return []
    # Stitch numeric sequences back together: "1 , 000" -> "1,000".
    parts = []
    prev = 0
    for match in _NUM_SEQ.finditer(collapsed):
        parts.append(collapsed[prev:match.start()])
        parts.append(match.group(0).replace(" ", ""))
        prev = match.end()
    parts.append(collapsed[prev:])
    tokens = "".join(parts).split(" ")
    return [t for t in tokens if t]


def naive_capped_mine(index: dict[str, dict[str, set[str]]], l1: str, l2: str,
                      xprod_cap: int) -> tuple[list[tuple[str, str]], int, tuple[str, ...]]:
    """Capped pivot join as nested loops with an explicit per-key budget; a cap of 0 is no cap.

    Returns the mined pairs in order, the raw (pre-drop) pair count and the
    pivot keys whose cross product hit the cap.
    """
    candidates = []
    for key, by_lang in index.items():
        side1 = by_lang.get(l1)
        side2 = by_lang.get(l2)
        if side1 and side2:
            candidates.append((key, side1, side2))
    candidates.sort(key=lambda item: item[0])

    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    raw = 0
    capped: list[str] = []
    for key, side1, side2 in candidates:
        xs = sorted(side1)
        ys = sorted(side2)
        budget = xprod_cap or len(xs) * len(ys)
        if len(xs) * len(ys) > budget:
            capped.append(key)
        emitted = 0
        for x in xs:
            if emitted >= budget:
                break
            for y in ys:
                if emitted >= budget:
                    break
                emitted += 1
                raw += 1
                if x == y:
                    continue
                if (x, y) in seen:
                    continue
                seen.add((x, y))
                pairs.append((x, y))
    return pairs, raw, tuple(capped)


_EOW = "</w>"


def _oracle_word(token: str) -> tuple[str, ...]:
    if len(token) == 1:
        return (token + _EOW,)
    return tuple(token[:-1]) + (token[-1] + _EOW,)


def _oracle_merge(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def brute_force_learn(tokens: list[str], num_merges: int, merge_floor: int = 2) -> list[tuple[str, str]]:
    """Recount every pair from scratch at every iteration.

    Same tie-break as the fast learner (highest count, then smallest
    (left, right)), so the merge sequences must agree rule for rule.
    """
    word_freqs = Counter(tokens)
    words = {w: _oracle_word(w) for w in word_freqs}
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts: Counter = Counter()
        for w, freq in word_freqs.items():
            symbols = words[w]
            for i in range(len(symbols) - 1):
                counts[(symbols[i], symbols[i + 1])] += freq
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < merge_floor:
            break
        best = min(p for p, c in counts.items() if c == best_count)
        merges.append(best)
        words = {w: _oracle_merge(s, best) for w, s in words.items()}
    return merges


def sequential_apply(token: str, merges: list[tuple[str, str]]) -> list[str]:
    """Apply merge rules one by one in learned order (no rank shortcuts)."""
    symbols = _oracle_word(token)
    for pair in merges:
        symbols = _oracle_merge(symbols, pair)
    rendered = [s + "@@" for s in symbols[:-1]]
    last = symbols[-1]
    rendered.append(last[: -len(_EOW)] if last.endswith(_EOW) else last)
    return rendered


def naive_vocab(tokens: list[str], merges: list[tuple[str, str]], min_frequency: int) -> dict[str, int]:
    """The vocabulary counted per word: each token's subwords, merged in learned order, times its count."""
    counts: Counter = Counter()
    for token, freq in Counter(tokens).items():
        for subword in sequential_apply(token, merges):
            counts[subword] += freq
    return {subword: count for subword, count in counts.items() if count >= min_frequency}


def _rank_order_encode(token: str, merges: list[tuple[str, str]]) -> tuple[str, ...]:
    ranks = {pair: rank for rank, pair in enumerate(merges)}
    symbols = _oracle_word(token)
    while True:
        present = [ranks[pair] for pair in zip(symbols, symbols[1:]) if pair in ranks]
        if not present:
            return symbols
        symbols = _oracle_merge(symbols, merges[min(present)])


def naive_segment(tokens: list[str], merges: list[tuple[str, str]], vocab: dict[str, int] | None) -> list[str]:
    """Segment word by word: render all of a word's subwords, then re-split each one outside ``vocab``."""
    out: list[str] = []
    for token in tokens:
        symbols = _rank_order_encode(token, merges)
        rendered = [s + "@@" for s in symbols[:-1]] + [symbols[-1][: -len(_EOW)]]
        for i, subword in enumerate(rendered):
            if vocab is None or subword in vocab:
                out.append(subword)
                continue
            final = i == len(rendered) - 1
            core = subword if final else subword[: -len("@@")]
            pieces = [c + "@@" for c in core]
            if final:
                pieces[-1] = core[-1]
            out.extend(pieces)
    return out


def naive_mean_cosine(vectors_a: list[list[float]], vectors_b: list[list[float]]) -> float:
    """Double-loop cosine mean, no numpy, reported x100."""
    total = 0.0
    for va, vb in zip(vectors_a, vectors_b):
        dot = sum(x * y for x, y in zip(va, vb))
        norm_a = math.sqrt(sum(x * x for x in va))
        norm_b = math.sqrt(sum(y * y for y in vb))
        total += dot / (norm_a * norm_b)
    return 100.0 * total / len(vectors_a)


def naive_load_embeddings(path) -> EmbeddingTable:
    """Row by row: each row's fields, id and floats checked in turn, so the first bad line in file order wins."""
    lines = iter_lines(path)
    header = next(lines, "").split()
    if len(header) != 2:
        raise MetricError(f"{path}:1: expected 'd n' header")
    dim, n = (parse_count(field, path, 1, MetricError) for field in header)
    if dim < 1:
        raise MetricError(f"{path}:1: dimension must be at least 1, got {dim}")
    first_line: dict[int, int] = {}  # sentence id -> line it first appears on, in file order
    rows = []
    for line_no, line in enumerate(lines, start=2):
        parts = line.split()
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
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(ids), dim)
    return EmbeddingTable(ids, matrix)


def _ngram_counts(tokens, max_order: int) -> Counter:
    counts: Counter = Counter()
    for n in range(1, max_order + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def _log_or_floor(value: float) -> float:
    return math.log(value) if value != 0.0 else -9999999999


def naive_bleu(hypotheses: list[str], references: list[str], tokenization: str = "13a") -> float:
    """Corpus BLEU-4 from one pair of ``Counter``s per sentence pair.

    The tokenizer is the package's own: this checks the counting and the
    formula, not 13a.
    """
    max_order = 4
    correct = [0] * max_order
    total = [0] * max_order
    sys_len = 0
    ref_len = 0
    for hyp_line, ref_line in zip(hypotheses, references):
        if tokenization == "13a":
            hyp_line = tokenize_13a(hyp_line.rstrip())
            ref_line = tokenize_13a(ref_line.rstrip())
        else:
            hyp_line = hyp_line.rstrip()
            ref_line = ref_line.rstrip()
        hyp_tokens = hyp_line.split()
        ref_tokens = ref_line.split()
        sys_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        ref_ngrams = _ngram_counts(ref_tokens, max_order)
        for ngram, count in _ngram_counts(hyp_tokens, max_order).items():
            n = len(ngram)
            total[n - 1] += count
            correct[n - 1] += min(count, ref_ngrams.get(ngram, 0))

    precisions = [0.0] * max_order
    smooth = 1.0
    for n in range(1, max_order + 1):
        if total[n - 1] == 0:
            break
        if correct[n - 1] == 0:
            smooth *= 2
            precisions[n - 1] = 100.0 / (smooth * total[n - 1])
        else:
            precisions[n - 1] = 100.0 * correct[n - 1] / total[n - 1]

    if sys_len == 0:
        bp = 0.0
    elif sys_len < ref_len:
        bp = math.exp(1 - ref_len / sys_len)
    else:
        bp = 1.0

    if bp == 1.0 and all(p == 100.0 for p in precisions):
        return 100.0
    return min(bp * math.exp(sum(_log_or_floor(p) for p in precisions) / max_order), 100.0)


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def naive_chrf2(hypotheses: list[str], references: list[str]) -> float:
    """Corpus chrF2 (orders 1..6, whitespace removed) from ``Counter``s per sentence pair."""
    max_order, beta = 6, 2
    stats = [0] * (max_order * 3)
    for hyp, ref in zip(hypotheses, references):
        hyp = "".join(hyp.split())
        ref = "".join(ref.split())
        for i in range(max_order):
            hyp_ngrams = _char_ngrams(hyp, i + 1)
            ref_ngrams = _char_ngrams(ref, i + 1)
            stats[3 * i] += sum(hyp_ngrams.values())
            stats[3 * i + 1] += sum(ref_ngrams.values())
            stats[3 * i + 2] += sum((hyp_ngrams & ref_ngrams).values())

    avg_precision = 0.0
    avg_recall = 0.0
    effective_order = 0
    for i in range(max_order):
        n_hyp, n_ref, n_match = stats[3 * i : 3 * i + 3]
        if n_hyp > 0 and n_ref > 0:
            avg_precision += n_match / n_hyp
            avg_recall += n_match / n_ref
            effective_order += 1
    if effective_order == 0 or avg_precision + avg_recall == 0.0:
        return 0.0
    avg_precision /= effective_order
    avg_recall /= effective_order
    beta_sq = beta**2
    denominator = beta_sq * avg_precision + avg_recall
    return 0.0 if denominator == 0 else 100.0 * (1 + beta_sq) * avg_precision * avg_recall / denominator


def naive_lines_text(lines: list[str]) -> str:
    """The text of a one-line-per-LF file: every line followed by its own LF."""
    return "".join(line + "\n" for line in lines)


_ORACLE_TAG = re.compile(r"^__(src|tgt)_([a-z]{2})__$")


def naive_reserved_token(tokens: list[str]) -> str | None:
    """The first token that is a whole language tag, matching every token in turn; None if there is none."""
    for token in tokens:
        if _ORACLE_TAG.match(token) is not None:
            return token
    return None


def _naive_aggregate(values: list[tuple[float, int]], average: str) -> float | None:
    if not values:
        return None
    if average == "micro":
        weight = sum(n for _, n in values)
        if weight == 0:
            return None
        return sum(v * n for v, n in values) / weight
    return sum(v for v, _ in values) / len(values)


def naive_nway(reports, languages, pivot: str = "en", average: str = "macro", testset_similarity=None):
    """The n-way table by rescanning every report once per (source, metric)."""
    if pivot != "en":
        raise MetricError(f"the pivot is 'en', not {pivot!r}")
    if average not in ("macro", "micro"):
        raise MetricError(f"unknown average {average!r}")
    seen_languages: set[str] = set()
    for code in languages:
        if code in seen_languages:
            raise MetricError(f"language {code!r} listed twice")
        seen_languages.add(code)
    non_english = [code for code in languages if code != "en"]
    by_direction = {}
    for r in reports:
        if r.direction in by_direction:
            raise MetricError(f"two reports for direction {r.direction.label()}")
        by_direction[r.direction] = r
    tset = dict(testset_similarity or {})

    metric_names = [
        m for m in METRIC_ORDER
        if any(r.score(m) for r in by_direction.values()) or (m == "tset_sim" and tset)
    ]

    missing = []
    for src in (*non_english, "en"):
        for tgt in non_english:
            if src != tgt and TranslationDirection(src, tgt) not in by_direction:
                missing.append(TranslationDirection(src, tgt))

    reported = sorted(by_direction)
    tset_directions = sorted(tset)

    def values_for(src: str, metric: str) -> list[tuple[float, int]]:
        if metric == "tset_sim":
            return [
                (tset[d], by_direction[d].n_sentences if d in by_direction else 1)
                for d in tset_directions
                if d.src == src and d.tgt in non_english
            ]
        values = []
        for d in reported:
            if d.src == src and d.tgt in non_english:
                score = by_direction[d].score(metric)
                if score is not None:
                    values.append((score.value, by_direction[d].n_sentences))
        return values

    def row_for(src: str) -> dict:
        return {metric: _naive_aggregate(values_for(src, metric), average) for metric in metric_names}

    rows = tuple((src, row_for(src)) for src in non_english)

    avg_row = {}
    for metric in metric_names:
        if average == "micro":
            pooled = [value for src in non_english for value in values_for(src, metric)]
            avg_row[metric] = _naive_aggregate(pooled, "micro")
        else:
            row_values = [row[metric] for _, row in rows if row[metric] is not None]
            avg_row[metric] = sum(row_values) / len(row_values) if row_values else None

    pivot_row = row_for("en")
    if all(v is None for v in pivot_row.values()):
        pivot_row = None

    return ComparisonTable(rows, avg_row, pivot_row, tuple(metric_names), average, tuple(missing))
