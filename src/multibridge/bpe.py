"""Byte-pair-encoding subword segmentation.

Words are sequences of characters with an end-of-word marker fused onto
the final character, the convention subword-nmt codes files use. Learning
greedily merges the most frequent adjacent symbol pair; ties break to the
lexicographically smallest (left, right) pair, a portable rule pinned
here because insertion-order tie-breaking is not reproducible across
implementations. The learner takes each merge from a lazily invalidated
heap and recounts only the pairs next to each merge site.

Applied output uses the ``@@`` continuation suffix on non-final subwords.
When a vocabulary with a frequency floor is attached, out-of-vocabulary
subwords are re-split into characters at apply time, mirroring the
vocabulary-threshold behaviour of subword-nmt.

Tokens must not contain whitespace or the literal ``@@`` separator;
the separator is what makes segmentation reversible.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import iter_lines, parse_count, write_lines
from .errors import EmptyCorpus, MultibridgeError

SEPARATOR = "@@"
END_OF_WORD = "</w>"

#: Merges stop early once the best pair occurs fewer times than this.
DEFAULT_MERGE_FLOOR = 2


class BpeError(MultibridgeError):
    """Base class for BPE errors."""


class DanglingContinuation(BpeError):
    """A subword stream ends with a continuation token."""


@dataclass(frozen=True)
class BpeModel:
    """Ordered merge rules plus the frequency-filtered subword vocabulary.

    ``training_segments`` maps a word to its final symbols, exactly as
    rank-order application of ``merges`` leaves them, so segmenting a word
    found there needs no encoding. Only :func:`learn_bpe` fills it, for its
    own training words, with the symbol tuples it already holds, so the
    table adds one dict entry per word. It is never saved, compared or
    copied by ``dataclasses.replace``: any other model has an empty table
    and gives the same output.
    """

    merges: tuple[tuple[str, str], ...]
    vocab: dict[str, int] | None
    num_merges: int
    min_frequency: int
    training_segments: dict[str, tuple[str, ...]] = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.merges) > self.num_merges:
            raise BpeError("more merges than the configured budget")
        seen: set[tuple[str, str]] = set()
        for left, right in self.merges:
            if not left or not right:
                raise BpeError(f"empty side in merge rule ({left!r}, {right!r})")
            if (left, right) in seen:  # ranks() would keep only its later index, which never applies
                raise BpeError(f"duplicate merge rule ({left!r}, {right!r})")
            seen.add((left, right))

    def ranks(self) -> dict[tuple[str, str], int]:
        return {pair: i for i, pair in enumerate(self.merges)}


def _word_symbols(token: str) -> tuple[str, ...]:
    if not token:
        raise BpeError("cannot segment an empty token")
    if len(token) == 1:
        return (token + END_OF_WORD,)
    return tuple(token[:-1]) + (token[-1] + END_OF_WORD,)


def _merge_word(symbols: Sequence[str], pair: tuple[str, str]) -> tuple[str, ...]:
    """Replace non-overlapping occurrences of ``pair``, left to right."""
    left, right = pair
    merged = left + right
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if symbols[i] == left and i + 1 < n and symbols[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def render_subwords(symbols: Sequence[str]) -> list[str]:
    """Turn internal symbols into @@-convention subword tokens."""
    out = [s + SEPARATOR for s in symbols[:-1]]
    last = symbols[-1]
    if last.endswith(END_OF_WORD):
        last = last[: -len(END_OF_WORD)]
    out.append(last)
    return out


def _iter_tokens(token_stream: Iterable[str]) -> Iterable[str]:
    for chunk in token_stream:
        yield from chunk.split()


def learn_bpe(
    token_stream: Iterable[str] | Mapping[str, int],
    num_merges: int = 32000,
    min_frequency: int = 5,
    merge_floor: int = DEFAULT_MERGE_FLOOR,
) -> BpeModel:
    """Learn merge rules from tokenized text.

    ``token_stream`` yields whitespace-separated tokens (whole lines are
    fine); it is read once and only the token counts are kept. A mapping
    from lines to repeat counts stands for that many copies of each line,
    so a caller that already holds repeated lines splits each one once.
    ``min_frequency`` filters the resulting vocabulary, applied at
    segmentation time; ``merge_floor`` is the learn-time stopping floor.

    The learner merges every word in merge order, while :class:`BpeSegmenter`
    repeatedly merges the lowest-ranked pair a word holds. The two agree
    unless a merge creates, inside a word, a pair that an earlier merge
    already took: rank order would merge it again and the learner would
    not. Such a word is left out of ``training_segments``; every other
    training word's final segmentation is kept there.
    """
    for name, value in (("num_merges", num_merges), ("min_frequency", min_frequency), ("merge_floor", merge_floor)):
        if value < 0:
            raise BpeError(f"{name!r} must be an integer >= 0, not {value!r}")
    if isinstance(token_stream, Mapping):
        token_counts: dict[str, int] = {}
        for line, repeats in token_stream.items():
            for token in line.split():
                token_counts[token] = token_counts.get(token, 0) + repeats
    else:
        token_counts = Counter(_iter_tokens(token_stream))
    if not token_counts:
        raise EmptyCorpus("no tokens to learn from")

    words: list[list] = [[_word_symbols(tok), freq] for tok, freq in token_counts.items()]
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], list[int]] = {}  # append-only; may hold stale or repeated ids
    for wid, (symbols, freq) in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            pair_words.setdefault(pair, []).append(wid)
    floor = max(merge_floor, 1)  # a pair that no longer occurs is never a candidate
    # Heap order is the pinned rule; an entry is live while its count is current.
    heap = [(-count, pair) for pair, count in pair_counts.items() if count >= floor]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    taken: set[tuple[str, str]] = set()  # the pairs in ``merges``
    tokens = list(token_counts)
    departed: set[str] = set()  # words whose segmentation rank order would not reproduce
    while len(merges) < num_merges:
        while heap and -heap[0][0] != pair_counts.get(heap[0][1], 0):
            heapq.heappop(heap)
        if not heap:
            break
        best_pair = heapq.heappop(heap)[1]
        merges.append(best_pair)
        taken.add(best_pair)
        left, right = best_pair
        merged = left + right

        changed: set[tuple[str, str]] = set()
        for wid in pair_words.pop(best_pair):
            symbols, freq = words[wid]
            # A stale or repeated id finds no merge site and is skipped.
            # Only the edges next to a merge site change; every other old
            # edge maps one to one onto a new edge holding the same pair.
            out: list[str] = []
            old_edges: set[int] = set()
            new_edges: set[int] = set()
            i, n = 0, len(symbols)
            while i < n:
                if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
                    old_edges.update((i - 1, i, i + 1))
                    new_edges.update((len(out) - 1, len(out)))
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            if not new_edges:
                continue
            delta: dict[tuple[str, str], int] = {}
            for edges, seq, sign in ((old_edges, symbols, -freq), (new_edges, out, freq)):
                for e in edges:
                    if 0 <= e < len(seq) - 1:
                        pair = (seq[e], seq[e + 1])
                        delta[pair] = delta.get(pair, 0) + sign
            for pair, d in delta.items():
                if d:
                    count = pair_counts.get(pair, 0) + d
                    if count:
                        pair_counts[pair] = count
                    else:
                        del pair_counts[pair]
                    if d > 0:
                        pair_words.setdefault(pair, []).append(wid)
                        if pair in taken:  # rank order would merge it again
                            departed.add(tokens[wid])
                    changed.add(pair)
            words[wid][0] = tuple(out)
        for pair in changed:
            count = pair_counts.get(pair, 0)
            if count >= floor:
                heapq.heappush(heap, (-count, pair))

    vocab_counts: dict[str, int] = {}
    segments: dict[str, tuple[str, ...]] = {}
    for token, (symbols, freq) in zip(token_counts, words):
        segments[token] = symbols
        for subword in render_subwords(symbols):
            vocab_counts[subword] = vocab_counts.get(subword, 0) + freq
    for token in departed:
        del segments[token]
    vocab = {sym: cnt for sym, cnt in vocab_counts.items() if cnt >= min_frequency}
    model = BpeModel(tuple(merges), vocab, num_merges, min_frequency)
    object.__setattr__(model, "training_segments", segments)
    return model


def _encode(token: str, ranks: dict[tuple[str, str], int]) -> tuple[str, ...]:
    symbols = _word_symbols(token)
    while len(symbols) > 1:
        best = None
        best_rank = len(ranks)
        for pair in set(zip(symbols, symbols[1:])):
            rank = ranks.get(pair)
            if rank is not None and rank < best_rank:
                best = pair
                best_rank = rank
        if best is None:
            break
        symbols = _merge_word(symbols, best)
    return symbols


def _split_oov(subword: str, is_final: bool) -> list[str]:
    core = subword[: -len(SEPARATOR)] if subword.endswith(SEPARATOR) and not is_final else subword
    if len(core) <= 1:
        return [subword]
    chars = list(core)
    if is_final:
        return [c + SEPARATOR for c in chars[:-1]] + [chars[-1]]
    return [c + SEPARATOR for c in chars]


class BpeSegmenter:
    """Reusable applier: build the rank table and word cache once.

    A word in the model's ``training_segments`` is looked up there; any
    other word is encoded from the merge ranks.
    """

    def __init__(self, model: BpeModel, reserved: Iterable[str] = ()):
        self.model = model
        self._ranks = model.ranks()
        self._reserved = frozenset(reserved)
        self._cache: dict[str, list[str]] = {}

    def segment(self, tokens: Sequence[str]) -> list[str]:
        out: list[str] = []
        for token in tokens:
            if token in self._reserved:
                out.append(token)
                continue
            got = self._cache.get(token)
            if got is None:
                symbols = self.model.training_segments.get(token)
                if symbols is None:
                    symbols = _encode(token, self._ranks)
                rendered = render_subwords(symbols)
                if self.model.vocab is not None:
                    filtered: list[str] = []
                    for i, subword in enumerate(rendered):
                        if subword in self.model.vocab:
                            filtered.append(subword)
                        else:
                            filtered.extend(_split_oov(subword, i == len(rendered) - 1))
                    rendered = filtered
                got = rendered
                self._cache[token] = got
            out.extend(got)
        return out


def apply_bpe(model: BpeModel, tokens: Sequence[str], reserved: Iterable[str] = ()) -> list[str]:
    """Segment tokens into @@-convention subwords.

    ``reserved`` tokens (e.g. language control tags) pass through whole.
    Subwords missing from the model vocabulary are re-split to characters.
    """
    return BpeSegmenter(model, reserved).segment(tokens)


def revert_bpe(subwords: Sequence[str]) -> list[str]:
    """Undo @@-convention segmentation; inverse of :func:`apply_bpe`."""
    tokens: list[str] = []
    buffer: list[str] = []
    for subword in subwords:
        if subword.endswith(SEPARATOR):
            buffer.append(subword[: -len(SEPARATOR)])
        else:
            buffer.append(subword)
            tokens.append("".join(buffer))
            buffer = []
    if buffer:
        raise DanglingContinuation("subword stream ends mid-word (trailing @@)")
    return tokens


def save_bpe(model: BpeModel, codes_path: str | Path, vocab_path: str | Path | None = None) -> None:
    """Write the codes file (and optionally the vocabulary file)."""
    header = f"#bpe num_merges={model.num_merges} min_frequency={model.min_frequency}"
    write_lines(codes_path, [header, *(f"{left} {right}" for left, right in model.merges)])
    if vocab_path is not None:
        if model.vocab is None:
            raise BpeError("model has no vocabulary to save")
        ranked = sorted(model.vocab.items(), key=lambda kv: (-kv[1], kv[0]))
        write_lines(vocab_path, (f"{sym} {count}" for sym, count in ranked))


def load_bpe(codes_path: str | Path, vocab_path: str | Path | None = None) -> BpeModel:
    """Load a model saved by :func:`save_bpe`."""
    lines = iter_lines(codes_path)
    header = next(lines, "")
    fields = dict(part.split("=", 1) for part in header.removeprefix("#bpe").split() if "=" in part)
    if not header.startswith("#bpe") or "num_merges" not in fields or "min_frequency" not in fields:
        raise BpeError(f"{codes_path}:1: not a BPE codes file")
    num_merges = parse_count(fields["num_merges"], codes_path, 1, BpeError)
    min_frequency = parse_count(fields["min_frequency"], codes_path, 1, BpeError)
    first_line: dict[tuple[str, str], int] = {}  # merge -> line it first appears on, in file order
    for line_no, line in enumerate(lines, start=2):
        parts = line.split(" ")
        if len(parts) != 2:
            raise BpeError(f"{codes_path}:{line_no}: expected 'left right'")
        pair = (parts[0], parts[1])
        if pair in first_line:
            raise BpeError(f"{codes_path}:{line_no}: duplicate merge {line!r} (first at line {first_line[pair]})")
        first_line[pair] = line_no
    vocab = None
    if vocab_path is not None:
        vocab = {}
        for line_no, line in enumerate(iter_lines(vocab_path), start=1):
            parts = line.split(" ")
            if len(parts) != 2 or not parts[0]:
                raise BpeError(f"{vocab_path}:{line_no}: expected 'symbol count'")
            vocab[parts[0]] = parse_count(parts[1], vocab_path, line_no, BpeError)
    return BpeModel(tuple(first_line), vocab, num_merges, min_frequency)
