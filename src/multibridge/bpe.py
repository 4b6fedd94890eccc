"""Byte-pair-encoding subword segmentation.

Words are sequences of characters with an end-of-word marker fused onto
the final character, the convention subword-nmt codes files use. Learning
greedily merges the most frequent adjacent symbol pair; ties break to the
lexicographically smallest (left, right) pair, a portable rule pinned
here because insertion-order tie-breaking is not reproducible across
implementations. The learner edits each training word in place and
recounts only the pairs next to each merge site; a heap entry may
overstate its pair's count, and is corrected when it reaches the top.

Applied output uses the ``@@`` continuation suffix on non-final subwords.
When a vocabulary with a frequency floor is attached, out-of-vocabulary
subwords are re-split into characters at apply time, mirroring the
vocabulary-threshold behaviour of subword-nmt.

Tokens must not contain whitespace, the ``@@`` separator or the ``</w>``
end-of-word marker. The separator is what makes segmentation reversible;
without the marker inside a token, no merge can rebuild a pair an earlier
merge took, so the learner and rank-order application segment every
training word alike.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import iter_lines, parse_count, write_lines
from .errors import MultibridgeError

SEPARATOR = "@@"
END_OF_WORD = "</w>"

#: Merges to learn, and the vocabulary's frequency floor, unless the caller says otherwise.
DEFAULT_NUM_MERGES = 32000
DEFAULT_MIN_FREQUENCY = 5
#: Merges stop early once the best pair occurs fewer times than this.
DEFAULT_MERGE_FLOOR = 2


class BpeError(MultibridgeError):
    """Every BPE error: bad training input, model file or subword stream; the message says which."""


@dataclass(frozen=True)
class BpeModel:
    """Ordered merge rules plus the frequency-filtered subword vocabulary.

    ``training_segments`` maps a word to its final symbols, exactly as
    rank-order application of ``merges`` leaves them, so segmenting a word
    found there needs no encoding. Only :func:`learn_bpe` fills it, for its
    own training words, as tuples of the symbols it merged in place, so
    the table adds one dict entry per word. It is never saved, compared or
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
    if SEPARATOR in token:
        raise BpeError(f"token {token!r} contains the separator {SEPARATOR!r}")
    if END_OF_WORD in token:
        raise BpeError(f"token {token!r} contains the end-of-word marker {END_OF_WORD!r}")
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


def _render(symbol: str, final: bool) -> str:
    return symbol.removesuffix(END_OF_WORD) if final else symbol + SEPARATOR


def _iter_tokens(token_stream: Iterable[str]) -> Iterable[str]:
    for chunk in token_stream:
        yield from chunk.split()


def learn_bpe(
    token_stream: Iterable[str] | Mapping[str, int],
    num_merges: int = DEFAULT_NUM_MERGES,
    min_frequency: int = DEFAULT_MIN_FREQUENCY,
    merge_floor: int = DEFAULT_MERGE_FLOOR,
) -> BpeModel:
    """Learn merge rules from tokenized text.

    ``token_stream`` yields whitespace-separated tokens (whole lines are
    fine); it is read once and only the token counts are kept. A mapping
    from lines to repeat counts stands for that many copies of each line,
    so a caller that already holds repeated lines splits each one once.
    ``min_frequency`` filters the resulting vocabulary, applied at
    segmentation time; ``merge_floor`` is the learn-time stopping floor.
    Every training word's final segmentation is kept in ``training_segments``.
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
        raise BpeError("no tokens to learn from")

    words = [list(_word_symbols(token)) for token in token_counts]
    freqs = list(token_counts.values())
    pair_words: defaultdict[tuple[str, str], list[int]] = defaultdict(list)  # may hold stale or repeated ids
    for wid, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_words[pair].append(wid)
    pair_counts = defaultdict(int, {pair: sum(map(freqs.__getitem__, wids)) for pair, wids in pair_words.items()})
    floor = max(merge_floor, 1)  # a pair that no longer occurs is never a candidate
    # Heap order is the pinned rule. A pair is pushed whenever its count
    # rises, so every pair at or above the floor has an entry no smaller than
    # its count. So the first entry at the top whose count is current is the
    # least (-count, pair); one found there that overstates its count is
    # replaced with the current count, or popped if that is below the floor.
    heap = [(-count, pair) for pair, count in pair_counts.items() if count >= floor]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while heap and len(merges) < num_merges:
        entry, best_pair = heap[0]
        count = pair_counts[best_pair]
        if -entry != count:
            if count >= floor:
                heapq.heapreplace(heap, (-count, best_pair))
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        merges.append(best_pair)
        left, right = best_pair
        merged = left + right

        risen: set[tuple[str, str]] = set()
        for wid in pair_words.pop(best_pair):
            symbols = words[wid]
            if left not in symbols:  # a stale or repeated id
                continue
            freq = freqs[wid]
            # Each site, left to right, becomes one symbol in place, and only the
            # pairs beside it change. Two touching sites had (right, left) between
            # them: the first leaves that pair, and the second updates it once.
            i, after = symbols.index(left), 0  # after: the index just past the last merged symbol
            while i < len(symbols) - 1:
                if symbols[i] != left or symbols[i + 1] != right:
                    i += 1
                    continue
                symbols[i:i + 2] = [merged]
                if i:
                    pair_counts[(right, left) if i == after else (symbols[i - 1], left)] -= freq
                    risen.add(new := (symbols[i - 1], merged))
                    pair_counts[new] += freq
                    pair_words[new].append(wid)
                after = i + 1
                if after < len(symbols):
                    follower = symbols[after]
                    if follower != left or after + 1 == len(symbols) or symbols[after + 1] != right:
                        pair_counts[(right, follower)] -= freq
                        risen.add(new := (merged, follower))
                        pair_counts[new] += freq
                        pair_words[new].append(wid)
                i = after
        del pair_counts[best_pair]  # every occurrence is merged
        for pair in risen:
            if (count := pair_counts[pair]) >= floor:
                heapq.heappush(heap, (-count, pair))

    # Each distinct symbol is counted and rendered once. No two render
    # alike: only non-final subwords end in SEPARATOR, which no token holds.
    inner_counts: defaultdict[str, int] = defaultdict(int)
    final_counts: defaultdict[str, int] = defaultdict(int)
    for symbols, freq in zip(words, freqs):
        for symbol in symbols[:-1]:
            inner_counts[symbol] += freq
        final_counts[symbols[-1]] += freq
    vocab = {_render(symbol, final): count for counts, final in ((inner_counts, False), (final_counts, True))
             for symbol, count in counts.items() if count >= min_frequency}
    model = BpeModel(tuple(merges), vocab, num_merges, min_frequency)
    object.__setattr__(model, "training_segments", dict(zip(token_counts, map(tuple, words))))
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
    other word is encoded from the merge ranks. Each distinct symbol is
    rendered and checked against the vocabulary once, and a word's
    subwords are joined from those per-symbol results.
    """

    def __init__(self, model: BpeModel):
        self.model = model
        self._ranks = model.ranks()
        self._cache: dict[str, list[str]] = {}
        self._symbol_cache: tuple[dict[str, list[str]], dict[str, list[str]]] = ({}, {})  # non-final, final

    def _symbol_subwords(self, symbol: str, final: bool) -> list[str]:
        subword = _render(symbol, final)
        vocab = self.model.vocab
        got = [subword] if vocab is None or subword in vocab else _split_oov(subword, final)
        self._symbol_cache[final][symbol] = got
        return got

    def _word_subwords(self, token: str) -> list[str]:
        symbols = self.model.training_segments.get(token) or _encode(token, self._ranks)
        inner, final = self._symbol_cache
        got: list[str] = []
        for symbol in symbols[:-1]:
            got += inner.get(symbol) or self._symbol_subwords(symbol, False)
        got += final.get(symbols[-1]) or self._symbol_subwords(symbols[-1], True)
        self._cache[token] = got
        return got

    def segment(self, tokens: Sequence[str]) -> list[str]:
        """Segment tokens into @@-convention subwords."""
        out: list[str] = []
        cache = self._cache
        for token in tokens:
            out += cache.get(token) or self._word_subwords(token)
        return out


def revert_bpe(subwords: Sequence[str]) -> list[str]:
    """Undo @@-convention segmentation; inverse of :meth:`BpeSegmenter.segment`."""
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
        raise BpeError("subword stream ends mid-word (trailing @@)")
    return tokens


def save_bpe(model: BpeModel, codes_path: str | Path, vocab_path: str | Path | None = None) -> None:
    """Write the codes file and, given ``vocab_path``, the vocabulary file; neither if the model has none to save."""
    if vocab_path is not None and model.vocab is None:
        raise BpeError("model has no vocabulary to save")
    header = f"#bpe num_merges={model.num_merges} min_frequency={model.min_frequency}"
    write_lines(codes_path, [header, *(f"{left} {right}" for left, right in model.merges)])
    if vocab_path is not None:
        ranked = sorted(model.vocab.items(), key=lambda kv: (-kv[1], kv[0]))
        write_lines(vocab_path, (f"{sym} {count}" for sym, count in ranked))


#: The one header :func:`save_bpe` writes; the two counts are checked by ``parse_count``.
_CODES_HEADER = re.compile(r"#bpe num_merges=(\S*) min_frequency=(\S*)")


def load_bpe(codes_path: str | Path, vocab_path: str | Path | None = None) -> BpeModel:
    """Load a model saved by :func:`save_bpe`."""
    lines = iter_lines(codes_path)
    header = _CODES_HEADER.fullmatch(next(lines, ""))
    if header is None:
        raise BpeError(f"{codes_path}:1: not a BPE codes file")
    num_merges = parse_count(header[1], codes_path, 1, BpeError)
    min_frequency = parse_count(header[2], codes_path, 1, BpeError)
    first_line: dict[tuple[str, str], int] = {}  # merge -> line it first appears on, in file order
    for line_no, line in enumerate(lines, start=2):
        parts = line.split(" ")
        if len(parts) != 2 or not all(parts):
            raise BpeError(f"{codes_path}:{line_no}: expected 'left right'")
        pair = (parts[0], parts[1])
        if pair in first_line:
            raise BpeError(f"{codes_path}:{line_no}: duplicate merge {line!r} (first at line {first_line[pair]})")
        if len(first_line) == num_merges:
            raise BpeError(f"{codes_path}:{line_no}: more merges than the configured budget ({num_merges})")
        first_line[pair] = line_no
    vocab = None
    if vocab_path is not None:
        vocab, symbol_line = {}, {}
        for line_no, line in enumerate(iter_lines(vocab_path), start=1):
            parts = line.split(" ")
            if len(parts) != 2 or not parts[0]:
                raise BpeError(f"{vocab_path}:{line_no}: expected 'symbol count'")
            symbol, count = parts
            if symbol in symbol_line:  # a dict load would keep the last count without a word
                first = symbol_line[symbol]
                raise BpeError(f"{vocab_path}:{line_no}: duplicate symbol {symbol!r} (first at line {first})")
            symbol_line[symbol] = line_no
            vocab[symbol] = parse_count(count, vocab_path, line_no, BpeError)
    return BpeModel(tuple(first_line), vocab, num_merges, min_frequency)
