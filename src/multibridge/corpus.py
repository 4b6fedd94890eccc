"""Bitext corpora, training manifests, and the line-file format.

Every text file the toolkit reads or writes line by line (bitext, BPE
codes and vocabularies, embedding tables, stage outputs) goes through
:func:`iter_lines` and :func:`write_lines`: UTF-8, one line per LF, no CR.
Anything else is a typed :class:`CorpusError` naming the file and line.

Every call that changes the disk is in this module. A stage writes only
into a directory that :func:`new_dir` makes or finds empty; ``run`` deletes
only through :func:`clear_dirs`, and only while :func:`lock_dir` holds its
output root. A text column with several names is written once, by
:func:`write_once`, and its other names are hard links of that file. The
callers name them by the mirror rule: column ``(L, O)``, the ``L`` texts
of a corpus between ``L`` and ``O``, is both ``L-O.src`` and ``O-L.tgt``.
Because names may share an inode, :func:`write_text` never writes through
a hard link: it replaces the name it writes instead.

Bitext lives on disk only as a pair of line-aligned plain-text files
(one sentence per line), the format used by shared-task data and by the
pipeline's own mined and sampled output. Whitespace-only lines are hard
errors: silently dropping them would desynchronize the alignment.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import shutil
import stat
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import MultibridgeError

try:
    import fcntl
except ImportError:  # Windows: no flock(2), so keeping one run per directory is the user's job
    fcntl = None


class CorpusError(MultibridgeError):
    """Every corpus error: bad line files, bitext or manifests; the message names the file and line if any."""


@dataclass(frozen=True)
class BitextCorpus:
    """Two line-aligned text columns between two fixed languages: ``tgt_texts[i]`` translates ``src_texts[i]``.

    Every text is non-blank and newline-free, and the columns have equal length.
    """

    src_lang: str
    tgt_lang: str
    src_texts: tuple[str, ...]
    tgt_texts: tuple[str, ...]

    def __post_init__(self) -> None:
        self._check_shape()
        for side, texts in (("src", self.src_texts), ("tgt", self.tgt_texts)):
            for text in texts:
                if not text.strip():
                    raise ValueError(f"{side} text is empty after trimming")
                if "\n" in text or "\r" in text:
                    raise ValueError(f"{side} text contains a newline")

    def _check_shape(self) -> None:
        """Two distinct languages and equal-length columns, stored as tuples; no text is read."""
        if self.src_lang == self.tgt_lang:
            raise ValueError(f"source and target language are both {self.src_lang!r}")
        object.__setattr__(self, "src_texts", tuple(self.src_texts))  # no copy when already a tuple
        object.__setattr__(self, "tgt_texts", tuple(self.tgt_texts))
        if len(self.src_texts) != len(self.tgt_texts):
            raise ValueError(f"{len(self.src_texts)} source texts vs {len(self.tgt_texts)} target texts")

    @classmethod
    def _checked(cls, src_lang: str, tgt_lang: str, src_texts: Sequence[str], tgt_texts: Sequence[str]) -> BitextCorpus:
        """A corpus over texts that an earlier check already passed, built without walking them again.

        Only the shape is checked. The callers are the derived corpora, whose
        texts are selected from checked corpora, and :func:`load_bitext`, whose
        lines :func:`_read_lines` checks; ``test_imports.py`` lists them.
        """
        corpus = object.__new__(cls)
        for name, value in (("src_lang", src_lang), ("tgt_lang", tgt_lang),
                            ("src_texts", src_texts), ("tgt_texts", tgt_texts)):
            object.__setattr__(corpus, name, value)
        corpus._check_shape()
        return corpus

    def __len__(self) -> int:
        return len(self.src_texts)


@dataclass(frozen=True, order=True)
class TranslationDirection:
    """A directed language pair: (a, b) is distinct from (b, a)."""

    src: str
    tgt: str

    def __post_init__(self) -> None:
        if self.src == self.tgt:
            raise ValueError(f"direction source equals target: {self.src!r}")

    def label(self) -> str:
        return f"{self.src}-{self.tgt}"


def decode_line(raw: bytes, path: str | Path, line_no: int) -> str:
    """Decode one line (without its LF) strictly: UTF-8 only, no CR, no byte-order mark opening line 1."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CorpusError(f"{path}:{line_no}: invalid UTF-8") from None
    if "\r" in text:
        raise CorpusError(f"{path}:{line_no}: carriage return (CRLF line ending?); lines must end in LF")
    if line_no == 1 and text.startswith("\ufeff"):
        raise CorpusError(f"{path}:1: byte-order mark (U+FEFF); files must be UTF-8 without one")
    return text


def iter_lines(path: str | Path | None = None) -> Iterator[str]:
    """The lines of ``path`` (stdin when None) without their LF, strictly decoded."""
    name = "<stdin>" if path is None else path
    try:
        with contextlib.nullcontext(sys.stdin.buffer) if path is None else open(path, "rb") as f:
            for line_no, raw in enumerate(f, start=1):
                yield decode_line(raw.removesuffix(b"\n"), name, line_no)
    except OSError as exc:
        raise CorpusError(f"cannot read {name}: {exc}") from exc


def parse_count(text: str, path: str | Path, line_no: int, error: type[MultibridgeError]) -> int:
    """A non-negative ASCII decimal integer (``[0-9]+``), or ``error`` at ``path:line_no``.

    ``int()`` alone would also accept signs, underscores and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise error(f"{path}:{line_no}: expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts (4,300 by default since 3.11)
        raise error(f"{path}:{line_no}: integer of {len(text)} digits is too long") from None


#: The bytes of ASCII decimal floats and the spaces between them. On text of
#: these alone float() accepts exactly the decimal grammar; on other text it
#: also takes "_", inf, nan and non-ASCII digits.
_FLOAT_BYTES = b"0123456789+-.eE "


def parse_floats(fields: list[str], path: str | Path, line_no: int, error: type[MultibridgeError]) -> list[float]:
    """Finite ASCII decimal floats (every finite ``repr(float)``), or ``error`` at ``path:line_no``."""
    text = " ".join(fields)
    values = None
    if text.isascii() and not text.encode().translate(None, _FLOAT_BYTES):  # deleting them leaves nothing
        with contextlib.suppress(ValueError):  # e.g. "1e" or "1.2.3"
            values = list(map(float, fields))
    if values is None or not all(map(math.isfinite, values)):
        raise error(f"{path}:{line_no}: expected {len(fields)} finite decimal floats")
    return values


def new_dir(path: str | Path) -> None:
    """Make the directory ``path`` and its parents; one already there must be an empty plain directory."""
    try:
        os.makedirs(path)
    except FileExistsError:
        if os.path.islink(path) or not os.path.isdir(path) or os.listdir(path):
            raise CorpusError(f"{path} exists and is not an empty directory") from None


def clear_dirs(paths: Sequence[Path]) -> None:
    """Delete each of ``paths`` that exists, whole; each must be a plain directory, and all are checked first."""
    if not_dirs := [str(p) for p in paths if p.is_symlink() or p.exists() and not p.is_dir()]:
        raise CorpusError(f"not a plain directory, so a run cannot replace it: {', '.join(not_dirs)}")
    for path in filter(Path.exists, paths):
        shutil.rmtree(path)


@contextlib.contextmanager
def lock_dir(path: str | Path, shared: bool = False) -> Iterator[None]:
    """Hold a lock on the directory ``path`` while the block runs; :func:`new_dir` makes it if missing.

    The lock is ``flock(2)`` on the directory itself, so it makes no file, and
    the kernel drops it when the process ends. An exclusive lock refuses every
    other holder, in this process or another, and a shared one refuses only an
    exclusive holder, each with a :class:`CorpusError`. Without ``fcntl``
    (Windows) nothing is locked.
    """
    if not os.path.isdir(path):
        new_dir(path)
    if fcntl is None:
        yield
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CorpusError(f"another run is using {path}") from None
        yield
    finally:
        os.close(fd)


def write_text(path: str | Path, text: str) -> None:
    """Write a whole document as UTF-8, with no newline translation.

    A regular file with other hard links is unlinked first, so writing one
    name never changes the others; symlinks and devices are written through.
    """
    try:
        with contextlib.suppress(FileNotFoundError):
            st = os.lstat(path)
            if stat.S_ISREG(st.st_mode) and st.st_nlink > 1:
                os.unlink(path)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc}") from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line followed by one LF; the inverse of :func:`iter_lines`."""
    write_text(path, "\n".join(chain(lines, ("",))))


#: The ``os.link`` errnos that, as ``PermissionError`` does, mean no link can be made at that name.
_NO_LINK_HERE = {errno.EMLINK, errno.EXDEV, errno.ENOTSUP, errno.EOPNOTSUPP, errno.EEXIST}


def write_once(lines: Sequence[str], first: str | Path, *links: str | Path) -> None:
    """Write ``lines`` to ``first`` and make each path in ``links`` a hard link of that file.

    Where no link can be made at a path (``PermissionError``, as EPERM on a
    file system without hard links; too many links; another file system;
    links not supported; a name already there, written as :func:`write_text`
    writes any name), the lines are written there instead, so the bytes are
    the same either way. Any other failed link (ENOSPC, EIO, ...) is a
    :class:`CorpusError`, as a failed write is.
    """
    write_lines(first, lines)
    for path in links:
        try:
            os.link(first, path)
        except OSError as exc:
            if not isinstance(exc, PermissionError) and exc.errno not in _NO_LINK_HERE:
                raise CorpusError(f"cannot write {path} as a link of {first}: {exc}") from exc
            write_lines(path, lines)


def _read_lines(path: str | Path) -> list[str]:
    """Read a one-sentence-per-line file, validating UTF-8, LF endings and non-emptiness."""
    lines = list(iter_lines(path))
    for line_no, text in enumerate(lines, start=1):
        if not text.strip():
            raise CorpusError(f"{path}:{line_no}: empty or whitespace-only line")
    return lines


def load_bitext(src_path: str | Path, tgt_path: str | Path, src_lang: str, tgt_lang: str) -> BitextCorpus:
    """Load a line-aligned bitext from two plain-text files.

    Unequal line counts are an error, never silently truncated: a missing
    line anywhere would shift the alignment of everything after it.
    """
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(f"line count mismatch: {len(src_lines)} source lines vs {len(tgt_lines)} target lines")
    return BitextCorpus._checked(src_lang, tgt_lang, src_lines, tgt_lines)


def write_bitext(corpus: BitextCorpus, src_path: str | Path, tgt_path: str | Path) -> None:
    """Write a corpus as two line-aligned files; inverse of :func:`load_bitext`."""
    write_lines(src_path, corpus.src_texts)
    write_lines(tgt_path, corpus.tgt_texts)


@dataclass(frozen=True)
class ManifestEntry:
    direction: TranslationDirection
    path: str
    count: int
    strategy: str

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("entry count must be non-negative")


@dataclass(frozen=True)
class TrainingManifest:
    """Declarative description of which corpora enter a training set."""

    entries: tuple[ManifestEntry, ...]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        directions = [e.direction for e in self.entries]
        if len(set(directions)) != len(directions):
            raise CorpusError("duplicate directions in manifest")

    def total_pairs(self) -> int:
        return sum(e.count for e in self.entries)


def save_manifest(manifest: TrainingManifest, path: str | Path) -> None:
    doc = {
        "entries": [
            {
                "src": e.direction.src,
                "tgt": e.direction.tgt,
                "path": e.path,
                "count": e.count,
                "strategy": e.strategy,
            }
            for e in manifest.entries
        ],
        "seed": manifest.seed,
    }
    write_text(path, json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> TrainingManifest:
    """Load a manifest written by :func:`save_manifest`; any other content is a :class:`CorpusError`."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CorpusError(f"{path}: invalid JSON: {exc}") from None

    def field(table: object, key: str, kind: type):
        value = table.get(key) if isinstance(table, dict) else None
        if type(value) is not kind:  # not isinstance(): JSON true must not pass as a count
            raise ValueError(f"{key!r} must be a JSON {kind.__name__}, not {value!r}")
        return value

    try:
        entries = tuple(
            ManifestEntry(TranslationDirection(field(item, "src", str), field(item, "tgt", str)),
                          field(item, "path", str), field(item, "count", int), field(item, "strategy", str))
            for item in field(doc, "entries", list)
        )
        return TrainingManifest(entries, field(doc, "seed", int))
    except (ValueError, CorpusError) as exc:
        raise CorpusError(f"{path}: {exc}") from None


def verify_manifest(manifest: TrainingManifest, base_dir: str | Path) -> None:
    """Check that every entry's count matches the on-disk line count.

    Entry paths are prefixes relative to ``base_dir``; the corpus sides
    live at ``<path>.src`` and ``<path>.tgt``.
    """
    base = Path(base_dir)
    for entry in manifest.entries:
        for suffix in (".src", ".tgt"):
            file_path = base / (entry.path + suffix)
            n = len(_read_lines(file_path))
            if n != entry.count:
                raise CorpusError(
                    f"{file_path}: {n} lines on disk but manifest says {entry.count}"
                )

