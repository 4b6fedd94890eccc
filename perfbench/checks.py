"""Output checks. Each returns the set of operations that failed.

An operation is one output direction of a pipeline workload (``hi-ta``)
or one scored direction of the evaluation workload. The checks use the
package only where the property under test is its own round trip
(``untag``, ``revert_bpe``, ``verify_manifest``, ``bleu(refs, refs)``);
the mining join and the cosine mean are recomputed here independently.
"""

from __future__ import annotations

import json
import math
import random
import unicodedata
from itertools import combinations
from pathlib import Path

from multibridge import bpe, corpus, metrics, tags

#: Lines checked per output file besides the first and the last.
SAMPLED_LINES = 3


def _file_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def _check_direction(out: Path, entry, rng: random.Random) -> None:
    """Raise AssertionError if one direction's files disagree with each other."""
    label = entry.path
    prep = out / "prep"
    final = prep / "final"
    for side in ("src", "tgt"):
        plain = _file_lines(prep / f"{label}.{side}")
        segmented = _file_lines(prep / f"{label}.bpe.{side}")
        assert len(plain) == len(segmented) == entry.count, f"{label}.{side}: line counts"
        picks = {0, entry.count - 1, *(rng.randrange(entry.count) for _ in range(SAMPLED_LINES))}
        for i in sorted(picks):
            assert bpe.revert_bpe(segmented[i].split()) == plain[i].split(), f"{label}.bpe.{side}:{i + 1}"
        if side == "tgt":
            assert (final / f"{label}.tgt").read_bytes() == (prep / f"{label}.bpe.tgt").read_bytes()
            continue
        tagged = _file_lines(final / f"{label}.src")
        assert len(tagged) == entry.count, f"final/{label}.src: line count"
        for i in sorted(picks):
            src, tgt, payload = tags.untag(tagged[i].split())
            assert (src, tgt) == (entry.direction.src, entry.direction.tgt), f"final/{label}.src:{i + 1}"
            assert payload == segmented[i].split(), f"final/{label}.src:{i + 1}"


def _pivot_key(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).split())


def _read_pairs(raw: Path, lang: str) -> list[tuple[str, str]]:
    en = _file_lines(raw / f"en-{lang}.en")
    other = _file_lines(raw / f"en-{lang}.{lang}")
    return list(zip(en, other))


def _check_mined_pair(work: Path, a: str, b: str, cap: int) -> None:
    """Compare one mined pair with a nested-loop join over the raw bitext.

    On keys whose cross product fits under ``cap`` the mined set must
    equal the join (minus identical-text pairs); pairs from capped keys
    must at least come from the join.
    """
    side_a = [(_pivot_key(en), x) for en, x in _read_pairs(work / "raw", a)]
    side_b = [(_pivot_key(en), y) for en, y in _read_pairs(work / "raw", b)]
    by_key: dict[str, tuple[set[str], set[str]]] = {}
    for key, x in side_a:
        for key_b, y in side_b:
            if key_b == key:
                xs, ys = by_key.setdefault(key, (set(), set()))
                xs.add(x)
                ys.add(y)
    uncapped: set[tuple[str, str]] = set()
    capped: set[tuple[str, str]] = set()
    for xs, ys in by_key.values():
        target = uncapped if len(xs) * len(ys) <= cap else capped
        target.update((x, y) for x in xs for y in ys if x != y)

    mined_dir = work / "out" / "mined"
    mined = list(zip(_file_lines(mined_dir / f"{a}-{b}.{a}"), _file_lines(mined_dir / f"{a}-{b}.{b}")))
    got = set(mined)
    assert len(got) == len(mined), f"{a}-{b}: duplicate mined pairs"
    assert got & uncapped == uncapped, f"{a}-{b}: pairs missing from uncapped keys"
    assert got - uncapped <= capped, f"{a}-{b}: mined pairs no join produces"


def check_pipeline(work: Path, params: dict, seed: int) -> tuple[set[str], list[str]]:
    """Check the last repetition's output tree; returns (failed ops, messages)."""
    out = work / "out"
    langs = sorted(params["languages"])
    expected = {f"{s}-{t}" for s in ("en", *langs) for t in ("en", *langs) if s != t}
    rng = random.Random(seed)
    failed: set[str] = set()
    notes: list[str] = []

    manifest = corpus.load_manifest(out / "sampled" / "manifest.json")
    listed = {e.path for e in manifest.entries}
    for missing in sorted(expected - listed):
        failed.add(missing)
        notes.append(f"{missing}: absent from the manifest")
    for entry in manifest.entries:
        try:
            corpus.verify_manifest(corpus.TrainingManifest((entry,), manifest.seed), out / "sampled")
            _check_direction(out, entry, rng)
        except (AssertionError, OSError, ValueError, corpus.CorpusError, tags.TagError, bpe.BpeError) as exc:
            failed.add(entry.path)
            notes.append(f"{entry.path}: {type(exc).__name__}: {exc}")

    a, b = rng.choice(list(combinations(langs, 2)))
    try:
        _check_mined_pair(work, a, b, params["xprod_cap"])
    except (AssertionError, OSError) as exc:
        failed.update((f"{a}-{b}", f"{b}-{a}"))
        notes.append(f"mining {a}-{b}: {exc}")
    return failed, notes


def _naive_cosine(hyp_path: Path, ref_path: Path) -> float:
    def table(path: Path) -> dict[int, list[float]]:
        rows = _file_lines(path)[1:]
        return {int(r.split()[0]): [float(x) for x in r.split()[1:]] for r in rows}

    hyp, ref = table(hyp_path), table(ref_path)
    total = 0.0
    for sid in sorted(ref):
        u, v = hyp[sid], ref[sid]
        dot = sum(x * y for x, y in zip(u, v))
        total += dot / (math.sqrt(sum(x * x for x in u)) * math.sqrt(sum(y * y for y in v)))
    return 100.0 * total / len(ref)


def check_eval(work: Path, result: dict, seed: int) -> tuple[set[str], list[str]]:
    """Self-consistency of the scores; returns (failed ops, messages)."""
    spec = json.loads((work / "eval.json").read_text(encoding="utf-8"))
    rng = random.Random(seed)
    failed: set[str] = set()
    notes: list[str] = []
    for label in spec["directions"]:
        if label not in result["scores"]:
            failed.add(label)
            notes.append(f"{label}: not scored")

    for label in rng.sample(spec["directions"], 3):
        refs = _file_lines(work / "eval" / f"{label}.ref")
        for tokenization in ("13a", "none"):
            if metrics.bleu(refs, refs, tokenization).value != 100.0:
                failed.add(label)
                notes.append(f"{label}: bleu(refs, refs, {tokenization!r}) is not 100")

    for label in spec["directions"]:
        stem = work / "eval" / label
        expected = _naive_cosine(Path(f"{stem}.hyp.emb"), Path(f"{stem}.ref.emb"))
        got = result["scores"].get(label, [math.nan] * 4)[3]
        if not abs(got - expected) <= 1e-9 * max(1.0, abs(expected)):
            failed.add(label)
            notes.append(f"{label}: cosine {got!r}, naive double loop gives {expected!r}")
    return failed, notes
