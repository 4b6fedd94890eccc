"""Command-line interface.

Subcommands: extract, sample, preprocess, learn-bpe, apply-bpe,
tag, evaluate, run. Exit codes: 0 success, 1 usage error, 2 data error.

Line-oriented subcommands (preprocess, apply-bpe, tag) read stdin and
write stdout, one sentence per line, so they compose in shell pipelines.
Every text input is strict UTF-8 with LF line endings; anything else is a
data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from itertools import combinations
from pathlib import Path

from .bpe import (DEFAULT_MERGE_FLOOR, DEFAULT_MIN_FREQUENCY, DEFAULT_NUM_MERGES, BpeSegmenter, learn_bpe,
                  load_bpe, save_bpe)
from .config import check_disjoint, load_config, parse_pairs, parse_sampling
from .corpus import iter_lines, lock_dir, write_lines, write_text
from .errors import MultibridgeError
from .languages import indic_codes
from .mining import DEFAULT_XPROD_CAP
from .pipeline import extract, load_english, load_mined, raw_languages, run_pipeline
from .sampling import DEFAULT_PER_PAIR_TARGET, assemble_training_set
from .scripts import from_devanagari, normalize_unicode, to_devanagari
from .tags import tag, untag
from .tokenizers import detokenize, tokenize
from .version import __version__

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (argparse defaults to 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _check_outputs(outputs: dict[str, str | None], inputs: list[tuple[str, str | None]]) -> None:
    """Raise ConfigError if two given outputs overlap, or an input overlaps an output.

    Inputs are checked against the outputs only, so an input may repeat.
    """
    outputs = {flag: path for flag, path in outputs.items() if path}
    check_disjoint(outputs)
    for flag, path in inputs:
        if path:
            check_disjoint({flag: path, **outputs})


def _cmd_extract(args) -> int:
    check_disjoint({"--inputs": args.inputs, "--out": args.out})
    inputs, out = Path(args.inputs), Path(args.out)
    english = load_english(inputs, raw_languages(inputs))
    pairs = parse_pairs(args.pairs.split(",")) if args.pairs else combinations(english, 2)
    # A shared lock on the parent of --out: a run whose root it is refuses this command and is refused by it,
    # while stage commands that write sibling directories run side by side. run_pipeline holds its root already.
    with lock_dir(out.parent, shared=True):
        extract(english, pairs, args.xprod_cap, out)
    return 0


def _cmd_sample(args) -> int:
    check_disjoint({"--inputs": args.inputs, "--mined": args.mined, "--out": args.out})
    sampling = {"strategy": args.strategy}  # only the flags given: parse_sampling rejects the others
    if args.pairs is not None:
        sampling["pairs"] = args.pairs.split(",")
    if args.per_pair is not None:
        sampling["per_pair_target"] = args.per_pair
    plan = parse_sampling(sampling, args.seed)
    inputs = Path(args.inputs)
    english = load_english(inputs, raw_languages(inputs))
    with lock_dir(Path(args.out).parent, shared=True):  # as in _cmd_extract
        manifest, _ = assemble_training_set(english.values(), load_mined(Path(args.mined), english), plan, args.out)
    logging.info("wrote %d manifest entries, %d pairs total", len(manifest.entries), manifest.total_pairs())
    return 0


def _cmd_preprocess(args) -> int:
    lang = args.lang
    for text in iter_lines():  # main lets through only forward or only reverse steps
        if args.detokenize:
            text = detokenize(text.split())
        if args.from_devanagari:
            text = from_devanagari(text, lang, args.unmappable or "error")
        if args.normalize:
            text = normalize_unicode(text, lang)
        if args.to_devanagari:
            text = to_devanagari(text, lang)
        if args.tokenize:
            text = " ".join(tokenize(text, lang))
        sys.stdout.write(text + "\n")
    return 0


def _cmd_learn_bpe(args) -> int:
    _check_outputs({"--model": args.model, "--vocab": args.vocab}, [("--input", path) for path in args.input or ()])

    def lines():
        for path in args.input or [None]:
            yield from iter_lines(path)

    model = learn_bpe(lines(), args.merges, args.min_freq, args.merge_floor)
    save_bpe(model, args.model, args.vocab)
    logging.info("learned %d merges, vocabulary size %d", len(model.merges), len(model.vocab or ()))
    return 0


def _cmd_apply_bpe(args) -> int:
    _check_outputs({"--output": args.output}, [("--model", args.model), ("--vocab", args.vocab),
                                               ("--input", args.input)])
    segmenter = BpeSegmenter(load_bpe(args.model, args.vocab))
    segmented = (" ".join(segmenter.segment(line.split())) for line in iter_lines(args.input))
    if args.output:
        write_lines(args.output, segmented)
    else:
        for line in segmented:
            sys.stdout.write(line + "\n")
    return 0


def _cmd_tag(args) -> int:
    if not args.strip:
        tag((), args.src, args.tgt)  # checks both codes before stdin is read
    for line in iter_lines():
        tokens = untag(line.split())[2] if args.strip else tag(line.split(), args.src, args.tgt)
        sys.stdout.write(" ".join(tokens) + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    _check_outputs({"--json": args.json}, [("--hyp", args.hyp), ("--ref", args.ref), ("--emb-a", args.emb_a),
                                           ("--emb-b", args.emb_b)])
    from .metrics import bleu, chrf2, cosine_batch, load_embeddings  # numpy only for evaluate

    if args.metric == "cosine":
        table_a = load_embeddings(args.emb_a)
        score = cosine_batch(table_a, load_embeddings(args.emb_b))
        n = len(table_a.ids)
    else:
        hyps = list(iter_lines(args.hyp))
        refs = list(iter_lines(args.ref))
        n = len(hyps)
        score = bleu(hyps, refs, args.tok or "13a") if args.metric == "bleu" else chrf2(hyps, refs)
    print(f"{score.metric}\t{score.value:.1f}\t{score.signature}\t{n}")
    if args.json:
        doc = {"metric": score.metric, "value": score.value, "signature": score.signature, "n_sentences": n}
        write_text(args.json, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_run(args) -> int:
    report = run_pipeline(load_config(args.config))
    logging.info("pipeline complete: %d manifest entries, %d mined pairs",
                 len(report.manifest.entries), report.stats.unique_unordered_total())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multibridge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="mine X-Y corpora and stats.tsv from English-centric bitext")
    p.add_argument("--inputs", required=True,
                   help="directory of en-xx.en/en-xx.xx files; xx is any Indic language code")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", help="comma-separated subset, e.g. bn-hi,gu-ta")
    p.add_argument("--xprod-cap", type=int, default=DEFAULT_XPROD_CAP,
                   help="per-key cross product cap, 0 disables (default %(default)s)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("sample", help="assemble a training set")
    p.add_argument("--strategy", required=True, choices=["sample-pairs", "sample-fraction", "train-all"])
    p.add_argument("--pairs", help="pairs for sample-pairs, e.g. bn-hi,gu-ta")
    p.add_argument("--per-pair", type=int,
                   help=f"per-pair target for sample-fraction (default {DEFAULT_PER_PAIR_TARGET})")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--mined", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("preprocess", help="normalize/transliterate/tokenize stdin")
    p.add_argument("--lang", required=True, choices=sorted({"en", *indic_codes()}))
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--to-devanagari", action="store_true")
    p.add_argument("--from-devanagari", action="store_true")
    p.add_argument("--tokenize", action="store_true")
    p.add_argument("--detokenize", action="store_true")
    p.add_argument("--unmappable", choices=["error", "pass"], help="for --from-devanagari (default error)")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("learn-bpe", help="learn BPE merges from tokenized text")
    p.add_argument("--merges", type=int, default=DEFAULT_NUM_MERGES)
    p.add_argument("--min-freq", type=int, default=DEFAULT_MIN_FREQUENCY)
    p.add_argument("--merge-floor", type=int, default=DEFAULT_MERGE_FLOOR)
    p.add_argument("--input", nargs="+", action="extend", help="input files, repeatable (default stdin)")
    p.add_argument("--model", required=True, help="codes file to write")
    p.add_argument("--vocab", help="vocabulary file to write")
    p.set_defaults(func=_cmd_learn_bpe)

    p = sub.add_parser("apply-bpe", help="segment tokenized text with a learned model")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab")
    p.add_argument("--input")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_apply_bpe)

    p = sub.add_parser("tag", help="prepend (or strip) language control tokens")
    p.add_argument("--src")
    p.add_argument("--tgt")
    p.add_argument("--strip", action="store_true", help="remove tags instead of adding them")
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--metric", required=True, choices=["bleu", "chrf2", "cosine"])
    p.add_argument("--tok", choices=["13a", "none"], help="bleu's tokenization (default 13a)")
    p.add_argument("--hyp")
    p.add_argument("--ref")
    p.add_argument("--emb-a")
    p.add_argument("--emb-b")
    p.add_argument("--json", help="write the report as JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "tag" and not args.strip and not (args.src and args.tgt):
        parser.error("tag requires --src and --tgt (or --strip)")
    if args.command == "tag" and args.strip and (args.src, args.tgt) != (None, None):
        parser.error("--strip does not read --src or --tgt")
    if args.command == "preprocess":
        forward = args.normalize or args.to_devanagari or args.tokenize
        reverse = args.detokenize or args.from_devanagari
        if forward and reverse:
            parser.error("forward and reverse operations cannot be combined")
        if not (forward or reverse):
            parser.error("nothing to do: pass --tokenize, --to-devanagari, ...")
        if args.unmappable is not None and not args.from_devanagari:
            parser.error("only --from-devanagari reads --unmappable")
        if (args.to_devanagari or args.from_devanagari) and args.lang not in indic_codes():
            parser.error(f"{args.lang} has no Indic block to map")
    if args.command == "evaluate":
        if args.metric == "cosine" and not (args.emb_a and args.emb_b):
            parser.error("cosine needs --emb-a and --emb-b")
        if args.metric != "cosine" and not (args.hyp and args.ref):
            parser.error(f"{args.metric} needs --hyp and --ref")
        unread = {"bleu": ("emb_a", "emb_b"), "chrf2": ("tok", "emb_a", "emb_b"), "cosine": ("tok", "hyp", "ref")}
        for name in unread[args.metric]:
            if getattr(args, name) is not None:
                parser.error(f"{args.metric} does not read --{name.replace('_', '-')}")
    try:
        return args.func(args)
    except (MultibridgeError, OSError) as exc:
        print(f"multibridge: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
