"""Word tokenization and detokenization for English and Indic text.

English follows the WMT ``mteval-v13a`` rule set (the same rules the BLEU
scorer applies, so preprocessing and scoring agree on token boundaries).
Indic text is tokenized by padding punctuation, treating danda and double
danda as sentence punctuation, and keeping numeric sequences like
``1,000`` or ``3.14`` intact.

Detokenization reverses the padding with a small attachment rule set:
closers and sentence punctuation attach left, openers attach right, and
ambiguous ASCII quotes alternate. Full Moses parity is out of scope; the
round trip is exact on text that uses punctuation conventionally.

Every padding pass is a ``re.sub`` with a callable replacement. On CPython
3.11 a template such as ``r" \1 "`` is expanded by Python code
(``re._parser.expand_template``) once per match, and ``str.translate`` with
a table that maps one character to several takes its per-character slow
path; 3.12 expands templates in C. A callable that builds the same string
with an f-string costs one cheap Python call per match.
"""

from __future__ import annotations

import re
import string

DANDA = "।"
DOUBLE_DANDA = "॥"

# mteval-v13a pads each character of the class [\{-\~\[-\` -\&\(-\+\:-\@\/]
# with spaces: ASCII punctuation other than ' , - and ., plus the space,
# which is left out here because whitespace runs collapse at the end anyway.
_13A_PUNCT = re.compile("[" + re.escape("!\"#$%&()*+/:;<=>?@[\\]^_`{|}~") + "]")
_13A_PERIOD_BEFORE = re.compile(r"([^0-9])([\.,])")
_13A_PERIOD_AFTER = re.compile(r"([\.,])([^0-9])")
_13A_DIGIT_DASH = re.compile(r"([0-9])(-)")

_INDIC_PUNCT = re.compile("([" + re.escape(string.punctuation) + DANDA + DOUBLE_DANDA + "])")
_NUM_SEQ = re.compile(r"([0-9]+ [,.:/] )+[0-9]+")

_ATTACH_LEFT = set(".,!?;:%)]}»”’" + DANDA + DOUBLE_DANDA)
_ATTACH_RIGHT = set("([{«“‘$€£₹#")
_AMBIGUOUS_QUOTES = {'"', "'"}


def _pad(match: re.Match) -> str:
    return f" {match[0]} "


def _space_after_each(match: re.Match) -> str:
    return f"{match[1]} {match[2]} "


def _space_before_each(match: re.Match) -> str:
    return f" {match[1]} {match[2]}"


def tokenize_13a(line: str) -> str:
    """mteval-v13a tokenization; returns the space-separated token string."""
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = norm.replace("&quot;", '"').replace("&amp;", "&")
    norm = norm.replace("&lt;", "<").replace("&gt;", ">")

    norm = _13A_PUNCT.sub(_pad, f" {norm} ")
    # Periods and commas stay attached inside numbers (3.14, 1,000).
    if "." in norm or "," in norm:
        norm = _13A_PERIOD_BEFORE.sub(_space_after_each, norm)
        norm = _13A_PERIOD_AFTER.sub(_space_before_each, norm)
    if "-" in norm:
        norm = _13A_DIGIT_DASH.sub(_space_after_each, norm)
    return " ".join(norm.split())


def tokenize(text: str, lang: str) -> list[str]:
    """Split a sentence into word and punctuation tokens."""
    if lang == "en":
        return tokenize_13a(text).split()
    padded = " ".join(_INDIC_PUNCT.sub(_pad, text).split())
    # Stitch numeric sequences back together: "1 , 000" -> "1,000".
    return _NUM_SEQ.sub(lambda match: match.group(0).replace(" ", ""), padded).split()


def detokenize(tokens: list[str]) -> str:
    """Reattach punctuation; inverse of :func:`tokenize` on conventional text.

    The attachment rules are the same for English and Indic text.
    """
    out: list[str] = []
    glue_next = True  # suppress the space before the next token
    quote_open: dict[str, bool] = {q: False for q in _AMBIGUOUS_QUOTES}
    for token in tokens:
        if token in _AMBIGUOUS_QUOTES:
            if quote_open[token]:
                out.append(token)  # closing quote: attach left
                glue_next = False
            else:
                if not glue_next:
                    out.append(" ")
                out.append(token)  # opening quote: attach right
                glue_next = True
            quote_open[token] = not quote_open[token]
        elif token in _ATTACH_LEFT:
            out.append(token)
            glue_next = False
        elif token in _ATTACH_RIGHT:
            if not glue_next:
                out.append(" ")
            out.append(token)
            glue_next = True
        else:
            if not glue_next:
                out.append(" ")
            out.append(token)
            glue_next = False
    return "".join(out)
