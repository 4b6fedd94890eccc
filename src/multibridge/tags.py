"""Source- and target-language control tokens for the multilingual model.

Every encoder input starts with two reserved tokens: ``__src_xx__`` then
``__tgt_yy__``. Tags are added after subword segmentation and are never
passed to BPE, so they stay single tokens.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import MultibridgeError
from .languages import get_language

#: Grammar of a tag token, e.g. __src_en__ or __tgt_hi__.
TAG_PATTERN = re.compile(r"^__(src|tgt)_([a-z]{2})__$")

#: Every token TAG_PATTERN matches contains this, so a line without it holds no tag token.
_TAG_CORE = re.compile(r"__(?:src|tgt)_[a-z]{2}__")


class TagError(MultibridgeError):
    """Every tagging error: a reserved token in the payload, or missing or malformed tags."""


def src_tag(lang: str) -> str:
    return f"__src_{lang}__"


def tgt_tag(lang: str) -> str:
    return f"__tgt_{lang}__"


def is_tag_token(token: str) -> bool:
    return TAG_PATTERN.match(token) is not None


def tag(tokens: Sequence[str], src: str, tgt: str) -> list[str]:
    """Prepend the source and target tags (in that pinned order); both codes must be in the language table."""
    if get_language(src) == get_language(tgt):
        raise TagError(f"source and target language are both {src!r}")
    if _TAG_CORE.search(" ".join(tokens)):
        for token in tokens:
            if is_tag_token(token):
                raise TagError(f"payload contains reserved token {token!r}")
    return [src_tag(src), tgt_tag(tgt), *tokens]


def untag(tokens: Sequence[str]) -> tuple[str, str, list[str]]:
    """Strip the two leading tags; inverse of :func:`tag`, so both codes must be in the language table."""
    if len(tokens) < 2:
        raise TagError("sequence shorter than the two leading tags")
    src_match = TAG_PATTERN.match(tokens[0])
    tgt_match = TAG_PATTERN.match(tokens[1])
    if src_match is None or src_match.group(1) != "src":
        raise TagError(f"expected a __src_xx__ tag first, got {tokens[0]!r}")
    if tgt_match is None or tgt_match.group(1) != "tgt":
        raise TagError(f"expected a __tgt_yy__ tag second, got {tokens[1]!r}")
    src, tgt = src_match.group(2), tgt_match.group(2)
    if get_language(src) == get_language(tgt):
        raise TagError(f"source and target tags agree on {src!r}")
    return src, tgt, list(tokens[2:])
