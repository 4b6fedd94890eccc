"""The nukta tables' contract, derived with the standard library alone so that any interpreter can check it.

``scripts.DEFAULT_CANONICALIZATIONS`` lists, per script, exactly the
base+nukta decomposition of each letter that NFC never composes (the
composition-excluded letters) in the nine blocks of ``ASSIGNED_OFFSETS``.
A base+nukta letter that NFC does compose, such as U+0929, needs no entry:
``normalize_unicode`` runs NFC before it reads a table. The source keeps
the tables as a pinned literal; this module derives them from the
interpreter's database.

Run as a script, it prints its findings as JSON, so ``test_interpreters.py``
can check them under each interpreter on the host.
"""

import json
import unicodedata

from multibridge.languages import BLOCK_SIZE, REGISTRY
from multibridge.scripts import ASSIGNED_OFFSETS, normalize_unicode

#: The base+nukta sequences that NFC composes, each with the letter it makes.
NFC_COMPOSED = {"\u0928\u093c": "\u0929", "\u0930\u093c": "\u0931", "\u0933\u093c": "\u0934"}

#: Two Devanagari languages, and English, which applies every table.
LANGS = ("hi", "mr", "en")


def composition_excluded(db=unicodedata) -> dict[str, dict[str, str]]:
    """Per script, each two-codepoint canonical decomposition that NFC leaves decomposed, mapped to its letter."""
    bases = {lang.script: lang.block_base for lang in REGISTRY.values() if lang.is_indic}
    tables: dict[str, dict[str, str]] = {}
    for script in ASSIGNED_OFFSETS:
        for cp in range(bases[script], bases[script] + BLOCK_SIZE):
            parts = db.decomposition(chr(cp)).split()
            if len(parts) == 2 and not parts[0].startswith("<") and db.normalize("NFC", chr(cp)) != chr(cp):
                tables.setdefault(script, {})["".join(chr(int(part, 16)) for part in parts)] = chr(cp)
    return tables


def findings() -> dict:
    """The derived tables, and what ``normalize_unicode`` makes of each NFC-composed sequence per language."""
    return {
        "derived": composition_excluded(),
        "composed": {code: [normalize_unicode(seq, code) for seq in NFC_COMPOSED] for code in LANGS},
    }


if __name__ == "__main__":
    print(json.dumps(findings()))
