"""Script unification: every Indic script to Devanagari and back.

The Brahmic blocks are positionally parallel, so transliteration is a
reversible per-codepoint offset. Unifying scripts lets one subword
vocabulary serve all ten languages.
"""

from multibridge import from_devanagari, normalize_unicode, to_devanagari, tokenize
from multibridge.languages import REGISTRY
from multibridge.scripts import ScriptError

SENTENCES = {
    "bn": "আমি ভাত খাই।",
    "ta": "நான் சாதம் சாப்பிடுகிறேன்.",
    "te": "నేను అన్నం తింటాను.",
    "hi": "मैं चावल खाता हूँ।",
}

print("forward and back, per language:")
for lang, text in SENTENCES.items():
    deva = to_devanagari(text, lang)
    back = from_devanagari(deva, lang)
    script = REGISTRY[lang].script
    print(f"  {lang} ({script}):")
    print(f"    native : {text}")
    print(f"    unified: {deva}")
    print(f"    inverse round trip ok: {back == text}")

# Normalization composes nukta sequences that plain NFC leaves apart.
decomposed = "क़"  # KA + NUKTA
print("\nnukta canonicalization:", repr(decomposed), "->", repr(normalize_unicode(decomposed, "hi")))

# A Devanagari-only sign with no Bengali counterpart is an error by
# default; that usually means the model emitted something untranslatable.
try:
    from_devanagari("ॐ", "bn")  # OM
except ScriptError as exc:
    print("\nunmappable codepoint surfaces early:", exc)
print("pass-through policy instead:", from_devanagari("ॐ", "bn", on_unmappable="pass"))

print("\ntokenization (danda is sentence punctuation):")
print("  ", tokenize("उसने कहा, \"ठीक है।\"", "hi"))
print("  ", tokenize("It costs $3.50, tax-free (really)!", "en"))
