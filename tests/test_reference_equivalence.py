"""Table-driven character paths against the per-character loops they replaced.

The reference functions below are the loop implementations of character
unification and of the ``chars`` and ``gopher`` rules, kept as
oracles: the fast paths must give the same text and the same detail strings
on any input.
"""
import unicodedata

from hypothesis import given, settings, strategies as st

from ardata.corpus import CharMap, CharMapMode, Document, normalize_chars
from ardata.filters import FilterConfig, GopherConfig, _check_chars, _check_gopher, _is_permissible
from ardata.tokenization import segment_words

# --- reference oracles -----------------------------------------------------------

_PRESENTATION_RANGES = ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF))


def _in_presentation_block(cp: int) -> bool:
    return any(lo <= cp <= hi for lo, hi in _PRESENTATION_RANGES)


def _maps_under_nfkc(cp: int) -> bool:
    ch = chr(cp)
    return _in_presentation_block(cp) and unicodedata.normalize("NFKC", ch) != ch


def _refused_output(out: str, entries: dict[int, str], mode: CharMapMode) -> bool:
    return ord(out) in entries or (mode is CharMapMode.NFKC_PLUS_TABLE and _maps_under_nfkc(ord(out)))


def reference_guard_accepts(entries: dict[int, str], mode: CharMapMode) -> bool:
    return not any(_refused_output(out, entries, mode) for repl in entries.values() for out in repl)


def reference_apply(entries: dict[int, str], mode: CharMapMode, text: str) -> str:
    out: list[str] = []
    for ch in text:
        cp = ord(ch)
        repl = entries.get(cp)
        if repl is not None:
            out.append(repl)
        elif mode is CharMapMode.NFKC_PLUS_TABLE and _in_presentation_block(cp):
            out.append(unicodedata.normalize("NFKC", ch))
        else:
            out.append(ch)
    return "".join(out)


def reference_word_has_letter(word: str) -> bool:
    for ch in word:
        if ch.isascii() and ch.isalpha():
            return True
        cp = ord(ch)
        if (0x0600 <= cp <= 0x06FF or 0x0750 <= cp <= 0x077F) and unicodedata.category(ch).startswith("L"):
            return True
    return False


def reference_check_chars(doc: Document, cfg: FilterConfig) -> str | None:
    total = len(doc.text)
    if total == 0:
        return None
    permissible = sum(1 for ch in doc.text if _is_permissible(ch, cfg.permissible_punctuation))
    if permissible / total < cfg.permissible_char_min_frac:
        return f"{permissible}/{total} permissible chars (< {cfg.permissible_char_min_frac:.0%})"
    return None


def reference_check_gopher(doc: Document, cfg: FilterConfig) -> str | None:
    g = cfg.gopher
    words = segment_words(doc.text)
    n = len(words)
    if n < g.min_words:
        return f"word count {n} < {g.min_words}"
    if n > g.max_words:
        return f"word count {n} > {g.max_words}"
    mean_len = sum(len(w) for w in words) / n
    if mean_len < g.min_mean_word_len:
        return f"mean word length {mean_len:.2f} < {g.min_mean_word_len}"
    if mean_len > g.max_mean_word_len:
        return f"mean word length {mean_len:.2f} > {g.max_mean_word_len}"
    symbols = sum(doc.text.count(s) for s in g.symbols)
    if symbols / n > g.max_symbol_to_word_ratio:
        return f"symbol-to-word ratio {symbols}/{n} > {g.max_symbol_to_word_ratio}"
    alpha = sum(1 for w in words if reference_word_has_letter(w))
    if alpha / n < g.min_alpha_word_frac:
        return f"alphabetic word fraction {alpha}/{n} < {g.min_alpha_word_frac}"
    stop_set = set(g.stop_words)
    distinct_stops = len({w for w in words if w in stop_set})
    if distinct_stops < g.min_stop_words:
        return f"{distinct_stops} distinct stop words < {g.min_stop_words}"
    if doc.text:
        punct = sum(1 for ch in doc.text if unicodedata.category(ch).startswith("P"))
        if punct / len(doc.text) > g.max_punct_char_frac:
            return f"punctuation fraction {punct}/{len(doc.text)} > {g.max_punct_char_frac}"
    return None


# --- generated inputs --------------------------------------------------------------

# Every character str.isspace accepts, including the ones outside ASCII.
_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000"

_chars = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),  # printable ASCII
    st.characters(min_codepoint=0x0600, max_codepoint=0x06FF),  # Arabic
    st.characters(min_codepoint=0x0750, max_codepoint=0x077F),  # Arabic Supplement
    st.characters(min_codepoint=0xFB50, max_codepoint=0xFDFF),  # Presentation Forms-A
    st.characters(min_codepoint=0xFE70, max_codepoint=0xFEFF),  # Presentation Forms-B
    st.sampled_from(_WHITESPACE),
    st.characters(min_codepoint=0x2010, max_codepoint=0x205E),  # General Punctuation
    st.sampled_from("،؛؟«»…—–٪٫٬"),
)
_texts = st.text(_chars, max_size=200)
_modes = st.sampled_from(list(CharMapMode))
_entries = st.dictionaries(_chars.map(ord), st.text(_chars, max_size=3), max_size=8)


def test_whitespace_alphabet_is_every_isspace_character():
    assert all(ch.isspace() for ch in _WHITESPACE)
    assert sum(chr(cp).isspace() for cp in range(0x110000)) == len(set(_WHITESPACE))


# --- properties ----------------------------------------------------------------------


@given(_entries, _modes)
@settings(max_examples=200, deadline=None)
def test_charmap_guard_rejects_exactly_what_the_reference_rejects(entries, mode):
    try:
        CharMap(entries=entries, mode=mode)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == reference_guard_accepts(entries, mode)


@given(_entries, _modes, _texts)
@settings(max_examples=200, deadline=None)
def test_normalize_chars_equals_reference_loop(entries, mode, text):
    # Dropping the entries with a refused output leaves a map the guard accepts.
    entries = {cp: repl for cp, repl in entries.items() if not any(_refused_output(o, entries, mode) for o in repl)}
    char_map = CharMap(entries=entries, mode=mode)
    assert normalize_chars(text, char_map) == reference_apply(entries, mode, text)


@given(_texts)
@settings(max_examples=200, deadline=None)
def test_default_map_equals_reference_loop(text):
    assert normalize_chars(text) == reference_apply({}, CharMapMode.NFKC_PLUS_TABLE, text)


def test_default_map_folds_every_changing_presentation_codepoint():
    for lo, hi in _PRESENTATION_RANGES:
        text = "".join(map(chr, range(lo, hi + 1)))
        assert normalize_chars(text) == reference_apply({}, CharMapMode.NFKC_PLUS_TABLE, text)


@given(_texts, st.text(_chars, max_size=12), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_check_chars_equals_reference(text, punctuation, min_frac):
    cfg = FilterConfig(permissible_punctuation=punctuation, permissible_char_min_frac=min_frac)
    doc = Document(id="d", text=text)
    assert _check_chars(doc, cfg) == reference_check_chars(doc, cfg)


_gopher = st.builds(
    GopherConfig,
    min_words=st.integers(1, 3),
    max_words=st.integers(3, 200),
    min_mean_word_len=st.floats(0.0, 2.0),
    max_mean_word_len=st.floats(2.0, 20.0),
    max_symbol_to_word_ratio=st.floats(0.0, 1.0),
    min_alpha_word_frac=st.floats(0.0, 1.0),
    stop_words=st.lists(st.text(_chars, min_size=1, max_size=3), max_size=6).map(tuple),
    min_stop_words=st.integers(0, 3),
    max_punct_char_frac=st.floats(0.0, 1.0),
)


@given(_texts, _gopher)
@settings(max_examples=300, deadline=None)
def test_check_gopher_equals_reference(text, gopher):
    cfg = FilterConfig(gopher=gopher)
    doc = Document(id="d", text=text)
    assert _check_gopher(doc, cfg) == reference_check_gopher(doc, cfg)


@given(st.lists(st.text(_chars, max_size=8), max_size=40), st.lists(st.sampled_from(_WHITESPACE), min_size=1))
@settings(max_examples=200, deadline=None)
def test_alphabetic_word_count_equals_reference(words, separators):
    # Only the alphabetic-word bound can fail, so the detail carries the count.
    text = "".join(w + separators[i % len(separators)] for i, w in enumerate(words))
    n = len(segment_words(text))
    cfg = FilterConfig(gopher=GopherConfig(
        min_words=1, min_mean_word_len=0.0, max_mean_word_len=1e9, max_symbol_to_word_ratio=1e9,
        min_alpha_word_frac=1.1, min_stop_words=0, max_punct_char_frac=1.0,
    ))
    expected = reference_check_gopher(Document(id="d", text=text), cfg)
    assert _check_gopher(Document(id="d", text=text), cfg) == expected
    if n:
        alpha = sum(1 for w in segment_words(text) if reference_word_has_letter(w))
        assert expected == f"alphabetic word fraction {alpha}/{n} < 1.1"
