"""Fast paths against the straightforward implementations they replaced.

The reference functions below are the loop implementations of character
unification, of the filter rules, of the oracle scorer's key search, of the
n-gram scorer, of the evaluation harness's prompt templates and its separate
accuracy and true/false scoring loops, of the tokenizer-outer ``fertility``
command, of the count-every-draw mixture sampler and of the list-based
``instruct build`` and ``instruct mix`` writers, and of the MCQ parser with
its own copy of ``validate_mcq``'s checks, and of ``ingest_jsonl``'s own field
checks and the single-pair title/date strip loop, kept as oracles: the fast
paths must give the same text, the same detail strings, the same scores and
results, the same CSV bytes, the same draws, the same dialogue files, the same
MCQ items and rejections and the same documents and reject reasons on any input. The JSON writers take ``json.dumps`` as
theirs.
"""
import csv
import hashlib
import io
import json
import math
import random
import re
import tempfile
import unicodedata
import zlib
from collections import Counter
from dataclasses import replace
from itertools import islice
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from ardata import instruct, tokenization
from ardata._schema import json_document, json_record
from ardata.cli import dispatch, make_tokenizer
from ardata.corpus import _DATE, Document, Reject, Source, ingest_jsonl, normalize_chars, strip_title_date
from ardata.evaluation import (
    BenchmarkItem, CharNgramScorer, EvalResult, OracleScorer, evaluate_cf, evaluate_mcf, evaluate_true_false, f1_macro,
    render_cf_context, render_mcf_context,
)
from ardata.filters import (
    _ARABIC_LETTERS, KEEP, RULE_ORDER, FilterConfig, GopherConfig, _Features,
    _check_ads, _check_chars, _check_gopher, _check_lines, _check_safety, _is_permissible, apply_filter, first_failure,
)
from ardata.mixture import MixturePlan, PlanEntry, StreamExhaustedError, sample_stream
from ardata.tokenization import CharacterTokenizer, VocabTokenizer, WhitespaceTokenizer, fertility, segment_words

# --- reference oracles -----------------------------------------------------------

_PRESENTATION_RANGES = ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF))


def _in_presentation_block(cp: int) -> bool:
    return any(lo <= cp <= hi for lo, hi in _PRESENTATION_RANGES)


def reference_apply(text: str) -> str:
    out: list[str] = []
    for ch in text:
        out.append(unicodedata.normalize("NFKC", ch) if _in_presentation_block(ord(ch)) else ch)
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


def test_whitespace_alphabet_is_every_isspace_character():
    assert all(ch.isspace() for ch in _WHITESPACE)
    assert sum(chr(cp).isspace() for cp in range(0x110000)) == len(set(_WHITESPACE))


# --- properties ----------------------------------------------------------------------


@given(_texts)
@settings(max_examples=200, deadline=None)
def test_default_map_equals_reference_loop(text):
    assert normalize_chars(text) == reference_apply(text)


def test_default_map_folds_every_changing_presentation_codepoint():
    for lo, hi in _PRESENTATION_RANGES:
        text = "".join(map(chr, range(lo, hi + 1)))
        assert normalize_chars(text) == reference_apply(text)


@given(_texts, st.text(_chars, max_size=12), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_check_chars_equals_reference(text, punctuation, min_frac):
    cfg = FilterConfig(permissible_punctuation=punctuation, permissible_char_min_frac=min_frac)
    doc = Document(id="d", text=text)
    assert _check_chars(doc, cfg, _Features(doc.text)) == reference_check_chars(doc, cfg)


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
    assert _check_gopher(doc, cfg, _Features(doc.text)) == reference_check_gopher(doc, cfg)


@given(st.lists(st.text(_chars, max_size=8), max_size=40), st.lists(st.sampled_from(_WHITESPACE), min_size=1))
@example(["", "٣"], ["\u3000"])  # starts with whitespace, and its first word has no letter
@example(["2", "x"], [" "])  # starts with a word that has no letter
@settings(max_examples=200, deadline=None)
def test_alphabetic_word_count_equals_reference(words, separators):
    # Only the alphabetic-word bound can fail, and the last word, "1", has no
    # letter, so the fraction is below 1 and the detail carries the count.
    text = "".join(w + separators[i % len(separators)] for i, w in enumerate(words)) + "1"
    n = len(segment_words(text))
    cfg = FilterConfig(gopher=GopherConfig(
        min_words=1, min_mean_word_len=0.0, max_mean_word_len=1e9, max_symbol_to_word_ratio=1e9,
        min_alpha_word_frac=1.0, min_stop_words=0, max_punct_char_frac=1.0,
    ))
    expected = reference_check_gopher(Document(id="d", text=text), cfg)
    assert _check_gopher(Document(id="d", text=text), cfg, _Features(text)) == expected
    alpha = sum(1 for w in segment_words(text) if reference_word_has_letter(w))
    assert expected == f"alphabetic word fraction {alpha}/{n} < 1.0"


# --- phrase, line, scorer oracles ----------------------------------------------------


def reference_phrase_hits(text: str, phrases, mode: str) -> int:
    haystack = text.casefold()
    if mode == "distinct":
        return sum(1 for p in phrases if p.casefold() in haystack)
    return sum(haystack.count(p.casefold()) for p in phrases)


def reference_check_safety(doc: Document, cfg: FilterConfig) -> str | None:
    if doc.source != Source.CULTURAX:
        return None
    if cfg.require_url and not doc.url:
        return "missing url"
    if cfg.unsafe_phrases:
        hits = reference_phrase_hits(doc.text, cfg.unsafe_phrases, "distinct")
        if hits >= cfg.unsafe_min_hits:
            return f"{hits} unsafe phrase hits (>= {cfg.unsafe_min_hits})"
    return None


def reference_check_ads(doc: Document, cfg: FilterConfig) -> str | None:
    if not cfg.ad_phrases:
        return None
    hits = reference_phrase_hits(doc.text, cfg.ad_phrases, "total")
    if hits > cfg.ad_max_hits:
        return f"{hits} ad phrase hits (> {cfg.ad_max_hits})"
    return None


def reference_check_lines(doc: Document, cfg: FilterConfig) -> str | None:
    """Divides by zero when min_lines is 0 and the text has no non-empty line."""
    lines = [line for line in (raw.strip() for raw in doc.text.split("\n")) if line]
    if len(lines) < cfg.min_lines:
        return f"{len(lines)} lines (< {cfg.min_lines})"
    short = sum(1 for line in lines if len(segment_words(line)) < cfg.short_line_word_max)
    if short / len(lines) > cfg.short_line_frac_max:
        return f"{short}/{len(lines)} short lines (> {cfg.short_line_frac_max:.0%})"
    return None


def reference_oracle_loglikelihood(scorer: OracleScorer, context: str, continuation: str) -> float:
    best_pos = -1
    golds: tuple[str, ...] = ()
    for key, accepted in scorer.pairs:
        pos = context.rfind(key)
        if pos > best_pos:
            best_pos = pos
            golds = accepted
    if best_pos < 0:
        return scorer.miss
    return scorer.hit if continuation in golds else scorer.miss


def reference_ngram_loglikelihood(scorer: CharNgramScorer, context: str, continuation: str) -> float:
    if not continuation:
        return 0.0
    sequence = "\x00" * (scorer.n - 1) + "".join(scorer._canon(c) for c in context + continuation)
    start = len(sequence) - len(continuation)
    total = 0.0
    for i in range(start, len(sequence)):
        history = sequence[i - (scorer.n - 1) : i] if scorer.n > 1 else ""
        count = scorer._ngram_counts[(history, sequence[i])]
        denom = scorer._history_counts[history] + scorer._vocab_size
        total += math.log((count + 1) / denom)
    return total


# --- generated inputs: phrases, keys, documents -----------------------------------------

# Latin case variants (with the letters casefold changes: ß, İ, ﬁ), Arabic and
# separators, so phrases and keys overlap, repeat and share prefixes.
_PHRASE_ALPHABET = "abAB ßSsİiıﬁ" + "بتلا" + "\n"
_phrase_text = st.text(_PHRASE_ALPHABET, max_size=60)
_phrases = st.lists(st.text(_PHRASE_ALPHABET, min_size=1, max_size=3), max_size=5).map(tuple)
_sources = st.sampled_from(list(Source))
_urls = st.one_of(st.none(), st.just(""), st.just("https://example.org/x"))


@st.composite
def _docs(draw, text=_phrase_text):
    return Document(id="d", text=draw(text), url=draw(_urls), source=draw(_sources))


_filter_configs = st.builds(
    FilterConfig,
    unsafe_phrases=_phrases,
    unsafe_min_hits=st.integers(0, 4),
    require_url=st.booleans(),
    ad_phrases=_phrases,
    ad_max_hits=st.integers(0, 4),
    min_lines=st.integers(0, 4),
    short_line_word_max=st.integers(0, 4),
    short_line_frac_max=st.floats(0.0, 1.0),
    permissible_char_min_frac=st.floats(0.0, 1.0),
    permissible_punctuation=st.text(_chars, max_size=6),
    gopher=_gopher,
)


# --- properties: rules ----------------------------------------------------------------


@given(_docs(), _filter_configs)
@settings(max_examples=200, deadline=None)
def test_phrase_and_line_rules_equal_reference(doc, cfg):
    assert _check_safety(doc, cfg, _Features(doc.text)) == reference_check_safety(doc, cfg)
    assert _check_ads(doc, cfg, _Features(doc.text)) == reference_check_ads(doc, cfg)
    try:
        expected = reference_check_lines(doc, cfg)
    except ZeroDivisionError:
        # The reference's division by zero: no lines, and min_lines 0 keeps.
        assert cfg.min_lines == 0 and not doc.text.strip()
        expected = None
    assert _check_lines(doc, cfg, _Features(doc.text)) == expected


@given(_phrase_text, _phrases)
@settings(max_examples=200, deadline=None)
def test_phrase_hit_counts_equal_reference(text, phrases):
    # unsafe_min_hits 0 and ad_max_hits 0 put every non-zero count in the detail.
    doc = Document(id="d", text=text, url="https://example.org/x", source=Source.CULTURAX)
    cfg = FilterConfig(unsafe_phrases=phrases, unsafe_min_hits=0, ad_phrases=phrases, ad_max_hits=0)
    assert _check_safety(doc, cfg, _Features(doc.text)) == reference_check_safety(doc, cfg)
    assert _check_ads(doc, cfg, _Features(doc.text)) == reference_check_ads(doc, cfg)


@given(_docs(st.one_of(_phrase_text, _texts)), _filter_configs)
@settings(max_examples=200, deadline=None)
def test_first_failure_equals_rules_one_by_one(doc, cfg):
    expected = KEEP
    for rule in RULE_ORDER:
        decision = apply_filter(doc, rule, cfg)
        if not decision.keep:
            expected = decision
            break
    assert first_failure(doc, cfg) == expected


# Any codepoint except surrogates, so the plain-character table meets
# characters outside the blocks it was built from.
_any_texts = st.text(st.one_of(_chars, st.characters(blacklist_categories=("Cs",))), max_size=120)


@given(_any_texts, st.text(st.characters(blacklist_categories=("Cs",)), max_size=8), st.floats(0.0, 1.0), _gopher)
@settings(max_examples=200, deadline=None)
def test_char_counts_equal_reference_on_any_character(text, punctuation, min_frac, gopher):
    cfg = FilterConfig(permissible_punctuation=punctuation, permissible_char_min_frac=min_frac, gopher=gopher)
    doc = Document(id="d", text=text)
    assert _check_chars(doc, cfg, _Features(doc.text)) == reference_check_chars(doc, cfg)
    assert _check_gopher(doc, cfg, _Features(doc.text)) == reference_check_gopher(doc, cfg)


# --- properties: scorers ----------------------------------------------------------------

# A small alphabet, so keys repeat, overlap and prefix one another.
_keys = st.text("abAا", max_size=3)


@given(st.lists(_keys, max_size=8), st.lists(st.one_of(_keys, st.text("abAاx\n", max_size=3)), max_size=8))
@example(["a", "ab"], ["ab"])  # two keys start at the same position: the first pair wins
@example(["ab", "a", "ab"], ["xab", "a"])
@example(["b", "", ""], ["ab"])  # the first empty key wins
@settings(max_examples=300, deadline=None)
def test_oracle_scorer_equals_reference_loop(keys, context_parts):
    # Pair i accepts only "c<i>", so the score of every "c<i>" names the winning pair.
    scorer = OracleScorer([(key, (f"c{i}",)) for i, key in enumerate(keys)])
    anti = OracleScorer.anti(scorer.pairs)
    context = "".join(context_parts)
    for continuation in [f"c{i}" for i in range(len(keys))] + ["x"]:
        for s in (scorer, anti):
            assert s.loglikelihood(context, continuation) == reference_oracle_loglikelihood(s, context, continuation)


_contexts = st.lists(st.one_of(_keys, st.text("abAاx\n", max_size=3)), max_size=6).map("".join)


@given(
    st.lists(_keys, max_size=8),
    st.lists(_contexts, min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=12),
)
@example([], ["ab", "b"], [(0, False), (0, True), (1, False), (0, False)])  # no non-empty key
@example(["a", "b"], ["xa", "xb"], [(0, False), (1, False), (0, True), (0, False), (1, True)])
@settings(max_examples=300, deadline=None)
def test_oracle_scorer_cache_never_goes_stale(keys, contexts, steps):
    # One pair of scorers scores a sequence of contexts: repeats, alternations and
    # equal strings that are distinct objects. Every score must be the scan's.
    scorer = OracleScorer([(key, (f"c{i}",)) for i, key in enumerate(keys)])
    anti = OracleScorer.anti(scorer.pairs)
    continuations = [f"c{i}" for i in range(len(keys))] + ["x"]
    for index, copy in steps:
        context = contexts[index % len(contexts)]
        if copy:
            context = "".join(list(context))
        for continuation in continuations:
            for s in (scorer, anti):
                assert s.loglikelihood(context, continuation) == reference_oracle_loglikelihood(s, context, continuation)


_ngram_scorer = CharNgramScorer()
_ngram_text = st.text(st.one_of(st.sampled_from("العربية من the fox."), _chars), max_size=12)


@given(_ngram_text, _ngram_text)
@settings(max_examples=200, deadline=None)
def test_ngram_scorer_equals_reference(context, continuation):
    value = _ngram_scorer.loglikelihood(context, continuation)
    assert value == reference_ngram_loglikelihood(_ngram_scorer, context, continuation)


# --- one scoring loop: the template classes and the two loops it replaced ---------------


def reference_render_cf(item: BenchmarkItem) -> str:
    parts = [item.context] if item.context else []
    parts.append(f"سؤال: {item.question}")
    parts.append("الإجابة:")
    return "\n".join(parts)


def reference_render_mcf(item: BenchmarkItem) -> str:
    parts = [item.context] if item.context else []
    parts.append(f"سؤال: {item.question}")
    parts.extend(f"{'ABCDE'[i]}. {choice}" for i, choice in enumerate(item.choices))
    parts.append("الإجابة: ")
    return "\n".join(parts)


def reference_render_tf(item: BenchmarkItem, shots) -> str:
    blocks = [f"{shot.question}\nالإجابة: {shot.choices[shot.gold_index]}" for shot in shots]
    blocks.append(f"{item.question}\nالإجابة:")
    return "\n\n".join(blocks)


def _reference_argmax(scores):
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best, sum(1 for s in scores if s == scores[best]) > 1


def reference_accuracy_eval(items, scorer, context_fn, continuations_fn, divisor_fn, metric, fmt) -> EvalResult:
    correct: Counter[str] = Counter()
    totals: Counter[str] = Counter()
    predictions = []
    errored = ties = 0
    for item in items:
        context = context_fn(item)
        try:
            scores = [scorer.loglikelihood(context, c) for c in continuations_fn(item)]
        except Exception:
            errored += 1
            predictions.append(None)
            continue
        if divisor_fn is not None:
            scores = [s / divisor_fn(item, i) for i, s in enumerate(scores)]
        pred, tied = _reference_argmax(scores)
        ties += tied
        predictions.append(pred)
        category = item.category or "uncategorized"
        totals[category] += 1
        if pred == item.gold_index:
            correct[category] += 1
    n = sum(totals.values())
    return EvalResult(
        metric=metric, format=fmt, overall=(sum(correct.values()) / n) if n else 0.0,
        per_category={cat: correct[cat] / totals[cat] for cat in totals}, per_category_n=dict(totals),
        n=n, errored=errored, ties=ties, predictions=predictions,
    )


def reference_evaluate_cf(items, scorer, norm) -> EvalResult:
    divisor_fn = {"none": None, "by_bytes": lambda item, i: len(item.choices[i].encode("utf-8"))}[norm]
    metric = "accuracy" if norm == "none" else "accuracy_norm"
    return reference_accuracy_eval(
        items, scorer, reference_render_cf, lambda item: [" " + c for c in item.choices], divisor_fn, metric, "cf"
    )


def reference_evaluate_mcf(items, scorer) -> EvalResult:
    return reference_accuracy_eval(
        items, scorer, reference_render_mcf, lambda item: list("ABCDE"[: len(item.choices)]), None, "accuracy", "mcf",
    )


def reference_evaluate_true_false(items, scorer, exemplars, shots, seed) -> EvalResult:
    shot_items = random.Random(seed).sample(list(exemplars), shots)
    golds, preds, predictions = [], [], []
    per_category: dict[str, tuple[list[str], list[str]]] = {}
    errored = ties = 0
    for item in items:
        context = reference_render_tf(item, shot_items)
        try:
            scores = [scorer.loglikelihood(context, " " + c) for c in item.choices]
        except Exception:
            errored += 1
            predictions.append(None)
            continue
        pred, tied = _reference_argmax(scores)
        ties += tied
        predictions.append(pred)
        golds.append(item.choices[item.gold_index])
        preds.append(item.choices[pred])
        bucket = per_category.setdefault(item.category or "uncategorized", ([], []))
        bucket[0].append(item.choices[item.gold_index])
        bucket[1].append(item.choices[pred])
    labels = sorted({label for item in items for label in item.choices})
    return EvalResult(
        metric="f1_macro", format="cf", overall=f1_macro(golds, preds, labels) if golds else 0.0,
        per_category={cat: f1_macro(g, p, labels) for cat, (g, p) in per_category.items()},
        per_category_n={cat: len(g) for cat, (g, _) in per_category.items()},
        n=len(golds), errored=errored, ties=ties, predictions=predictions,
    )


class _RecordingScorer:
    """Scores by a hash of the call with few distinct values, so ties are common.

    Raises on a context that holds "!", and records every call it answers.
    """

    name = "recording"

    def __init__(self):
        self.calls = []

    def loglikelihood(self, context, continuation):
        self.calls.append((context, continuation))
        if "!" in context:
            raise RuntimeError("backend down")
        return -float(zlib.crc32(f"{context}\x00{continuation}".encode()) % 4)


_EVAL_ALPHABET = "ab !" + "صخ" + "\t"
_eval_texts = st.text(_EVAL_ALPHABET, min_size=1, max_size=6)


@st.composite
def _eval_items(draw, prefix, two_choices=False):
    items = []
    for k in range(draw(st.integers(0, 8))):
        n_choices = 2 if two_choices else draw(st.integers(2, 5))
        items.append(BenchmarkItem(
            id=f"{prefix}{k}",
            question=draw(st.text(_EVAL_ALPHABET, min_size=1, max_size=8).filter(str.strip)),  # no blank question
            choices=draw(st.lists(_eval_texts, min_size=n_choices, max_size=n_choices, unique=True)),
            gold_index=draw(st.integers(0, n_choices - 1)),
            category=draw(st.one_of(st.none(), st.sampled_from(["", "stem", "lang"]))),
            context=draw(st.one_of(st.none(), st.text(_EVAL_ALPHABET, max_size=6))),
        ))
    return items


def _same_run(evaluate, reference):
    """Both evaluations give equal results from the same scorer calls."""
    got, expected = _RecordingScorer(), _RecordingScorer()
    assert evaluate(got) == reference(expected)
    assert got.calls == expected.calls


@given(_eval_items("q"))
@settings(max_examples=200, deadline=None)
def test_cf_and_mcf_equal_the_accuracy_loop(items):
    for norm in ("none", "by_bytes"):
        _same_run(lambda s: evaluate_cf(items, s, norm=norm), lambda s: reference_evaluate_cf(items, s, norm))
    _same_run(lambda s: evaluate_mcf(items, s), lambda s: reference_evaluate_mcf(items, s))
    for item in items:
        assert render_cf_context(item) == reference_render_cf(item)
        assert render_mcf_context(item) == reference_render_mcf(item)


@given(_eval_items("q", two_choices=True), _eval_items("x", two_choices=True), st.integers(0, 8), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_true_false_equals_its_own_loop(items, pool, shots, seed):
    shots = min(shots, len(pool))
    _same_run(
        lambda s: evaluate_true_false(items, s, pool, shots=shots, seed=seed),
        lambda s: reference_evaluate_true_false(items, s, pool, shots, seed),
    )


# --- count-once oracles: line and gopher rules ------------------------------------------

_PREVIOUS_ALPHA_WORD = re.compile("[A-Za-z" + _ARABIC_LETTERS + r"]\S*")


def previous_check_lines(doc: Document, cfg: FilterConfig) -> str | None:
    """``_check_lines`` before it stopped splitting each line into a word list."""
    lines = _Features(doc.text).lines
    if len(lines) < cfg.min_lines:
        return f"{len(lines)} lines (< {cfg.min_lines})"
    if not lines:
        return None
    short = sum(1 for line in lines if len(segment_words(line)) < cfg.short_line_word_max)
    if short / len(lines) > cfg.short_line_frac_max:
        return f"{short}/{len(lines)} short lines (> {cfg.short_line_frac_max:.0%})"
    return None


def previous_check_gopher(doc: Document, cfg: FilterConfig) -> str | None:
    """``_check_gopher`` before it stopped building the list of alphabetic words."""
    g = cfg.gopher
    features = _Features(doc.text)
    words = segment_words(doc.text)
    n = len(words)
    if n < g.min_words:
        return f"word count {n} < {g.min_words}"
    if n > g.max_words:
        return f"word count {n} > {g.max_words}"
    if n:
        mean_len = sum(map(len, words)) / n
        if mean_len < g.min_mean_word_len:
            return f"mean word length {mean_len:.2f} < {g.min_mean_word_len}"
        if mean_len > g.max_mean_word_len:
            return f"mean word length {mean_len:.2f} > {g.max_mean_word_len}"
        symbols = sum(doc.text.count(s) for s in g.symbols)
        if symbols / n > g.max_symbol_to_word_ratio:
            return f"symbol-to-word ratio {symbols}/{n} > {g.max_symbol_to_word_ratio}"
        alpha = len(_PREVIOUS_ALPHA_WORD.findall(doc.text))
        if alpha / n < g.min_alpha_word_frac:
            return f"alphabetic word fraction {alpha}/{n} < {g.min_alpha_word_frac}"
    distinct_stops = len(set(g.stop_words).intersection(words))
    if distinct_stops < g.min_stop_words:
        return f"{distinct_stops} distinct stop words < {g.min_stop_words}"
    if doc.text:
        punct = sum(n for ch, n in features.not_plain.items() if unicodedata.category(ch).startswith("P"))
        if punct / len(doc.text) > g.max_punct_char_frac:
            return f"punctuation fraction {punct}/{len(doc.text)} > {g.max_punct_char_frac}"
    return None


# Lines of 0-7 words over any separators, so word counts straddle every bound.
_line_texts = st.lists(
    st.lists(st.text(_chars.filter(lambda ch: not ch.isspace()), min_size=1, max_size=4), max_size=7).flatmap(
        lambda words: st.lists(st.sampled_from(_WHITESPACE), min_size=len(words), max_size=len(words)).map(
            lambda seps: "".join(w + sep for w, sep in zip(words, seps))
        )
    ),
    max_size=8,
).map("\n".join)


@given(_docs(st.one_of(_line_texts, _phrase_text, _texts)), _filter_configs, st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_line_and_gopher_rules_equal_previous_bodies(doc, cfg, short_line_word_max):
    cfg = replace(cfg, short_line_word_max=short_line_word_max)
    assert _check_lines(doc, cfg, _Features(doc.text)) == previous_check_lines(doc, cfg)
    assert _check_gopher(doc, cfg, _Features(doc.text)) == previous_check_gopher(doc, cfg)


# --- count-once oracles: fertility command ------------------------------------------------


class _UnmemoizedVocab:
    """A VocabTokenizer's count as a sum over its words, with no memo."""

    def __init__(self, tok: VocabTokenizer):
        self.name, self._tok = tok.name, tok

    def count_tokens(self, text: str) -> int:
        return sum(len(self._tok.tokenize_word(w)) for w in segment_words(text))


def reference_fertility_csv(inputs: list[str], specs: list[str]) -> bytes:
    """The tokenizer-outer loop ``ardata fertility`` ran before: one ingest per (tokenizer, file)."""
    rows = [["tokenizer", "dataset", "fertility"]]
    for spec in specs:
        tok = make_tokenizer(spec)
        if isinstance(tok, VocabTokenizer):
            tok = _UnmemoizedVocab(tok)
        for path in inputs:
            with open(path, "rb") as stream:
                report = fertility(ingest_jsonl(stream), tok)
            rows.append([tok.name, Path(path).stem, repr(report.fertility)])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


_WORD_POOL = ["كتاب", "الكتاب", "مكتبة", "كتب", "the", "books", "reader", "1,2", "«اقرأ»"]
_VOCAB_ENTRIES = ["ال", "كت", "كتاب", "مك", "تب", "the", "book", "read", "er", "«"]
_doc_texts = st.lists(st.sampled_from(_WORD_POOL), min_size=1, max_size=30).map(" ".join)
# Each file holds at least one document with words, plus lines ingest rejects.
_files = st.lists(st.one_of(_doc_texts, _doc_texts, st.just(None)), min_size=1, max_size=8).filter(
    lambda texts: any(t is not None for t in texts)
)


@given(st.lists(_files, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_fertility_command_equals_tokenizer_outer_loop(files):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = []
        for i, texts in enumerate(files):
            path = Path(tmp) / f"set{i}.jsonl"
            lines = ["{not json" if t is None else json.dumps({"text": t}, ensure_ascii=False) for t in texts]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            inputs.append(str(path))
        vocab = Path(tmp) / "vocab.txt"
        vocab.write_text("\n".join(_VOCAB_ENTRIES) + "\n", encoding="utf-8")
        specs = ["whitespace", "character", f"vocab:{vocab}"]
        out = Path(tmp) / "fertility.csv"
        argv = ["fertility", "--out", str(out)]
        for path in inputs:
            argv += ["--in", path]
        for spec in specs:
            argv += ["--tokenizer", spec]
        assert dispatch(argv) == 0
        assert out.read_bytes() == reference_fertility_csv(inputs, specs)


# --- count-once oracles: vocab word memo ---------------------------------------------------

_small_words = st.text("abcاب", min_size=1, max_size=4)
_memo_caps = st.sampled_from([1, 2, 3, None])  # None keeps the module's cap


@given(st.lists(_small_words, max_size=10), st.lists(st.text("abcاب \n", max_size=40), max_size=6), _memo_caps)
@settings(max_examples=200, deadline=None)
def test_vocab_count_tokens_equals_sum_over_words(vocab, texts, cap):
    tok = VocabTokenizer(vocab)
    with mock.patch.object(tokenization, "_WORD_MEMO_CAP", cap or tokenization._WORD_MEMO_CAP):
        for text in texts:
            assert tok.count_tokens(text) == sum(len(tok.tokenize_word(w)) for w in segment_words(text))
            assert len(tok._word_counts) <= tokenization._WORD_MEMO_CAP


@given(
    st.lists(_small_words, max_size=10),
    st.lists(st.text("abcاب \t\n\u00a0\u2003", max_size=40), max_size=6),
    _memo_caps,
)
@settings(max_examples=200, deadline=None)
def test_count_tokens_equals_the_unmemoized_count(vocab, texts, cap):
    """Each built-in's ``count_tokens`` of a text equals the unmemoized count of
    its words, and the vocab memo stays within its cap."""
    toks = (WhitespaceTokenizer(), CharacterTokenizer(), VocabTokenizer(vocab))
    unmemoized = (len, lambda words: len("".join(words)), lambda words: sum(len(toks[2].tokenize_word(w)) for w in words))
    with mock.patch.object(tokenization, "_WORD_MEMO_CAP", cap or tokenization._WORD_MEMO_CAP):
        for text in texts:
            for tok, reference in zip(toks, unmemoized):
                assert tok.count_tokens(text) == reference(text.split())
            assert len(toks[2]._word_counts) <= tokenization._WORD_MEMO_CAP


def test_vocab_count_tokens_tokenizes_each_distinct_word_once():
    tok = VocabTokenizer(["ab", "ca"])
    with mock.patch.object(tok, "tokenize_word", wraps=tok.tokenize_word) as spy:
        assert tok.count_tokens("abc abc ab\ncab abc") == 2 + 2 + 1 + 2 + 2
        assert tok.count_tokens("ab cab") == 1 + 2
    assert sorted(call.args[0] for call in spy.call_args_list) == ["ab", "abc", "cab"]


# --- count-once oracles: mixture sampling ---------------------------------------------------


def reference_sample_stream(plan, streams, tok=None):
    """``sample_stream`` as it was when it counted every draw, kept an iterator per
    source and rebuilt its draw state: the oracle for the position-count sampler."""
    tok = tok or WhitespaceTokenizer()
    rng = random.Random(plan.seed)
    missing = [e.name for e in plan.entries if e.name not in streams]
    if missing:
        raise ValueError(f"no stream for planned sources: {missing}")

    remaining = {e.name: e.token_quota for e in plan.entries if e.token_quota > 0}
    iterators = {name: iter(streams[name]) for name in remaining}
    epoch_tokens = {name: 0 for name in remaining}  # progress since last restart

    while remaining:
        names = sorted(remaining)
        weights = [remaining[n] for n in names]
        choice = rng.choices(names, weights=weights, k=1)[0]
        doc = _reference_next_doc(iterators, streams, epoch_tokens, choice)
        tokens = tok.count_tokens(doc.text)
        epoch_tokens[choice] += tokens
        remaining[choice] -= tokens
        if remaining[choice] <= 0:
            del remaining[choice]
        yield doc


def _reference_next_doc(iterators, streams, epoch_tokens, name):
    try:
        return next(iterators[name])
    except StopIteration:
        if epoch_tokens[name] == 0:
            raise StreamExhaustedError(
                f"stream for source {name!r} made no token progress over a full pass"
            ) from None
        epoch_tokens[name] = 0
        iterators[name] = iter(streams[name])  # next epoch
        try:
            return next(iterators[name])
        except StopIteration:
            raise StreamExhaustedError(
                f"stream for source {name!r} is empty or not restartable"
            ) from None


class _FreshDocs:
    """A restartable stream that builds new Document objects on every pass."""

    def __init__(self, docs):
        self.docs = docs

    def __iter__(self):
        return (Document(id=d.id, text=d.text) for d in self.docs)


def _streams(sources):
    """Per-source streams; ``once`` is a generator, so it cannot restart."""
    make = {"list": list, "fresh": _FreshDocs, "once": iter}
    return {name: make[kind](docs) for name, kind, docs, _ in sources}


def _draws(gen, limit=300):
    """The first ``limit`` draws as (id, text) pairs, and the error that ended them, if any."""
    drawn = []
    try:
        drawn.extend((d.id, d.text) for d in islice(gen, limit))
    except StreamExhaustedError as exc:
        return drawn, str(exc)
    return drawn, None


_source_names = st.lists(st.sampled_from(["ar", "en", "code", "b", "zz"]), min_size=1, max_size=5, unique=True)
# Small quotas against at most 30 tokens per pass force restarts; quotas past
# 2**53 make the float total round, so only a prefix of their draws is compared.
_quotas = st.one_of(st.integers(0, 60), st.integers(2**53, 2**60))


@st.composite
def _mixtures(draw):
    sources = []
    for name in draw(_source_names):
        lengths = draw(st.lists(st.integers(0, 6), max_size=5))  # 0: a zero-token document
        docs = [Document(id=f"{name}-{i}", text=" ".join(["w"] * n) or " ") for i, n in enumerate(lengths)]
        sources.append((name, draw(st.sampled_from(["list", "fresh", "once"])), docs, draw(_quotas)))
    return draw(st.integers(0, 2**32)), sources


def _plan(seed, sources):
    entries = tuple(PlanEntry(name, 0.0, quota, 0.0) for name, _, _, quota in sources)
    return MixturePlan(entries=entries, total_tokens=sum(e.token_quota for e in entries), seed=seed)


def _mixture(seed, *sources):
    return seed, [(name, kind, [Document(id=f"{name}-{i}", text=t) for i, t in enumerate(texts)], quota)
                  for name, kind, texts, quota in sources]


@given(_mixtures())
@example(_mixture(3, ("ar", "list", ["w w", "w"], 2**53 + 1)))  # one source only, float total rounds
@example(_mixture(5, ("en", "list", ["w w w"], 40), ("ar", "fresh", ["w", "w w"], 2**60)))
@example(_mixture(1, ("ar", "list", ["w"], 5), ("b", "list", [" ", ""], 5)))  # b makes no progress
@example(_mixture(2, ("ar", "fresh", ["w w"], 9), ("zz", "once", ["w"], 3)))  # zz cannot restart
@example(_mixture(4, ("code", "list", [], 1)))  # an empty stream
@settings(max_examples=300, deadline=None)
def test_sample_stream_equals_reference_loop(mixture):
    seed, sources = mixture
    plan = _plan(seed, sources)
    tok = WhitespaceTokenizer()
    with mock.patch.object(tok, "count_tokens", wraps=tok.count_tokens) as spy:
        got = _draws(sample_stream(plan, _streams(sources), tok=tok))
    assert got == _draws(reference_sample_stream(plan, _streams(sources)))
    # Each stream position is counted once, on the first pass.
    drawn = Counter(doc_id.split("-")[0] for doc_id, _ in got[0])
    assert spy.call_count == sum(min(drawn[name], len(docs)) for name, _, docs, _ in sources)


# --- streaming oracles: instruct build and mix -----------------------------------------------


def reference_stable_hash(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


class _ReferenceMockGenerator(instruct.MockGenerator):
    """``MockGenerator`` as it was: seeded through ``hashlib``, words picked by ``randrange``."""

    def generate(self, prompt: str, seed: int) -> str:
        rng = random.Random(reference_stable_hash(self.name, seed, prompt))
        words = segment_words(instruct._extract_chunk(prompt))
        if not words:
            words = ["النص"]
        if "اختيار من متعدد" in prompt:
            return self._mcq(rng, words)
        return self._standard(rng, words)

    def _pick(self, rng, words, k):
        return [words[rng.randrange(len(words))] for _ in range(k)]


def reference_build_prompt(chunk, template, exemplar, seed):
    """``build_prompt`` as it was: the MCQ exemplar rendered again for every prompt."""
    if template == "standard":
        return instruct.STANDARD_PROMPT_TEMPLATE.format(chunk=chunk)
    style = random.Random(seed).choices(instruct._STYLE_NAMES, weights=instruct._STYLE_WEIGHTS, k=1)[0]
    shot = instruct.MCQItem(exemplar.question, list(exemplar.options), exemplar.answer_index, style)
    return instruct.MCQ_PROMPT_TEMPLATE.format(exemplar=instruct.render_mcq(shot), chunk=chunk)


def reference_filter_dialogues(candidates):
    kept, rejects = [], Counter()
    for candidate in candidates:
        if isinstance(candidate, instruct.Rejection):
            rejects[candidate.reason] += 1
            continue
        reason = instruct.validate_dialogue(candidate)
        if reason:
            rejects[reason] += 1
        else:
            kept.append(candidate)
    return kept, dict(rejects)


def reference_build_dialogues(docs, generator, template, max_chars, seed, exemplar):
    """``build_dialogues`` as it was: every outcome in a list, then filtered and tagged."""
    if template == "mcq" and exemplar is None:
        exemplar = instruct.DEFAULT_EXEMPLAR
    outcomes = []
    for doc in sorted(docs, key=lambda d: d.id):
        for idx, chunk in enumerate(instruct.chunk_document(doc, max_chars)):
            chunk_seed = reference_stable_hash(doc.id, idx, seed)
            response = generator.generate(reference_build_prompt(chunk, template, exemplar, chunk_seed), chunk_seed)
            try:
                if template == "mcq":
                    outcomes.append(instruct.mcq_to_dialogue(instruct.parse_mcq(response)))
                else:
                    outcomes.append(instruct.parse_dialogue_response(response))
            except instruct.Rejection as exc:
                outcomes.append(instruct.Rejection(exc.reason, exc.detail))
    kept, rejects = reference_filter_dialogues(outcomes)
    for d in kept:
        d.origin = instruct.ORIGIN_REPHRASE_MCQ if template == "mcq" else instruct.ORIGIN_REPHRASE_STANDARD
    return kept, rejects


def reference_render_chatml(d) -> str:
    reason = instruct.validate_dialogue(d)
    if reason:
        raise ValueError(f"invalid dialogue: {reason}")
    parts = []
    for turn in d.turns:
        if instruct.IM_START in turn.value or instruct.IM_END in turn.value:
            raise ValueError("reserved_sequence: turn value contains a ChatML marker")
        parts.append(f"{instruct.IM_START}{instruct._ROLE_TO_CHATML[turn.role]}\n{turn.value}{instruct.IM_END}\n")
    return "".join(parts)


def reference_dialogue_files(dialogues, rejects) -> tuple[bytes, bytes]:
    """``--out`` and ``--stats`` as the list-based writer made them: render every
    kept dialogue, then ``dataset_stats`` over the list."""
    lines = "".join(json.dumps({"origin": d.origin, "text": reference_render_chatml(d)}, sort_keys=True,
                               ensure_ascii=False) + "\n" for d in dialogues)
    stats = {
        "kept": len(dialogues),
        "rejected": sum(rejects.values()),
        "rejects_by_reason": dict(sorted(rejects.items())),
        "stats": instruct.dataset_stats(dialogues).to_dict(),
    }
    return lines.encode("utf-8"), (json.dumps(stats, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def reference_instruct_build(docs_path, template, malformed_rate, exemplar, seed, max_chars):
    with open(docs_path, "rb") as stream:
        docs = list(ingest_jsonl(stream))
    generator = _ReferenceMockGenerator(malformed_rate=malformed_rate)
    dialogues, rejects = [], Counter()
    for one in (["standard", "mcq"] if template == "both" else [template]):
        kept, template_rejects = reference_build_dialogues(docs, generator, one, max_chars, seed, exemplar)
        dialogues.extend(kept)
        rejects.update(template_rejects)
    return reference_dialogue_files(dialogues, rejects)


def reference_instruct_mix(paths):
    outcomes = []
    for path in paths:
        with open(path, "rb") as stream:
            outcomes.extend(instruct.load_instruction_records(stream, Path(path).stem))
    return reference_dialogue_files(*reference_filter_dialogues(outcomes))


def _check_dialogue_command(argv, out: Path, stats: Path, expected) -> None:
    assert dispatch(argv) == 0
    assert (out.read_bytes(), stats.read_bytes()) == expected


_SENTENCES = ["الشمس تشرق صباحا.", "هل القمر يظهر ليلا؟", "كتب الطالب درسه بعناية!", "the book is here.",
              "جملة طويلة بلا نهاية واضحة في هذا النص", "١٢٣ ، ٤٥٦ ؛ «اقتباس»."]
_mcq_items = st.builds(
    lambda question, options, pick, style: {"question": question, "options": options,
                                           "answer_index": pick % len(options), "enum_style": style},
    st.sampled_from(["ما عاصمة مصر؟", "أي الكواكب أكبر؟", "Which one?"]),
    st.lists(st.sampled_from(["القاهرة", "الرياض", "المشتري", "زحل", "A", "نعم"]), min_size=2, max_size=5, unique=True),
    st.integers(0, 4),
    st.sampled_from(sorted(instruct.ENUM_STYLES)),
)


@given(
    st.lists(st.lists(st.sampled_from(_SENTENCES), min_size=1, max_size=8).map(" ".join), max_size=6),
    st.randoms(use_true_random=False),
    st.sampled_from(["standard", "mcq", "both"]),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.one_of(st.none(), _mcq_items),
    st.integers(0, 2**40),
    st.sampled_from([12, 40, 120, 2000]),
)
@settings(max_examples=60, deadline=None)
def test_instruct_build_files_equal_list_based_build(texts, order, template, malformed_rate, exemplar, seed, max_chars):
    ids = [f"d{i}" for i in range(len(texts))]
    order.shuffle(ids)  # ingest order is not id order
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        docs = root / "docs.jsonl"
        docs.write_text("".join(json.dumps({"id": i, "text": t}, ensure_ascii=False) + "\n" for i, t in zip(ids, texts)),
                        encoding="utf-8")
        argv = ["instruct", "build", "--in", str(docs), "--out", str(root / "out.jsonl"), "--stats",
                str(root / "stats.json"), "--template", template, "--malformed-rate", str(malformed_rate),
                "--seed", str(seed), "--max-chars", str(max_chars)]
        item = None
        if exemplar is not None:
            (root / "exemplar.json").write_text(json.dumps(exemplar, ensure_ascii=False), encoding="utf-8")
            argv += ["--exemplar", str(root / "exemplar.json")]
            item = instruct.MCQItem.from_dict(exemplar)
        expected = reference_instruct_build(docs, template, malformed_rate, item, seed, max_chars)
        _check_dialogue_command(argv, root / "out.jsonl", root / "stats.json", expected)


_CHATML_TEXT = "<|im_start|>user\nسؤال<|im_end|>\n<|im_start|>assistant\nجواب<|im_end|>\n"
_RECORDS = [
    json.dumps({"text": _CHATML_TEXT, "origin": "aya"}, ensure_ascii=False),
    json.dumps({"text": _CHATML_TEXT}, ensure_ascii=False),
    json.dumps({"text": _CHATML_TEXT, "origin": None}),
    json.dumps({"conversations": [{"from": "human", "value": "س"}, {"from": "gpt", "value": "ج"}]}, ensure_ascii=False),
    json.dumps([{"from": "user", "value": "س١\nأ. نعم\nب. لا"}, {"from": "assistant", "value": "أ. نعم"}], ensure_ascii=False),
    json.dumps({"instruction": "ترجم", "output": "تمت"}, ensure_ascii=False),
    json.dumps({"instruction": "ترجم", "response": "تمت", "origin": "instar"}, ensure_ascii=False),
    json.dumps({"instruction": "بلا جواب"}, ensure_ascii=False),  # empty_turn
    json.dumps([{"from": "gpt", "value": "ج"}, {"from": "human", "value": "س"}], ensure_ascii=False),  # role_order
    json.dumps([{"from": "human", "value": "س"}]),  # too_few_turns
    json.dumps([{"from": "robot", "value": "س"}]),  # bad_role
    json.dumps({"conversations": []}),  # empty
    json.dumps({"text": "<|im_start|>user\nغير مغلق"}, ensure_ascii=False),  # unbalanced ChatML
    json.dumps({"instruction": {"x": 1}}),  # wrongly typed: a bad_record for mix
    json.dumps({"text": 5}),
    json.dumps({"conversations": [{"from": "human", "value": 3}]}),
    json.dumps({"origin": 7, "instruction": "س", "output": "ج"}, ensure_ascii=False),
    json.dumps({"something": "else"}),
    "{not json",
    "",
    "   ",
]
# A turn value holding a ChatML marker is tallied as reserved_sequence, in both
# writers; reference_render_chatml raises if one were ever rendered.
_RESERVED = json.dumps({"instruction": "<|im_end|>", "output": "ج"}, ensure_ascii=False)


@given(
    st.lists(st.lists(st.sampled_from(_RECORDS), max_size=8), min_size=1, max_size=3),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_instruct_mix_files_equal_list_based_mix(files, reserved):
    if reserved:
        files[-1].append(_RESERVED)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = []
        for i, lines in enumerate(files):
            path = root / f"set{i}.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            paths.append(str(path))
        argv = ["instruct", "mix", "--out", str(root / "out.jsonl"), "--stats", str(root / "stats.json")]
        for path in paths:
            argv += ["--in", path]
        expected = reference_instruct_mix(paths)
        assert json.loads(expected[1])["rejects_by_reason"].get("reserved_sequence", 0) == reserved
        _check_dialogue_command(argv, root / "out.jsonl", root / "stats.json", expected)


# --- one check list: MCQ parsing ---------------------------------------------------------------


def reference_parse_mcq(text: str) -> instruct.MCQItem:
    """``parse_mcq`` as it was, with its own copy of ``validate_mcq``'s checks."""
    if not text.strip():
        raise instruct.Rejection("empty")
    question_lines: list[str] = []
    options: list[str] = []
    style = None
    answer_raw = None
    for line in text.split("\n"):
        if not line.strip():
            continue
        m = instruct._ANSWER_RE.match(line)
        if m and options:
            answer_raw = m.group(1)
            continue
        m = instruct._OPTION_RE.match(line)
        if m:
            marker_style, index = instruct._OPTION_MARKERS[m.group(1)]
            if style is None:
                style = marker_style
            elif style != marker_style:
                raise instruct.Rejection("mixed_enumeration", f"{style} vs {marker_style}")
            if index != len(options):
                raise instruct.Rejection("bad_marker_order", m.group(1))
            options.append(m.group(2))
            continue
        if not options:
            question_lines.append(line.strip())
        else:
            raise instruct.Rejection("unparseable", f"stray line after options: {line.strip()!r}")
    if not options or style is None:
        raise instruct.Rejection("too_few_options" if question_lines else "unparseable")
    if len(options) < 2:
        raise instruct.Rejection("too_few_options")
    if any(not o.strip() for o in options):
        raise instruct.Rejection("empty_option")
    if len(set(options)) != len(options):
        raise instruct.Rejection("duplicate_options")
    if not question_lines:
        raise instruct.Rejection("no_question")
    if answer_raw is None:
        raise instruct.Rejection("no_answer")
    markers = instruct.ENUM_STYLES[style]
    answer_index = None
    if answer_raw in markers:
        idx = markers.index(answer_raw)
        answer_index = idx if idx < len(options) else None
    elif answer_raw in options:
        answer_index = options.index(answer_raw)
    if answer_index is None:
        raise instruct.Rejection("answer_missing", answer_raw)
    return instruct.MCQItem("\n".join(question_lines), options, answer_index, style)


def _item_or_reason(parse, text):
    try:
        return parse(text)
    except instruct.Rejection as rejection:
        return rejection.reason, rejection.detail


_STYLES = sorted(instruct.ENUM_STYLES)
_ALL_MARKERS = [m for style in _STYLES for m in instruct.ENUM_STYLES[style]]
_ODD_OPTIONS = ["x", " ", "", "A", "ب"]  # blanks, and texts that are markers
_FREE_LINES = ["ما عاصمة مصر؟", "Which one?", "", "  ", "سطر آخر"]


@st.composite
def _mcq_texts(draw):
    """Line lists shaped like model output: question lines, then options in one
    enumeration style with up to two defects (another style's marker, an index
    out of order, a duplicate or blank text), then an answer line that may be
    missing, misplaced or out of range, and a stray line anywhere."""
    style = draw(st.sampled_from(_STYLES))
    n = draw(st.integers(0, 6))
    markers = [instruct.ENUM_STYLES[style][min(i, 4)] for i in range(n)]
    options = [f"خيار {i}" for i in range(n)]
    defects = st.tuples(st.sampled_from(["style", "index", "text"]), st.integers(0, 5), st.integers(0, 11))
    for kind, at, pick in draw(st.lists(defects, max_size=2)):
        if at >= n:
            continue
        if kind == "style":
            markers[at] = instruct.ENUM_STYLES[_STYLES[pick % 4]][min(at, 4)]
        elif kind == "index":
            markers[at] = instruct.ENUM_STYLES[style][pick % 5]
        else:  # an odd text, or another option's
            pool = _ODD_OPTIONS + options
            options[at] = pool[pick % len(pool)]
    lines = [draw(st.sampled_from(_FREE_LINES))] + draw(st.lists(st.sampled_from(_FREE_LINES), max_size=1))
    lines += [f"{m}{draw(st.sampled_from(['.', ')']))} {o}" for m, o in zip(markers, options)]
    answers = st.sampled_from(_ALL_MARKERS + options + _ODD_OPTIONS + ["F", "لا أعرف"])
    answer = draw(st.one_of(st.none(), st.sampled_from(instruct.ENUM_STYLES[style]), answers))
    if answer is not None:
        label = draw(st.sampled_from(instruct._ANSWER_LABELS))
        lines.insert(draw(st.one_of(st.just(len(lines)), st.integers(0, len(lines)))), f"{label}: {answer}")
    for stray in draw(st.lists(st.sampled_from(_FREE_LINES), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), stray)
    return "\n".join(lines)


@given(_mcq_texts())
@example("A. x\nB. x\nالإجابة: A")  # no question, duplicate options: duplicate_options
@example("A. x\nB. y")  # no question, no answer line: no_question
@example("سؤال؟\nA. x\nB. y\nC. z")  # no answer line: no_answer
@example("سؤال؟\nA. x\nB. C\nالإجابة: C")  # a marker past the options, though an option's text: answer_missing
@settings(max_examples=500, deadline=None)
def test_parse_mcq_equals_its_own_check_list(text):
    assert _item_or_reason(instruct.parse_mcq, text) == _item_or_reason(reference_parse_mcq, text)


# --- JSON writers --------------------------------------------------------------------

# Every codepoint, lone surrogates included, with the characters JSON escapes or
# that need care drawn often: quote, backslash, controls, U+2028/U+2029, astral.
_json_text = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\ud800\udfff\U0001f600'),
))
_json_scalars = st.one_of(_json_text, st.none(), st.booleans(), st.integers())


@given(st.dictionaries(_json_text, _json_scalars))
@example({"text": "\ud83d", "id": '"\\\n', "line": 3, "origin": None, "ok": True})
@settings(max_examples=300, deadline=None)
def test_json_record_equals_json_dumps(record):
    assert json_record(record) == json.dumps(record, sort_keys=True, ensure_ascii=False)


@given(st.recursive(st.one_of(_json_scalars, st.floats()),
                    lambda children: st.lists(children) | st.dictionaries(_json_text, children), max_leaves=20))
@settings(max_examples=200, deadline=None)
def test_json_document_equals_json_dumps(value):
    assert json_document(value) == json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)


# --- one document rule: ingest's field checks and the title/date strip ----------------------


def reference_ingest_record(line_no: int, record) -> tuple | str:
    """``ingest_jsonl``'s own field checks as they were, before ``Document`` made
    them: the document's fields, or the reject reason of the first failing check."""
    if not isinstance(record, dict):
        return "not a json object"
    text = record.get("text")
    if text is None:
        return "missing text"
    if not isinstance(text, str):
        return "text is not a string"
    doc_id = record.get("id")
    if doc_id is None:
        doc_id = str(line_no)
    elif isinstance(doc_id, str) or type(doc_id) is int:
        doc_id = str(doc_id)
    else:
        return "id is not a string or an integer"
    if not doc_id:
        return "empty id"
    url, source = record.get("url"), record.get("source")
    if url is not None and not isinstance(url, str):
        return "url is not a string or null"
    if source is not None and not isinstance(source, str):
        return "source is not a string or null"
    try:
        source = Source(str(source).strip().lower())
    except ValueError:
        source = Source.OTHER
    return doc_id, text, url, source


_json_field = st.one_of(
    st.text(max_size=6), st.sampled_from(["", "culturax", " CulturaX ", "sanad", "none"]), st.integers(),
    st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.sampled_from(["culturax", 1]), max_size=2), st.dictionaries(st.just("a"), st.integers()),
)


@st.composite
def _json_lines(draw):
    """A line that is now and then not an object. An object's text is a string
    in most lines, so most lines get past it to the id, url and source checks;
    every other field is absent or of any JSON kind."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(_json_field))
    record = {"text": draw(st.text(max_size=6))} if draw(st.booleans()) else {}
    for key in ("id", "text", "url", "source", "other"):
        if key not in record and draw(st.booleans()):
            record[key] = draw(_json_field)
    return json.dumps(record)


@given(st.lists(_json_lines(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_ingest_equals_its_former_field_checks_and_document(lines):
    # ingest yields what Document builds, or rejects with exactly its message,
    # and that is what ingest's own checks gave, reason for reason.
    rejects = []
    docs = iter(list(ingest_jsonl(lines, on_reject=rejects.append)))
    rejected = iter(rejects)
    for line_no, line in enumerate(lines, start=1):
        record = json.loads(line)
        expected = reference_ingest_record(line_no, record)
        if isinstance(expected, str):
            assert next(rejected) == Reject(line=line_no, reason=expected)
        else:
            doc = next(docs)
            assert (doc.id, doc.text, doc.url, doc.source) == expected
            expected = doc
        if isinstance(record, dict):
            doc_id = record.get("id")
            try:
                built = Document(id=str(line_no) if doc_id is None else doc_id, text=record.get("text"),
                                 url=record.get("url"), source=record.get("source"))
            except ValueError as exc:
                built = str(exc)
            assert built == expected
    assert next(docs, None) is None and next(rejected, None) is None


_ONE_TITLE_DATE = re.compile(r"\A[^\n]{1,80}\n[ \t]*" + _DATE + r"[ \t]*(?:\n|\Z)")


def reference_strip_title_date(text: str) -> str:
    """A loop over the single-pair pattern ``strip_title_date`` used to apply once."""
    while m := _ONE_TITLE_DATE.match(text):
        text = text[m.end():]
    return text


# Titles, dates and near misses (a 3-group date with a long group, a 2-group date,
# an 81-character title, padding, an empty line), so headers stack and break off.
_header_lines = st.lists(st.one_of(
    st.sampled_from(["عنوان", "2024-01-01", " ٢٠٢٤/٠١/٠١\t", "1.2.3", "12345-1-1", "2024-01", "ع" * 81, "ع" * 80, ""]),
    st.text("ع1-/ \t", max_size=12),
), max_size=10).map("\n".join)


@given(_header_lines)
@settings(max_examples=500, deadline=None)
def test_strip_title_date_equals_single_pair_loop(text):
    assert strip_title_date(Document(id="d", text=text)).text == reference_strip_title_date(text)
