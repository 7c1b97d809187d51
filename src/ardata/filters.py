"""Document-quality filtering pipeline with tabular before/after accounting.

Rules run in a fixed order (safety, ads, lines, chars, gopher) and the first
failing rule is the one a removal is attributed to, which keeps the report
arithmetic exact: docs_in == kept + sum of per-rule removals. All rules are
pure functions of (document, config), so shards can be filtered in parallel
and their reports merged in any order.

The facts several rules read (casefolded text, non-empty lines, the
characters outside the always-permissible set) are computed at most once per
document, on first use, and shared by the rules ``first_failure`` runs; a
document removed by an early rule never pays for a later rule's facts.

Boundary semantics, fixed by the config defaults:
  * safety: >= unsafe_min_hits distinct unsafe phrases removes; a CulturaX
    document without a URL is removed (safety applies only to CulturaX).
  * ads: more than ad_max_hits total ad-phrase occurrences removes.
  * lines: fewer than min_lines non-empty lines removes; so does a document
    where more than short_line_frac_max of lines have fewer than
    short_line_word_max words; with no lines at all (min_lines 0) there is no
    short-line fraction, and the document passes.
  * chars: less than permissible_char_min_frac permissible characters
    removes (equality keeps).
  * gopher: word-count / word-length / symbol / alphabetic-word /
    stop-word / punctuation heuristics. With no words (min_words 0) the
    per-word ratios (length, symbols, alphabetic words) pass; the stop-word
    and punctuation checks still run.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from ._schema import BOOLEAN, COUNT, COUNTS, INTEGER, NUMBER, OBJECT, STRING, STRINGS, check, get_field, json_document
from .corpus import Document, Source, char_class, normalize_chars, strip_title_date
from .tokenization import TokenizerAdapter, shared_words


class Rule(str, Enum):
    SAFETY = "safety"
    ADS = "ads"
    LINES = "lines"
    CHARS = "chars"
    GOPHER = "gopher"
    NONE = "none"


RULE_ORDER: tuple[Rule, ...] = (Rule.SAFETY, Rule.ADS, Rule.LINES, Rule.CHARS, Rule.GOPHER)
_RULE_NAMES = tuple(r.value for r in RULE_ORDER)  # every report's "rules"

# ~50 high-frequency Modern Standard Arabic function words.
ARABIC_STOP_WORDS: tuple[str, ...] = (
    "في", "من", "على", "إلى", "عن", "أن", "إن", "كان", "كانت", "هذا",
    "هذه", "ذلك", "تلك", "التي", "الذي", "الذين", "ما", "لا", "لم", "لن",
    "قد", "كل", "بعض", "غير", "بين", "عند", "حتى", "إذا", "لكن", "ثم",
    "أو", "و", "هو", "هي", "هم", "نحن", "أنا", "أنت", "مع", "بعد",
    "قبل", "حول", "دون", "عبر", "لدى", "منذ", "أي", "كما", "ليس", "هناك",
)

DEFAULT_PERMISSIBLE_PUNCTUATION = ".,;:!?()[]{}\"'`%&@#*+-=/\\<>|~^$_،؛؟«»…—–"

# Gopher-style "symbols" counted against the word count.
DEFAULT_SYMBOLS: tuple[str, ...] = ("#", "…", "...")


def _check_values(cfg, fractions: tuple[str, ...], non_negative: tuple[str, ...], no_empty: tuple[str, ...]) -> None:
    """Refuse, naming it, a field of ``fractions`` outside [0, 1], ``non_negative`` below 0 or ``no_empty`` with ""."""
    for name in fractions:
        if not 0.0 <= getattr(cfg, name) <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {getattr(cfg, name)}")
    for name in non_negative:
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(cfg, name)}")
    for name in no_empty:
        if "" in getattr(cfg, name):
            raise ValueError(f"{name} must not contain empty strings")


@dataclass(frozen=True)
class GopherConfig:
    min_words: int = 50
    max_words: int = 100_000
    min_mean_word_len: float = 2.0
    max_mean_word_len: float = 10.0
    max_symbol_to_word_ratio: float = 0.1
    min_alpha_word_frac: float = 0.8
    stop_words: tuple[str, ...] = ARABIC_STOP_WORDS
    min_stop_words: int = 2
    max_punct_char_frac: float = 0.2
    symbols: tuple[str, ...] = DEFAULT_SYMBOLS

    def __post_init__(self):
        _check_values(
            self, ("min_alpha_word_frac", "max_punct_char_frac"),
            ("min_words", "min_stop_words", "min_mean_word_len", "max_symbol_to_word_ratio"), ("symbols",),
        )
        if self.min_words > self.max_words:
            raise ValueError("min_words must be <= max_words")
        if self.min_mean_word_len > self.max_mean_word_len:
            raise ValueError("min_mean_word_len must be <= max_mean_word_len")


@dataclass(frozen=True)
class FilterConfig:
    unsafe_phrases: tuple[str, ...] = ()
    unsafe_min_hits: int = 3
    require_url: bool = True
    ad_phrases: tuple[str, ...] = ()
    ad_max_hits: int = 5
    min_lines: int = 4
    short_line_word_max: int = 3
    short_line_frac_max: float = 0.5
    permissible_char_min_frac: float = 0.95
    permissible_punctuation: str = DEFAULT_PERMISSIBLE_PUNCTUATION
    gopher: GopherConfig = field(default_factory=GopherConfig)

    def __post_init__(self):
        _check_values(
            self, ("short_line_frac_max", "permissible_char_min_frac"),
            ("unsafe_min_hits", "ad_max_hits", "min_lines", "short_line_word_max"), ("unsafe_phrases", "ad_phrases"),
        )

    @cached_property
    def _folded_unsafe_phrases(self) -> tuple[str, ...]:
        return tuple(p.casefold() for p in self.unsafe_phrases)

    @cached_property
    def _folded_ad_phrases(self) -> tuple[str, ...]:
        return tuple(p.casefold() for p in self.ad_phrases)

    @classmethod
    def from_dict(cls, data) -> "FilterConfig":
        """Build from a parsed ``filters.json``.

        An unknown key or a wrongly typed value, at top level or under
        ``gopher``, raises ValueError naming the key.
        """
        kwargs = _checked_fields(cls, check(data, OBJECT, "filter config"), "")
        if "gopher" in kwargs:
            kwargs["gopher"] = GopherConfig(**_checked_fields(GopherConfig, kwargs["gopher"], "gopher."))
        return cls(**kwargs)


# The kind of JSON value accepted for a config field, keyed by the type of its default.
_KINDS = {bool: BOOLEAN, int: INTEGER, float: NUMBER, str: STRING, tuple: STRINGS, GopherConfig: OBJECT}


def _checked_fields(cls, data: dict, prefix: str) -> dict:
    """``data`` as keyword arguments for ``cls``: each key must be a field and
    each value of its default's kind; lists become tuples."""
    defaults = {f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = prefix + key
        if key not in defaults:
            raise ValueError(f"unknown filter config key {name!r}")
        kind = type(defaults[key])
        check(value, _KINDS[kind], f"filter config key {name!r}")
        kwargs[key] = tuple(value) if kind is tuple else value
    return kwargs


@dataclass(frozen=True)
class FilterDecision:
    rule: Rule
    detail: str = ""

    @property
    def keep(self) -> bool:
        return self.rule is Rule.NONE


KEEP = FilterDecision(Rule.NONE)


def _is_permissible(ch: str, punctuation: str) -> bool:
    if ch.isspace() or ch in punctuation:
        return True
    if ch.isascii():
        return ch.isalnum()
    cp = ord(ch)
    if 0x0600 <= cp <= 0x06FF or 0x0750 <= cp <= 0x077F:
        cat = unicodedata.category(ch)
        return cat.startswith("L") or cat == "Mn" or cat == "Nd"
    return False


_ARABIC_LETTERS = "".join(
    chr(cp)
    for lo, hi in ((0x0600, 0x06FF), (0x0750, 0x077F))
    for cp in range(lo, hi + 1)
    if unicodedata.category(chr(cp)).startswith("L")
)

# A word is alphabetic when it holds an Arabic or ASCII letter, so the alphabetic
# words are all words less those with no letter, which are fewer. Each match is one
# such word and the whitespace before it (``\s`` is exactly what ``str.split``
# breaks on); a space put in front of the text gives its first word one too.
_NON_ALPHA_WORD = re.compile(r"\s[^\sA-Za-z" + _ARABIC_LETTERS + r"]+(?!\S)")

# Characters that are permissible whatever the configured punctuation, and are
# not punctuation themselves, taken from ASCII, the two Arabic blocks and the
# non-ASCII ``str.isspace`` characters. Every character outside this set is
# checked one by one with ``_is_permissible`` and ``unicodedata.category``, so
# the set only needs to be a subset of those characters, never complete.
_PLAIN_CANDIDATES = (
    *range(0x80), *range(0x0600, 0x0700), *range(0x0750, 0x0780),
    0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
)
_NOT_PLAIN = re.compile(char_class(
    (cp for cp in _PLAIN_CANDIDATES
     if _is_permissible(chr(cp), "") and not unicodedata.category(chr(cp)).startswith("P")),
    negate=True,
))


class _Features:
    """Facts about one document's text that several rules read, each computed
    on first use and kept for the rules after it."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def folded(self) -> str:
        return self.text.casefold()

    @cached_property
    def lines(self) -> list[str]:
        """The non-empty lines, stripped."""
        return [line for line in (raw.strip() for raw in self.text.split("\n")) if line]

    @cached_property
    def not_plain(self) -> Counter[str]:
        """Occurrences of each character ``_NOT_PLAIN`` matches: the only
        candidates for a non-permissible or a punctuation character."""
        return Counter(_NOT_PLAIN.findall(self.text))


def _check_safety(doc: Document, cfg: FilterConfig, features: _Features) -> str | None:
    if doc.source != Source.CULTURAX:
        return None
    if cfg.require_url and not doc.url:
        return "missing url"
    if cfg.unsafe_phrases:
        # Distinct phrases found; casefolding makes Latin phrases match in any case, Arabic exactly.
        hits = sum(map(features.folded.__contains__, cfg._folded_unsafe_phrases))
        if hits >= cfg.unsafe_min_hits:
            return f"{hits} unsafe phrase hits (>= {cfg.unsafe_min_hits})"
    return None


def _check_ads(doc: Document, cfg: FilterConfig, features: _Features) -> str | None:
    if not cfg.ad_phrases:
        return None
    hits = sum(map(features.folded.count, cfg._folded_ad_phrases))  # total occurrences
    if hits > cfg.ad_max_hits:
        return f"{hits} ad phrase hits (> {cfg.ad_max_hits})"
    return None


def _check_lines(doc: Document, cfg: FilterConfig, features: _Features) -> str | None:
    lines = features.lines
    if len(lines) < cfg.min_lines:
        return f"{len(lines)} lines (< {cfg.min_lines})"
    # With no lines (min_lines 0) there is no short-line fraction to exceed.
    if not lines:
        return None
    # A line is short with fewer than k words, so k - 1 splits tell. Every line
    # holds a word, so none is short when k <= 1, and all are when k > len(text).
    k = min(cfg.short_line_word_max, len(doc.text) + 1)
    short = sum(1 for line in lines if len(line.split(None, k - 1)) < k) if k > 1 else 0
    if short / len(lines) > cfg.short_line_frac_max:
        return f"{short}/{len(lines)} short lines (> {cfg.short_line_frac_max:.0%})"
    return None


def _check_chars(doc: Document, cfg: FilterConfig, features: _Features) -> str | None:
    total = len(doc.text)
    if total == 0:
        return None
    banned = sum(n for ch, n in features.not_plain.items() if not _is_permissible(ch, cfg.permissible_punctuation))
    permissible = total - banned
    if permissible / total < cfg.permissible_char_min_frac:
        return f"{permissible}/{total} permissible chars (< {cfg.permissible_char_min_frac:.0%})"
    return None


def _check_gopher(doc: Document, cfg: FilterConfig, features: _Features) -> str | None:
    g = cfg.gopher
    words = shared_words(doc.text)
    n = len(words)
    if n < g.min_words:
        return f"word count {n} < {g.min_words}"
    if n > g.max_words:
        return f"word count {n} > {g.max_words}"
    # The per-word ratios measure nothing without words (min_words 0).
    if n:
        mean_len = sum(map(len, words)) / n
        if mean_len < g.min_mean_word_len:
            return f"mean word length {mean_len:.2f} < {g.min_mean_word_len}"
        if mean_len > g.max_mean_word_len:
            return f"mean word length {mean_len:.2f} > {g.max_mean_word_len}"
        symbols = sum(doc.text.count(s) for s in g.symbols)
        if symbols / n > g.max_symbol_to_word_ratio:
            return f"symbol-to-word ratio {symbols}/{n} > {g.max_symbol_to_word_ratio}"
        alpha = n - len(_NON_ALPHA_WORD.findall(" " + doc.text))
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


_CHECKS = {
    Rule.SAFETY: _check_safety,
    Rule.ADS: _check_ads,
    Rule.LINES: _check_lines,
    Rule.CHARS: _check_chars,
    Rule.GOPHER: _check_gopher,
}


def apply_filter(doc: Document, rule: Rule, cfg: FilterConfig) -> FilterDecision:
    """Verdict of a single rule on an already-normalized document."""
    detail = _CHECKS[rule](doc, cfg, _Features(doc.text))
    if detail is None:
        return KEEP
    return FilterDecision(rule, detail)


def first_failure(doc: Document, cfg: FilterConfig) -> FilterDecision:
    """Run rules in pipeline order; the first failing rule gets the attribution.

    The rules share one ``_Features`` of the document, so each fact about
    its text is computed at most once.
    """
    features = _Features(doc.text)
    for rule in RULE_ORDER:
        detail = _CHECKS[rule](doc, cfg, features)
        if detail is not None:
            return FilterDecision(rule, detail)
    return KEEP


# --- Reporting ---------------------------------------------------------------


@dataclass
class SourceCounters:
    docs_in: int = 0
    tokens_in: int = 0
    docs_removed: dict[str, int] = field(default_factory=dict)
    tokens_removed: dict[str, int] = field(default_factory=dict)

    @property
    def docs_removed_total(self) -> int:
        return sum(self.docs_removed.values())

    @property
    def tokens_removed_total(self) -> int:
        return sum(self.tokens_removed.values())

    @property
    def docs_kept(self) -> int:
        return self.docs_in - self.docs_removed_total

    @property
    def tokens_kept(self) -> int:
        return self.tokens_in - self.tokens_removed_total

    def merge(self, other: "SourceCounters") -> None:
        """Add ``other``'s counts to these, rule by rule."""
        self.docs_in += other.docs_in
        self.tokens_in += other.tokens_in
        for rule, count in other.docs_removed.items():
            self.docs_removed[rule] = self.docs_removed.get(rule, 0) + count
        for rule, count in other.tokens_removed.items():
            self.tokens_removed[rule] = self.tokens_removed.get(rule, 0) + count


@dataclass
class CleaningReport:
    """Per-source, per-rule removal counters in the shape of a before/after table.

    merge() is counterwise addition (associative and commutative), so sharded
    pipeline runs aggregate to exactly the single-shard report.
    """

    sources: dict[str, SourceCounters] = field(default_factory=dict)

    def record(self, source: Source, tokens: int, decision: FilterDecision) -> None:
        counters = self.sources.setdefault(source.value, SourceCounters())
        counters.docs_in += 1
        counters.tokens_in += tokens
        if not decision.keep:
            rule = decision.rule.value
            counters.docs_removed[rule] = counters.docs_removed.get(rule, 0) + 1
            counters.tokens_removed[rule] = counters.tokens_removed.get(rule, 0) + tokens

    def totals(self) -> SourceCounters:
        total = SourceCounters()
        for counters in self.sources.values():
            total.merge(counters)
        return total

    def to_dict(self) -> dict:
        out: dict = {"rules": list(_RULE_NAMES), "sources": {}}
        for name, counters in self.sources.items():
            out["sources"][name] = {
                "docs_in": counters.docs_in,
                "tokens_in": counters.tokens_in,
                "docs_removed": dict(counters.docs_removed),
                "tokens_removed": dict(counters.tokens_removed),
                "docs_kept": counters.docs_kept,
                "tokens_kept": counters.tokens_kept,
            }
        return out

    def to_json(self) -> str:
        return json_document(self.to_dict())

    @classmethod
    def from_dict(cls, data) -> "CleaningReport":
        """Rebuild a report from ``to_dict()`` output; a schema violation raises
        ValueError naming the source and key. ``rules`` must name the rules of
        ``RULE_ORDER`` in order, and a source must be one that ``record`` can
        build: its removals are counted under those rules, the same rules in
        ``docs_removed`` and ``tokens_removed``, and neither removes more than
        came in."""
        rules = get_field(check(data, OBJECT, "report"), "rules", STRINGS, "report ")
        if tuple(rules) != _RULE_NAMES:
            raise ValueError(f"report 'rules' must be {list(_RULE_NAMES)}, got {rules}")
        report = cls()
        for name, raw in get_field(data, "sources", OBJECT, "report ").items():
            where = f"source {name!r}"
            check(raw, OBJECT, where)
            counters = report.sources[name] = SourceCounters(
                docs_in=get_field(raw, "docs_in", COUNT, where + ": "),
                tokens_in=get_field(raw, "tokens_in", COUNT, where + ": "),
                docs_removed=dict(get_field(raw, "docs_removed", COUNTS, where + ": ")),
                tokens_removed=dict(get_field(raw, "tokens_removed", COUNTS, where + ": ")),
            )
            if counters.docs_removed.keys() != counters.tokens_removed.keys():
                raise ValueError(f"{where}: 'docs_removed' and 'tokens_removed' name different rules")
            unknown = sorted(counters.docs_removed.keys() - set(_RULE_NAMES))
            if unknown:
                raise ValueError(f"{where}: removals counted under rules not in 'rules': {unknown}")
            for kind, kept in (("docs", counters.docs_kept), ("tokens", counters.tokens_kept)):
                if kept < 0:
                    raise ValueError(f"{where}: '{kind}_removed' sums to more than '{kind}_in'")
        return report

    def csv_rows(self) -> list[list]:
        """Tabular summary: tokens/docs before and after, kept percentages."""
        rows: list[list] = [[
            "dataset", "tokens_before", "docs_before",
            "tokens_after", "docs_after", "tokens_kept_pct", "docs_kept_pct",
        ]]
        entries = list(sorted(self.sources.items()))
        if len(entries) > 1:
            entries.append(("total", self.totals()))
        for name, c in entries:
            rows.append([
                name, c.tokens_in, c.docs_in, c.tokens_kept, c.docs_kept,
                _pct(c.tokens_kept, c.tokens_in), _pct(c.docs_kept, c.docs_in),
            ])
        return rows


def _pct(part: int, whole: int) -> str:
    if whole == 0:
        return ""
    return f"{100.0 * part / whole:.1f}"


def merge_reports(a: CleaningReport, b: CleaningReport) -> CleaningReport:
    merged = CleaningReport()
    for report in (a, b):
        for name, counters in report.sources.items():
            merged.sources.setdefault(name, SourceCounters()).merge(counters)
    return merged


# --- Pipeline ----------------------------------------------------------------


def iter_pipeline(
    docs: Iterable[Document],
    cfg: FilterConfig,
    tok: TokenizerAdapter,
    report: CleaningReport,
) -> Iterator[Document]:
    """Streaming clean: normalize chars and strip title/date (the default
    map and patterns), filter, account.

    Kept documents are yielded with the cleanup applied; ``report`` is
    updated in place as documents flow through. Token counts are
    ``tok.count_tokens`` of the cleaned text, so sharded runs merge to
    identical numbers; a built-in tokenizer reuses the words ``gopher``
    split (``tokenization.shared_words``).
    """
    for doc in docs:
        text = normalize_chars(doc.text)
        cleaned = strip_title_date(doc if text is doc.text else replace(doc, text=text))
        decision = first_failure(cleaned, cfg)
        report.record(cleaned.source, tok.count_tokens(cleaned.text), decision)
        if decision.keep:
            yield cleaned


def run_pipeline(
    docs: Iterable[Document],
    cfg: FilterConfig,
    tok: TokenizerAdapter,
) -> tuple[list[Document], CleaningReport]:
    report = CleaningReport()
    kept = list(iter_pipeline(docs, cfg, tok, report))
    return kept, report
