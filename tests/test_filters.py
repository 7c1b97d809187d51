import functools
import json
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ardata import filters, tokenization
from ardata.corpus import Document, Source, normalize_chars, strip_title_date
from ardata.filters import (
    CleaningReport,
    FilterConfig,
    GopherConfig,
    ReportSchemaError,
    Rule,
    SourceCounters,
    apply_filter,
    first_failure,
    merge_reports,
    run_pipeline,
)
from ardata.tokenization import WhitespaceTokenizer, segment_words

from planted import (
    AD_PHRASES,
    UNSAFE_PHRASES,
    ads_doc,
    base_text,
    chars_doc,
    clean_doc,
    gopher_doc,
    lines_doc,
    planted_config,
    planted_corpus,
    safety_phrases_doc,
    safety_url_doc,
    short_lines_doc,
)

TOK = WhitespaceTokenizer()


def culturax(text, url="https://example.org/x"):
    return Document(id="d", text=text, url=url, source=Source.CULTURAX)


@pytest.fixture
def cfg():
    return planted_config()


# --- boundary suite ---------------------------------------------------------


def test_safety_three_distinct_phrases_removes(cfg):
    doc = culturax(base_text() + "\n" + " ".join(UNSAFE_PHRASES[:3]))
    decision = apply_filter(doc, Rule.SAFETY, cfg)
    assert not decision.keep and decision.rule is Rule.SAFETY


def test_safety_two_phrases_keeps(cfg):
    doc = culturax(base_text() + "\n" + " ".join(UNSAFE_PHRASES[:2]))
    assert apply_filter(doc, Rule.SAFETY, cfg).keep


def test_safety_repeated_phrase_counts_once(cfg):
    doc = culturax(base_text() + "\n" + " ".join([UNSAFE_PHRASES[0]] * 5))
    assert apply_filter(doc, Rule.SAFETY, cfg).keep


def test_safety_missing_url_removes_culturax(cfg):
    decision = apply_filter(culturax(base_text(), url=None), Rule.SAFETY, cfg)
    assert not decision.keep and decision.rule is Rule.SAFETY


def test_safety_not_applied_to_other_sources(cfg):
    doc = Document(id="d", text=base_text() + "\n" + " ".join(UNSAFE_PHRASES), source=Source.SANAD)
    assert apply_filter(doc, Rule.SAFETY, cfg).keep


def test_ads_five_hits_keeps_six_removes(cfg):
    five = culturax(base_text() + "\n" + " ".join([AD_PHRASES[0]] * 5))
    six = culturax(base_text() + "\n" + " ".join([AD_PHRASES[0]] * 6))
    assert apply_filter(five, Rule.ADS, cfg).keep
    assert not apply_filter(six, Rule.ADS, cfg).keep


def test_lines_three_removes_four_keeps(cfg):
    three = culturax("\n".join(["كلمة أولى ثم ثانية وثالثة"] * 3))
    four = culturax("\n".join(["كلمة أولى ثم ثانية وثالثة"] * 4))
    assert not apply_filter(three, Rule.LINES, cfg).keep
    assert apply_filter(four, Rule.LINES, cfg).keep


def test_lines_short_line_majority_removes(cfg):
    long_line = "سطر يحتوي على كلمات كثيرة بما يكفي"
    doc = culturax("\n".join([long_line, long_line, "كلمتان فقط", "كلمتان فقط", "كلمتان فقط", "كلمتان فقط"]))
    decision = apply_filter(doc, Rule.LINES, cfg)
    assert not decision.keep
    doc_half = culturax("\n".join([long_line] * 3 + ["كلمتان فقط"] * 3))  # exactly 50%
    assert apply_filter(doc_half, Rule.LINES, cfg).keep


def test_lines_short_line_word_max_past_any_line_makes_every_line_short():
    # A bound past the C size of str.split's maxsplit used to raise OverflowError.
    doc = culturax("\n".join(["سطر يحتوي على كلمات كثيرة بما يكفي"] * 4))
    for k in (10, 10**30):
        decision = apply_filter(doc, Rule.LINES, FilterConfig(short_line_word_max=k))
        assert decision.detail == "4/4 short lines (> 50%)"


def test_chars_boundary_94_removes_95_keeps(cfg):
    remove = culturax("ا" * 94 + "€" * 6)
    keep = culturax("ا" * 95 + "€" * 5)
    assert not apply_filter(remove, Rule.CHARS, cfg).keep
    assert apply_filter(keep, Rule.CHARS, cfg).keep


def test_gopher_stop_word_floor(cfg):
    few_stops = culturax("\n".join(f"{'كلمات مفيدة طويلة غنية مركبة جيدة وافية' } في." if i == 0 else "كلمات مفيدة طويلة غنية مركبة جيدة وافية." for i in range(8)))
    decision = apply_filter(few_stops, Rule.GOPHER, cfg)
    assert not decision.keep and decision.rule is Rule.GOPHER
    assert "stop words" in decision.detail


def test_gopher_word_count_bounds():
    cfg = planted_config()
    tiny = culturax("\n".join(["كلمة في من هنا"] * 4))  # 16 words < 50
    assert not apply_filter(tiny, Rule.GOPHER, cfg).keep


def test_empty_document_removed_as_lines(cfg):
    decision = first_failure(culturax(""), cfg)
    assert not decision.keep and decision.rule is Rule.LINES


def test_first_failure_attribution_order(cfg):
    # Violates both safety (phrases) and gopher (no stop words): safety wins.
    rows = ["كلمات مفيدة طويلة غنية مركبة جيدة وافية." for _ in range(8)]
    doc = culturax("\n".join(rows) + "\n" + " ".join(UNSAFE_PHRASES[:3]))
    decision = first_failure(doc, cfg)
    assert decision.rule is Rule.SAFETY


def test_lines_min_lines_zero_keeps_text_without_lines():
    cfg = FilterConfig(min_lines=0)
    for text in ("", " \n\t\n"):
        assert apply_filter(Document(id="a", text=text), Rule.LINES, cfg).keep


def test_gopher_min_words_zero_without_words_still_checks_stop_words():
    doc = Document(id="a", text="   ")
    decision = apply_filter(doc, Rule.GOPHER, FilterConfig(gopher=GopherConfig(min_words=0)))
    assert decision.rule is Rule.GOPHER and decision.detail == "0 distinct stop words < 2"
    no_stops = FilterConfig(gopher=GopherConfig(min_words=0, min_stop_words=0))
    assert apply_filter(doc, Rule.GOPHER, no_stops).keep


def test_first_failure_on_empty_text_with_zero_minimums():
    cfg = FilterConfig(min_lines=0, gopher=GopherConfig(min_words=0, min_stop_words=0))
    assert first_failure(Document(id="a", text=""), cfg).keep


# --- pipeline ----------------------------------------------------------------


def test_pipeline_empty_input(cfg):
    kept, report = run_pipeline([], cfg, TOK)
    assert kept == []
    assert report.sources == {}
    assert report.totals().docs_in == 0


def test_pipeline_planted_corpus_exact_counts(cfg):
    docs, expected = planted_corpus(n_clean=70, n_safety=5, n_url=5, n_ads=10, n_lines=10)
    kept, report = run_pipeline(docs, cfg, TOK)
    assert len(kept) == 70
    totals = report.totals()
    assert totals.docs_in == 100
    for rule, count in expected.items():
        assert totals.docs_removed.get(rule, 0) == count, rule
    assert totals.docs_kept == 70


def test_pipeline_applies_normalization_and_stripping(cfg):
    text = "عنوان\n2023-04-01\n" + base_text().replace("ا", "ﺍ", 1)  # presentation-form alef
    doc = culturax(text)
    kept, _ = run_pipeline([doc], cfg, TOK)
    assert len(kept) == 1
    assert "ﺍ" not in kept[0].text
    assert not kept[0].text.startswith("عنوان")


def test_pipeline_sharding_equivalence(cfg):
    docs, _ = planted_corpus(n_clean=40, n_safety=5, n_ads=5, n_lines=5, n_chars=5, n_gopher=5)
    kept_all, report_all = run_pipeline(docs, cfg, TOK)
    shards = [docs[i::4] for i in range(4)]
    merged = None
    kept_sharded = []
    for shard in shards:
        kept, report = run_pipeline(shard, cfg, TOK)
        kept_sharded.extend(kept)
        merged = report if merged is None else merge_reports(merged, report)
    assert merged.to_json() == report_all.to_json()
    assert sorted(d.id for d in kept_sharded) == sorted(d.id for d in kept_all)


def test_pipeline_splits_each_document_once(cfg):
    """The report's token count reuses the words ``gopher`` split, and a
    document removed before ``gopher`` is split once, for the count."""
    docs, expected = planted_corpus(
        n_clean=10, n_safety=2, n_url=2, n_ads=2, n_lines=2, n_short=2, n_chars=2, n_gopher=2,
    )
    cleaned = [strip_title_date(replace(d, text=normalize_chars(d.text))).text for d in docs]
    with (
        mock.patch.object(tokenization, "segment_words", wraps=segment_words) as tokenization_spy,
        mock.patch.object(filters, "segment_words", wraps=segment_words) as filters_spy,
    ):
        kept, report = run_pipeline(docs, cfg, TOK)
    assert len(kept) == 10 and report.totals().docs_removed == {k: v for k, v in expected.items() if v}
    assert tokenization_spy.call_count == 0
    assert sorted(call.args[0] for call in filters_spy.call_args_list) == sorted(cleaned)


class _DoubledWhitespace(WhitespaceTokenizer):
    def count_tokens(self, text):
        return 2 * len(text.split())


def _doubled_instance():
    tok = WhitespaceTokenizer()
    tok.count_tokens = _DoubledWhitespace().count_tokens
    return tok


@pytest.mark.parametrize("make", [_DoubledWhitespace, _doubled_instance])
def test_pipeline_counts_by_an_override_of_only_count_tokens(cfg, make):
    """A tokenizer that overrides only ``count_tokens`` of a built-in gives the
    report its own counts, not the built-in's ``count_words``."""
    docs, _ = planted_corpus(n_clean=5, n_ads=2, n_gopher=2)
    _, plain = run_pipeline(docs, cfg, TOK)
    _, doubled = run_pipeline(docs, cfg, make())
    assert plain.totals().tokens_in > 0
    assert doubled.totals().tokens_in == 2 * plain.totals().tokens_in
    assert doubled.totals().tokens_removed == {rule: 2 * n for rule, n in plain.totals().tokens_removed.items()}


def _planted_doc(build, i, source, header, presentation_form):
    """A planted document (one defect or none) under ``source``, optionally with
    a title/date header and a presentation-form alef for the cleanup to undo."""
    doc = build(i)
    text = doc.text.replace("ا", "ﺍ", 1) if presentation_form else doc.text
    return replace(doc, text=header + text, source=source)


_planted_docs = st.builds(
    _planted_doc,
    st.sampled_from([
        clean_doc, safety_phrases_doc, safety_url_doc, ads_doc, lines_doc, short_lines_doc, chars_doc, gopher_doc,
    ]),
    st.integers(min_value=0, max_value=30),
    st.sampled_from(list(Source)),
    st.sampled_from(["", "عنوان\n2023-04-01\n"]),
    st.booleans(),
)
_text_docs = st.builds(
    lambda text, source: Document(id="text", text=text, url="https://example.org/t", source=source),
    st.text(max_size=120),
    st.sampled_from(list(Source)),
)


@given(st.lists(st.one_of(_planted_docs, _text_docs), max_size=16), st.data())
@settings(max_examples=60, deadline=None)
def test_contiguous_shards_equal_whole_run(docs, data):
    cfg = planted_config()
    cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=len(docs)), max_size=4)))
    bounds = [0, *cuts, len(docs)]
    results = [run_pipeline(docs[start:end], cfg, TOK) for start, end in zip(bounds, bounds[1:])]
    kept_all, report_all = run_pipeline(docs, cfg, TOK)
    assert [doc for kept, _ in results for doc in kept] == kept_all
    assert functools.reduce(merge_reports, [report for _, report in results]).to_dict() == report_all.to_dict()


def test_pipeline_deterministic_reports(cfg):
    docs, _ = planted_corpus(n_clean=20, n_ads=3, n_gopher=2)
    _, first = run_pipeline(docs, cfg, TOK)
    _, second = run_pipeline(docs, cfg, TOK)
    assert first.to_json() == second.to_json()


def test_report_invariant_in_equals_kept_plus_removed(cfg):
    docs, _ = planted_corpus(n_clean=15, n_safety=3, n_short=4, n_chars=2)
    _, report = run_pipeline(docs, cfg, TOK)
    for counters in report.sources.values():
        assert counters.docs_in == counters.docs_kept + counters.docs_removed_total
        assert counters.tokens_in == counters.tokens_kept + counters.tokens_removed_total


# --- report merging -----------------------------------------------------------


def _random_report(draw_counts):
    report = CleaningReport()
    for source, rule, docs, tokens in draw_counts:
        counters = report.sources.setdefault(source, SourceCounters())
        counters.docs_in += docs
        counters.tokens_in += tokens
        if rule != "none":
            counters.docs_removed[rule] = counters.docs_removed.get(rule, 0) + min(docs, 1)
            counters.tokens_removed[rule] = counters.tokens_removed.get(rule, 0) + min(tokens, 5)
    return report


_count_entry = st.tuples(
    st.sampled_from(["culturax", "sanad", "ebook"]),
    st.sampled_from(["safety", "ads", "lines", "chars", "gopher", "none"]),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=5, max_value=500),
)


@given(st.lists(_count_entry, max_size=8), st.lists(_count_entry, max_size=8))
@settings(max_examples=60)
def test_merge_commutative(entries_a, entries_b):
    a, b = _random_report(entries_a), _random_report(entries_b)
    assert merge_reports(a, b).to_json() == merge_reports(b, a).to_json()


def test_merge_identity():
    report = _random_report([("culturax", "ads", 3, 30)])
    zero = CleaningReport()
    assert merge_reports(report, zero).to_json() == report.to_json()


@given(st.lists(_count_entry, max_size=6), st.lists(_count_entry, max_size=6), st.lists(_count_entry, max_size=6))
@settings(max_examples=100)
def test_merge_laws(entries_a, entries_b, entries_c):
    a, b, c = (_random_report(e) for e in (entries_a, entries_b, entries_c))
    assert merge_reports(merge_reports(a, b), c).to_dict() == merge_reports(a, merge_reports(b, c)).to_dict()
    assert merge_reports(a, b).to_dict() == merge_reports(b, a).to_dict()
    assert merge_reports(a, CleaningReport()).to_dict() == a.to_dict()
    assert merge_reports(CleaningReport(), a).to_dict() == a.to_dict()


def test_report_json_round_trip(cfg):
    docs, _ = planted_corpus(n_clean=5, n_ads=2)
    _, report = run_pipeline(docs, cfg, TOK)
    recovered = CleaningReport.from_dict(json.loads(report.to_json()))
    assert recovered.to_json() == report.to_json()


_REPORT = {
    "rules": ["safety", "ads", "lines", "chars", "gopher"],
    "sources": {"culturax": {"docs_in": 3, "tokens_in": 9, "docs_removed": {"ads": 1}, "tokens_removed": {"ads": 4}}},
}


def _report_with(**source_keys):
    return {**_REPORT, "sources": {"culturax": {**_REPORT["sources"]["culturax"], **source_keys}}}


@pytest.mark.parametrize("data, message", [
    ([1], "report must be an object, got list"),
    ({**_REPORT, "rules": "safety"}, "report 'rules' must be a list of strings"),
    ({**_REPORT, "rules": ["safety", 1]}, "report 'rules' must be a list of strings"),
    ({"rules": _REPORT["rules"]}, "report 'sources' must be an object"),
    ({**_REPORT, "sources": [1]}, "report 'sources' must be an object"),
    ({**_REPORT, "sources": {"culturax": [1]}}, "source 'culturax' must be an object"),
    (_report_with(docs_in="3"), "source 'culturax': 'docs_in' must be an integer"),
    (_report_with(tokens_in=True), "source 'culturax': 'tokens_in' must be an integer"),
    (_report_with(docs_removed={"ads": "1"}), "source 'culturax': 'docs_removed' must be an object of integer"),
    (_report_with(tokens_removed=None), "source 'culturax': 'tokens_removed' must be an object of integer"),
    (_report_with(tokens_in=-1), "source 'culturax': 'tokens_in' must be an integer >= 0"),
    (_report_with(docs_removed={"ads": -1}), "source 'culturax': 'docs_removed' must be an object of integer"),
    (
        _report_with(docs_removed={"none": 1}, tokens_removed={"none": 4}),
        "source 'culturax': removals counted under rules not in 'rules': ['none']",
    ),
    (
        _report_with(tokens_removed={"safety": 4}),
        "source 'culturax': 'docs_removed' and 'tokens_removed' name different rules",
    ),
    (
        _report_with(docs_removed={"ads": 2, "safety": 2}, tokens_removed={"ads": 4, "safety": 0}),
        "source 'culturax': 'docs_removed' sums to more than 'docs_in'",
    ),
    (_report_with(tokens_removed={"ads": 10}), "source 'culturax': 'tokens_removed' sums to more than 'tokens_in'"),
    (
        {**_REPORT, "rules": ["bogus", "bogus"]},
        "report 'rules' must be ['safety', 'ads', 'lines', 'chars', 'gopher'], got ['bogus', 'bogus']",
    ),
    ({**_REPORT, "rules": ["ads", "safety", "lines", "chars", "gopher"]}, "report 'rules' must be ['safety', 'ads'"),
])
def test_report_from_dict_names_bad_key(data, message):
    with pytest.raises(ReportSchemaError) as info:
        CleaningReport.from_dict(data)
    assert message in str(info.value)


def test_report_csv_shape(cfg):
    docs, _ = planted_corpus(n_clean=5, n_ads=2)
    _, report = run_pipeline(docs, cfg, TOK)
    rows = report.csv_rows()
    assert rows[0][0] == "dataset"
    assert any(row[0] == "culturax" for row in rows[1:])


# --- config -----------------------------------------------------------------


def test_config_from_dict_round_trip():
    cfg = FilterConfig.from_dict(
        {
            "unsafe_phrases": ["a", "b"],
            "ad_max_hits": 7,
            "gopher": {"min_words": 10, "stop_words": ["في"], "min_stop_words": 1},
            "safety_sources": ["culturax", " Sanad "],
        }
    )
    assert cfg.safety_sources == (Source.CULTURAX, Source.SANAD)
    assert cfg.unsafe_phrases == ("a", "b")
    assert cfg.ad_max_hits == 7
    assert cfg.gopher.min_words == 10


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(short_line_frac_max=1.5)
    with pytest.raises(ValueError):
        FilterConfig(unsafe_phrases=("ok", ""))
    with pytest.raises(ValueError):
        GopherConfig(min_words=10, max_words=5)


@pytest.mark.parametrize("data, key", [
    ({"min_linez": 3}, "'min_linez'"),
    ({"gopher": {"min_word": 3}}, "'gopher.min_word'"),
    ({"gopher": {"min_words": "x"}}, "'gopher.min_words'"),
    ({"gopher": {"stop_words": "في"}}, "'gopher.stop_words'"),
    ({"gopher": {"max_punct_char_frac": None}}, "'gopher.max_punct_char_frac'"),
    ({"gopher": 5}, "'gopher'"),
    ({"min_lines": True}, "'min_lines'"),
    ({"require_url": "yes"}, "'require_url'"),
    ({"unsafe_phrases": ["ok", 3]}, "'unsafe_phrases'"),
    ({"safety_count_mode": 1}, "'safety_count_mode'"),
    # An unknown label used to become `other`, moving safety filtering off CulturaX.
    ({"safety_sources": ["culturaxx"]}, "'safety_sources'"),
    # A NaN bound turns its check off: no value compares above or below it.
    ({"gopher": {"max_punct_char_frac": math.nan}}, "'gopher.max_punct_char_frac' must be a finite number"),
    ({"gopher": {"min_alpha_word_frac": math.nan}}, "'gopher.min_alpha_word_frac' must be a finite number"),
    ({"short_line_frac_max": math.inf}, "'short_line_frac_max' must be a finite number"),
    ({"permissible_char_min_frac": -math.inf}, "'permissible_char_min_frac' must be a finite number"),
    # Safety counts distinct phrases and ads total occurrences; neither is a key.
    ({"safety_count_mode": "distinct"}, "unknown filter config key 'safety_count_mode'"),
    ({"ads_count_mode": "total"}, "unknown filter config key 'ads_count_mode'"),
    # 5.0 would remove every document with words.
    ({"gopher": {"min_alpha_word_frac": 5.0}}, r"min_alpha_word_frac must be in \[0, 1\], got 5.0"),
    ({"gopher": {"max_punct_char_frac": -1.0}}, r"max_punct_char_frac must be in \[0, 1\], got -1.0"),
    ({"gopher": {"min_words": -3}}, "min_words must be >= 0, got -3"),
    ({"gopher": {"min_stop_words": -1}}, "min_stop_words must be >= 0, got -1"),
    ({"gopher": {"min_mean_word_len": -0.5}}, "min_mean_word_len must be >= 0, got -0.5"),
    ({"gopher": {"max_symbol_to_word_ratio": -0.1}}, "max_symbol_to_word_ratio must be >= 0, got -0.1"),
])
def test_config_from_dict_names_bad_key(data, key):
    with pytest.raises(ValueError, match=key):
        FilterConfig.from_dict(data)


def test_config_from_dict_rejects_non_object():
    with pytest.raises(ValueError):
        FilterConfig.from_dict([1])


def test_config_from_dict_accepts_int_for_fraction():
    assert FilterConfig.from_dict({"permissible_char_min_frac": 1}).permissible_char_min_frac == 1
    # An int of any size is finite; math.isfinite would overflow on this one.
    assert FilterConfig.from_dict({"gopher": {"max_mean_word_len": 10**400}}).gopher.max_mean_word_len == 10**400


def test_latin_phrase_matching_case_insensitive():
    cfg = FilterConfig(unsafe_phrases=("Bad Phrase One", "bad phrase two", "BAD PHRASE THREE"))
    doc = culturax(base_text() + "\nbad phrase one BAD PHRASE TWO Bad Phrase Three")
    assert not apply_filter(doc, Rule.SAFETY, cfg).keep


def test_ads_count_occurrences_and_safety_counts_distinct_phrases():
    cfg = FilterConfig(unsafe_phrases=UNSAFE_PHRASES, ad_phrases=AD_PHRASES)
    # Six occurrences of one ad phrase are six hits, above ad_max_hits 5.
    ads = apply_filter(culturax(base_text() + "\n" + " ".join([AD_PHRASES[0]] * 6)), Rule.ADS, cfg)
    assert ads.rule is Rule.ADS and ads.detail == "6 ad phrase hits (> 5)"
    # Three occurrences of one unsafe phrase are one hit, below unsafe_min_hits 3.
    assert apply_filter(culturax(base_text() + "\n" + " ".join([UNSAFE_PHRASES[0]] * 3)), Rule.SAFETY, cfg).keep
