import math
import weakref
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from ardata.corpus import Document
from ardata.mixture import (
    SourceStats,
    StreamExhaustedError,
    plan_mixture,
    sample_stream,
    sampling_percentages,
    source_fractions,
    suggested_upweight,
    token_shares,
)
from ardata.tokenization import WhitespaceTokenizer


# --- sampling percentages -----------------------------------------------------


def test_arabic_english_upweight_ratio():
    fractions = sampling_percentages({"arabic": 4.6, "english": 1.0})
    assert fractions["arabic"] == pytest.approx(0.821, abs=5e-4)
    assert fractions["english"] == pytest.approx(0.179, abs=5e-4)
    # matches the published (82, 18) within half a percentage point
    assert abs(fractions["arabic"] * 100 - 82) <= 0.5
    assert abs(fractions["english"] * 100 - 18) <= 0.5


def test_equal_upweights_split_evenly():
    assert sampling_percentages({"a": 1, "b": 1}) == {"a": 0.5, "b": 0.5}


def test_three_groups():
    fractions = sampling_percentages({"a": 2, "b": 1, "c": 1})
    assert fractions == {"a": 0.5, "b": 0.25, "c": 0.25}


def test_empty_groups_error():
    with pytest.raises(ValueError):
        sampling_percentages({})
    with pytest.raises(ValueError):
        sampling_percentages({"a": 0.0})


def test_upweights_whose_sum_overflows_are_refused():
    # Each weight is finite, but the sum is not; dividing by it made every fraction 0.0.
    with pytest.raises(ValueError, match="upweights"):
        sampling_percentages({"ar": 1e308, "en": 1e308})
    assert sampling_percentages({"ar": 1e308, "en": 5e307}) == {"ar": 1e308 / 1.5e308, "en": 5e307 / 1.5e308}


@given(
    st.dictionaries(st.sampled_from("abcde"), st.floats(0.1, 50), min_size=1),
    st.floats(0.01, 100),
)
@settings(max_examples=100)
def test_percentages_sum_to_one_and_scale_invariant(weights, k):
    fractions = sampling_percentages(weights)
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
    scaled = sampling_percentages({n: w * k for n, w in weights.items()})
    for name in weights:
        assert scaled[name] == pytest.approx(fractions[name], rel=1e-9)


# --- token shares ----------------------------------------------------------------


def test_token_shares_match_published_table():
    shares = token_shares(
        [SourceStats("en-mix", 619_000_000_000, "english"), SourceStats("ar-mix", 115_000_000_000, "arabic")]
    )
    assert shares["english"] == pytest.approx(0.843, abs=5e-4)
    assert shares["arabic"] == pytest.approx(0.157, abs=5e-4)
    assert abs(shares["english"] * 100 - 84) <= 0.5
    assert abs(shares["arabic"] * 100 - 16) <= 0.5


def test_single_source_full_share():
    assert token_shares([SourceStats("only", 10)]) == {"other": 1.0}


def test_five_to_one_ratio():
    shares = token_shares([SourceStats("en", 500, "english"), SourceStats("ar", 100, "arabic")])
    assert shares["english"] == pytest.approx(5 / 6)
    assert shares["arabic"] == pytest.approx(1 / 6)


def test_source_stats_validation():
    with pytest.raises(ValueError):
        SourceStats("bad", 0)


def test_source_fractions_split_each_language_by_tokens():
    sources = [SourceStats("ar-web", 100, "arabic"), SourceStats("ar-books", 300, "arabic"), SourceStats("en", 50, "english")]
    fractions = source_fractions(sources, {"arabic": 4.0})
    assert fractions == pytest.approx({"ar-web": 0.2, "ar-books": 0.6, "en": 0.2})
    assert plan_mixture(sources, fractions, 1000).entry("ar-books").token_quota == 600
    with pytest.raises(ValueError, match=r"upweights reference unknown languages: \['ghost'\]"):
        source_fractions(sources, {"arabic": 4.0, "ghost": 9.0})


# --- mixture planning ---------------------------------------------------------------


def test_plan_epochs_example():
    sources = [SourceStats("arabic", 114_500_000_000, "arabic"), SourceStats("english", 619_000_000_000, "english")]
    plan = plan_mixture(sources, {"arabic": 0.821, "english": 0.179}, 197_000_000_000)
    ar = plan.entry("arabic")
    assert ar.token_quota == pytest.approx(161.7e9, rel=1e-3)
    assert ar.epochs == pytest.approx(1.41, abs=5e-3)


def test_plan_zero_total():
    plan = plan_mixture([SourceStats("a", 10), SourceStats("b", 10)], {"a": 0.5, "b": 0.5}, 0)
    assert all(e.token_quota == 0 for e in plan.entries)


def test_plan_single_source_one_epoch():
    plan = plan_mixture([SourceStats("a", 1000)], {"a": 1.0}, 1000)
    assert plan.entry("a").epochs == 1.0


def test_plan_unknown_source_error():
    with pytest.raises(ValueError, match="unknown"):
        plan_mixture([SourceStats("a", 10)], {"a": 0.5, "ghost": 0.5}, 100)


def test_plan_repeated_source_name_error():
    # Each "a" used to get a third of the tokens, and "b" a third instead of half.
    sources = [SourceStats("a", 10), SourceStats("a", 30), SourceStats("b", 10)]
    with pytest.raises(ValueError, match=r"distinct names, repeated: \['a'\]"):
        plan_mixture(sources, {"a": 0.5, "b": 0.5}, 900)


def test_plan_fractions_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        plan_mixture([SourceStats("a", 10), SourceStats("b", 10)], {"a": 0.6, "b": 0.6}, 100)


@pytest.mark.parametrize("fractions, bad", [({"a": 1.5, "b": -0.5}, "b"), ({"a": math.nan, "b": 1.0}, "a")])
def test_plan_fractions_must_be_finite_and_non_negative(fractions, bad):
    with pytest.raises(ValueError, match=f"fraction for '{bad}' must be a finite number >= 0"):
        plan_mixture([SourceStats("a", 10), SourceStats("b", 10)], fractions, 100)


@given(
    st.lists(st.integers(1, 1000), min_size=1, max_size=6),
    st.one_of(st.integers(0, 10_000), st.integers(0, 2**63 - 1)),
)
@example([1], 2**63 - 1)  # float arithmetic gave a quota of 2**63
@example([1, 1, 1], 2**53 + 1)
@example([7, 3], 7886786866364949)  # below 2**53, the float quotas summed to 2 more than the total
@settings(max_examples=300)
def test_plan_quotas_sum_exactly_to_total(weights, total):
    names = [f"s{i}" for i in range(len(weights))]
    fractions = sampling_percentages(dict(zip(names, map(float, weights))))
    sources = [SourceStats(n, 50) for n in names]
    plan = plan_mixture(sources, fractions, total)
    assert sum(e.token_quota for e in plan.entries) == total
    # Each quota is its exact share of the total, rounded down or up.
    scale = sum(Fraction(fractions[n]) for n in names)
    for name, entry in zip(names, plan.entries):
        exact = Fraction(fractions[name]) * total / scale
        assert math.floor(exact) <= entry.token_quota <= math.ceil(exact)


def test_suggested_upweight():
    assert suggested_upweight(4.6, 1.0) == 4.6
    assert suggested_upweight(3.0, 1.5) == 2.0
    with pytest.raises(ValueError):
        suggested_upweight(0, 1)


# --- stream sampling -----------------------------------------------------------------


def _docs(prefix, n, words=10):
    return [Document(id=f"{prefix}{i:04d}", text=" ".join(["كلمة"] * words)) for i in range(n)]


def test_single_source_passthrough_order():
    docs = _docs("a", 10)
    plan = plan_mixture([SourceStats("a", 100)], {"a": 1.0}, 100)
    out = list(sample_stream(plan, {"a": docs}))
    assert [d.id for d in out] == [d.id for d in docs]


def test_fifty_fifty_split_within_tolerance():
    docs_a, docs_b = _docs("a", 1000), _docs("b", 1000)
    sources = [SourceStats("a", 10_000), SourceStats("b", 10_000)]
    plan = plan_mixture(sources, {"a": 0.5, "b": 0.5}, 20_000, seed=42)
    out = list(sample_stream(plan, {"a": docs_a, "b": docs_b}))
    share_a = sum(1 for d in out if d.id.startswith("a")) / len(out)
    assert abs(share_a - 0.5) <= 0.02


def test_same_seed_identical_sequence():
    docs_a, docs_b = _docs("a", 50), _docs("b", 50)
    sources = [SourceStats("a", 500), SourceStats("b", 500)]
    plan = plan_mixture(sources, {"a": 0.5, "b": 0.5}, 600, seed=9)
    first = [d.id for d in sample_stream(plan, {"a": docs_a, "b": docs_b})]
    second = [d.id for d in sample_stream(plan, {"a": docs_a, "b": docs_b})]
    assert first == second


def test_epochs_repeat_restartable_stream():
    docs = _docs("a", 5)  # 50 tokens per pass
    plan = plan_mixture([SourceStats("a", 50)], {"a": 1.0}, 100)
    out = list(sample_stream(plan, {"a": docs}))
    assert [d.id for d in out] == [d.id for d in docs] * 2


def test_exhausted_generator_raises():
    gen = (d for d in _docs("a", 5))
    plan = plan_mixture([SourceStats("a", 50)], {"a": 1.0}, 100)
    with pytest.raises(StreamExhaustedError):
        list(sample_stream(plan, {"a": gen}))


def test_zero_token_stream_cannot_spin_forever():
    empty_docs = [Document(id=f"e{i}", text="   ") for i in range(3)]
    plan = plan_mixture([SourceStats("a", 30)], {"a": 1.0}, 30)
    with pytest.raises(StreamExhaustedError, match="no token progress"):
        list(sample_stream(plan, {"a": empty_docs}))


def test_restart_short_of_every_counted_token_cannot_spin_forever():
    # Breaks the contract: each restart yields only the zero-token first document.
    class Shrinking:
        def __init__(self):
            self.passes = 0

        def __iter__(self):
            self.passes += 1
            return iter([Document(id="e", text=" "), Document(id="w", text="w")][: 2 if self.passes == 1 else 1])

    plan = plan_mixture([SourceStats("a", 1)], {"a": 1.0}, 2)
    with pytest.raises(StreamExhaustedError, match="empty or not restartable"):
        list(islice(sample_stream(plan, {"a": Shrinking()}), 10))  # bounded, should it spin


def test_missing_stream_errors():
    plan = plan_mixture([SourceStats("a", 10)], {"a": 1.0}, 10)
    with pytest.raises(ValueError, match="no stream"):
        list(sample_stream(plan, {}))


@given(
    st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=6), min_size=1, max_size=4),
    st.lists(st.integers(1, 5), min_size=4, max_size=4),
    st.integers(0, 400),
    st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_realized_tokens_within_one_document_of_quota(doc_lengths, weights, total, seed):
    # Source s holds documents of doc_lengths[s] words; the sampler stops drawing
    # a source on the draw that fills its quota, so it overshoots by less than
    # one document.
    streams = {
        f"s{s}": [Document(id=f"s{s}-{i}", text=" ".join(["w"] * n)) for i, n in enumerate(lengths)]
        for s, lengths in enumerate(doc_lengths)
    }
    sources = [SourceStats(name, sum(doc_lengths[s])) for s, name in enumerate(streams)]
    plan = plan_mixture(sources, sampling_percentages(dict(zip(streams, weights))), total, seed=seed)
    realized = dict.fromkeys(streams, 0)
    for doc in sample_stream(plan, streams):
        realized[doc.id.split("-")[0]] += len(doc.text.split())
    for s, entry in enumerate(plan.entries):
        assert entry.token_quota <= realized[entry.name] < entry.token_quota + max(doc_lengths[s])


# --- stream sampling: counts kept per stream position ---------------------------------------


class _CountingTokenizer(WhitespaceTokenizer):
    def __init__(self):
        self.texts = []

    def count_tokens(self, text: str) -> int:
        self.texts.append(text)
        return super().count_tokens(text)


class _FreshDocs:
    """Restartable stream that builds new Document objects on every pass."""

    def __init__(self, prefix, n):
        self.prefix, self.n = prefix, n

    def __iter__(self):
        return iter(_docs(self.prefix, self.n))


def _two_source_plan():
    return plan_mixture([SourceStats("a", 50), SourceStats("b", 70)], {"a": 0.5, "b": 0.5}, 2_000, seed=3)


def test_list_streams_count_each_document_once():
    docs = {"a": _docs("a", 5), "b": _docs("b", 7)}
    tok = _CountingTokenizer()
    drawn = list(sample_stream(_two_source_plan(), docs, tok=tok))
    assert len(drawn) == 200  # 100 draws of 10 tokens from each source, so each restarts
    assert len(tok.texts) == 12


def test_fresh_documents_each_pass_give_the_list_sequence():
    plan = _two_source_plan()
    from_lists = [d.id for d in sample_stream(plan, {"a": _docs("a", 5), "b": _docs("b", 7)})]
    tok = _CountingTokenizer()
    fresh = [d.id for d in sample_stream(plan, {"a": _FreshDocs("a", 5), "b": _FreshDocs("b", 7)}, tok=tok)]
    assert fresh == from_lists
    assert len(tok.texts) == 12  # one count per stream position, on the first pass


def test_reassigned_text_keeps_its_first_pass_count():
    # A restarted stream must yield the same documents in the same order, so each
    # position is counted on the first pass only; text reassigned later is not recounted.
    docs = [Document(id="d0", text="w"), Document(id="d1", text="w")]

    class Growing:
        """Each pass gives d0 one more word."""

        def __init__(self):
            self.passes = 0

        def __iter__(self):
            self.passes += 1
            docs[0].text = " ".join(["w"] * self.passes)
            return iter(docs)

    tok = _CountingTokenizer()
    plan = plan_mixture([SourceStats("a", 2)], {"a": 1.0}, 6)
    # Every position keeps its first-pass count of 1, so six draws fill the quota.
    assert [d.id for d in sample_stream(plan, {"a": Growing()}, tok=tok)] == ["d0", "d1"] * 3
    assert tok.texts == ["w", "w"]


def test_sampler_keeps_no_document_alive():
    stream = _FreshDocs("a", 5)
    plan = plan_mixture([SourceStats("a", 50)], {"a": 1.0}, 500)
    gen = sample_stream(plan, {"a": stream})
    first = weakref.ref(next(gen))
    drawn = 1 + sum(1 for _ in zip(range(10), gen))  # two passes later, the sampler is still live
    assert drawn == 11 and first() is None
    assert sum(1 for _ in gen) == 39
    assert first() is None
