import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ardata.evaluation import (
    BenchmarkItem,
    CharNgramScorer,
    ConstantScorer,
    OracleScorer,
    cf_mcf_diff,
    evaluate_cf,
    evaluate_mcf,
    evaluate_true_false,
    f1_macro,
    load_benchmark_items,
    render_cf_context,
    render_mcf_context,
)


def make_items(n, n_choices=3, category_cycle=("stem", "language")):
    items = []
    for i in range(n):
        choices = [f"خيار{i}-{j}" for j in range(n_choices)]
        items.append(
            BenchmarkItem(
                id=str(i),
                question=f"سؤال فريد رقم {i} عن الموضوع؟",
                choices=choices,
                gold_index=i % n_choices,
                category=category_cycle[i % len(category_cycle)],
            )
        )
    return items


class FixedScorer:
    """Maps each continuation string to a fixed score."""

    name = "fixed"

    def __init__(self, table, default=-50.0):
        self.table = table
        self.default = default

    def loglikelihood(self, context, continuation):
        return self.table.get(continuation, self.default)


class ShiftedScorer:
    name = "shifted"

    def __init__(self, inner, offset):
        self.inner = inner
        self.offset = offset

    def loglikelihood(self, context, continuation):
        return self.inner.loglikelihood(context, continuation) + self.offset


# --- item model -----------------------------------------------------------------


def test_item_validation():
    with pytest.raises(ValueError):
        BenchmarkItem(id="x", question="q", choices=["only"], gold_index=0)
    with pytest.raises(ValueError):
        BenchmarkItem(id="x", question="q", choices=["a", "b"], gold_index=2)
    with pytest.raises(ValueError):
        BenchmarkItem(id="x", question="q", choices=["a", ""], gold_index=0)
    for blank in ("", " \t\n"):
        with pytest.raises(ValueError, match="item 'x': question must have a non-whitespace character"):
            BenchmarkItem(id="x", question=blank, choices=["a", "b"], gold_index=0)


def test_load_benchmark_items(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(
        json.dumps(
            [{"question": "س؟", "choices": ["أ", "ب"], "gold_index": 1, "category": "stem"}]
        ),
        encoding="utf-8",
    )
    (item,) = load_benchmark_items(path)
    assert item.gold_index == 1 and item.category == "stem"


def test_load_benchmark_items_id_is_a_string_or_an_integer(tmp_path):
    path = tmp_path / "bench.json"
    item = {"question": "س؟", "choices": ["أ", "ب"], "gold_index": 1}
    path.write_text(json.dumps([dict(item, id="q"), dict(item, id=7), item]), encoding="utf-8")
    assert [i.id for i in load_benchmark_items(path)] == ["q", "7", "2"]
    for bad in (["x", 1], 1.0, True, None):
        path.write_text(json.dumps([item, dict(item, id=bad)]), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: item 1: 'id' must be a string or an integer, got "):
            load_benchmark_items(path)


# --- cloze format ------------------------------------------------------------------


def test_cf_oracle_perfect():
    items = make_items(12)
    result = evaluate_cf(items, OracleScorer.for_cf(items))
    assert result.overall == 1.0
    assert result.n == 12 and result.errored == 0
    assert all(v == 1.0 for v in result.per_category.values())


def test_cf_constant_scorer_tie_breaks_to_first():
    items = make_items(9, n_choices=3)
    result = evaluate_cf(items, ConstantScorer())
    expected = sum(1 for item in items if item.gold_index == 0) / len(items)
    assert result.overall == expected
    assert result.ties == len(items)
    assert all(p == 0 for p in result.predictions)


def test_cf_normalization_flips_prediction():
    # Raw: -6 (2 bytes) beats -10 (5 bytes). Per byte: -3 vs -2 flips it.
    item = BenchmarkItem(id="0", question="which?", choices=["ab", "cdefg"], gold_index=1)
    scorer = FixedScorer({" ab": -6.0, " cdefg": -10.0})
    raw = evaluate_cf([item], scorer, norm="none")
    norm = evaluate_cf([item], scorer, norm="by_bytes")
    assert raw.predictions == [0] and raw.overall == 0.0
    assert norm.predictions == [1] and norm.overall == 1.0


def test_cf_by_bytes_equals_none_for_equal_length_choices():
    items = [
        BenchmarkItem(id=str(i), question=f"q{i}?", choices=["aaaa", "bbbb", "cccc"], gold_index=i % 3)
        for i in range(6)
    ]
    scorer = CharNgramScorer()
    raw = evaluate_cf(items, scorer, norm="none")
    norm = evaluate_cf(items, scorer, norm="by_bytes")
    assert raw.predictions == norm.predictions
    assert raw.overall == norm.overall


def test_cf_shift_invariance_of_argmax():
    items = make_items(20)
    base = CharNgramScorer()
    shifted = ShiftedScorer(base, 17.5)
    assert evaluate_cf(items, base).predictions == evaluate_cf(items, shifted).predictions


def test_cf_micro_average_law():
    items = make_items(30)
    result = evaluate_cf(items, CharNgramScorer(), norm="by_bytes")
    total_correct = sum(
        result.per_category[cat] * result.per_category_n[cat] for cat in result.per_category
    )
    assert result.overall == pytest.approx(total_correct / result.n, rel=1e-12)
    assert sum(result.per_category_n.values()) == result.n


def test_cf_reorder_invariance():
    items = make_items(15)
    scorer = CharNgramScorer()
    forward = evaluate_cf(items, scorer)
    backward = evaluate_cf(list(reversed(items)), scorer)
    assert forward.overall == backward.overall
    assert forward.per_category == backward.per_category


def test_cf_errored_items_excluded_and_counted():
    items = make_items(6)

    class Flaky:
        name = "flaky"

        def loglikelihood(self, context, continuation):
            if "رقم 2" in context or "رقم 4" in context:
                raise RuntimeError("backend down")
            return 0.0

    result = evaluate_cf(items, Flaky())
    assert result.errored == 2
    assert result.n == 4
    assert result.predictions.count(None) == 2


def test_cf_unknown_norm_rejected():
    for norm in ("wild", "by_tokens"):
        with pytest.raises(ValueError, match=rf"unknown norm '{norm}' \(expected none or by_bytes\)"):
            evaluate_cf(make_items(2), ConstantScorer(), norm=norm)


def test_cf_context_contains_question_and_cue():
    item = make_items(1)[0]
    context = render_cf_context(item)
    assert item.question in context
    assert context.endswith("الإجابة:")


# --- multiple-choice format -----------------------------------------------------------


def test_mcf_oracle_perfect():
    items = make_items(10)
    result = evaluate_mcf(items, OracleScorer.for_mcf(items))
    assert result.overall == 1.0


def test_anti_oracle_never_right():
    items = make_items(10)
    anti = OracleScorer.anti(OracleScorer.for_cf(items).pairs)
    assert evaluate_cf(items, anti).overall == 0.0


def test_mcf_context_marker_count():
    item = make_items(1, n_choices=3)[0]
    context = render_mcf_context(item)
    markers = re.findall(r"^[A-E]\. ", context, flags=re.MULTILINE)
    assert len(markers) == 3


def test_cf_mcf_diff_rows():
    items = make_items(8)
    cf_only_oracle = OracleScorer.for_cf(items)  # blind on MCF letters
    rows = cf_mcf_diff(items, {"cf-oracle": cf_only_oracle, "constant": ConstantScorer()})
    by_model = {row.model: row for row in rows}
    frac_gold_zero = sum(1 for item in items if item.gold_index == 0) / len(items)
    assert by_model["cf-oracle"].cf == 1.0
    assert by_model["cf-oracle"].mcf == frac_gold_zero
    assert by_model["cf-oracle"].diff == 1.0 - frac_gold_zero
    assert by_model["constant"].cf == frac_gold_zero
    assert by_model["constant"].mcf == frac_gold_zero
    assert by_model["constant"].diff == 0.0


# --- macro F1 ---------------------------------------------------------------------------


def brute_force_f1_macro(golds, preds, labels):
    """Independent oracle: build each label's confusion cells by explicit
    enumeration and apply the confusion-matrix F1 formula 2tp/(2tp+fp+fn)."""
    scores = []
    for label in labels:
        tp = fp = fn = 0
        for g, p in zip(golds, preds):
            if p == label and g == label:
                tp += 1
            elif p == label:
                fp += 1
            elif g == label:
                fn += 1
        scores.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return sum(scores) / len(scores)


def precision_recall_f1_macro(golds, preds, labels):
    """Algebraically equal form via precision/recall, for a tolerance check."""
    scores = []
    for label in labels:
        tp = sum(1 for g, p in zip(golds, preds) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, preds) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, preds) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(scores) / len(scores)


def test_f1_perfect():
    assert f1_macro(["a", "b"], ["a", "b"], ["a", "b"]) == 1.0


def test_f1_worked_example():
    value = f1_macro(["T", "T", "F", "F"], ["T", "F", "F", "F"], ["T", "F"])
    assert value == pytest.approx(0.73333333, abs=1e-8)
    assert value == pytest.approx((2 / 3 + 0.8) / 2)


def test_f1_degenerate_single_class_predictions():
    value = f1_macro(["T", "F"], ["T", "T"], ["T", "F"])
    assert value == pytest.approx(0.5 * (2 * 0.5 / 1.5), abs=1e-9)


def test_f1_absent_label_counts_zero_unless_excluded():
    golds, preds = ["a", "a"], ["a", "a"]
    assert f1_macro(golds, preds, ["a", "ghost"]) == 0.5


def test_f1_length_mismatch():
    with pytest.raises(ValueError):
        f1_macro(["a"], ["a", "b"], ["a", "b"])


def test_f1_matches_brute_force_on_random_vectors():
    rng = random.Random(13)
    labels = ["T", "F"]
    for _ in range(300):
        n = rng.randint(1, 40)
        golds = [rng.choice(labels) for _ in range(n)]
        preds = [rng.choice(labels) for _ in range(n)]
        got = f1_macro(golds, preds, labels)
        assert got == brute_force_f1_macro(golds, preds, labels)
        assert got == pytest.approx(precision_recall_f1_macro(golds, preds, labels), rel=1e-12)


# --- few-shot true/false -----------------------------------------------------------------


def tf_items(n, labels=("صح", "خطأ"), prefix="بند"):
    return [
        BenchmarkItem(
            id=f"{prefix}-{i}",
            question=f"{prefix} رقم {i}: عبارة للتقييم.",
            choices=list(labels),
            gold_index=i % 2,
            category="task-" + str(i % 3),
        )
        for i in range(n)
    ]


def test_tf_oracle_perfect():
    items = tf_items(12)
    pool = tf_items(8, prefix="مثال")
    result = evaluate_true_false(items, OracleScorer.for_cf(items), pool, shots=5, seed=0)
    assert result.overall == 1.0
    assert result.metric == "f1_macro"
    assert result.n == 12


def test_tf_worked_confusion_matrix():
    items = tf_items(4)
    golds = [item.choices[item.gold_index] for item in items]  # صح خطأ صح خطأ
    # Force predictions [gold, wrong, gold, gold-ish]: emulate via fixed scorer keyed on item text.
    class PickFirst:
        name = "first"

        def loglikelihood(self, context, continuation):
            return 0.0  # always predicts choices[0] == "صح"

    result = evaluate_true_false(items, PickFirst(), tf_items(6, prefix="مثال"), shots=3, seed=1)
    preds = ["صح"] * 4
    assert result.overall == pytest.approx(brute_force_f1_macro(golds, preds, ["خطأ", "صح"]))


def test_tf_errored_items_excluded_from_f1_and_counted():
    items = tf_items(6)

    class FlakyFirst:
        name = "flaky"

        def loglikelihood(self, context, continuation):
            if context.endswith(("رقم 1: عبارة للتقييم.\nالإجابة:", "رقم 4: عبارة للتقييم.\nالإجابة:")):
                raise RuntimeError("backend down")
            return 0.0  # otherwise predicts choices[0] == "صح"

    result = evaluate_true_false(items, FlakyFirst(), tf_items(6, prefix="مثال"), shots=3, seed=1)
    assert result.errored == 2 and result.n == 4
    assert result.predictions == [0, None, 0, 0, None, 0]
    scored = [items[i] for i in (0, 2, 3, 5)]
    golds = [item.choices[item.gold_index] for item in scored]
    assert result.overall == brute_force_f1_macro(golds, ["صح"] * 4, ["خطأ", "صح"])
    # Items 1 and 4 are the only task-1 items, so that category has nothing scored.
    assert result.per_category_n == {"task-0": 2, "task-2": 2}


def test_tf_same_seed_same_result():
    items = tf_items(10)
    pool = tf_items(9, prefix="مثال")
    scorer = CharNgramScorer()
    a = evaluate_true_false(items, scorer, pool, shots=4, seed=5)
    b = evaluate_true_false(items, scorer, pool, shots=4, seed=5)
    assert a == b


def test_tf_pool_too_small():
    items = tf_items(3)
    with pytest.raises(ValueError, match="smaller than shots"):
        evaluate_true_false(items, ConstantScorer(), tf_items(2, prefix="مثال"), shots=5)


def test_tf_requires_two_choices():
    bad = make_items(1, n_choices=3)
    with pytest.raises(ValueError, match="exactly 2"):
        evaluate_true_false(bad, ConstantScorer(), tf_items(6, prefix="مثال"), shots=2)


def test_tf_rejects_overlapping_pool():
    items = tf_items(4)
    with pytest.raises(ValueError, match="overlaps"):
        evaluate_true_false(items, ConstantScorer(), items, shots=2)


def test_tf_context_contains_shots_and_query():
    items = tf_items(1)
    pool = tf_items(6, prefix="مثال")
    seen_contexts = []

    class Spy:
        name = "spy"

        def loglikelihood(self, context, continuation):
            seen_contexts.append(context)
            return 0.0

    evaluate_true_false(items, Spy(), pool, shots=3, seed=2)
    context = seen_contexts[0]
    assert context.count("الإجابة:") == 4  # 3 shots + query cue
    assert items[0].question in context


# --- n-gram scorer -------------------------------------------------------------------------


def test_ngram_deterministic_and_finite():
    scorer = CharNgramScorer()
    a = scorer.loglikelihood("سؤال: ما اللغة؟\nالإجابة:", " العربية")
    b = scorer.loglikelihood("سؤال: ما اللغة؟\nالإجابة:", " العربية")
    assert a == b
    assert a < 0 and a != float("-inf")


def test_ngram_empty_continuation_is_zero():
    assert CharNgramScorer().loglikelihood("أي سياق", "") == 0.0


def test_ngram_handles_unseen_characters():
    value = CharNgramScorer().loglikelihood("context", " 中文")
    assert value < 0 and value != float("-inf")


@given(st.text(max_size=30), st.text(min_size=1, max_size=10))
@settings(max_examples=100)
def test_ngram_total_function(context, continuation):
    value = CharNgramScorer().loglikelihood(context, continuation)
    assert value <= 0.0
    assert value != float("-inf")
