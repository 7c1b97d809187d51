"""Benchmark evaluation harness: cloze format (CF), multiple-choice format
(MCF), and few-shot True/False scoring over a pluggable log-likelihood scorer.

CF compares the log-likelihood of each full answer string appended to the
question context; no option letters appear in the prompt. Optionally each
score is normalized by the answer's UTF-8 byte length or word count, which
removes the systematic bias toward short answers. MCF enumerates the options
in the prompt and scores only the option letters. All three formats score
items in one loop (``_predict``). Ties always resolve to the lowest index,
and tie counts are reported.

Reference scorers (constant, gold oracle, anti-oracle, and a character
n-gram model trained on a bundled mini-corpus) make every code path testable
without loading a neural model.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from ._schema import (
    INTEGER, LIST, OBJECT, STRING, STRING_OR_INTEGER, STRING_OR_NULL, STRINGS, check, get_field, read_json,
)

DEFAULT_LETTERS: tuple[str, ...] = ("A", "B", "C", "D", "E")

UNCATEGORIZED = "uncategorized"

# The cue that ends every prompt and precedes each few-shot answer.
_ANSWER_CUE = "الإجابة:"


@dataclass
class BenchmarkItem:
    id: str
    question: str
    choices: list[str]
    gold_index: int
    category: str | None = None
    context: str | None = None

    def __post_init__(self):
        if not self.question.strip():
            raise ValueError(f"item {self.id!r}: question must have a non-whitespace character")
        if not 2 <= len(self.choices) <= 5:
            raise ValueError(f"item {self.id!r}: need 2..5 choices, got {len(self.choices)}")
        if any(not c for c in self.choices):
            raise ValueError(f"item {self.id!r}: choices must be non-empty strings")
        if not 0 <= self.gold_index < len(self.choices):
            raise ValueError(f"item {self.id!r}: gold_index {self.gold_index} out of range")


def load_benchmark_items(path: str | Path) -> list[BenchmarkItem]:
    """Read a benchmark file: a JSON array of item objects."""
    items = []
    for i, raw in enumerate(check(read_json(path), LIST, "benchmark file")):
        where = f"item {i}: "
        check(raw, OBJECT, f"item {i}")
        items.append(
            BenchmarkItem(
                id=str(get_field(raw, "id", STRING_OR_INTEGER, where, i)),
                question=get_field(raw, "question", STRING, where),
                choices=list(get_field(raw, "choices", STRINGS, where)),
                gold_index=get_field(raw, "gold_index", INTEGER, where),
                category=get_field(raw, "category", STRING_OR_NULL, where, None),
                context=get_field(raw, "context", STRING_OR_NULL, where, None),
            )
        )
    return items


class Scorer(Protocol):
    """Log-likelihood oracle for a continuation given a context."""

    name: str

    def loglikelihood(self, context: str, continuation: str) -> float: ...


# --- Prompts -----------------------------------------------------------------


def _question_block(item: BenchmarkItem) -> str:
    head = f"{item.context}\n" if item.context else ""
    return f"{head}سؤال: {item.question}"


def render_cf_context(item: BenchmarkItem) -> str:
    return f"{_question_block(item)}\n{_ANSWER_CUE}"


def render_mcf_context(item: BenchmarkItem) -> str:
    options = "".join(f"\n{DEFAULT_LETTERS[i]}. {choice}" for i, choice in enumerate(item.choices))
    return f"{_question_block(item)}{options}\n{_ANSWER_CUE} "


# --- Results -----------------------------------------------------------------


@dataclass
class EvalResult:
    metric: str
    format: str
    overall: float
    per_category: dict[str, float]
    per_category_n: dict[str, int]
    n: int
    errored: int = 0
    ties: int = 0
    predictions: list[int | None] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "format": self.format,
            "overall": self.overall,
            "per_category": dict(sorted(self.per_category.items())),
            "per_category_n": dict(sorted(self.per_category_n.items())),
            "n": self.n,
            "errored": self.errored,
            "ties": self.ties,
        }


def _argmax_lowest(scores: Sequence[float]) -> tuple[int, bool]:
    best_idx = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best_idx]:
            best_idx = i
    tied = sum(1 for s in scores if s == scores[best_idx]) > 1
    return best_idx, tied


def _predict(
    items: Sequence[BenchmarkItem],
    scorer: Scorer,
    context_fn: Callable[[BenchmarkItem], str],
    continuations_fn: Callable[[BenchmarkItem], list[str]],
    divisor_fn: Callable[[BenchmarkItem, int], float] | None = None,
) -> tuple[list[int | None], int]:
    """The predicted choice index per item, and how many argmaxes were tied.

    The prediction is ``None`` for an item whose scorer raised.
    """
    predictions: list[int | None] = []
    ties = 0
    for item in items:
        context = context_fn(item)
        try:
            scores = [scorer.loglikelihood(context, c) for c in continuations_fn(item)]
        except Exception:
            predictions.append(None)
            continue
        if divisor_fn is not None:
            scores = [s / divisor_fn(item, i) for i, s in enumerate(scores)]
        pred, tied = _argmax_lowest(scores)
        ties += tied
        predictions.append(pred)
    return predictions, ties


_Scored = list[tuple[BenchmarkItem, int]]


def _result(
    items: Sequence[BenchmarkItem],
    preds: list[int | None],
    ties: int,
    metric_fn: Callable[[_Scored], float],
    metric: str,
    fmt: str,
) -> EvalResult:
    """Apply ``metric_fn`` to all scored items and to each category's.

    Items whose scorer raised are left out and counted in ``errored``.
    """
    scored = [(item, pred) for item, pred in zip(items, preds) if pred is not None]
    by_category: dict[str, _Scored] = {}
    for item, pred in scored:
        by_category.setdefault(item.category or UNCATEGORIZED, []).append((item, pred))
    return EvalResult(
        metric=metric,
        format=fmt,
        overall=metric_fn(scored) if scored else 0.0,
        per_category={cat: metric_fn(pairs) for cat, pairs in by_category.items()},
        per_category_n={cat: len(pairs) for cat, pairs in by_category.items()},
        n=len(scored),
        errored=len(preds) - len(scored),
        ties=ties,
        predictions=preds,
    )


def _spaced_choices(item: BenchmarkItem) -> list[str]:
    return [" " + c for c in item.choices]


def _accuracy(scored: _Scored) -> float:
    return sum(pred == item.gold_index for item, pred in scored) / len(scored)


def evaluate_cf(items: Sequence[BenchmarkItem], scorer: Scorer, norm: str = "none") -> EvalResult:
    """Cloze-format accuracy: argmax over log-likelihoods of the full answers.

    norm="by_bytes" divides each score by the answer's UTF-8 byte length
    (normalized accuracy); "by_tokens" divides by its whitespace word count
    (at least 1); "none" uses raw scores. Items where the scorer raises are
    excluded and counted in ``errored``.
    """
    if norm == "none":
        divisor_fn = None
    elif norm == "by_bytes":
        divisor_fn = lambda item, i: len(item.choices[i].encode("utf-8"))
    elif norm == "by_tokens":
        from .tokenization import segment_words

        divisor_fn = lambda item, i: max(len(segment_words(item.choices[i])), 1)
    else:
        raise ValueError(f"unknown norm {norm!r} (expected none, by_bytes, or by_tokens)")
    preds, ties = _predict(items, scorer, render_cf_context, _spaced_choices, divisor_fn)
    return _result(items, preds, ties, _accuracy, "accuracy" if norm == "none" else "accuracy_norm", "cf")


def evaluate_mcf(items: Sequence[BenchmarkItem], scorer: Scorer) -> EvalResult:
    """Multiple-choice-format accuracy: options in the prompt, the letters
    A-E (``DEFAULT_LETTERS``) scored."""
    preds, ties = _predict(
        items, scorer, render_mcf_context, lambda item: list(DEFAULT_LETTERS[: len(item.choices)])
    )
    return _result(items, preds, ties, _accuracy, "accuracy", "mcf")


def f1_macro(golds: Sequence[str], preds: Sequence[str], labels: Sequence[str]) -> float:
    """Unweighted mean of per-label F1.

    A label absent from both golds and preds contributes F1 = 0.
    """
    if len(golds) != len(preds):
        raise ValueError(f"length mismatch: {len(golds)} golds vs {len(preds)} preds")
    scores = []
    for label in labels:
        tp = sum(1 for g, p in zip(golds, preds) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, preds) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, preds) if g == label and p != label)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp or fp or fn else 0.0)
    if not scores:
        raise ValueError("no labels to score")
    return sum(scores) / len(scores)


def evaluate_true_false(
    items: Sequence[BenchmarkItem],
    scorer: Scorer,
    exemplars: Sequence[BenchmarkItem],
    shots: int = 5,
    seed: int = 0,
) -> EvalResult:
    """Few-shot True/False evaluation scored with macro F1.

    Every item must have exactly two choices (the label strings). ``shots``
    exemplars are drawn once from the held-out pool with the given seed and
    prefixed, with their gold labels, to every query. Items where the scorer
    raises are left out of the F1 and counted in ``errored``.
    """
    for item in items:
        if len(item.choices) != 2:
            raise ValueError(f"item {item.id!r}: true/false items need exactly 2 choices")
    if shots < 0:
        raise ValueError(f"shots must be an integer >= 0, got {shots}")
    if shots > len(exemplars):
        raise ValueError(f"exemplar pool ({len(exemplars)}) smaller than shots ({shots})")
    item_ids = {item.id for item in items}
    overlap = [ex.id for ex in exemplars if ex.id in item_ids]
    if overlap:
        raise ValueError(f"exemplar pool overlaps evaluated items: {overlap[:5]}")

    shot_items = random.Random(seed).sample(list(exemplars), shots)
    prefix = "".join(f"{shot.question}\n{_ANSWER_CUE} {shot.choices[shot.gold_index]}\n\n" for shot in shot_items)
    labels = sorted({label for item in items for label in item.choices})

    def macro_f1(scored: _Scored) -> float:
        golds = [item.choices[item.gold_index] for item, _ in scored]
        return f1_macro(golds, [item.choices[pred] for item, pred in scored], labels)

    preds, ties = _predict(items, scorer, lambda item: f"{prefix}{item.question}\n{_ANSWER_CUE}", _spaced_choices)
    return _result(items, preds, ties, macro_f1, "f1_macro", "cf")


# --- Reference scorers ---------------------------------------------------------


class ConstantScorer:
    """Scores everything 0.0; predictions collapse to index 0 by tie-break."""

    name = "constant"

    def loglikelihood(self, context: str, continuation: str) -> float:
        return 0.0


_MISS = -1e9


class OracleScorer:
    """Scores the gold continuation of whichever item the context ends with.

    Built from (key, accepted continuations) pairs where the key is a
    substring unique to the item (its question); the pair whose key occurs
    last in the context identifies the item being scored. Of keys whose last
    occurrences start at the same position, the earliest pair wins, and an
    empty key occurs at the end of every context.

    The keys are indexed once, when the scorer is built, by their first
    ``m`` characters (``m`` the shortest key length), so a call scans the
    context backwards from its end instead of searching for every key, and
    steps past a position whose character starts no key without slicing it.
    The last context scored and its accepted continuations are kept as one
    tuple, and the scan runs again only for a context that differs from it,
    so the choices of one item, which share a context, cost one scan.
    ``pairs`` is read-only after construction.
    """

    def __init__(
        self,
        pairs: Iterable[tuple[str, tuple[str, ...]]],
        hit: float = 0.0,
        miss: float = _MISS,
        name: str = "oracle",
    ):
        self.pairs = list(pairs)
        self.hit = hit
        self.miss = miss
        self.name = name
        # The first pair with an empty key matches every context at its end,
        # where no other key can start, so it always wins.
        self._always = next((accepted for key, accepted in self.pairs if not key), None)
        self._prefix_len = min((len(key) for key, _ in self.pairs if key), default=0)
        # Key prefix -> (key, accepted) in pair order, so the first key that
        # matches at a position belongs to the earliest pair.
        self._buckets: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for key, accepted in self.pairs:
            if key:
                self._buckets.setdefault(key[: self._prefix_len], []).append((key, accepted))
        self._first_chars = frozenset(prefix[0] for prefix in self._buckets)
        # (context, its accepted continuations): one tuple, replaced whole, so
        # a concurrent caller never pairs one context with another's golds.
        self._last: tuple[str | None, tuple[str, ...] | None] = (None, None)

    @classmethod
    def for_cf(cls, items: Sequence[BenchmarkItem]) -> "OracleScorer":
        return cls([(it.question, (" " + it.choices[it.gold_index],)) for it in items])

    @classmethod
    def for_mcf(cls, items: Sequence[BenchmarkItem]) -> "OracleScorer":
        return cls([(it.question, (DEFAULT_LETTERS[it.gold_index],)) for it in items])

    @classmethod
    def anti(cls, pairs: Iterable[tuple[str, tuple[str, ...]]]) -> "OracleScorer":
        return cls(pairs, hit=_MISS, miss=0.0, name="anti-oracle")

    def _golds(self, context: str) -> tuple[str, ...] | None:
        """The accepted continuations of the pair whose key occurs last."""
        if self._always is not None:
            return self._always
        if not self._buckets:
            return None
        m, buckets, first_chars = self._prefix_len, self._buckets, self._first_chars
        for pos in range(len(context) - m, -1, -1):
            if context[pos] not in first_chars:
                continue
            for key, accepted in buckets.get(context[pos : pos + m], ()):
                if context.startswith(key, pos):
                    return accepted
        return None

    def loglikelihood(self, context: str, continuation: str) -> float:
        last_context, golds = self._last
        if last_context != context:  # an identity check when the object is the same
            golds = self._golds(context)
            self._last = (context, golds)
        if golds is None:
            return self.miss
        return self.hit if continuation in golds else self.miss


# A bundled mini-corpus (Arabic with a little English) for the n-gram scorer,
# enough to give distinct, deterministic statistics to every test path.
MINI_CORPUS = (
    "اللغة العربية من أكثر اللغات انتشاراً في العالم. "
    "يتحدث بها ملايين الناس في بلدان كثيرة. "
    "تكتب العربية من اليمين إلى اليسار. "
    "القراءة تفتح أبواب المعرفة للجميع. "
    "الكتاب خير جليس في الزمان. "
    "تشرق الشمس صباحاً وتغرب مساءً. "
    "المطر ينزل من السماء فيسقي الأرض. "
    "العلم نور والجهل ظلام. "
    "المدينة قريبة من الساحل والجبل بعيد. "
    "في الصحراء رمال ذهبية ونجوم لامعة في الليل. "
    "Language models learn statistics from text. "
    "The quick brown fox jumps over the lazy dog. "
    "Reading opens the door to knowledge for everyone. "
    "Rain falls from the sky and waters the earth."
)


class CharNgramScorer:
    """Character trigram language model with add-one smoothing.

    Trained once on ``MINI_CORPUS``; scores the continuation characters
    conditioned on the context tail. Deterministic and finite for any
    non-empty continuation.

    The log-probabilities are computed once, when the scorer is built: one
    per seen trigram, one per seen history for the trigrams it never
    precedes, and one for an unseen history. A call looks each continuation
    character up and adds the values in order, so it returns the same float
    as computing each term from the counts.
    """

    name = "char-ngram"
    n = 3

    def __init__(self):
        n = self.n
        self._known = set(MINI_CORPUS)
        self._vocab_size = len(self._known) + 1  # "\x00" stands for padding and unknown characters
        self._ngram_counts: Counter[tuple[str, str]] = Counter()
        self._history_counts: Counter[str] = Counter()
        padded = "\x00" * (n - 1) + MINI_CORPUS
        for i in range(n - 1, len(padded)):
            history = padded[i - (n - 1) : i]
            self._ngram_counts[(history, padded[i])] += 1
            self._history_counts[history] += 1
        vocab = self._vocab_size
        # history + character -> log P; the counts stay for the tests' reference loop.
        self._logp = {
            history + ch: math.log((count + 1) / (self._history_counts[history] + vocab))
            for (history, ch), count in self._ngram_counts.items()
        }
        self._logp_unseen = {
            history: math.log(1 / (count + vocab)) for history, count in self._history_counts.items()
        }
        self._logp_unseen_history = math.log(1 / vocab)

    def _canon(self, ch: str) -> str:
        return ch if ch in self._known else "\x00"

    def loglikelihood(self, context: str, continuation: str) -> float:
        if not continuation:
            return 0.0
        known, logp, unseen = self._known, self._logp, self._logp_unseen
        # Only the last n-1 characters of the (padded) context are ever read.
        tail = ("\x00" * (self.n - 1) + context)[len(context):]
        history = "".join(map(self._canon, tail))
        total = 0.0
        for ch in continuation:
            gram = history + (ch if ch in known else "\x00")
            value = logp.get(gram)
            total += value if value is not None else unseen.get(history, self._logp_unseen_history)
            history = gram[1:]
        return total


# --- CF vs MCF difference report -------------------------------------------------


@dataclass(frozen=True)
class DiffRow:
    model: str
    cf: float
    mcf: float

    @property
    def diff(self) -> float:
        return self.cf - self.mcf


def cf_mcf_diff(items: Sequence[BenchmarkItem], scorers: Mapping[str, Scorer], norm: str = "none") -> list[DiffRow]:
    """CF minus MCF accuracy per scorer, for difference charts."""
    rows = []
    for model_name in sorted(scorers):
        scorer = scorers[model_name]
        cf = evaluate_cf(items, scorer, norm=norm)
        mcf = evaluate_mcf(items, scorer)
        rows.append(DiffRow(model=model_name, cf=cf.overall, mcf=mcf.overall))
    return rows
