"""Pluggable tokenizers and corpus fertility scoring.

Fertility is the ratio of subword tokens to whitespace words over a whole
corpus: 1.0 means one token per word (the floor for any tokenizer that never
merges across whitespace); single-character tokenization is the ceiling.
Three reference tokenizers are shipped so fertility comparisons run without
any external model: whitespace (identity), character-level, and a greedy
longest-prefix subword tokenizer loaded from a plain-text vocab file.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

if TYPE_CHECKING:
    from .corpus import Document

_WORD_MEMO_CAP = 1 << 16  # distinct words in a VocabTokenizer's memo (see its docstring)


class TokenizerAdapter(Protocol):
    """Anything that can count tokens for a piece of text.

    Implementations must be deterministic and return 0 for the empty string.
    ``count_tokens`` must be a pure function of the text, so a result may be
    memoized per distinct text (``VocabTokenizer`` does so per word).

    A tokenizer whose tokens never span whitespace may also define
    ``count_words(words)``, returning ``count_tokens(" ".join(words))`` for
    the ``segment_words`` of a text. ``fertility_reports`` and
    ``filters.iter_pipeline`` split each document once and call it where
    ``document_counter`` finds it next to ``count_tokens``. The built-in
    tokenizers define both.
    """

    name: str

    def count_tokens(self, text: str) -> int: ...


def segment_words(text: str) -> list[str]:
    """Words are maximal runs of non-whitespace; punctuation stays attached."""
    return text.split()


def document_counter(tok: TokenizerAdapter) -> Callable[[str, list[str]], int]:
    """``tok``'s token count of a text, called with the text and its
    ``segment_words``.

    It is ``tok.count_words(words)`` when the class that defines ``tok``'s
    ``count_tokens`` also defines ``count_words`` and the instance does not
    set ``count_tokens`` itself; otherwise ``tok.count_tokens(text)``. So a
    tokenizer with only ``count_tokens``, or a subclass or instance that
    overrides only ``count_tokens``, is counted by that method.
    """
    owner = next((cls for cls in type(tok).__mro__ if "count_tokens" in vars(cls)), None)
    if owner is not None and "count_words" in vars(owner) and "count_tokens" not in getattr(tok, "__dict__", ()):
        count_words = tok.count_words
        return lambda text, words: count_words(words)
    count_tokens = tok.count_tokens
    return lambda text, words: count_tokens(text)


class WhitespaceTokenizer:
    """Identity tokenizer: one token per whitespace word (fertility 1.0)."""

    name = "whitespace"

    def count_tokens(self, text: str) -> int:
        return self.count_words(segment_words(text))

    def count_words(self, words: list[str]) -> int:
        return len(words)


class CharacterTokenizer:
    """One token per non-whitespace character (the overtokenization ceiling)."""

    name = "character"

    def count_tokens(self, text: str) -> int:
        return self.count_words(segment_words(text))

    def count_words(self, words: list[str]) -> int:
        return sum(map(len, words))


class VocabTokenizer:
    """Greedy longest-prefix subword tokenizer over a plain-text vocabulary.

    Each word is consumed left to right by the longest vocabulary entry that
    prefixes the remainder, falling back to a single character. Tokens never
    span whitespace, so fertility is always >= 1.

    ``count_words`` tokenizes each distinct word once: a memo maps word to
    token count and is cleared when it holds ``_WORD_MEMO_CAP`` (65,536)
    words, so a long-tail corpus keeps flat memory. The counts are summed in
    C over the memo's lookups; only a missing word runs Python code (see
    ``_WordMemo``).
    """

    def __init__(self, vocab: Iterable[str], name: str = "vocab"):
        self.name = name
        self._vocab = {entry for entry in vocab if entry}
        self._max_len = max((len(v) for v in self._vocab), default=1)
        self._word_counts = _WordMemo(self)

    @classmethod
    def from_file(cls, path: str | Path) -> "VocabTokenizer":
        """One entry per line, a leading byte-order mark dropped; the tokenizer
        is named after the file's stem."""
        p = Path(path)
        return cls(p.read_text(encoding="utf-8-sig").splitlines(), name=p.stem)

    def tokenize_word(self, word: str) -> list[str]:
        tokens: list[str] = []
        i = 0
        while i < len(word):
            piece = word[i : i + 1]
            for length in range(min(self._max_len, len(word) - i), 1, -1):
                candidate = word[i : i + length]
                if candidate in self._vocab:
                    piece = candidate
                    break
            tokens.append(piece)
            i += len(piece)
        return tokens

    def count_tokens(self, text: str) -> int:
        return self.count_words(segment_words(text))

    def count_words(self, words: list[str]) -> int:
        return sum(map(self._word_counts.__getitem__, words))


class _WordMemo(dict):
    """Word -> token count for one ``VocabTokenizer``: looking up a missing
    word tokenizes and stores it, clearing the memo first when it holds
    ``_WORD_MEMO_CAP`` words."""

    __slots__ = ("tok",)

    def __init__(self, tok: VocabTokenizer):
        super().__init__()
        self.tok = tok

    def __missing__(self, word: str) -> int:
        if len(self) >= _WORD_MEMO_CAP:
            self.clear()
        count = self[word] = len(self.tok.tokenize_word(word))
        return count


@dataclass(frozen=True)
class FertilityReport:
    tokenizer_name: str
    total_words: int
    total_tokens: int
    fertility: float
    average: str = "micro"


def fertility_reports(
    corpus: Iterable[Document | str],
    toks: Sequence[TokenizerAdapter],
    average: str = "micro",
) -> list[FertilityReport]:
    """Corpus fertility for each tokenizer of ``toks``, in its order, from one
    pass over ``corpus`` that splits each document into words once: the word
    count and every tokenizer that ``document_counter`` counts by
    ``count_words`` share that split.

    Micro average (the default): sum tokens over all documents, divide by the
    summed word count once. ``average="macro"`` instead takes the mean of
    per-document ratios over the documents that have words. ``average`` is
    checked before ``corpus`` is read. Raises ValueError on a corpus with no
    words.
    """
    if average not in ("micro", "macro"):
        raise ValueError(f"unknown average {average!r} (expected 'micro' or 'macro')")
    counters = [document_counter(tok) for tok in toks]
    words = docs_with_words = 0
    tokens = [0] * len(toks)
    ratio_sums = [0.0] * len(toks)
    for doc in corpus:
        text = doc if isinstance(doc, str) else doc.text
        word_list = segment_words(text)
        doc_words = len(word_list)
        words += doc_words
        docs_with_words += doc_words > 0
        for i, count in enumerate(counters):
            doc_tokens = count(text, word_list)
            tokens[i] += doc_tokens
            if doc_words:
                ratio_sums[i] += doc_tokens / doc_words
    if words == 0:
        raise ValueError("empty corpus: no words to score")
    return [
        FertilityReport(tok.name, words, t, t / words if average == "micro" else ratio_sum / docs_with_words, average)
        for tok, t, ratio_sum in zip(toks, tokens, ratio_sums)
    ]


def fertility(
    corpus: Iterable[Document | str],
    tok: TokenizerAdapter,
    average: str = "micro",
) -> FertilityReport:
    """``fertility_reports`` for one tokenizer."""
    return fertility_reports(corpus, [tok], average)[0]
