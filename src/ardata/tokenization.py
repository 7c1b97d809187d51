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
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

if TYPE_CHECKING:
    from .corpus import Document

_WORD_MEMO_CAP = 1 << 16  # distinct words in a VocabTokenizer's memo (see its docstring)


class TokenizerAdapter(Protocol):
    """Anything that can count tokens for a piece of text.

    Implementations must be deterministic and return 0 for the empty string.
    ``count_tokens`` must be a pure function of the text, so a result may be
    memoized per distinct text (``VocabTokenizer`` does so per word).
    """

    name: str

    def count_tokens(self, text: str) -> int: ...


def segment_words(text: str) -> list[str]:
    """Words are maximal runs of non-whitespace; punctuation stays attached."""
    return text.split()


class WhitespaceTokenizer:
    """Identity tokenizer: one token per whitespace word (fertility 1.0)."""

    name = "whitespace"

    def count_tokens(self, text: str) -> int:
        return len(segment_words(text))


class CharacterTokenizer:
    """One token per non-whitespace character (the overtokenization ceiling)."""

    name = "character"

    def count_tokens(self, text: str) -> int:
        return len("".join(segment_words(text)))


class VocabTokenizer:
    """Greedy longest-prefix subword tokenizer over a plain-text vocabulary.

    Each word is consumed left to right by the longest vocabulary entry that
    prefixes the remainder, falling back to a single character. Tokens never
    span whitespace, so fertility is always >= 1.

    ``count_tokens`` tokenizes each distinct word once: a memo maps word to
    token count and is cleared when it holds ``_WORD_MEMO_CAP`` (65,536)
    words, so a long-tail corpus keeps flat memory.
    """

    def __init__(self, vocab: Iterable[str], name: str = "vocab"):
        self.name = name
        self._vocab = {entry for entry in vocab if entry}
        self._max_len = max((len(v) for v in self._vocab), default=1)
        self._word_counts: dict[str, int] = {}

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
        memo = self._word_counts
        total = 0
        for word in segment_words(text):
            count = memo.get(word)
            if count is None:
                if len(memo) >= _WORD_MEMO_CAP:
                    memo.clear()
                count = memo[word] = len(self.tokenize_word(word))
            total += count
        return total


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
    pass over ``corpus`` that splits each document into words once.

    Micro average (the default): sum tokens over all documents, divide by the
    summed word count once. ``average="macro"`` instead takes the mean of
    per-document ratios over the documents that have words. ``average`` is
    checked before ``corpus`` is read. Raises ValueError on a corpus with no
    words.
    """
    if average not in ("micro", "macro"):
        raise ValueError(f"unknown average {average!r} (expected 'micro' or 'macro')")
    words = docs_with_words = 0
    tokens = [0] * len(toks)
    ratio_sums = [0.0] * len(toks)
    for doc in corpus:
        text = doc if isinstance(doc, str) else doc.text
        doc_words = len(segment_words(text))
        words += doc_words
        docs_with_words += doc_words > 0
        for i, tok in enumerate(toks):
            doc_tokens = tok.count_tokens(text)
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
