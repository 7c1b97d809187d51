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


# (text, its segment_words): one tuple, replaced whole, so a concurrent caller
# never pairs one text with another's words.
_last_split: tuple[str | None, list[str]] = (None, [])


def shared_words(text: str) -> list[str]:
    """``segment_words(text)``, split once for consecutive calls with the same
    ``str`` object, so the callers that read one document's words in turn
    (``fertility_reports``, the ``gopher`` rule, the built-in tokenizers)
    share one split. Callers must not change the list."""
    global _last_split
    last_text, words = _last_split
    if last_text is not text:
        words = segment_words(text)
        _last_split = (text, words)
    return words


class WhitespaceTokenizer:
    """Identity tokenizer: one token per whitespace word (fertility 1.0)."""

    name = "whitespace"

    def count_tokens(self, text: str) -> int:
        return len(shared_words(text))


class CharacterTokenizer:
    """One token per non-whitespace character (the overtokenization ceiling)."""

    name = "character"

    def count_tokens(self, text: str) -> int:
        return sum(map(len, shared_words(text)))


class VocabTokenizer:
    """Greedy longest-prefix subword tokenizer over a plain-text vocabulary.

    Each word is consumed left to right by the longest vocabulary entry that
    prefixes the remainder, falling back to a single character. Tokens never
    span whitespace, so fertility is always >= 1.

    ``count_tokens`` tokenizes each distinct word once: a memo maps word to
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
        return sum(map(self._word_counts.__getitem__, shared_words(text)))


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


def fertility_reports(corpus: Iterable[Document | str], toks: Sequence[TokenizerAdapter]) -> list[FertilityReport]:
    """Corpus fertility for each tokenizer of ``toks``, in its order, from one
    pass over ``corpus`` that splits each document into words once: the word
    count comes from ``shared_words``, so each built-in tokenizer's
    ``count_tokens`` of the same text reuses that split.

    Tokens are summed over all documents and divided by the summed word
    count once (the micro average). Raises ValueError on a corpus with no
    words.
    """
    words = 0
    tokens = [0] * len(toks)
    for doc in corpus:
        text = doc if isinstance(doc, str) else doc.text
        words += len(shared_words(text))
        for i, tok in enumerate(toks):
            tokens[i] += tok.count_tokens(text)
    if words == 0:
        raise ValueError("empty corpus: no words to score")
    return [FertilityReport(tok.name, words, t, t / words) for tok, t in zip(toks, tokens)]


def fertility(corpus: Iterable[Document | str], tok: TokenizerAdapter) -> FertilityReport:
    """``fertility_reports`` for one tokenizer."""
    return fertility_reports(corpus, [tok])[0]
