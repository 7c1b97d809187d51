import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ardata import tokenization
from ardata.corpus import Document
from ardata.tokenization import (
    CharacterTokenizer,
    VocabTokenizer,
    WhitespaceTokenizer,
    fertility,
    fertility_reports,
    segment_words,
)


def docs(*texts):
    return [Document(id=str(i), text=t) for i, t in enumerate(texts)]


def brute_force_fertility(texts, tok):
    """Independent oracle: plain sum-and-divide over the raw texts."""
    total_words = sum(len(t.split()) for t in texts)
    total_tokens = sum(tok.count_tokens(t) for t in texts)
    return total_tokens / total_words


def random_corpus(rng, n_docs=10):
    letters = "ابتثجحخدرزسشصطعفقكلمنهوي" + "abcdefgh"
    texts = []
    for _ in range(n_docs):
        words = [
            "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            for _ in range(rng.randint(1, 30))
        ]
        texts.append(" ".join(words))
    return texts


# --- word segmentation --------------------------------------------------------


def test_segment_empty():
    assert segment_words("") == []


def test_segment_simple():
    assert segment_words("ab cde") == ["ab", "cde"]


def test_segment_punctuation_attached():
    assert segment_words("مرحبا، بالعالم.") == ["مرحبا،", "بالعالم."]


@given(st.lists(st.text(alphabet="abcا", min_size=1, max_size=5), max_size=10))
@settings(max_examples=100)
def test_segment_whitespace_flavours_equivalent(words):
    spaced = " ".join(words)
    messy = "\t".join(words) + "\n"
    assert segment_words(messy) == segment_words(spaced)


def test_shared_words_is_one_split_per_str_object():
    text = "".join(["ab ", "cde"])  # built at run time: a new object
    twin = "".join(["ab", " cde"])
    assert twin == text and twin is not text
    with mock.patch.object(tokenization, "segment_words", wraps=segment_words) as spy:
        words = tokenization.shared_words(text)
        assert tokenization.shared_words(text) is words
        twin_words = tokenization.shared_words(twin)
    assert words == twin_words == ["ab", "cde"] and twin_words is not words
    assert [call.args[0] is text for call in spy.call_args_list] == [True, False]


# --- reference tokenizers -------------------------------------------------------


def test_all_tokenizers_empty_is_zero():
    for tok in (WhitespaceTokenizer(), CharacterTokenizer(), VocabTokenizer(["ab"])):
        assert tok.count_tokens("") == 0


def test_character_tokenizer_counts_non_whitespace():
    assert CharacterTokenizer().count_tokens("ab cde") == 5


def test_vocab_tokenizer_greedy_longest_prefix():
    tok = VocabTokenizer(["ab", "abc", "cd"])
    assert tok.tokenize_word("abcd") == ["abc", "d"]
    assert tok.tokenize_word("abab") == ["ab", "ab"]
    assert tok.count_tokens("abcd abab xy") == 2 + 2 + 2


def test_vocab_tokenizer_from_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("ال\nكتاب\n", encoding="utf-8")
    tok = VocabTokenizer.from_file(path)
    assert tok.tokenize_word("الكتاب") == ["ال", "كتاب"]


def test_vocab_file_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"\xef\xbb\xbfab\ncd\n")
    assert VocabTokenizer.from_file(path).count_tokens("ab cd") == 2


# --- fertility -------------------------------------------------------------------


def test_identity_tokenizer_fertility_is_one():
    report = fertility(docs("كلمة أخرى", "ثالثة"), WhitespaceTokenizer())
    assert report.fertility == 1.0
    assert report.total_words == 3
    assert report.total_tokens == 3


def test_character_tokenizer_worked_example():
    report = fertility(docs("ab cde"), CharacterTokenizer())
    assert report.fertility == 5 / 2 == 2.5


def test_micro_average_not_mean_of_ratios():
    # 3 words / 7 tokens and 1 word / 1 token: micro = 8/4, not mean(7/3, 1).
    class SevenOne:
        name = "stub"

        def count_tokens(self, text):
            return 7 if len(text.split()) == 3 else 1

    report = fertility(docs("a b c", "d"), SevenOne())
    assert report.fertility == 8 / 4 == 2.0


def test_empty_corpus_raises():
    with pytest.raises(ValueError, match="empty corpus"):
        fertility(docs("", "   "), WhitespaceTokenizer())


def test_fertility_matches_brute_force_oracle():
    rng = random.Random(7)
    tok = CharacterTokenizer()
    for _ in range(20):
        texts = random_corpus(rng)
        expected = brute_force_fertility(texts, tok)
        got = fertility(docs(*texts), tok).fertility
        assert got == pytest.approx(expected, rel=1e-12)


def test_fertility_reports_are_each_tokenizers_fertility_from_one_pass():
    texts = random_corpus(random.Random(11))
    toks = [WhitespaceTokenizer(), CharacterTokenizer(), VocabTokenizer(["ab", "ال", "ب"])]
    one_pass = (doc for doc in docs(*texts))  # a generator: it can be read only once
    assert fertility_reports(one_pass, toks) == [fertility(docs(*texts), tok) for tok in toks]


def test_fertility_reports_split_each_document_once_for_every_tokenizer():
    texts = random_corpus(random.Random(5))
    toks = [WhitespaceTokenizer(), CharacterTokenizer(), VocabTokenizer(["ab", "ال", "ب"])]
    with mock.patch.object(tokenization, "segment_words", wraps=segment_words) as spy:
        fertility_reports(docs(*texts), toks)
    assert sorted(call.args[0] for call in spy.call_args_list) == sorted(texts)


class DoubledWhitespace(WhitespaceTokenizer):
    """A built-in's subclass that overrides only ``count_tokens``."""

    def count_tokens(self, text):
        return 2 * len(text.split())


def doubled_instance():
    """A built-in instance whose ``count_tokens`` alone is replaced."""
    tok = WhitespaceTokenizer()
    tok.count_tokens = DoubledWhitespace().count_tokens
    return tok


@pytest.mark.parametrize("make", [DoubledWhitespace, doubled_instance])
def test_fertility_counts_by_an_override_of_only_count_tokens(make):
    (report,) = fertility_reports(docs("a b c", "d"), [make(), WhitespaceTokenizer()])[:1]
    assert (report.total_words, report.total_tokens, report.fertility) == (4, 8, 2.0)


_WORD = st.text(alphabet="ابتab", min_size=1, max_size=6)
_TEXT = st.lists(_WORD, max_size=8).map(" ".join)


@given(st.lists(_TEXT, min_size=2, max_size=12), st.data())
@settings(max_examples=100)
def test_fertility_invariant_under_sharding_and_order(texts, data):
    """The report of ``a + b`` sums the counts of the parts' reports, for any
    split point, and no document order changes it."""
    cut = data.draw(st.integers(min_value=1, max_value=len(texts) - 1), label="cut")
    a, b = texts[:cut], texts[cut:]
    assume(all(segment_words(" ".join(part)) for part in (a, b)))
    tok = CharacterTokenizer()
    ra, rb = fertility(a, tok), fertility(b, tok)
    whole = fertility(a + b, tok)
    assert whole.total_words == ra.total_words + rb.total_words
    assert whole.total_tokens == ra.total_tokens + rb.total_tokens
    assert whole.fertility == (ra.total_tokens + rb.total_tokens) / (ra.total_words + rb.total_words)
    shuffled = data.draw(st.permutations(texts), label="shuffled")
    assert fertility(shuffled, tok).fertility == whole.fertility


def test_finer_tokenizer_never_lower_fertility():
    # identity <= greedy subword <= character, word by word, hence corpus-wide.
    rng = random.Random(11)
    texts = random_corpus(rng, n_docs=12)
    corpus = docs(*texts)
    vocab = VocabTokenizer(["ال", "اب", "ta", "ab", "كت"])
    f_identity = fertility(corpus, WhitespaceTokenizer()).fertility
    f_vocab = fertility(corpus, vocab).fertility
    f_char = fertility(corpus, CharacterTokenizer()).fertility
    assert 1.0 == f_identity <= f_vocab <= f_char


def test_adding_document_moves_fertility_toward_it():
    tok = CharacterTokenizer()
    base = docs("ab ab ab")  # fertility 2.0
    extended = base + docs("abcdef")  # new doc fertility 6.0
    f_base = fertility(base, tok).fertility
    f_ext = fertility(extended, tok).fertility
    assert f_base < f_ext < 6.0
