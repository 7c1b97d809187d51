"""Synthetic instruction-dialogue factory.

Cleaned documents are chunked on sentence punctuation, wrapped into
rephrasing prompts (plain question/answer dialogues, or multiple-choice
questions seeded with a one-shot exemplar), sent to a pluggable generator,
and the responses are parsed and structurally validated before being
rendered as ChatML. A deterministic mock generator is shipped so the whole
factory runs and tests offline; swap in a real model client by implementing
``GeneratorAdapter``.
"""
from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Protocol, TextIO

from ._schema import INTEGER, LIST, OBJECT, STRING, STRING_OR_NULL, STRINGS, check, get_field, iter_json_lines
from .corpus import Document
from .tokenization import segment_words

HUMAN = "human"
GPT = "gpt"

IM_START = "<|im_start|>"
IM_END = "<|im_end|>"

ORIGIN_REPHRASE_STANDARD = "rephrase_standard"
ORIGIN_REPHRASE_MCQ = "rephrase_mcq"


@dataclass
class Turn:
    role: str
    value: str


@dataclass
class Dialogue:
    """Alternating human/gpt conversation; ``origin`` is bookkeeping only."""

    turns: list[Turn]
    origin: str | None = field(default=None, compare=False)

    @property
    def question_turns(self) -> int:
        return sum(1 for t in self.turns if t.role == HUMAN)


class Rejection(Exception):
    """Why a response or record gives no dialogue: raised by the parsers, and
    yielded in the dialogue's place by ``iter_chunk_outcomes`` and
    ``load_instruction_records``. Equal when ``reason`` and ``detail`` are."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail

    def __eq__(self, other):
        return type(other) is Rejection and (self.reason, self.detail) == (other.reason, other.detail)

    def __hash__(self):
        return hash((self.reason, self.detail))


def validate_dialogue(d: Dialogue) -> str | None:
    """Reason the dialogue cannot be written, or None: the structural contract, then
    ``reserved_sequence`` for a ChatML marker in a turn (escaping it would corrupt the data)."""
    if not d.turns:
        return "empty"
    if len(d.turns) < 2:
        return "too_few_turns"
    if any(t.role not in (HUMAN, GPT) for t in d.turns):
        return "bad_role"
    if d.turns[0].role != HUMAN or d.turns[-1].role != GPT:
        return "role_order"
    for prev, cur in zip(d.turns, d.turns[1:]):
        if prev.role == cur.role:
            return "role_order"
    if any(not t.value.strip() for t in d.turns):
        return "empty_turn"
    for t in d.turns:
        if IM_START in t.value or IM_END in t.value:
            return "reserved_sequence"
    return None


# --- MCQ items ----------------------------------------------------------------

ENUM_STYLES: dict[str, tuple[str, ...]] = {
    "latin_letters": ("A", "B", "C", "D", "E"),
    "arabic_letters": ("أ", "ب", "ج", "د", "ه"),
    "western_digits": ("1", "2", "3", "4", "5"),
    "arabic_indic_digits": ("١", "٢", "٣", "٤", "٥"),
}

_ANSWER_LABELS = ("الإجابة", "الاجابة", "الجواب", "Answer")
_ANSWER_RE = re.compile(
    r"^\s*(?:" + "|".join(_ANSWER_LABELS) + r")\s*[::]\s*(.+?)\s*$"
)
_OPTION_MARKERS = {m: (style, i) for style, markers in ENUM_STYLES.items() for i, m in enumerate(markers)}
_OPTION_RE = re.compile(
    r"^\s*(" + "|".join(re.escape(m) for m in _OPTION_MARKERS) + r")[.)]\s+(.+?)\s*$"
)


@dataclass
class MCQItem:
    question: str
    options: list[str]
    answer_index: int
    enum_style: str = "latin_letters"

    @classmethod
    def from_dict(cls, data) -> "MCQItem":
        """Item from parsed JSON; a missing or wrongly typed key raises ValueError
        naming it, and an item that ``validate_mcq`` refuses one naming the reason."""
        check(data, OBJECT, "MCQ item")
        item = cls(
            get_field(data, "question", STRING, "MCQ item: "),
            list(get_field(data, "options", STRINGS, "MCQ item: ")),
            get_field(data, "answer_index", INTEGER, "MCQ item: "),
            get_field(data, "enum_style", STRING, "MCQ item: ", "latin_letters"),
        )
        reason = validate_mcq(item)
        if reason:
            raise ValueError(f"invalid MCQ item: {reason}")
        return item


def validate_mcq(item: MCQItem) -> str | None:
    """Reason the item breaks the MCQ contract, or None if valid. The option
    checks come before ``no_question``, in the order ``parse_mcq`` reports them."""
    if len(item.options) < 2:
        return "too_few_options"
    if len(item.options) > 5:
        return "too_many_options"
    if any(not o.strip() for o in item.options):
        return "empty_option"
    if len(set(item.options)) != len(item.options):
        return "duplicate_options"
    if not item.question.strip():
        return "no_question"
    if not 0 <= item.answer_index < len(item.options):
        return "answer_missing"
    if item.enum_style not in ENUM_STYLES:
        return "bad_style"
    return None


def render_mcq(item: MCQItem) -> str:
    """Question, enumerated options, and an answer line naming the marker."""
    reason = validate_mcq(item)
    if reason:
        raise ValueError(f"invalid MCQ item: {reason}")
    markers = ENUM_STYLES[item.enum_style]
    lines = [item.question]
    lines.extend(f"{markers[i]}. {opt}" for i, opt in enumerate(item.options))
    lines.append(f"الإجابة: {markers[item.answer_index]}")
    return "\n".join(lines)


def parse_mcq(text: str) -> MCQItem:
    """Inverse of render_mcq; raises Rejection with a structured reason: one of
    ``validate_mcq``'s, ``no_answer`` when no answer line follows the options,
    or a parse-only one (``empty``, ``mixed_enumeration``, ``bad_marker_order``,
    ``unparseable``)."""
    if not text.strip():
        raise Rejection("empty")
    question_lines: list[str] = []
    options: list[str] = []
    style: str | None = None
    answer_raw: str | None = None
    for line in text.split("\n"):
        if not line.strip():
            continue
        m = _ANSWER_RE.match(line)
        if m and options:
            answer_raw = m.group(1)
            continue
        m = _OPTION_RE.match(line)
        if m:
            marker_style, index = _OPTION_MARKERS[m.group(1)]
            if style is None:
                style = marker_style
            elif style != marker_style:
                raise Rejection("mixed_enumeration", f"{style} vs {marker_style}")
            if index != len(options):
                raise Rejection("bad_marker_order", m.group(1))
            options.append(m.group(2))
            continue
        if not options:
            question_lines.append(line.strip())
        else:
            raise Rejection("unparseable", f"stray line after options: {line.strip()!r}")
    # With no options, style is None; validate_mcq stops at too_few_options first.
    item = MCQItem("\n".join(question_lines), options, -1, style)
    markers = ENUM_STYLES.get(style, ())
    if answer_raw in markers:  # a marker past the last option is answer_missing
        item.answer_index = markers.index(answer_raw)
    elif answer_raw in options:
        item.answer_index = options.index(answer_raw)
    reason = validate_mcq(item)
    if reason == "answer_missing":
        raise Rejection("no_answer") if answer_raw is None else Rejection(reason, answer_raw)
    if reason:
        raise Rejection(reason)
    return item


def mcq_to_dialogue(item: MCQItem) -> Dialogue:
    """Wrap an MCQ as one question/answer pair: options shown, marker answered."""
    markers = ENUM_STYLES[item.enum_style]
    human = "\n".join(
        [item.question] + [f"{markers[i]}. {opt}" for i, opt in enumerate(item.options)]
    )
    gpt = f"{markers[item.answer_index]}. {item.options[item.answer_index]}"
    return Dialogue(turns=[Turn(HUMAN, human), Turn(GPT, gpt)], origin=ORIGIN_REPHRASE_MCQ)


# --- Chunking -----------------------------------------------------------------

_SENTENCE_RE = re.compile(r"[^.!?؟۔]+(?:[.!?؟۔]+)?")


def split_sentences(text: str) -> list[str]:
    return [s.strip() for s in _SENTENCE_RE.findall(text) if s.strip()]


def _check_max_chars(max_chars: int) -> None:
    if max_chars < 1:
        raise ValueError("max_chars must be >= 1")


def chunk_document(doc: Document | str, max_chars: int) -> list[str]:
    """Greedy sentence packing into chunks of at most ``max_chars`` characters.

    Sentences end at Arabic or Latin sentence-final punctuation. A sentence
    is only ever split mid-way when it alone exceeds ``max_chars``.
    """
    _check_max_chars(max_chars)
    text = doc.text if isinstance(doc, Document) else doc
    if not text.strip():
        return []
    if len(text) <= max_chars:
        return [text]
    chunks: list[str] = []
    current = ""
    for sentence in split_sentences(text):
        if len(sentence) > max_chars:
            if current:
                chunks.append(current)
                current = ""
            chunks.extend(sentence[i : i + max_chars] for i in range(0, len(sentence), max_chars))
            continue
        candidate = f"{current} {sentence}" if current else sentence
        if len(candidate) <= max_chars:
            current = candidate
        else:
            chunks.append(current)
            current = sentence
    if current:
        chunks.append(current)
    return chunks


# --- Prompts and the generator interface ---------------------------------------

_CHUNK_OPEN = "النص: «"
_CHUNK_CLOSE = "»"

STANDARD_PROMPT_TEMPLATE = (
    "أنشئ حواراً من أسئلة وأجوبة اعتماداً على النص التالي فقط.\n"
    'اكتب كل سؤال في سطر يبدأ بـ"سؤال:" وكل جواب في سطر يبدأ بـ"جواب:".\n'
    "\n"
    f"{_CHUNK_OPEN}{{chunk}}{_CHUNK_CLOSE}"
)

MCQ_PROMPT_TEMPLATE = (
    "أنشئ سؤال اختيار من متعدد مع إجابته اعتماداً على النص التالي،"
    " بنفس تنسيق المثال المعطى.\n"
    "\n"
    "مثال:\n"
    "{exemplar}\n"
    "\n"
    f"{_CHUNK_OPEN}{{chunk}}{_CHUNK_CLOSE}"
)

# Alphabetic markers dominate real MCQ output; other styles appear occasionally.
_STYLE_NAMES = tuple(ENUM_STYLES)
_STYLE_WEIGHTS = (0.7, 0.1, 0.1, 0.1)

DEFAULT_EXEMPLAR = MCQItem(
    question="ما عاصمة المملكة العربية السعودية؟",
    options=["جدة", "الرياض", "مكة", "الدمام"],
    answer_index=1,
)


def build_prompt(
    chunk: str,
    template: str = "standard",
    exemplar: MCQItem | None = None,
    seed: int = 0,
) -> str:
    """Render a rephrasing prompt around a document chunk.

    The standard template asks for a labeled question/answer dialogue and
    contains the chunk verbatim exactly once. The MCQ template embeds the
    one-shot exemplar (``DEFAULT_EXEMPLAR`` when none is given) re-rendered
    in an enumeration style drawn from the seed. Deterministic in (chunk, seed).
    """
    return _prompter(template, exemplar)(chunk, seed)


def _prompter(template: str, exemplar: MCQItem | None) -> Callable[[str, int], str]:
    """``build_prompt`` with its template and exemplar fixed, as a function
    of (chunk, seed). It renders the MCQ exemplar once per enumeration
    style, not once per prompt."""
    if template == "standard":
        return lambda chunk, seed: STANDARD_PROMPT_TEMPLATE.format(chunk=chunk)
    if template != "mcq":
        raise ValueError(f"unknown template {template!r}")
    if exemplar is None:
        exemplar = DEFAULT_EXEMPLAR
    shots: dict[str, str] = {}

    def prompt(chunk: str, seed: int) -> str:
        style = random.Random(seed).choices(_STYLE_NAMES, weights=_STYLE_WEIGHTS, k=1)[0]
        shot = shots.get(style)
        if shot is None:
            shot = shots[style] = render_mcq(MCQItem(
                question=exemplar.question,
                options=list(exemplar.options),
                answer_index=exemplar.answer_index,
                enum_style=style,
            ))
        return MCQ_PROMPT_TEMPLATE.format(exemplar=shot, chunk=chunk)

    return prompt


class GeneratorAdapter(Protocol):
    """Text generator behind the rephrasing prompts (an LLM in production)."""

    name: str

    def generate(self, prompt: str, seed: int) -> str: ...


def _builtin_sha256():
    """SHA-256 from CPython's builtin module, as ``random`` takes SHA-512:
    ``hashlib`` loads OpenSSL, ~3.7 MB resident and ~4.5 ms of import, for
    this one digest. ``hashlib`` only where neither builtin module exists.
    The digests are the same, so every seed is."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


_sha256 = _builtin_sha256()


def _stable_hash(*parts) -> int:
    """The first 64 bits of the SHA-256 of the ``:``-joined parts, big-endian."""
    return int.from_bytes(_sha256(":".join(map(str, parts)).encode("utf-8")).digest()[:8], "big")


def _extract_chunk(prompt: str) -> str:
    start = prompt.rfind(_CHUNK_OPEN)
    if start < 0:
        return prompt
    start += len(_CHUNK_OPEN)
    end = prompt.rfind(_CHUNK_CLOSE)
    if end <= start:
        return prompt[start:]
    return prompt[start:end]


_ORDINALS = ("الأول", "الثاني", "الثالث", "الرابع", "الخامس")


@dataclass
class MockGenerator:
    """Offline stand-in for the rephrasing model.

    Deterministic in (prompt, seed). Emits labeled Q/A dialogues for
    standard prompts (mostly two pairs) and single multiple-choice questions
    for MCQ prompts (marker style mostly alphabetic). ``malformed_rate``, in
    [0, 1], plants structurally broken responses for exercising the filters.
    """

    malformed_rate: float = 0.0
    name = "mock"  # a class attribute, not a field: it seeds every response

    def __post_init__(self):
        if not 0 <= self.malformed_rate <= 1:
            raise ValueError(f"malformed_rate must be a number in [0, 1], got {self.malformed_rate}")

    def generate(self, prompt: str, seed: int) -> str:
        rng = random.Random(_stable_hash(self.name, seed, prompt))
        words = segment_words(_extract_chunk(prompt))
        if not words:
            words = ["النص"]
        if "اختيار من متعدد" in prompt:
            return self._mcq(rng, words)
        return self._standard(rng, words)

    def _pick(self, rng: random.Random, words: list[str], k: int) -> list[str]:
        # choice(words) is words[randrange(len(words))] from the same draw, minus randrange's argument checks.
        return [rng.choice(words) for _ in range(k)]

    def _standard(self, rng: random.Random, words: list[str]) -> str:
        if rng.random() < self.malformed_rate:
            mode = rng.randrange(3)
            if mode == 0:
                return " ".join(self._pick(rng, words, 6))  # no labels at all
            if mode == 1:
                return "جواب: " + " ".join(self._pick(rng, words, 4)) + "\nسؤال: لماذا؟"
            return "سؤال: ما المقصود؟\nجواب:"
        pairs = rng.choices((1, 2, 3), weights=(0.2, 0.65, 0.15), k=1)[0]
        lines = []
        for _ in range(pairs):
            q = self._pick(rng, words, 2)
            a = self._pick(rng, words, 5)
            lines.append(f"سؤال: ما الذي يذكره النص عن {q[0]} و{q[1]}؟")
            lines.append(f"جواب: يذكر النص أن {' '.join(a)}.")
        return "\n".join(lines)

    def _mcq(self, rng: random.Random, words: list[str]) -> str:
        style = rng.choices(_STYLE_NAMES, weights=_STYLE_WEIGHTS, k=1)[0]
        picks = self._pick(rng, words, 4)
        options = [f"{_ORDINALS[i]}: {w}" for i, w in enumerate(picks)]
        item = MCQItem(
            question=f"أي مما يلي ورد في النص عن {picks[0]}؟",
            options=options,
            answer_index=rng.randrange(4),
            enum_style=style,
        )
        if rng.random() < self.malformed_rate:
            mode = rng.randrange(3)
            markers = ENUM_STYLES[style]
            if mode == 0:  # answer marker beyond the option list
                body = render_mcq(item).rsplit("\n", 1)[0]
                return body + f"\nالإجابة: {markers[4]}"
            if mode == 1:  # single option
                return f"{item.question}\n{markers[0]}. {options[0]}\nالإجابة: {markers[0]}"
            return " ".join(picks)  # no structure
        return render_mcq(item)


# --- Dialogue response parsing --------------------------------------------------

_Q_LABELS = ("سؤال", "س", "Question", "Q")
_A_LABELS = ("الإجابة", "الاجابة", "الجواب", "جواب", "ج", "Answer", "A")
_LABEL_RE = re.compile(
    r"^\s*(?P<label>" + "|".join(_Q_LABELS + _A_LABELS) + r")\s*[::]\s*(?P<rest>.*)$"
)
_Q_SET = set(_Q_LABELS)


def parse_dialogue_response(text: str) -> Dialogue:
    """Extract alternating question/answer turns from labeled lines.

    Lines starting with a question label open a human turn, answer labels a
    gpt turn; unlabeled lines continue the current turn. Raises
    Rejection (reason: empty / unparseable / role_order / empty_turn)
    when the result cannot satisfy the dialogue contract.
    """
    if not text.strip():
        raise Rejection("empty")
    turns: list[Turn] = []
    current: Turn | None = None
    for line in text.split("\n"):
        m = _LABEL_RE.match(line)
        if m:
            if current is not None:
                turns.append(current)
            role = HUMAN if m.group("label") in _Q_SET else GPT
            current = Turn(role, m.group("rest").strip())
        elif current is not None and line.strip():
            current = Turn(current.role, f"{current.value}\n{line.strip()}".strip())
    if current is not None:
        turns.append(current)
    if not turns:
        raise Rejection("unparseable", "no labeled lines")
    dialogue = Dialogue(turns=turns, origin=ORIGIN_REPHRASE_STANDARD)
    reason = validate_dialogue(dialogue)
    if reason:
        raise Rejection(reason if reason != "too_few_turns" else "role_order")
    return dialogue


def filter_dialogues(
    candidates: Iterable[Dialogue | Rejection],
) -> tuple[list[Dialogue], dict[str, int]]:
    """Keep valid dialogues; tally rejects by reason."""
    rejects: dict[str, int] = {}
    return list(valid_dialogues(candidates, rejects)), rejects


def valid_dialogues(candidates: Iterable[Dialogue | Rejection], rejects: dict[str, int]) -> Iterator[Dialogue]:
    """Each valid dialogue of ``candidates`` as it comes, validated once; each
    rejection and invalid dialogue is tallied by reason into ``rejects``."""
    for candidate in candidates:
        if isinstance(candidate, Rejection):
            reason = candidate.reason
        else:
            reason = validate_dialogue(candidate)
            if not reason:
                yield candidate
                continue
        rejects[reason] = rejects.get(reason, 0) + 1


# --- ChatML ---------------------------------------------------------------------

_ROLE_TO_CHATML = {HUMAN: "user", GPT: "assistant"}
_CHATML_TO_ROLE = {v: k for k, v in _ROLE_TO_CHATML.items()}
_CHATML_BLOCK_RE = re.compile(
    re.escape(IM_START) + r"(user|assistant)\n(.*?)" + re.escape(IM_END) + r"\n",
    re.DOTALL,
)


def render_chatml(d: Dialogue) -> str:
    """One ``<|im_start|>role ... <|im_end|>`` block per turn; a dialogue that
    ``validate_dialogue`` refuses, one holding a marker included, raises ValueError."""
    reason = validate_dialogue(d)
    if reason:
        raise ValueError(f"invalid dialogue: {reason}")
    return _chatml_blocks(d)


def _chatml_blocks(d: Dialogue) -> str:
    """``render_chatml`` of a dialogue already validated."""
    return "".join(f"{IM_START}{_ROLE_TO_CHATML[turn.role]}\n{turn.value}{IM_END}\n" for turn in d.turns)


def parse_chatml(text: str) -> Dialogue:
    """Exact inverse of render_chatml; raises ValueError on malformed input."""
    turns: list[Turn] = []
    pos = 0
    for m in _CHATML_BLOCK_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unbalanced ChatML markers near offset {pos}")
        turns.append(Turn(_CHATML_TO_ROLE[m.group(1)], m.group(2)))
        pos = m.end()
    if pos != len(text) or not turns:
        raise ValueError(f"unbalanced ChatML markers near offset {pos}")
    return Dialogue(turns=turns)


# --- Dataset assembly and statistics ---------------------------------------------


def build_dialogues(
    docs: Iterable[Document],
    generator: GeneratorAdapter,
    template: str = "standard",
    *,
    max_chars: int = 2000,
    seed: int = 0,
    exemplar: MCQItem | None = None,
) -> tuple[list[Dialogue], dict[str, int]]:
    """Chunk documents, prompt the generator, parse, and filter.

    The dialogues come in ``iter_chunk_outcomes``' order (template, document
    id, chunk index), so the same inputs and seed give the same output.
    Returns the kept dialogues (origin tagged) and the per-reason reject
    counts.
    """
    return filter_dialogues(
        iter_chunk_outcomes(docs, generator, template, max_chars=max_chars, seed=seed, exemplar=exemplar)
    )


def iter_chunk_outcomes(
    docs: Iterable[Document],
    generator: GeneratorAdapter,
    template: str = "standard",
    *,
    max_chars: int = 2000,
    seed: int = 0,
    exemplar: MCQItem | None = None,
) -> Iterator[Dialogue | Rejection]:
    """Each chunk's outcome as it is generated: the parsed dialogue (origin
    tagged by the template's parser), or the parser's rejection.

    Chunks come in order of template (``"both"`` is ``"standard"`` then
    ``"mcq"``), document id, then chunk index. ``valid_dialogues`` may still
    refuse an MCQ dialogue, for a ChatML marker taken from the chunk.
    ``max_chars`` and the template are checked before any document is read.
    """
    _check_max_chars(max_chars)
    templates = ("standard", "mcq") if template == "both" else (template,)
    prompts = [_prompter(one, exemplar) for one in templates]
    docs = sorted(docs, key=lambda d: d.id)
    for one, prompt in zip(templates, prompts):
        parse = (lambda text: mcq_to_dialogue(parse_mcq(text))) if one == "mcq" else parse_dialogue_response
        for doc in docs:
            for idx, chunk in enumerate(chunk_document(doc, max_chars)):
                chunk_seed = _stable_hash(doc.id, idx, seed)
                response = generator.generate(prompt(chunk, chunk_seed), chunk_seed)
                try:
                    outcome = parse(response)
                except Rejection as rejection:
                    outcome = rejection
                yield outcome


def _detect_enum_style(value: str) -> str | None:
    styles = set()
    for line in value.split("\n"):
        m = _OPTION_RE.match(line)
        if m:
            styles.add(_OPTION_MARKERS[m.group(1)][0])
    if len(styles) == 1:
        return styles.pop()
    return None


@dataclass
class DatasetStats:
    turn_histogram: dict[int, int]
    enum_style_histogram: dict[str, int]
    per_origin_counts: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "turn_histogram": {str(k): v for k, v in sorted(self.turn_histogram.items())},
            "enum_style_histogram": dict(sorted(self.enum_style_histogram.items())),
            "per_origin_counts": dict(sorted(self.per_origin_counts.items())),
        }


def dataset_stats(dialogues: Iterable[Dialogue]) -> DatasetStats:
    """Histogram material: a "turn" is one question/answer pair (human turn)."""
    turn_hist: Counter[int] = Counter()
    style_hist: Counter[str] = Counter()
    origin_counts: Counter[str] = Counter()
    for d in dialogues:
        turn_hist[d.question_turns] += 1
        origin_counts[d.origin or "unknown"] += 1
        for turn in d.turns:
            if turn.role != HUMAN:
                continue
            style = _detect_enum_style(turn.value)
            if style:
                style_hist[style] += 1
    return DatasetStats(
        turn_histogram=dict(turn_hist),
        enum_style_histogram=dict(style_hist),
        per_origin_counts=dict(origin_counts),
    )


# Outcomes are drawn and written in blocks of _BLOCK, not one of each in turn.
# One at a time measured ~8% slower in wall time on `instruct build` (2 cores,
# Python 3.11), most likely from the cache misses of alternating between
# generating and encoding; blocks of 16 or more ran as fast as a whole list.
_BLOCK = 64


def write_chatml_jsonl(
    outcomes: Iterable[Dialogue | Rejection],
    out: TextIO,
) -> tuple[DatasetStats, dict[str, int]]:
    """Write each valid dialogue of ``outcomes`` to ``out`` as one
    ``{"origin", "text"}`` ChatML line, validating it once, in one pass.

    Returns the written dialogues' ``dataset_stats`` and the reject counts by
    reason (rejections and invalid dialogues). Outcomes are taken ``_BLOCK``
    at a time, and no dialogue is held after its block is written.
    """
    rejects: dict[str, int] = {}

    def written() -> Iterator[Dialogue]:
        pending = iter(outcomes)
        while block := list(islice(pending, _BLOCK)):
            for d in valid_dialogues(block, rejects):
                out.write(_chatml_record(d) + "\n")
                yield d

    return dataset_stats(written()), rejects


_json_string = json.encoder.encode_basestring  # a str as json.dumps(..., ensure_ascii=False) writes it


def _chatml_record(d: Dialogue) -> str:
    """``json.dumps({"origin": d.origin, "text": render_chatml(d)}, sort_keys=True,
    ensure_ascii=False)`` for a dialogue already validated. Spelling out the two
    keys skips the encoder ``json.dumps`` sets up per call, which took ~2/3 of
    the encoding time on ChatML records of ~1 KB."""
    origin = d.origin
    origin = _json_string(origin) if isinstance(origin, str) else json.dumps(origin, sort_keys=True, ensure_ascii=False)
    return '{"origin": ' + origin + ', "text": ' + _json_string(_chatml_blocks(d)) + "}"


# --- External JSONL formats -------------------------------------------------------

_TURN_ROLE_ALIASES = {"human": HUMAN, "user": HUMAN, "gpt": GPT, "assistant": GPT}


def _turns_from_list(raw_turns: list, where: str) -> list[Turn]:
    """Turns from ``{"from", "value"}`` objects; ValueError names a wrongly typed
    turn, and Rejection an unknown role."""
    turns = []
    for i, raw in enumerate(raw_turns):
        name = f"{where}turn {i}"
        role_name = get_field(check(raw, OBJECT, name), "from", STRING, name + ": ", "")
        value = get_field(raw, "value", STRING, name + ": ", "")
        role = _TURN_ROLE_ALIASES.get(role_name.lower())
        if role is None:
            raise Rejection("bad_role", role_name)
        turns.append(Turn(role, value))
    return turns


def _dialogue_from_record(record, origin: str | None, where: str) -> Dialogue:
    """One parsed record as a dialogue; ValueError names a wrongly typed field,
    Rejection any other record that is no dialogue."""
    if isinstance(record, list):
        return Dialogue(turns=_turns_from_list(record, where), origin=origin)
    if isinstance(record, dict):
        origin = get_field(record, "origin", STRING_OR_NULL, where, origin)
        if "text" in record:
            text = get_field(record, "text", STRING, where)
            try:
                return Dialogue(turns=parse_chatml(text).turns, origin=origin)
            except ValueError as exc:
                raise Rejection("bad_record", str(exc)) from None
        if "conversations" in record or "turns" in record:
            key = "conversations" if "conversations" in record else "turns"
            return Dialogue(turns=_turns_from_list(get_field(record, key, LIST, where), where), origin=origin)
        if "instruction" in record:
            question = get_field(record, "instruction", STRING, where)
            answer = (get_field(record, "output", STRING, where, "") or get_field(record, "response", STRING, where, "")
                      or get_field(record, "answer", STRING, where, ""))
            return Dialogue(turns=[Turn(HUMAN, question), Turn(GPT, answer)], origin=origin)
    raise Rejection("bad_record", "unrecognized record shape")


def load_instruction_records(lines: Iterable[bytes | str], origin: str) -> Iterator[Dialogue | Rejection]:
    """Read dialogue and instruction data as JSONL, skipping blank lines.

    Accepts four record shapes: ChatML ``{"text"}`` as ``instruct build``
    writes it, a bare list of ``{"from", "value"}`` turns, an object with a
    ``conversations``/``turns`` key holding such a list, or one
    ``{"instruction", "output"}`` pair, wrapped as a two-turn dialogue. An
    object's ``origin`` field overrides ``origin``. Any other line, one that
    ``iter_json_lines`` cannot decode or parse included, yields a rejection.
    """
    for lineno, record, reason in iter_json_lines(lines):
        where = f"line {lineno}: "
        if reason == "empty line":
            continue
        if reason is not None:
            yield Rejection("bad_record", where + reason)
            continue
        try:
            outcome = _dialogue_from_record(record, origin, where)
        except Rejection as rejection:
            outcome = rejection
        except ValueError as exc:
            outcome = Rejection("bad_record", str(exc))
        yield outcome
