import copy
import hashlib
import io
import json
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import planted
from ardata import instruct
from ardata.cli import dispatch
from ardata.corpus import Document, document_to_record, ingest_jsonl
from ardata.instruct import (
    DEFAULT_EXEMPLAR,
    ENUM_STYLES,
    GPT,
    HUMAN,
    IM_END,
    IM_START,
    Dialogue,
    MCQItem,
    MockGenerator,
    Rejection,
    Turn,
    build_dialogues,
    build_prompt,
    chunk_document,
    dataset_stats,
    filter_dialogues,
    iter_chunk_outcomes,
    load_instruction_records,
    mcq_to_dialogue,
    parse_chatml,
    parse_dialogue_response,
    parse_mcq,
    render_chatml,
    render_mcq,
    validate_dialogue,
    write_chatml_jsonl,
)


def qa_dialogue(n_pairs=2, origin=None):
    turns = []
    for i in range(n_pairs):
        turns.append(Turn(HUMAN, f"سؤال رقم {i}؟"))
        turns.append(Turn(GPT, f"جواب رقم {i}."))
    return Dialogue(turns=turns, origin=origin)


# --- chunking -------------------------------------------------------------------


def test_chunk_greedy_packing():
    assert chunk_document("a. b. c.", 4) == ["a.", "b.", "c."]


def test_chunk_short_text_verbatim():
    text = "نص قصير جداً"
    assert chunk_document(text, 100) == [text]


def test_chunk_splits_on_arabic_question_mark():
    chunks = chunk_document("هل هذا سؤال؟ نعم هذا سؤال. وهذه جملةثالثة طويلة.", 20)
    assert chunks[0] == "هل هذا سؤال؟"


def test_chunk_oversized_sentence_hard_split():
    text = "ا" * 25 + ". " + "ب" * 5 + "."
    chunks = chunk_document(text, 10)
    assert all(len(c) <= 10 for c in chunks)
    assert "".join(chunks).startswith("ا" * 25)


def test_chunk_empty_document():
    assert chunk_document("   ", 10) == []
    with pytest.raises(ValueError):
        chunk_document("x", 0)


def test_chunk_accepts_document():
    doc = Document(id="d", text="جملة أولى. جملة ثانية.")
    assert chunk_document(doc, 12) == ["جملة أولى.", "جملة ثانية."]


# --- prompts ---------------------------------------------------------------------


def test_standard_prompt_contains_chunk_exactly_once():
    chunk = "محتوى فريد تماما لا يتكرر في القالب"
    prompt = build_prompt(chunk, "standard")
    assert prompt.count(chunk) == 1


def test_mcq_prompt_defaults_to_the_default_exemplar():
    for seed in range(8):  # every enumeration style is drawn at least once
        assert build_prompt("نص", "mcq", seed=seed) == build_prompt("نص", "mcq", exemplar=DEFAULT_EXEMPLAR, seed=seed)


def test_mcq_prompt_renders_exemplar_markers():
    # Seed 1 draws the latin_letters enumeration style for the exemplar.
    prompt = build_prompt("نص", "mcq", exemplar=DEFAULT_EXEMPLAR, seed=1)
    for marker in ("A.", "B.", "C.", "D."):
        assert marker in prompt


def test_prompt_deterministic_in_chunk_and_seed():
    kwargs = dict(template="mcq", exemplar=DEFAULT_EXEMPLAR, seed=5)
    assert build_prompt("نص", **kwargs) == build_prompt("نص", **kwargs)


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        build_prompt("نص", "fancy")


# --- dialogue response parsing ------------------------------------------------------


def test_parse_two_labeled_pairs():
    text = "سؤال: ما العاصمة؟\nجواب: الرياض.\nسؤال: وما العملة؟\nجواب: الريال."
    d = parse_dialogue_response(text)
    assert [t.role for t in d.turns] == [HUMAN, GPT, HUMAN, GPT]
    assert d.turns[1].value == "الرياض."


def test_parse_multiline_answer():
    text = "سؤال: اشرح؟\nجواب: سطر أول\nسطر ثانٍ"
    d = parse_dialogue_response(text)
    assert d.turns[1].value == "سطر أول\nسطر ثانٍ"


def test_parse_answer_before_question_rejected():
    with pytest.raises(Rejection) as exc:
        parse_dialogue_response("جواب: هذا جواب.\nسؤال: وهذا سؤال؟\nجواب: نعم.")
    assert exc.value.reason == "role_order"


def test_parse_empty_rejected():
    with pytest.raises(Rejection) as exc:
        parse_dialogue_response("   \n ")
    assert exc.value.reason == "empty"


def test_parse_unlabeled_rejected():
    with pytest.raises(Rejection) as exc:
        parse_dialogue_response("مجرد نص حر بلا تسميات")
    assert exc.value.reason == "unparseable"


def test_parse_dangling_question_rejected():
    with pytest.raises(Rejection) as exc:
        parse_dialogue_response("سؤال: بلا جواب؟")
    assert exc.value.reason == "role_order"


def test_parse_empty_answer_rejected():
    with pytest.raises(Rejection) as exc:
        parse_dialogue_response("سؤال: ما هذا؟\nجواب:")
    assert exc.value.reason == "empty_turn"


def test_parse_latin_labels():
    d = parse_dialogue_response("Q: what?\nA: that.")
    assert [t.role for t in d.turns] == [HUMAN, GPT]


# --- MCQ parsing ----------------------------------------------------------------------


def test_parse_mcq_latin_fixture():
    item = parse_mcq("سؤال ما؟\nA. x\nB. y\nالإجابة: B")
    assert item == MCQItem(question="سؤال ما؟", options=["x", "y"], answer_index=1, enum_style="latin_letters")


def test_parse_mcq_arabic_indic_digits():
    item = parse_mcq("كم عدد الأيام؟\n١. خمسة\n٢. ستة\n٣. سبعة\nالإجابة: ٣")
    assert item.enum_style == "arabic_indic_digits"
    assert item.answer_index == 2


def test_parse_mcq_answer_by_full_text():
    item = parse_mcq("سؤال؟\nA. الأول\nB. الثاني\nالإجابة: الثاني")
    assert item.answer_index == 1


def test_parse_mcq_answer_beyond_options_rejected():
    with pytest.raises(Rejection) as exc:
        parse_mcq("سؤال؟\nA. x\nB. y\nالإجابة: C")
    assert exc.value.reason == "answer_missing"


def test_parse_mcq_single_option_rejected():
    with pytest.raises(Rejection) as exc:
        parse_mcq("سؤال؟\nA. x\nالإجابة: A")
    assert exc.value.reason == "too_few_options"


def test_parse_mcq_whitespace_option_rejected():
    text = "ما العاصمة؟\nA.  \nB. الرياض\nالإجابة: A"
    with pytest.raises(Rejection) as exc:
        parse_mcq(text)
    assert exc.value.reason == "empty_option"


@pytest.mark.parametrize("sixth, reason", [("A. و", "bad_marker_order"), ("F. و", "unparseable")])
def test_parse_mcq_sixth_option_rejected(sixth, reason):
    options = "".join(f"{m}. {o}\n" for m, o in zip("ABCDE", "أبجده"))
    with pytest.raises(Rejection) as exc:
        parse_mcq(f"سؤال؟\n{options}{sixth}\nالإجابة: A")
    assert exc.value.reason == reason


def test_parse_mcq_duplicates_rejected():
    with pytest.raises(Rejection) as exc:
        parse_mcq("سؤال؟\nA. x\nB. x\nالإجابة: A")
    assert exc.value.reason == "duplicate_options"


def test_parse_mcq_mixed_styles_rejected():
    with pytest.raises(Rejection) as exc:
        parse_mcq("سؤال؟\nA. x\n٢. y\nالإجابة: A")
    assert exc.value.reason == "mixed_enumeration"


@pytest.mark.parametrize("style", sorted(ENUM_STYLES))
def test_mcq_round_trip_every_style(style):
    item = MCQItem(
        question="ما اللون الأول في قوس المطر؟",
        options=["أحمر", "أخضر", "أزرق", "أصفر"],
        answer_index=0,
        enum_style=style,
    )
    assert parse_mcq(render_mcq(item)) == item


def test_mcq_to_dialogue_shape():
    d = mcq_to_dialogue(MCQItem("س؟", ["أ١", "ب٢"], 1))
    assert validate_dialogue(d) is None
    assert d.question_turns == 1
    assert "A." in d.turns[0].value and "B." in d.turns[0].value


# --- structural filtering ----------------------------------------------------------


def test_filter_all_valid_kept():
    dialogues = [qa_dialogue(1), qa_dialogue(2), qa_dialogue(3)]
    kept, rejects = filter_dialogues(dialogues)
    assert kept == dialogues
    assert rejects == {}


def test_filter_counts_rejections_by_reason():
    candidates = [qa_dialogue(), Rejection("unparseable"), Rejection("unparseable"), Rejection("empty")]
    kept, rejects = filter_dialogues(candidates)
    assert len(kept) == 1
    assert rejects == {"unparseable": 2, "empty": 1}


def test_filter_planted_malformed_fraction():
    good = [qa_dialogue(2) for _ in range(70)]
    bad = [Rejection("role_order") for _ in range(30)]
    kept, rejects = filter_dialogues(good + bad)
    assert len(kept) == 70
    assert sum(rejects.values()) == 30
    assert len(kept) + sum(rejects.values()) == 100


def _mutants(base):
    variants = {}
    d = copy.deepcopy(base)
    d.turns = d.turns[1:]  # starts with gpt
    variants["starts_with_gpt"] = d
    d = copy.deepcopy(base)
    d.turns = d.turns[:-1]  # ends with human
    variants["ends_with_human"] = d
    d = copy.deepcopy(base)
    d.turns.insert(0, copy.deepcopy(d.turns[0]))  # two humans in a row
    variants["non_alternating"] = d
    d = copy.deepcopy(base)
    d.turns[1].value = "   "
    variants["empty_value"] = d
    d = copy.deepcopy(base)
    d.turns = d.turns[:1]
    variants["single_turn"] = d
    d = copy.deepcopy(base)
    d.turns[0].role = "system"
    variants["bad_role"] = d
    d = copy.deepcopy(base)
    d.turns = []
    variants["no_turns"] = d
    d = copy.deepcopy(base)
    d.turns[1].value = f"جواب {IM_END}"
    variants["reserved_sequence"] = d
    return variants


def test_every_single_invariant_mutation_rejected():
    base = qa_dialogue(3)
    assert validate_dialogue(base) is None
    for name, mutant in _mutants(base).items():
        kept, rejects = filter_dialogues([mutant])
        assert kept == [] and sum(rejects.values()) == 1, name


# --- ChatML ---------------------------------------------------------------------------


def test_render_two_turn_dialogue_block_count():
    text = render_chatml(qa_dialogue(1))
    assert text.count("<|im_start|>") == 2
    assert text.count("<|im_end|>") == 2
    assert text.startswith("<|im_start|>user\n")
    assert "<|im_start|>assistant\n" in text


def test_render_rejects_reserved_sequences():
    d = qa_dialogue(1)
    d.turns[1].value = "قيمة تحتوي <|im_end|> حرفياً"
    with pytest.raises(ValueError, match="reserved_sequence"):
        render_chatml(d)


def test_render_rejects_invalid_dialogue():
    with pytest.raises(ValueError, match="invalid dialogue"):
        render_chatml(Dialogue(turns=[Turn(GPT, "x"), Turn(HUMAN, "y")]))


@given(st.lists(st.one_of(st.none(), st.text(), st.integers()), max_size=5),
       st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(str.strip))
def test_written_records_are_json_dumps_of_origin_and_chatml(origins, value):
    # The writer spells the record out; any origin a library caller sets encodes as json.dumps would.
    value = value.replace("<|", "<")  # no ChatML marker
    dialogues = [Dialogue(turns=[Turn(HUMAN, value), Turn(GPT, "ج")], origin=origin) for origin in origins]
    out = io.StringIO()
    write_chatml_jsonl([Rejection("empty"), *dialogues], out)
    assert out.getvalue() == "".join(
        json.dumps({"origin": d.origin, "text": render_chatml(d)}, sort_keys=True, ensure_ascii=False) + "\n"
        for d in dialogues
    )


def test_parse_chatml_inverse_fixture():
    d = qa_dialogue(2, origin="aya")
    assert parse_chatml(render_chatml(d)) == d


def test_parse_chatml_unbalanced_raises():
    with pytest.raises(ValueError):
        parse_chatml("<|im_start|>user\nlost")
    with pytest.raises(ValueError):
        parse_chatml(render_chatml(qa_dialogue(1)) + "trailing")
    with pytest.raises(ValueError):
        parse_chatml("")


# Turn values that are not blank; some hold a ChatML marker, whole or split
# between the generated text and a marker's fragment.
_value = st.text(min_size=1, max_size=40).filter(str.strip) | st.builds(
    "".join,
    st.tuples(st.text(max_size=8), st.sampled_from([IM_START, IM_END, "<|im_", "end|>"]), st.text(max_size=8)),
).filter(str.strip)


@st.composite
def alternating_dialogues(draw):
    n_pairs = draw(st.integers(1, 4))
    turns = []
    for _ in range(n_pairs):
        turns.append(Turn(HUMAN, draw(_value)))
        turns.append(Turn(GPT, draw(_value)))
    return Dialogue(turns=turns, origin=draw(st.sampled_from([None, "aya", "rephrase_standard"])))


@given(alternating_dialogues())
@settings(max_examples=300)
def test_chatml_round_trip_property(d):
    # Each dialogue round-trips, unless a turn value holds a marker: then it is
    # refused as reserved_sequence, and render_chatml raises.
    if any(IM_START in t.value or IM_END in t.value for t in d.turns):
        assert validate_dialogue(d) == "reserved_sequence"
        with pytest.raises(ValueError, match="invalid dialogue: reserved_sequence"):
            render_chatml(d)
    else:
        assert parse_chatml(render_chatml(d)) == d


# --- statistics -------------------------------------------------------------------------


def test_stats_hundred_two_pair_dialogues():
    stats = dataset_stats([qa_dialogue(2, origin="rephrase_standard") for _ in range(100)])
    assert stats.turn_histogram == {2: 100}
    assert stats.per_origin_counts == {"rephrase_standard": 100}


def test_stats_empty():
    stats = dataset_stats([])
    assert stats.turn_histogram == {}
    assert stats.enum_style_histogram == {}
    assert stats.per_origin_counts == {}


def test_stats_mixed_planted_composition():
    mcq = [mcq_to_dialogue(MCQItem("س؟", ["أ", "ب"], 0, enum_style="arabic_letters")) for _ in range(4)]
    std = [qa_dialogue(2, origin="rephrase_standard") for _ in range(6)]
    single = [qa_dialogue(1, origin="aya") for _ in range(2)]
    stats = dataset_stats(mcq + std + single)
    assert stats.turn_histogram == {1: 6, 2: 6}
    assert stats.per_origin_counts == {"rephrase_mcq": 4, "rephrase_standard": 6, "aya": 2}
    assert stats.enum_style_histogram == {"arabic_letters": 4}


# --- mock generator and factory -----------------------------------------------------------


def _docs(n, sentences=6):
    body = " ".join(f"جملة رقم {i} تتحدث عن موضوع مفيد." for i in range(sentences))
    return [Document(id=f"doc-{i:04d}", text=body) for i in range(n)]


def test_mock_deterministic():
    gen = MockGenerator()
    prompt = build_prompt("نص تجريبي.", "standard")
    assert gen.generate(prompt, 3) == gen.generate(prompt, 3)
    assert gen.generate(prompt, 3) != gen.generate(prompt, 4)


def test_mock_emits_parseable_standard_response():
    gen = MockGenerator()
    prompt = build_prompt("الشمس تشرق صباحا. القمر يظهر ليلا.", "standard")
    d = parse_dialogue_response(gen.generate(prompt, 0))
    assert validate_dialogue(d) is None


def test_mock_emits_parseable_mcq_response():
    gen = MockGenerator()
    prompt = build_prompt("الشمس تشرق صباحا.", "mcq", exemplar=DEFAULT_EXEMPLAR, seed=1)
    item = parse_mcq(gen.generate(prompt, 1))
    assert 2 <= len(item.options) <= 5


def test_factory_standard_all_kept_when_well_formed():
    kept, rejects = build_dialogues(_docs(20), MockGenerator(), "standard", max_chars=300, seed=0)
    assert rejects == {}
    assert all(d.origin == "rephrase_standard" for d in kept)
    assert all(validate_dialogue(d) is None for d in kept)


def test_factory_malformed_rate_produces_rejects():
    kept, rejects = build_dialogues(
        _docs(60), MockGenerator(malformed_rate=0.5), "standard", max_chars=300, seed=0
    )
    assert sum(rejects.values()) > 0
    assert all(validate_dialogue(d) is None for d in kept)


def test_factory_deterministic_rerun():
    docs = _docs(10)
    first = build_dialogues(docs, MockGenerator(), "standard", max_chars=300, seed=7)
    second = build_dialogues(docs, MockGenerator(), "standard", max_chars=300, seed=7)
    assert first == second


def test_factory_mcq_histogram_is_single_turn():
    kept, _ = build_dialogues(_docs(30), MockGenerator(), "mcq", max_chars=300, seed=2)
    stats = dataset_stats(kept)
    assert set(stats.turn_histogram) == {1}
    assert all(d.origin == "rephrase_mcq" for d in kept)


def test_chunk_outcomes_are_build_dialogues_before_the_tally():
    docs = list(reversed(_docs(12)))
    generator = MockGenerator(malformed_rate=0.3)
    for template in ("standard", "mcq"):
        outcomes = list(iter_chunk_outcomes(docs, generator, template, max_chars=60, seed=4))
        assert len(outcomes) == sum(len(chunk_document(d, 60)) for d in docs)
        kept, rejects = build_dialogues(docs, generator, template, max_chars=60, seed=4)
        assert [o for o in outcomes if isinstance(o, Dialogue)] == kept
        assert rejects == dict(Counter(o.reason for o in outcomes if isinstance(o, Rejection)))
        # The parsers validate what they return, so nothing here is left for filter_dialogues.
        assert filter_dialogues(outcomes) == (kept, rejects)


def test_both_templates_yield_every_standard_outcome_then_every_mcq_one():
    docs = list(reversed(_docs(12)))
    generator = MockGenerator(malformed_rate=0.3)
    outcomes = {t: list(iter_chunk_outcomes(docs, generator, t, max_chars=60, seed=4)) for t in ("standard", "mcq", "both")}
    assert outcomes["both"] == outcomes["standard"] + outcomes["mcq"]
    assert build_dialogues(docs, generator, "both", max_chars=60, seed=4) == filter_dialogues(outcomes["both"])


def test_both_templates_chunk_and_seed_each_document_once():
    docs = list(reversed(_docs(12)))
    with mock.patch.object(instruct, "chunk_document", wraps=chunk_document) as chunk, \
            mock.patch.object(instruct, "_stable_hash", wraps=instruct._stable_hash) as seed:
        outcomes = list(iter_chunk_outcomes(docs, MockGenerator(), "both", max_chars=60, seed=4))
    assert [c.args[0] for c in chunk.call_args_list] == docs
    n_chunks = sum(len(chunk_document(doc, 60)) for doc in docs)
    assert len(outcomes) == 2 * n_chunks
    # Each chunk's seed is hashed once; the rest are the mock generator's own hashes.
    assert sum(c.args[0] in {doc.id for doc in docs} for c in seed.call_args_list) == n_chunks


@pytest.mark.parametrize("max_chars, template", [(0, "standard"), (-1, "both"), (40, "mcf")])
def test_chunk_outcomes_check_their_arguments_before_reading_a_document(max_chars, template):
    def unread():
        raise AssertionError("a document was read")
        yield

    with pytest.raises(ValueError, match="max_chars must be >= 1|unknown template 'mcf'"):
        next(iter_chunk_outcomes(unread(), MockGenerator(), template, max_chars=max_chars))


def test_mcq_prompt_renders_the_exemplar_once_per_style():
    with mock.patch.object(instruct, "render_mcq", wraps=render_mcq) as render:
        outcomes = list(iter_chunk_outcomes(_docs(40), MockGenerator(), "mcq", max_chars=60, seed=1))
    shots = [c.args[0] for c in render.call_args_list if c.args[0].question == DEFAULT_EXEMPLAR.question]
    assert len(outcomes) > 100  # the mock renders its own MCQs too; those are not shots
    assert 1 < len(shots) == len({shot.enum_style for shot in shots}) <= len(ENUM_STYLES)


# --- the seeding hash --------------------------------------------------------------------------


def reference_stable_hash(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


_hash_parts = st.lists(
    st.one_of(st.text(st.characters(blacklist_categories=("Cs",))), st.text("ابتثجحخ ؟،"), st.integers(), st.just("")),
    max_size=4,
)


def _without_builtin_sha256():
    return mock.patch.dict(sys.modules, {"_sha2": None, "_sha256": None})


@given(_hash_parts)
@example(["mock", 2**64, "نص"])
@example([])
@example(["", "", ""])
def test_stable_hash_is_sha256_with_and_without_the_builtin_module(parts):
    assert instruct._stable_hash(*parts) == reference_stable_hash(*parts)
    with _without_builtin_sha256():
        fallback = instruct._builtin_sha256()
    with mock.patch.object(instruct, "_sha256", fallback):
        assert instruct._stable_hash(*parts) == reference_stable_hash(*parts)


def test_seeding_hash_comes_from_the_builtin_module():
    name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert instruct._sha256 is pytest.importorskip(name).sha256
    with _without_builtin_sha256():
        assert instruct._builtin_sha256() is hashlib.sha256


# --- external instruction records -----------------------------------------------------------


def test_load_conversations_record():
    line = '{"conversations": [{"from": "human", "value": "سؤال"}, {"from": "gpt", "value": "جواب"}]}'
    (d,) = load_instruction_records([line], origin="instar")
    assert isinstance(d, Dialogue)
    assert d.origin == "instar"
    assert [t.role for t in d.turns] == [HUMAN, GPT]


def test_load_single_pair_wrapped_as_two_turns():
    line = '{"instruction": "لخص النص", "output": "الملخص هنا"}'
    (d,) = load_instruction_records([line], origin="aya")
    assert [t.role for t in d.turns] == [HUMAN, GPT]
    assert validate_dialogue(d) is None


def test_load_bare_turn_list():
    line = '[{"from": "user", "value": "س"}, {"from": "assistant", "value": "ج"}]'
    (d,) = load_instruction_records([line], origin="instar")
    assert [t.role for t in d.turns] == [HUMAN, GPT]


def test_load_bad_records_rejected():
    outcomes = list(
        load_instruction_records(
            ["{broken", '{"weird": 1}', '[{"from": "narrator", "value": "x"}]'],
            origin="instar",
        )
    )
    assert all(isinstance(o, Rejection) for o in outcomes)


def test_load_chatml_record_takes_its_origin():
    d = qa_dialogue(1)
    lines = [json.dumps({"text": render_chatml(d), "origin": "aya"}), json.dumps({"text": render_chatml(d)})]
    outcomes = list(load_instruction_records(lines, origin="file-stem"))
    assert outcomes == [d, d] and [o.origin for o in outcomes] == ["aya", "file-stem"]


def test_load_wrongly_typed_field_is_bad_record():
    lines = ['{"instruction": "q", "output": "a"}', "", '{"instruction": "q", "output": 5}']
    outcomes = list(load_instruction_records(lines, origin="x"))
    assert outcomes[1] == Rejection("bad_record", "line 3: 'output' must be a string, got 5")


def test_load_str_line_with_a_lone_surrogate_is_bad_record():
    # The parsed Dialogue could not be written: UTF-8 cannot encode U+D800.
    outcomes = list(load_instruction_records(['{"instruction":"\ud800","output":"b"}'], origin="x"))
    assert outcomes == [Rejection("bad_record", "line 1: invalid utf-8")]


_READER_REJECT = re.compile(r"line (\d+): (?:invalid utf-8|invalid json)")


@given(st.lists(st.sampled_from([
    b'{"instruction": "q", "output": "a"}', b'{"id": 1, "text": "t"}', b"[]", b"\xff", b'{"text": "\xff"}',
    b"\xef\xbb\xbf{}", b"\xef\xbb\xbf", b"", b"  \t", b"{broken", b'{"text": "a"} x',
]), max_size=8))
def test_both_line_readers_reject_the_same_lines(lines):
    # A line ingest_jsonl rejects as undecodable or unparsable is the line that
    # load_instruction_records rejects before reading its record.
    stream = [line + b"\n" for line in lines]
    rejects = []
    list(ingest_jsonl(stream, on_reject=rejects.append))
    ingested = [r.line for r in rejects if r.reason in ("invalid utf-8", "invalid json")]
    loaded = [int(m[1]) for o in load_instruction_records(stream, "x")
              if isinstance(o, Rejection) and (m := _READER_REJECT.fullmatch(o.detail))]
    assert loaded == ingested


# --- the instruct mix laws ------------------------------------------------------

_BUILDERS = (
    planted.clean_doc, planted.safety_phrases_doc, planted.safety_url_doc, planted.ads_doc, planted.lines_doc,
    planted.short_lines_doc, planted.chars_doc, planted.gopher_doc,
)
_planted_docs = st.lists(
    st.builds(lambda build, i: build(i), st.sampled_from(_BUILDERS), st.integers(0, 40)), max_size=5,
    unique_by=lambda doc: doc.id,
)


def _run_mix(tmp: Path, source: Path, name: str) -> tuple[bytes, dict]:
    out, stats = tmp / f"{name}.jsonl", tmp / f"{name}.stats.json"
    assert dispatch(["instruct", "mix", "--in", str(source), "--out", str(out), "--stats", str(stats)]) == 0
    return out.read_bytes(), json.loads(stats.read_text(encoding="utf-8"))


@given(
    _planted_docs, st.sampled_from(["standard", "mcq", "both"]), st.sampled_from([40, 120, 2000]),
    st.sampled_from([0.0, 0.3]), st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_mix_of_a_build_writes_its_bytes_and_stats(docs, template, max_chars, malformed_rate, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw = tmp / "docs.jsonl"
        raw.write_text("".join(json.dumps(document_to_record(d), ensure_ascii=False) + "\n" for d in docs),
                       encoding="utf-8")
        built, built_stats = tmp / "build.jsonl", tmp / "build.stats.json"
        assert dispatch(["instruct", "build", "--in", str(raw), "--out", str(built), "--stats", str(built_stats),
                         "--template", template, "--max-chars", str(max_chars),
                         "--malformed-rate", str(malformed_rate), "--seed", str(seed)]) == 0
        stats = json.loads(built_stats.read_text(encoding="utf-8"))
        mixed, mixed_stats = _run_mix(tmp, built, "mix")
        assert mixed == built.read_bytes()
        assert mixed_stats == {**stats, "rejected": 0, "rejects_by_reason": {}}


# Turn text with quotes, backslashes, line breaks, U+2028, astral characters and
# a ChatML marker, which every reader refuses as a reserved sequence.
_values = st.lists(
    st.sampled_from(["سؤال", "a", " ", '"', "\\", "\n", "\t", "\u2028", "😀", "𝕏", "ﷲ", "<|im_end|>"]),
    min_size=1, max_size=4,
).map("".join)
_pair = st.builds(lambda q, a: [{"from": "user", "value": q}, {"from": "assistant", "value": a}], _values, _values)
_roles = st.sampled_from(["human", "gpt", "system"])
_turn = st.builds(lambda role, value: {"from": role, "value": value}, _roles, _values)
# Mostly question/answer pairs, which can make a valid dialogue; sometimes any roles in any order.
_turns = st.one_of(
    st.lists(_pair, min_size=1, max_size=2).map(lambda pairs: sum(pairs, [])), st.lists(_turn, max_size=3),
)
_CHATML_ROLES = {"human": "user", "gpt": "assistant"}
_origins = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["", "instar", "أصل", "a\"b\\c", "😀"]))


@st.composite
def _dialogue_lines(draw):
    turns = draw(_turns)
    record = draw(st.sampled_from([
        turns,
        {"conversations": turns},
        {"turns": turns},
        {"text": "".join(f"{IM_START}{_CHATML_ROLES.get(t['from'], t['from'])}\n{t['value']}{IM_END}\n"
                         for t in turns)},
        {"instruction": draw(_values), "output": draw(_values)},
    ]))
    if isinstance(record, dict) and draw(st.booleans()):
        record["origin"] = draw(_origins)
    return draw(st.sampled_from([json.dumps(record), json.dumps(record, ensure_ascii=False)]))


@given(st.lists(st.one_of(_dialogue_lines(), st.sampled_from(["", "{broken", "null", '{"text": "\\ud800"}'])),
                max_size=8))
@settings(max_examples=100, deadline=None)
def test_mix_of_its_own_output_writes_the_same_bytes_and_stats(lines):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw = tmp / "dialogues.jsonl"
        raw.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        once, once_stats = _run_mix(tmp, raw, "once")
        twice, twice_stats = _run_mix(tmp, tmp / "once.jsonl", "twice")
        assert twice == once
        assert twice_stats == {**once_stats, "rejected": 0, "rejects_by_reason": {}}
