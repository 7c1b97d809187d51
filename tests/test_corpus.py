import dataclasses
import io
import json
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ardata.cli import dispatch
from ardata.corpus import (
    Document,
    Source,
    ingest_jsonl,
    normalize_chars,
    strip_title_date,
)

from planted import base_text


def ingest(lines):
    rejects = []
    stream = io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))
    docs = list(ingest_jsonl(stream, on_reject=rejects.append))
    return docs, rejects


# --- ingestion ---------------------------------------------------------------


def test_ingest_single_record():
    docs, rejects = ingest(['{"id":"a","text":"hi"}'])
    assert rejects == []
    assert docs == [Document(id="a", text="hi", source=Source.OTHER)]


def test_ingest_missing_text_rejected():
    docs, rejects = ingest(['{"id":"a"}'])
    assert docs == []
    assert len(rejects) == 1
    assert rejects[0].line == 1
    assert rejects[0].reason == "missing text"


def test_ingest_malformed_middle_line_preserves_order():
    docs, rejects = ingest(['{"id":"a","text":"one"}', "{oops", '{"id":"c","text":"three"}'])
    assert [d.id for d in docs] == ["a", "c"]
    assert [r.line for r in rejects] == [2]


@pytest.mark.parametrize("bad, reason", [
    ("[" * 100_000 + "]" * 100_000, "invalid json"),  # past the parser's recursion limit
    ('{"id": "b", "text": "x", "n": %s}' % ("1" * 5000), "invalid json"),  # past the integer digit limit
    ('{"id": "", "text": "x"}', "empty id"),
])
def test_ingest_rejects_line_and_continues(bad, reason):
    docs, rejects = ingest(['{"id":"a","text":"one"}', bad, '{"id":"c","text":"three"}'])
    assert [d.id for d in docs] == ["a", "c"]
    assert [(r.line, r.reason) for r in rejects] == [(2, reason)]


def test_ingest_synthesizes_id_from_line_number():
    docs, _ = ingest(['{"text":"x"}', '{"text":"y","id":null}'])
    assert [d.id for d in docs] == ["1", "2"]


def test_ingest_keeps_string_and_integer_ids_and_string_urls():
    docs, rejects = ingest(['{"id":"a","text":"x","url":"https://e.org/a"}', '{"id":7,"text":"y","url":null}'])
    assert rejects == []
    assert [(d.id, d.url) for d in docs] == [("a", "https://e.org/a"), ("7", None)]


@pytest.mark.parametrize("bad, reason", [
    ('{"id":["x",1],"text":"x"}', "id is not a string or an integer"),
    ('{"id":1.0,"text":"x"}', "id is not a string or an integer"),
    ('{"id":true,"text":"x"}', "id is not a string or an integer"),
    ('{"id":{"a":1},"text":"x"}', "id is not a string or an integer"),
    ('{"id":"b","text":"x","url":{"a":1}}', "url is not a string or null"),
    ('{"id":"b","text":"x","url":3}', "url is not a string or null"),
    # These used to become `other`, so a CulturaX document skipped the safety rule.
    ('{"id":"b","text":"x","source":["culturax"]}', "source is not a string or null"),
    ('{"id":"b","text":"x","source":7}', "source is not a string or null"),
    ('{"id":"b","text":"x","source":true}', "source is not a string or null"),
    ('{"id":"b","text":"x","source":{"name":"culturax"}}', "source is not a string or null"),
])
def test_ingest_rejects_id_or_url_of_another_kind(bad, reason):
    # These used to reach the document as Python reprs: "['x', 1]", "1.0", "{'a': 1}".
    docs, rejects = ingest(['{"id":"a","text":"one"}', bad, '{"id":"c","text":"three"}'])
    assert [d.id for d in docs] == ["a", "c"]
    assert [(r.line, r.reason) for r in rejects] == [(2, reason)]


def test_ingest_invalid_utf8_rejected():
    stream = io.BytesIO(b'{"id":"a","text":"ok"}\n\xff\xfe{"bad": 1}\n')
    rejects = []
    docs = list(ingest_jsonl(stream, on_reject=rejects.append))
    assert [d.id for d in docs] == ["a"]
    assert rejects[0].reason == "invalid utf-8"


def test_ingest_str_line_with_a_lone_surrogate_is_invalid_utf8():
    # The parsed Document could not be written: UTF-8 cannot encode U+D800.
    rejects = []
    docs = list(ingest_jsonl(['{"id":"a","text":"x\ud800 y"}', '{"id":"b","text":"كتب"}'],
                             on_reject=rejects.append))
    assert [d.id for d in docs] == ["b"]
    assert [(r.line, r.reason) for r in rejects] == [(1, "invalid utf-8")]


def test_ingest_strips_one_bom_on_first_line_only():
    stream = io.BytesIO(
        b'\xef\xbb\xbf{"id":"a","text":"x"}\n'
        b'\xef\xbb\xbf{"id":"b","text":"y"}\n'
        b'{"id":"c","text":"\xef\xbb\xbfz"}\n'
    )
    rejects = []
    docs = list(ingest_jsonl(stream, on_reject=rejects.append))
    assert [(d.id, d.text) for d in docs] == [("a", "x"), ("c", "\ufeffz")]
    assert [(r.line, r.reason) for r in rejects] == [(2, "invalid json")]
    # Only one mark is dropped: a doubled one is still invalid JSON.
    docs, rejects = ingest(['\ufeff\ufeff{"id":"a","text":"x"}'])
    assert docs == [] and rejects[0].reason == "invalid json"


def test_ingest_source_parsing():
    docs, _ = ingest(
        ['{"text":"a","source":"culturax"}', '{"text":"b","source":"SANAD"}', '{"text":"c","source":"weird"}',
         '{"text":"d","source":null}', '{"text":"e"}']
    )
    assert [d.source for d in docs] == [Source.CULTURAX, Source.SANAD, Source.OTHER, Source.OTHER, Source.OTHER]


_record = st.fixed_dictionaries({"text": st.text(max_size=20)})
_line = st.one_of(
    _record.map(lambda r: json.dumps(r)),
    st.sampled_from(["{broken", '{"no_text": 1}', "[1,2]", "null"]),
)


@given(st.lists(_line, max_size=30))
@settings(max_examples=50)
def test_ingest_accounts_for_every_line(lines):
    docs, rejects = ingest(lines) if lines else ([], [])
    assert len(docs) + len(rejects) == len(lines)


def test_document_requires_nonempty_id():
    with pytest.raises(ValueError):
        Document(id="", text="x")


@pytest.mark.parametrize("fields, reason", [
    ({"id": "x", "text": "t", "source": ["culturax"]}, "source is not a string or null"),
    ({"id": "x", "text": "t", "source": 7}, "source is not a string or null"),
    ({"id": "x", "text": "t", "url": 5}, "url is not a string or null"),
    ({"id": 1.0, "text": "t"}, "id is not a string or an integer"),
    ({"id": "x", "text": b"t"}, "text is not a string"),
])
def test_document_refuses_what_ingest_rejects(fields, reason):
    # A library caller used to get `other` for ["culturax"], so the document skipped safety.
    with pytest.raises(ValueError) as info:
        Document(**fields)
    assert str(info.value) == reason


def test_document_keeps_an_integer_id_as_its_string_and_maps_labels():
    doc = Document(id=7, text="t", source=" CulturaX ")
    assert (doc.id, doc.source) == ("7", Source.CULTURAX)
    assert Document(id="x", text="t", source="weird").source is Source.OTHER
    assert Document(id="x", text="t", source=None).source is Source.OTHER


@pytest.mark.parametrize("name, value", [
    ("id", ""), ("text", None), ("url", 5), ("source", ["culturax"]), ("source", Source.CULTURAX),
], ids=["id", "text", "url", "source-list", "source"])
def test_document_fields_cannot_be_assigned(name, value):
    # An assigned field skipped the check: a source of ["culturax"] skipped safety.
    doc = Document(id="x", text="t", url="https://example.org", source="sanad")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(doc, name, value)
    assert doc == Document(id="x", text="t", url="https://example.org", source=Source.SANAD)


def test_replace_checks_the_changed_copy():
    doc = Document(id=7, text="t", source="culturax")
    assert dataclasses.replace(doc, text="u") == Document(id="7", text="u", source=Source.CULTURAX)
    with pytest.raises(ValueError, match="source is not a string or null"):
        dataclasses.replace(doc, source=["culturax"])


# --- character unification ------------------------------------------------------


def test_normalize_ascii_unchanged():
    assert normalize_chars("hello 123") == "hello 123"


def test_normalize_presentation_form_beh():
    # Oracle: NFKC decomposition of the presentation-form codepoint.
    assert normalize_chars("ﺑ") == unicodedata.normalize("NFKC", "ﺑ") == "ب"


def test_normalize_allah_ligature():
    expected = unicodedata.normalize("NFKC", "ﷲ")
    assert normalize_chars("ﷲ") == expected
    assert len(expected) == 4


def test_normalize_matches_nfkc_on_entire_presentation_blocks():
    for lo, hi in ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF)):
        for cp in range(lo, hi + 1):
            ch = chr(cp)
            assert normalize_chars(ch) == unicodedata.normalize("NFKC", ch), hex(cp)


def test_normalize_leaves_base_arabic_alone():
    text = "الكتاب على الطاولة، أبجد هوز"
    assert normalize_chars(text) == text


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_normalize_idempotent(text):
    once = normalize_chars(text)
    assert normalize_chars(once) == once


# --- leading title/date stripping ------------------------------------------------


def _doc(text):
    return Document(id="d", text=text)


def test_strip_noop_without_header():
    text = "نص المقال يبدأ مباشرة.\nومن ثم يستمر."
    assert strip_title_date(_doc(text)).text == text


def test_strip_title_and_iso_date():
    doc = _doc("عنوان\n2023-04-01\nنص المقال هنا.")
    assert strip_title_date(doc).text == "نص المقال هنا."


def test_strip_title_and_slash_date():
    doc = _doc("خبر عاجل\n01/04/2023\nالتفاصيل تلي العنوان.")
    assert strip_title_date(doc).text == "التفاصيل تلي العنوان."


def test_strip_title_and_arabic_indic_date():
    doc = _doc("عنوان\n٢٠٢٣/٠٤/٠١\nالنص الفعلي.")
    assert strip_title_date(doc).text == "النص الفعلي."


def test_strip_drops_the_whole_run_of_stacked_headers():
    # One pass used to drop only the first pair, so `clean` of its own output dropped the second.
    doc = _doc("عنوان\n2024-01-01\nعنوان ثان\n 2024-02-02\nثالث\n٢٠٢٤/٠٣/٠٣\nالنص.\nسطر\n2024-04-04")
    assert strip_title_date(doc).text == "النص.\nسطر\n2024-04-04"


def test_mid_document_date_not_stripped():
    text = "فقرة أولى بلا تاريخ\nفقرة ثانية\n2023-04-01\nفقرة ثالثة"
    assert strip_title_date(_doc(text)).text == text


def test_long_first_line_not_a_title():
    text = ("كلمة " * 40).strip() + "\n2023-04-01\nالنص."
    assert strip_title_date(_doc(text)).text == text


@pytest.mark.parametrize("length, stripped", [(80, True), (81, False)])
def test_title_of_at_most_80_characters(length, stripped):
    text = "ع" * length + "\n2023-04-01\nالنص."
    assert strip_title_date(_doc(text)).text == ("النص." if stripped else text)


def test_date_on_last_line_without_newline_is_stripped():
    assert strip_title_date(_doc("عنوان\n2023-04-01")).text == ""


@pytest.mark.parametrize("date", ["  2023-04-01\t", "\t01/04/2023  ", " \t٢٠٢٣/٠٤/٠١ ", "\t٠١.٠٤.٢٠٢٣\t\t"])
def test_padded_dates_are_stripped(date):
    assert strip_title_date(_doc(f"عنوان\n{date}\nالنص.")).text == "النص."


_segment = st.text(alphabet="اب cd12-/.", min_size=0, max_size=12)


@given(st.lists(_segment, min_size=1, max_size=8))
@settings(max_examples=100)
def test_strip_removes_whole_leading_lines_and_keeps_suffix(lines):
    text = "\n".join(lines)
    result = strip_title_date(_doc(text)).text
    assert text.endswith(result)
    removed = text[: len(text) - len(result)]
    assert removed == "" or removed.endswith("\n") or result == ""
    assert strip_title_date(_doc(result)).text == result


# --- the clean ∘ clean law ---------------------------------------------------------

# Headers stack on purpose; titles and bodies hold presentation forms (ﺑ folds
# to ب, the ﷲ ligature to four letters, so a title of 77 letters plus ﷲ is past
# 80 only once folded).
_titles = st.sampled_from(["عنوان", "ﺑﺎﺏ", "خبر ﷲ", "ع" * 77 + "ﷲ", "ع" * 80, "2024-01-01"])
_dates = st.sampled_from(["2024-01-01", " 01/02/2023\t", "٢٠٢٤/٠٣/٠٣", "1.2.3", "2024-01"])
_headers = st.lists(st.tuples(_titles, _dates).map("\n".join), max_size=3).map("\n".join)
_bodies = st.builds(
    lambda seed, forms: base_text(seed).replace("ب", "ﺑ", forms), st.integers(0, 30), st.integers(0, 3),
)
_sources = st.sampled_from([("culturax", "https://example.org/a"), ("culturax", None), ("sanad", None), ("other", None)])


@st.composite
def _raw_lines(draw):
    source, url = draw(_sources)
    headers, body = draw(_headers), draw(_bodies)
    record = {"text": headers + "\n" + body if headers else body, "source": source}
    if url is not None:
        record["url"] = url
    return json.dumps(record, ensure_ascii=False)


@given(st.lists(_raw_lines(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_clean_of_its_own_kept_output_changes_nothing(lines):
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp, "raw.jsonl")
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name, source in (("once", raw), ("twice", Path(tmp, "once.jsonl"))):
            assert dispatch(["clean", "--in", str(source), "--out", str(Path(tmp, f"{name}.jsonl")),
                             "--report", str(Path(tmp, f"{name}.report.json"))]) == 0
        assert Path(tmp, "twice.jsonl").read_bytes() == Path(tmp, "once.jsonl").read_bytes()
        report = json.loads(Path(tmp, "twice.report.json").read_text(encoding="utf-8"))
        assert all(c["docs_removed"] == {} and c["tokens_removed"] == {} for c in report["sources"].values())
