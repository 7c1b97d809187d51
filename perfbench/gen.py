"""Seeded inputs for the benchmark, with the outputs they must produce.

Nothing here imports ``ardata`` or the test helpers: the expected cleaning
report, kept corpus, rejects file and report CSV follow from how each
document is built, so a change to the program or to its tests cannot shift
what the benchmark calls correct.

Every document is built from a body that passes every filter rule; a
planted document adds exactly one defect, so the rule that removes it is
known. Work per run depends on the document count and the fixed length
schedule, not on the seed: the seed only picks words, sources of the
unconstrained documents, defect positions and the order of the corpus.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import unicodedata
from pathlib import Path

# Arabic content words: no stop word, no planted phrase, no digits.
WORDS = (
    "الشمس", "تشرق", "صباحا", "الطيور", "تغني", "فوق", "الأشجار", "العالية",
    "البحر", "واسع", "الموج", "يضرب", "الصخور", "بقوة", "الرمال", "ذهبية",
    "القمر", "يظهر", "ليلا", "النجوم", "تلمع", "السماء", "صافية", "الهواء",
    "المدينة", "القديمة", "الأسواق", "مزدحمة", "التجار", "يبيعون", "التوابل", "الحرير",
    "الطالب", "يقرأ", "الكتاب", "المكتبة", "الجامعة", "الأستاذ", "يشرح", "الدرس",
    "المعلم", "الصف", "الواجب", "الامتحان", "النتيجة", "الفلاح", "يزرع", "القمح",
    "الحقل", "المطر", "الربيع", "الشتاء", "الصيف", "الخريف", "الزهور", "الحديقة",
    "الطبيب", "المستشفى", "المريض", "الدواء", "الصحة", "الرياضة", "الملعب", "الفريق",
    "المباراة", "الجمهور", "الصحيفة", "الخبر", "المراسل", "الحكومة", "الوزير", "الاجتماع",
    "القرار", "الاقتصاد", "السوق", "الأسعار", "الشركة", "المصنع", "العمال", "الإنتاج",
    "التاريخ", "الحضارة", "الآثار", "المتحف", "الرحلة", "المسافر", "القطار", "المحطة",
    "الطريق", "الجبل", "الوادي", "النهر", "الجسر", "القرية", "البيت", "الأسرة",
    "الأطفال", "يلعبون", "الشارع", "المساء", "الضوء", "الظلام", "الصوت", "الصمت",
    "الفكرة", "الحوار", "السؤال", "الجواب", "المعرفة", "العلم", "البحث", "التجربة",
)
STOPS = ("في", "من", "على", "إلى", "عن", "مع", "بعد", "قبل")
LATIN = ("data", "model", "training", "language", "text", "corpus", "token", "quality")

UNSAFE_PHRASES = ("محتوىمحظورأ", "محتوىمحظورب", "محتوىمحظورج", "محتوىمحظورد")
AD_PHRASES = ("اشترالآن", "عرضخاص")
TITLE_MARK = "عنوان"
BAD_CHARS = ("€", "©", "¤")

RULES = ("safety", "ads", "lines", "chars", "gopher")
SOURCES = ("culturax", "sanad", "ebook", "other")

# Lines per document: spans an order of magnitude, same multiset every seed.
LENGTH_SCHEDULE = (5, 6, 8, 10, 12, 16, 20, 28, 36, 50)
WORDS_PER_LINE = (10, 14)

# Planted defects per 1000 documents, with the rule that removes each.
DEFECTS = {
    "unsafe": ("safety", 20),
    "nourl": ("safety", 20),
    "ads": ("ads", 20),
    "few_lines": ("lines", 20),
    "short_lines": ("lines", 20),
    "bad_chars": ("chars", 20),
    "no_stops": ("gopher", 20),
}
MALFORMED = ("invalid utf-8", "invalid json", "missing text")
HEADER_EVERY = 11  # one clean-bodied document in eleven carries a title/date header


def filter_config() -> dict:
    """The planted filter config: the phrase lists, every threshold at its default."""
    return {"unsafe_phrases": list(UNSAFE_PHRASES), "ad_phrases": list(AD_PHRASES)}


def _presentation_forms() -> dict[str, tuple[str, ...]]:
    """Base letter -> the presentation-form codepoints whose NFKC is that letter."""
    forms: dict[str, list[str]] = {}
    for lo, hi in ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF)):
        for cp in range(lo, hi + 1):
            folded = unicodedata.normalize("NFKC", chr(cp))
            if len(folded) == 1 and folded != chr(cp) and "ء" <= folded <= "ي":
                forms.setdefault(folded, []).append(chr(cp))
    return {letter: tuple(cps) for letter, cps in forms.items()}


_FORMS = _presentation_forms()


def in_presentation_block(ch: str) -> bool:
    cp = ord(ch)
    return 0xFB50 <= cp <= 0xFDFF or 0xFE70 <= cp <= 0xFEFF


def _to_presentation(text: str, rng: random.Random) -> str:
    return "".join(rng.choice(_FORMS[ch]) if ch in _FORMS else ch for ch in text)


def _line(rng: random.Random, n_words: int, stop: str | None, latin: bool = False) -> str:
    words = [rng.choice(WORDS) for _ in range(n_words)]
    if latin:
        for _ in range(n_words // 5):
            words[rng.randrange(n_words)] = rng.choice(LATIN)
    if stop is not None:
        # Never last: the full stop stays attached to the last word, and "من."
        # is not a stop word to the gopher rule.
        words[rng.randrange(n_words - 1)] = stop
    return " ".join(words) + "."


def body(rng: random.Random, lines: int, stops: bool = True, latin: bool = False) -> list[str]:
    """Lines of a document that passes every rule (or lacks stop words if asked)."""
    first = rng.randrange(len(STOPS))
    return [
        _line(rng, rng.randint(*WORDS_PER_LINE), STOPS[(first + i) % len(STOPS)] if stops else None, latin)
        for i in range(lines)
    ]


def _planted_text(kind: str, rng: random.Random, lines: int, latin: bool) -> str:
    if kind in ("clean", "nourl"):
        return "\n".join(body(rng, lines, latin=latin))
    if kind == "unsafe":
        extra = " ".join(rng.sample(UNSAFE_PHRASES, 3) + [rng.choice(WORDS) for _ in range(5)])
        return "\n".join(body(rng, lines, latin=latin) + [extra])
    if kind == "ads":
        extra = " ".join([rng.choice(AD_PHRASES) for _ in range(6)] + [rng.choice(WORDS) for _ in range(4)])
        return "\n".join(body(rng, lines, latin=latin) + [extra])
    if kind == "few_lines":
        return "\n".join(_line(rng, 20, STOPS[i], latin) for i in range(3))
    if kind == "short_lines":
        rows = body(rng, 2, latin=latin) + [f"{rng.choice(WORDS)} {rng.choice(WORDS)}." for _ in range(4)]
        return "\n".join(rows)
    if kind == "bad_chars":
        text = "\n".join(body(rng, lines, latin=latin))
        return text + "\n" + rng.choice(BAD_CHARS) * ((len(text) + 1) // 19 + 2)
    if kind == "no_stops":
        return "\n".join(body(rng, lines, stops=False, latin=latin))
    raise ValueError(kind)


def _header(rng: random.Random) -> str:
    title = " ".join([TITLE_MARK] + [rng.choice(WORDS) for _ in range(rng.randint(2, 4))])
    y, m, d = rng.randint(1990, 2024), rng.randint(1, 12), rng.randint(1, 28)
    if rng.random() < 0.5:
        date = f"{y}-{m:02d}-{d:02d}"
    else:
        date = f"{d:02d}/{m:02d}/{y}".translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return f"{title}\n{date}\n"


def _specs(n_docs: int, rng: random.Random) -> list[tuple[str, str, int, bool]]:
    """(kind, source, lines, has_header) per document, in corpus order."""
    kinds: list[tuple[str, str]] = []
    cycle = 0
    for kind, (_, per_mille) in DEFECTS.items():
        for _ in range(max(1, n_docs * per_mille // 1000)):
            source = "culturax" if kind in ("unsafe", "nourl") else SOURCES[cycle % len(SOURCES)]
            cycle += 1
            kinds.append((kind, source))
    # Fixed source mix for the unconstrained documents: one in seven is an ebook.
    mix = ["culturax"] * 7 + ["sanad"] * 3 + ["ebook"] * 2 + ["other"] * 2
    kinds.extend(("clean", mix[i % len(mix)]) for i in range(n_docs - len(kinds)))
    specs = [
        (kind, source, LENGTH_SCHEDULE[i % len(LENGTH_SCHEDULE)], kind == "clean" and i % HEADER_EVERY == 0)
        for i, (kind, source) in enumerate(kinds)
    ]
    rng.shuffle(specs)
    return specs


def _record_line(record: dict) -> bytes:
    return (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")


def _kept_line(doc_id: str, text: str, source: str, url: str | None) -> str:
    record = {"id": doc_id, "text": text, "source": source}
    if url is not None:
        record["url"] = url
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}" if whole else ""


def _report_outputs(counters: dict) -> tuple[str, str]:
    """Report JSON and report CSV exactly as ``ardata clean`` writes them."""
    sources = {}
    for name, c in counters.items():
        sources[name] = {
            "docs_in": c["docs_in"],
            "tokens_in": c["tokens_in"],
            "docs_removed": dict(c["docs_removed"]),
            "tokens_removed": dict(c["tokens_removed"]),
            "docs_kept": c["docs_in"] - sum(c["docs_removed"].values()),
            "tokens_kept": c["tokens_in"] - sum(c["tokens_removed"].values()),
        }
    report = json.dumps({"rules": list(RULES), "sources": sources}, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    rows = [["dataset", "tokens_before", "docs_before", "tokens_after", "docs_after", "tokens_kept_pct", "docs_kept_pct"]]
    entries = sorted(sources.items())
    if len(entries) > 1:
        total = {key: sum(s[key] for _, s in entries) for key in ("docs_in", "tokens_in", "docs_kept", "tokens_kept")}
        entries.append(("total", total))
    for name, s in entries:
        rows.append([
            name, s["tokens_in"], s["docs_in"], s["tokens_kept"], s["docs_kept"],
            _pct(s["tokens_kept"], s["tokens_in"]), _pct(s["docs_kept"], s["docs_in"]),
        ])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return report, buf.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_planted_corpus(path: Path, seed: int, n_docs: int) -> dict:
    """Write the raw corpus for ``clean`` and return what cleaning it must give.

    Malformed lines (bad UTF-8, bad JSON, missing text) are spread through
    the file, one of each per 300 documents; they are rejected, not counted
    as documents.
    """
    rng = random.Random(f"planted:{seed}")
    specs = _specs(n_docs, rng)
    n_bad = max(1, n_docs // 300)
    reasons = [reason for reason in MALFORMED for _ in range(n_bad)]
    bad_at = dict(zip(rng.sample(range(n_docs), len(reasons)), reasons))
    lines: list[bytes] = []
    rejects: list[str] = []
    kept: list[str] = []
    counters: dict = {}
    headers = changed = 0
    for i, (kind, source, n_lines, has_header) in enumerate(specs):
        if i in bad_at:
            reason = bad_at[i]
            lines.append({
                "invalid utf-8": b'{"id": "bad-%d", "text": "\xff\xfe\xfd"}\n' % i,
                "invalid json": _record_line({"id": f"bad-{i}", "text": "x"})[:-3] + b"\n",
                "missing text": _record_line({"id": f"bad-{i}", "source": source}),
            }[reason])
            rejects.append(json.dumps({"line": len(lines), "reason": reason}, ensure_ascii=False) + "\n")
        doc_id = f"{kind}-{i:06d}"
        text = _planted_text(kind, rng, n_lines, latin=source == "other")
        url = None
        if source == "culturax" and kind != "nourl" or source == "sanad" and rng.random() < 0.5:
            url = f"https://example.org/{source}/{i}"
        raw = text
        if has_header:
            raw = _header(rng) + raw
            headers += 1
        if source == "ebook":
            raw = _to_presentation(raw, rng)
            changed += 1
        record = {"id": doc_id, "text": raw, "source": source}
        if url is not None:
            record["url"] = url
        lines.append(_record_line(record))

        c = counters.setdefault(source, {"docs_in": 0, "tokens_in": 0, "docs_removed": {}, "tokens_removed": {}})
        tokens = len(text.split())
        c["docs_in"] += 1
        c["tokens_in"] += tokens
        if kind == "clean":
            kept.append(_kept_line(doc_id, text, source, url))
        else:
            rule = DEFECTS[kind][0]
            c["docs_removed"][rule] = c["docs_removed"].get(rule, 0) + 1
            c["tokens_removed"][rule] = c["tokens_removed"].get(rule, 0) + tokens
    data = b"".join(lines)
    path.write_bytes(data)
    report, report_csv = _report_outputs(counters)
    kept_bytes = "".join(kept).encode("utf-8")
    removed = {rule: sum(c["docs_removed"].get(rule, 0) for c in counters.values()) for rule in RULES}
    return {
        "input_sha256": sha256(data),
        "input_bytes": len(data),
        "input_lines": len(lines),
        "docs": len(specs),
        "rejects": len(rejects),
        "headers": headers,
        "normalized": changed,
        "removed": removed,
        "kept_sha256": sha256(kept_bytes),
        "report": report,
        "report_csv": report_csv,
        "rejects_jsonl": "".join(rejects),
    }


def write_clean_docs(path: Path, seed: int, n_docs: int) -> dict:
    """Already-clean documents for the downstream commands: no defect, header or
    presentation form, so cleaning them keeps every document unchanged."""
    rng = random.Random(f"downstream-docs:{seed}")
    mix = ["culturax"] * 5 + ["sanad"] * 3 + ["ebook"] * 2 + ["other"] * 2
    lines, kept = [], []
    counters: dict = {}
    words = 0
    for i in range(n_docs):
        source = mix[i % len(mix)]
        text = "\n".join(body(rng, LENGTH_SCHEDULE[i % len(LENGTH_SCHEDULE)], latin=source == "other"))
        url = f"https://example.org/{source}/{i}" if source == "culturax" else None
        doc_id = f"doc-{i:06d}"
        record = {"id": doc_id, "text": text, "source": source}
        if url is not None:
            record["url"] = url
        lines.append(_record_line(record))
        kept.append(_kept_line(doc_id, text, source, url))
        n = len(text.split())
        words += n
        c = counters.setdefault(source, {"docs_in": 0, "tokens_in": 0, "docs_removed": {}, "tokens_removed": {}})
        c["docs_in"] += 1
        c["tokens_in"] += n
    order = list(range(n_docs))
    rng.shuffle(order)
    data = b"".join(lines[i] for i in order)
    path.write_bytes(data)
    report, report_csv = _report_outputs(counters)
    kept_bytes = "".join(kept[i] for i in order).encode("utf-8")
    return {
        "input_sha256": sha256(data),
        "input_bytes": len(data),
        "input_lines": n_docs,
        "docs": n_docs,
        "words": words,
        "rejects": 0,
        "headers": 0,
        "normalized": 0,
        "removed": {rule: 0 for rule in RULES},
        "kept_sha256": sha256(kept_bytes),
        "report": report,
        "report_csv": report_csv,
        "rejects_jsonl": "",
    }


def write_vocab(path: Path, seed: int, size: int = 600) -> dict:
    """Subword vocabulary: common affixes plus seeded word fragments."""
    rng = random.Random(f"vocab:{seed}")
    entries = {"ال", "و", "ب", "ل", "ة", "ات", "ون", "ين", "ها", "هم"}
    pool = WORDS + LATIN
    while len(entries) < size:
        word = rng.choice(pool)
        start = rng.randrange(len(word))
        entries.add(word[start : start + rng.randint(2, 5)])
    data = ("\n".join(sorted(entries)) + "\n").encode("utf-8")
    path.write_bytes(data)
    return {"input_sha256": sha256(data)}


def write_items(path: Path, seed: int, n_items: int) -> dict:
    """Four-choice benchmark items with unique questions and distinct choices."""
    rng = random.Random(f"items:{seed}")
    categories = ("history", "science", "language", "geography")
    items = []
    for i in range(n_items):
        question = f"({i:05d}) " + " ".join(rng.choice(WORDS) for _ in range(rng.randint(6, 12))) + "؟"
        choices = rng.sample(WORDS, 4)
        items.append({
            "id": f"q{i:05d}",
            "question": question,
            "choices": choices,
            "gold_index": rng.randrange(4),
            "category": categories[i % len(categories)],
        })
    data = (json.dumps(items, ensure_ascii=False) + "\n").encode("utf-8")
    path.write_bytes(data)
    return {"input_sha256": sha256(data), "items": n_items}
