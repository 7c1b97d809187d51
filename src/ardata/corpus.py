"""Document model, streaming JSONL ingestion, and Arabic character/layout cleanup.

Documents flow through the package as plain dataclasses. Ingestion is
streaming (one record at a time) so corpora far larger than memory can be
processed; malformed records are routed to a rejects channel instead of
aborting the run.
"""
from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Iterator

from ._schema import STRING_OR_INTEGER, STRING_OR_NULL, iter_json_lines


class Source(str, Enum):
    """Where a document came from. Decides which filter profiles apply."""

    CULTURAX = "culturax"
    SANAD = "sanad"
    EBOOK = "ebook"
    OTHER = "other"

    @classmethod
    def coerce(cls, value) -> "Source":
        if isinstance(value, Source):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            # Unknown labels fall back to OTHER so upstream corpora with odd
            # source tags still flow through (treated as non-CulturaX).
            return cls.OTHER


@dataclass
class Document:
    id: str
    text: str
    url: str | None = None
    source: Source = Source.OTHER

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        self.source = Source.coerce(self.source)


@dataclass(frozen=True)
class Reject:
    """One rejected input record: 1-based line number plus the reason."""

    line: int
    reason: str

    def to_json(self) -> str:
        return json.dumps({"line": self.line, "reason": self.reason}, ensure_ascii=False)


def ingest_jsonl(
    stream: BinaryIO | Iterable[bytes | str],
    on_reject: Callable[[Reject], None] | None = None,
) -> Iterator[Document]:
    """Stream Documents out of newline-delimited JSON.

    Each line must be a JSON object with a ``text`` field; ``id``, ``url``
    and ``source`` are optional. An id is a string or an integer, and a
    missing or null id is synthesized from the 1-based line number; a url is
    a string or null. Bad lines (invalid UTF-8, invalid JSON, missing or
    non-string text, an id or url of another kind, an empty id) are reported
    through ``on_reject`` and skipped; ingestion continues. Yielded +
    rejected covers every input line, in input order. Lines are read by
    ``iter_json_lines``, so one byte-order mark at the start of the first line
    is dropped; a U+FEFF anywhere else is kept as text.
    """
    for line_no, record, reason in iter_json_lines(stream):
        if reason is not None:
            _reject(on_reject, line_no, reason)
            continue
        if not isinstance(record, dict):
            _reject(on_reject, line_no, "not a json object")
            continue
        text = record.get("text")
        if text is None:
            _reject(on_reject, line_no, "missing text")
            continue
        if not isinstance(text, str):
            _reject(on_reject, line_no, "text is not a string")
            continue
        doc_id = record.get("id")
        if doc_id is None:
            doc_id = str(line_no)
        elif STRING_OR_INTEGER[1](doc_id):
            doc_id = str(doc_id)
        else:
            _reject(on_reject, line_no, f"id is not {STRING_OR_INTEGER[0]}")
            continue
        if not doc_id:
            _reject(on_reject, line_no, "empty id")
            continue
        url = record.get("url")
        if not STRING_OR_NULL[1](url):
            _reject(on_reject, line_no, f"url is not {STRING_OR_NULL[0]}")
            continue
        yield Document(
            id=doc_id,
            text=text,
            url=url,
            source=Source.coerce(record.get("source", Source.OTHER)),
        )


def _reject(on_reject, line_no: int, reason: str) -> None:
    if on_reject is not None:
        on_reject(Reject(line=line_no, reason=reason))


def document_to_record(doc: Document) -> dict:
    record = {"id": doc.id, "text": doc.text, "source": doc.source.value}
    if doc.url is not None:
        record["url"] = doc.url
    return record


# --- Character unification -------------------------------------------------

# Arabic Presentation Forms A and B: the positional/ligature codepoints that
# render identically to base-letter sequences.
_PRESENTATION_RANGES = ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF))

# Codepoint -> NFKC fold, for each presentation-form codepoint whose fold
# differs from itself. Only these ~830 codepoints are scanned, so import stays cheap.
_PRESENTATION_FOLD: dict[int, str] = {
    cp: folded
    for lo, hi in _PRESENTATION_RANGES
    for cp in range(lo, hi + 1)
    if (folded := unicodedata.normalize("NFKC", chr(cp))) != chr(cp)
}


def char_class(codepoints: Iterable[int], negate: bool = False) -> str:
    """A regex matching any one character of ``codepoints`` (with ``negate``,
    any one character outside them), written as ranges so it compiles fast."""
    cps = sorted(set(codepoints))
    if not cps:
        return r"[\s\S]" if negate else "(?!)"
    parts = []
    start = prev = cps[0]
    for cp in cps[1:] + [None]:
        if cp is not None and cp == prev + 1:
            prev = cp
            continue
        parts.append(re.escape(chr(start)) + ("-" + re.escape(chr(prev)) if prev > start else ""))
        if cp is not None:
            start = prev = cp
    return ("[^" if negate else "[") + "".join(parts) + "]"


# Any codepoint the fold changes. ``normalize_chars`` searches for one before
# translating, since a dict-driven translate costs a lookup per non-ASCII
# character even when nothing maps.
_FOLD_KEYS = re.compile(char_class(_PRESENTATION_FOLD))


def normalize_chars(text: str) -> str:
    """Fold Arabic presentation forms to their NFKC base letters; any other
    text is untouched. Applying it twice equals applying it once."""
    return text.translate(_PRESENTATION_FOLD) if _FOLD_KEYS.search(text) else text


# --- Leading title/date stripping -------------------------------------------

_DATE = (
    r"(?:\d{1,4}[-/.]\d{1,2}[-/.]\d{1,4}"
    r"|[٠-٩]{1,4}[-/.][٠-٩]{1,2}[-/.][٠-٩]{1,4})"
)

# A short first line (title) directly followed by a line that is just a
# date, both only at the very start of the document.
_TITLE_DATE = re.compile(r"\A[^\n]{1,80}\n[ \t]*" + _DATE + r"[ \t]*(?:\n|\Z)")


def strip_title_date(doc: Document) -> Document:
    """Drop a leading title/date header: at most the first two lines are
    removed, and the rest of the document is byte-identical."""
    m = _TITLE_DATE.match(doc.text)
    if m is None:
        return doc
    return Document(id=doc.id, text=doc.text[m.end():], url=doc.url, source=doc.source)
