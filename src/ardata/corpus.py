"""Document model, streaming JSONL ingestion, and Arabic character/layout cleanup.

Documents flow through the package as frozen dataclasses. Ingestion is
streaming (one record at a time) so corpora far larger than memory can be
processed; malformed records are routed to a rejects channel instead of
aborting the run.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, replace
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Iterator

from ._schema import STRING_OR_INTEGER, STRING_OR_NULL, iter_json_lines, json_record


class Source(str, Enum):
    """Where a document came from. Decides which filter profiles apply."""

    CULTURAX = "culturax"
    SANAD = "sanad"
    EBOOK = "ebook"
    OTHER = "other"

    @classmethod
    def coerce(cls, value) -> "Source":
        """A label, matched ignoring case and outer whitespace; ``None`` and
        unknown labels are ``OTHER``, so odd source tags still flow through (as
        non-CulturaX). Any other value raises ValueError, since ``["culturax"]``
        as ``OTHER`` would skip the safety rule."""
        if isinstance(value, Source):
            return value
        if not STRING_OR_NULL[1](value):
            raise ValueError(f"source is not {STRING_OR_NULL[0]}")
        try:
            return cls((value or "").strip().lower())
        except ValueError:
            return cls.OTHER


@dataclass(frozen=True)
class Document:
    """Building one checks the fields in the order text, id, url, source; a
    refused field raises ValueError with ``ingest_jsonl``'s reject reason, so
    the library and ``clean`` accept the same documents. An integer id is
    kept as its string. Frozen, so no field skips the check by a later
    assignment; ``dataclasses.replace`` builds a checked copy."""

    id: str
    text: str
    url: str | None = None
    source: Source = Source.OTHER

    def __post_init__(self):
        if self.text is None:
            raise ValueError("missing text")
        if not isinstance(self.text, str):
            raise ValueError("text is not a string")
        if not STRING_OR_INTEGER[1](self.id):
            raise ValueError(f"id is not {STRING_OR_INTEGER[0]}")
        object.__setattr__(self, "id", str(self.id))
        if not self.id:
            raise ValueError("empty id")
        if not STRING_OR_NULL[1](self.url):
            raise ValueError(f"url is not {STRING_OR_NULL[0]}")
        object.__setattr__(self, "source", Source.coerce(self.source))


@dataclass(frozen=True)
class Reject:
    """One rejected input record: 1-based line number plus the reason."""

    line: int
    reason: str

    def to_json(self) -> str:
        return json_record({"line": self.line, "reason": self.reason})


def ingest_jsonl(
    stream: BinaryIO | Iterable[bytes | str],
    on_reject: Callable[[Reject], None] | None = None,
) -> Iterator[Document]:
    """Stream Documents out of newline-delimited JSON.

    Each line must be a JSON object whose ``text``, ``id``, ``url`` and
    ``source`` fields make a ``Document``; a missing or null id is synthesized
    from the 1-based line number. Bad lines (invalid UTF-8, invalid JSON, not
    an object, or a field ``Document`` refuses, with its message as the
    reason) are reported through ``on_reject`` and skipped; ingestion continues.
    Yielded + rejected covers every input line, in input order. Lines are read
    by ``iter_json_lines``, so one byte-order mark at the start of the first
    line is dropped; a U+FEFF anywhere else is kept as text.
    """
    for line_no, record, reason in iter_json_lines(stream):
        if reason is None and not isinstance(record, dict):
            reason = "not a json object"
        if reason is None:
            doc_id = record.get("id")
            try:
                doc = Document(
                    id=str(line_no) if doc_id is None else doc_id, text=record.get("text"),
                    url=record.get("url"), source=record.get("source"),
                )
            except ValueError as exc:
                reason = str(exc)
            else:
                yield doc
                continue
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

# The run of leading headers, each a short line (title) directly followed by
# a line that is just a date. Line breaks fix each pair's extent, so one match
# drops what a loop over single pairs would, and stripping twice equals once.
_TITLE_DATE = re.compile(r"\A(?:[^\n]{1,80}\n[ \t]*" + _DATE + r"[ \t]*(?:\n|\Z))+")


def strip_title_date(doc: Document) -> Document:
    """Drop the leading title/date headers: every pair of lines at the start
    whose first has at most 80 characters and whose second is only a date.
    The rest of the document is byte-identical."""
    m = _TITLE_DATE.match(doc.text)
    if m is None:
        return doc
    return replace(doc, text=doc.text[m.end():])
