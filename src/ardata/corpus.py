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
from dataclasses import dataclass, field
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Iterator

from ._schema import STRING_OR_INTEGER, STRING_OR_NULL, parse_json


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


@dataclass  # no slots=True: mixture.sample_stream holds documents by weak reference
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
    rejected covers every input line, in input order. One UTF-8 byte-order mark at the start of the
    first line is dropped; a U+FEFF anywhere else is kept as text.
    """
    for line_no, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                _reject(on_reject, line_no, "invalid utf-8")
                continue
        else:
            line = raw
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        if not line.strip():
            _reject(on_reject, line_no, "empty line")
            continue
        try:
            record = parse_json(line)
        except ValueError:
            _reject(on_reject, line_no, "invalid json")
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


class CharMapMode(str, Enum):
    NFKC_PLUS_TABLE = "nfkc_plus_table"
    TABLE_ONLY = "table_only"


@dataclass(frozen=True)
class CharMap:
    """Codepoint unification table.

    In ``nfkc_plus_table`` mode, codepoints in the Arabic presentation-form
    blocks are folded to their NFKC decomposition (visually identical base
    letters); the ``entries`` table takes precedence and lets callers add or
    override mappings (e.g. merging alef variants, which is deliberately not
    done by default since it changes meaning). ``table_only`` applies just
    the entries. Applying a valid map twice equals applying it once.

    The combined ``str.translate`` table, and a pattern matching any of its
    keys, are built once per map, when the map is constructed. ``apply``
    searches for a key first and translates only text that holds one, since
    a dict-driven translate costs a lookup per non-ASCII character even
    when nothing maps.
    """

    entries: dict[int, str] = field(default_factory=dict)
    mode: CharMapMode = CharMapMode.NFKC_PLUS_TABLE
    _table: dict[int, str] = field(init=False, repr=False, compare=False)
    _keys: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        folds = _PRESENTATION_FOLD if self.mode is CharMapMode.NFKC_PLUS_TABLE else {}
        for cp, repl in self.entries.items():
            for out in repl:
                if ord(out) in self.entries:
                    raise ValueError(
                        f"entry U+{cp:04X} maps to U+{ord(out):04X}, which is itself mapped"
                    )
                if ord(out) in folds:
                    raise ValueError(
                        f"entry U+{cp:04X} output contains NFKC-mapped codepoint U+{ord(out):04X}"
                    )
        table = {**folds, **self.entries}
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_keys", re.compile(char_class(table)))

    def apply(self, text: str) -> str:
        return text.translate(self._table) if self._keys.search(text) else text


DEFAULT_CHAR_MAP = CharMap()


def normalize_chars(text: str, char_map: CharMap = DEFAULT_CHAR_MAP) -> str:
    """Unify visually-identical Arabic codepoints; non-Arabic text is untouched."""
    return char_map.apply(text)


# --- Leading title/date stripping -------------------------------------------

_DATE = (
    r"(?:\d{1,4}[-/.]\d{1,2}[-/.]\d{1,4}"
    r"|[٠-٩]{1,4}[-/.][٠-٩]{1,2}[-/.][٠-٩]{1,4})"
)

# Default: a short first line (title) directly followed by a line that is
# just a date, both only at the very start of the document.
DEFAULT_TITLE_DATE_PATTERNS: tuple[str, ...] = (
    r"\A[^\n]{1,80}\n[ \t]*" + _DATE + r"[ \t]*(?:\n|\Z)",
)

_MAX_STRIPPED_LINES = 2


def strip_title_date(
    doc: Document,
    patterns: Iterable[str | re.Pattern] = DEFAULT_TITLE_DATE_PATTERNS,
) -> Document:
    """Drop a leading title/date header when one of ``patterns`` matches.

    Patterns are anchored at the start of the text; a match spanning more
    than two lines is ignored, so at most the first two lines are ever
    removed and the rest of the document is byte-identical.
    """
    for pattern in patterns:
        compiled = re.compile(pattern) if isinstance(pattern, str) else pattern
        m = compiled.match(doc.text)
        if m is None or m.start() != 0:
            continue
        removed = doc.text[: m.end()]
        lines_removed = removed.count("\n") + (0 if removed.endswith("\n") or not removed else 1)
        if lines_removed > _MAX_STRIPPED_LINES:
            continue
        return Document(id=doc.id, text=doc.text[m.end():], url=doc.url, source=doc.source)
    return doc
