"""The JSON that ardata reads and writes: parsing, type checks and encoding.

Every file input (corpora, filter configs, cleaning reports, MCQ exemplars,
benchmark items, mixture sources, dialogue and instruction records) is
parsed with ``read_json``, or line by line with ``iter_json_lines``, and its
fields are checked with ``check`` and ``get_field``. So this module alone
decides what a valid value of each kind is, and every bad input is one
``ValueError`` worded the same way, naming where the value sits: ``item 3:
'gold_index' must be an integer, got true``. A kind is a pair: its name in
messages, and a test. The line reader decides what a bad JSONL line is, so
``clean`` and ``instruct mix`` reject the same lines. Every record ardata
writes is one ``json_record`` line, and every JSON file one ``json_document``.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Iterable, Iterator


# JSON numbers parse to exactly int or float, and true/false (a bool, so an
# int subclass) is no count or index.
OBJECT = ("an object", lambda v: isinstance(v, dict))
LIST = ("a list", lambda v: isinstance(v, list))
STRING = ("a string", lambda v: isinstance(v, str))
STRING_OR_NULL = ("a string or null", lambda v: v is None or isinstance(v, str))
STRING_OR_INTEGER = ("a string or an integer", lambda v: isinstance(v, str) or type(v) is int)
STRINGS = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))
BOOLEAN = ("true or false", lambda v: isinstance(v, bool))
INTEGER = ("an integer", lambda v: type(v) is int)
# json.loads reads NaN and Infinity, and a NaN bound turns a check off.
NUMBER = ("a finite number", lambda v: type(v) is int or (type(v) is float and math.isfinite(v)))
COUNT = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
COUNTS = ("an object of integer counts >= 0", lambda v: isinstance(v, dict) and all(map(COUNT[1], v.values())))
# Token and step counts meet floats in fractions, percentages and learning
# rates; below 2**63 even their sum over any realistic number of terms stays
# in float range.
BELOW_2_63 = ("below 2**63", lambda v: v < 2**63)

_MISSING = object()
_BOM = "\ufeff"  # dropped at the start of a file, kept as text anywhere else
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_string = json.encoder.encode_basestring  # a str as json.dumps(..., ensure_ascii=False) writes it


def parse_json(text: str):
    """The JSON value in ``text``. Every way the parse fails, nesting past the
    recursion limit, an integer past the digit limit and a string holding a
    lone surrogate (which I-JSON, RFC 7493, forbids and UTF-8 cannot encode)
    included, is a ValueError."""
    try:
        value = json.loads(text)
        # In text decoded from UTF-8 only a \ud800-\udfff escape makes a surrogate
        # (an escaped pair parses to one character), so only such text is searched.
        lone = _SURROGATE_ESCAPE.search(text) and _SURROGATE.search(json.dumps(value, ensure_ascii=False))
    except RecursionError:
        raise ValueError("invalid json: nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"invalid json: {exc}") from None
    if lone:
        raise ValueError("invalid json: lone surrogate in a string")
    return value


def read_json(path: str | Path):
    """The JSON value in the UTF-8 file ``path``, after one leading byte-order
    mark; a ValueError names the file."""
    try:
        return parse_json(Path(path).read_text(encoding="utf-8").removeprefix(_BOM))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def iter_json_lines(lines: Iterable[bytes | str]) -> Iterator[tuple[int, object, str | None]]:
    """``(line_no, value, None)`` for each JSON line of ``lines``, 1-based, or
    ``(line_no, None, reason)`` for a line that holds no value: ``invalid utf-8``,
    ``empty line`` (only whitespace) or ``invalid json``. A bytes line is decoded
    as UTF-8; a str line must be encodable as UTF-8, so one holding a lone
    surrogate character is ``invalid utf-8`` too. One byte-order mark at the
    start of line 1 is dropped, as ``read_json`` drops it."""
    for line_no, line in enumerate(lines, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            elif not line.isascii():
                line.encode("utf-8")
        except UnicodeError:
            yield line_no, None, "invalid utf-8"
            continue
        if line_no == 1:
            line = line.removeprefix(_BOM)
        if not line.strip():
            yield line_no, None, "empty line"
            continue
        try:
            value = parse_json(line)
        except ValueError:
            yield line_no, None, "invalid json"
            continue
        yield line_no, value, None


def check(value, kind: tuple, name: str):
    """``value`` if it is of ``kind``, else ValueError ``<name> must be <kind>, got <value>``."""
    if not kind[1](value):
        raise ValueError(f"{name} must be {kind[0]}, got {_show(value)}")
    return value


def get_field(data: dict, key: str, kind: tuple, where: str = "", default=_MISSING):
    """``data[key]`` checked as ``kind`` and named ``<where>'<key>'``; ``default``
    when the key is absent and a default is given."""
    if key not in data and default is not _MISSING:
        return default
    return check(data.get(key, _MISSING), kind, f"{where}{key!r}")


def _show(value) -> str:
    if value is _MISSING:
        return "nothing"
    text = {dict: "object", list: "list"}.get(type(value)) or json.dumps(value, ensure_ascii=False)
    return text if len(text) <= 40 else text[:37] + "..."


def json_record(record: dict) -> str:
    """``json.dumps(record, sort_keys=True, ensure_ascii=False)``: one line, raw UTF-8. A str value
    skips the encoder ``json.dumps`` sets up per call, most of the time of a ~1 KB record."""
    fields = []
    for key in sorted(record):
        value = record[key]
        value = _string(value) if isinstance(value, str) else json.dumps(value, sort_keys=True, ensure_ascii=False)
        fields.append(f"{_string(key)}: {value}")
    return "{" + ", ".join(fields) + "}"


def json_document(value) -> str:
    """``value`` as a JSON file's text, keys sorted and indented by two, raw UTF-8."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)
