"""Every file input and every numeric flag of every subcommand, whatever it
holds, ends the command with exit code 0, 1 or 2, and a 1 comes with exactly
one JSON object on stderr: no exception escapes ``dispatch``.

Each file case fills one input with generated content (a JSON value as a whole
file, JSON values as JSONL lines, or arbitrary byte lines) and gives every
other input a valid file, so the generated input alone decides the outcome.
The flag cases give the numeric flags extreme values with valid files.
"""
import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ardata.cli import dispatch
from ardata.filters import FilterConfig, GopherConfig

_CHATML = "<|im_start|>user\nسؤال<|im_end|>\n<|im_start|>assistant\nجواب<|im_end|>\n"

_VALID = {
    "docs.jsonl": "".join(
        json.dumps({"id": str(i), "text": "في البيت كتاب. من هنا إلى هناك.\nسطر ثان", "source": "culturax"}) + "\n"
        for i in range(2)
    ),
    "vocab.txt": "في\nال\n",
    "dialogues.jsonl": json.dumps({"text": _CHATML, "origin": "a"}) + "\n",
    "tf.json": json.dumps([{"id": f"t{i}", "question": f"عبارة {i}", "choices": ["صح", "خطأ"], "gold_index": i % 2}
                           for i in range(2)]),
    "pool.json": json.dumps([{"id": f"p{i}", "question": f"مثال {i}", "choices": ["صح", "خطأ"], "gold_index": i % 2}
                             for i in range(2)]),
    "report.json": json.dumps({"rules": ["safety", "ads", "lines", "chars", "gopher"], "sources": {}}),
    "sources.json": json.dumps([{"name": "a", "tokens": 100, "language": "ar"},
                                {"name": "b", "tokens": 50, "language": "en"}]),
}

# Each case's argv. An @name is a file in the work directory: @F holds the generated
# content, and the other inputs are the valid files of _VALID.
_CASES = {
    "clean --in": ["clean", "--in", "@F", "--out", "@out", "--report", "@out2", "--rejects", "@out3"],
    "clean --config": ["clean", "--in", "@docs.jsonl", "--config", "@F", "--out", "@out", "--report", "@out2"],
    "clean vocab:": ["clean", "--in", "@docs.jsonl", "--tokenizer", "vocab:@F", "--out", "@out", "--report", "@out2"],
    "fertility --in": ["fertility", "--in", "@F", "--tokenizer", "whitespace", "--out", "@out"],
    "fertility vocab:": ["fertility", "--in", "@docs.jsonl", "--tokenizer", "vocab:@F", "--out", "@out"],
    "mix-plan --sources": ["mix-plan", "--sources", "@F", "--total-tokens", "100", "--out", "@out"],
    "instruct build --in": ["instruct", "build", "--in", "@F", "--out", "@out", "--stats", "@out2", "--template", "both"],
    "instruct build --exemplar": [
        "instruct", "build", "--in", "@docs.jsonl", "--exemplar", "@F", "--template", "mcq", "--out", "@out",
        "--stats", "@out2",
    ],
    "instruct mix --in": ["instruct", "mix", "--in", "@F", "--in", "@dialogues.jsonl", "--out", "@out", "--stats", "@out2"],
    "eval cf --items": ["eval", "cf", "--items", "@F", "--scorer", "oracle", "--out", "@out"],
    "eval mcf --items": ["eval", "mcf", "--items", "@F", "--scorer", "ngram", "--out", "@out"],
    "eval acva --items": ["eval", "acva", "--items", "@F", "--exemplars", "@pool.json", "--shots", "1", "--out", "@out"],
    "eval acva --exemplars": ["eval", "acva", "--items", "@tf.json", "--exemplars", "@F", "--shots", "1", "--out", "@out"],
    "eval diff --items": ["eval", "diff", "--items", "@F", "--scorers", "constant,anti-oracle", "--out", "@out"],
    "report merge": ["report", "merge", "@report.json", "@F", "--out", "@out"],
}

# Keys the loaders read, so that generated objects reach past the first missing key.
_KEYS = sorted({
    "id", "text", "url", "source", "name", "tokens", "language", "question", "options", "answer_index",
    "enum_style", "choices", "gold_index", "category", "context", "rules", "sources", "docs_in", "tokens_in",
    "docs_removed", "tokens_removed", "conversations", "turns", "from", "value", "instruction", "output",
    "response", "answer", "origin",
    *(f.name for cls in (FilterConfig, GopherConfig) for f in dataclasses.fields(cls)),
})

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["human", "gpt", "culturax", "latin_letters", _CHATML]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner,
                                                                 max_size=5),
    max_leaves=12,
)
_content = st.one_of(
    _json.map(lambda value: json.dumps(value).encode()),
    st.lists(_json, max_size=4).map(lambda values: "".join(json.dumps(v) + "\n" for v in values).encode()),
    st.lists(st.binary(max_size=12), max_size=4).map(b"\n".join),
)




def _huge(n: int) -> list[bytes]:
    """Files whose integer fields that reach float or C code (ids, token counts,
    indices, config bounds, report counts) all hold ``n``, the other fields
    valid: one object (an MCQ exemplar, or a JSONL line of docs or dialogues), a
    list of it (sources, benchmark items), a filter config and a cleaning report."""
    record = {"id": n, "text": "في البيت كتاب.", "name": "a", "tokens": n, "question": "سؤال", "choices": ["أ", "ب"],
              "gold_index": n, "options": ["أ", "ب"], "answer_index": n}
    config = {f.name: n for f in dataclasses.fields(FilterConfig) if f.type == "int"}
    config["gopher"] = {f.name: n for f in dataclasses.fields(GopherConfig) if f.type in ("int", "float")}
    counts = {"docs_in": n, "tokens_in": n, "docs_removed": {"safety": n}, "tokens_removed": {"safety": n}}
    report = {"rules": ["safety", "ads", "lines", "chars", "gopher"], "sources": {"culturax": counts}}
    return [json.dumps(value, ensure_ascii=False).encode() for value in (record, [record], config, report)]


_PAST_SSIZE_T, _PAST_FLOAT = _huge(2**63), _huge(10**309)


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory(prefix="ardata-fuzz-") as name:
        root = Path(name)
        for file_name, text in _VALID.items():
            (root / file_name).write_text(text, encoding="utf-8")
        yield root


def _argv(case: str, root: Path) -> list[str]:
    return [arg.replace("@", f"{root}/") for arg in _CASES[case]]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_json_error(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"command", "error"}


@pytest.mark.parametrize("case", sorted(_CASES))
@given(content=_content)
@example(content=b"[" * 1_000 + b"]" * 1_000)
# Hypothesis raises the recursion limit while a test runs, so a value 1,000 deep
# parses here; 100,000 deep is past any limit and fails the parse.
@example(content=b"[" * 100_000 + b"]" * 100_000)
@example(content=b"9" * 5_000)  # past the interpreter's integer digit limit
@example(content=_PAST_SSIZE_T[0])
@example(content=_PAST_SSIZE_T[1])
@example(content=_PAST_SSIZE_T[2])
@example(content=_PAST_SSIZE_T[3])
@example(content=_PAST_FLOAT[0])
@example(content=_PAST_FLOAT[1])
@example(content=_PAST_FLOAT[2])
@example(content=_PAST_FLOAT[3])
@example(content=b"\xef\xbb\xbf" + _PAST_SSIZE_T[0])  # a byte-order mark, dropped from a whole file and from line 1
@example(content=b'{"text": "\xff"}\n' + _PAST_SSIZE_T[0])  # a line that is not UTF-8
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_file_input_exits_0_or_1_with_one_json_error(workdir, case, content):
    (workdir / "F").write_bytes(content)
    code, _, err = _run(_argv(case, workdir))
    assert code in ((0,) if case == "instruct mix --in" else (0, 1))  # mix tallies every bad line
    if code == 0:
        assert err == ""
    else:
        _assert_one_json_error(err)


# Each subcommand that takes a numeric flag: its other arguments, and each
# numeric flag with the prefix its value takes.
_FLAG_CASES = {
    "clean": (["clean", "--in", "@docs.jsonl", "--out", "@out", "--report", "@out2"], [("--parallelism", "")]),
    "mix-plan": (
        ["mix-plan", "--sources", "@sources.json", "--out", "@out"],
        [("--total-tokens", ""), ("--upweight", "ar="), ("--upweight", "en=")],
    ),
    "lr-curve": (
        ["lr-curve", "--out", "@out"],
        [("--total-steps", ""), ("--warmup-steps", ""), ("--cooldown-start", ""), ("--max-lr", ""), ("--min-lr", "")],
    ),
    "instruct build": (
        ["instruct", "build", "--in", "@docs.jsonl", "--out", "@out", "--stats", "@out2", "--template", "both"],
        [("--max-chars", ""), ("--malformed-rate", ""), ("--seed", "")],
    ),
    "eval acva": (
        ["eval", "acva", "--items", "@tf.json", "--exemplars", "@pool.json", "--out", "@out"],
        [("--shots", ""), ("--seed", "")],
    ),
}
_NUMBERS = ["-3", "-1", "0", "-0.0", "1", "3", "0.5", "1e-3", str(2**63), str(2**64 + 1), "nan", "inf", "-inf", "1e308"]
_MAX_ROWS = 10_000
_NON_FINITE = re.compile(r"(?<![A-Za-z])(?:nan|inf|NaN|Infinity)(?![A-Za-z])")


def _as_int(text: str | None) -> int | None:
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


@st.composite
def _flag_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAG_CASES)))
    argv, flags = _FLAG_CASES[command]
    argv = list(argv)
    drawn = {}
    for flag, prefix in flags:
        value = draw(st.none() | st.sampled_from(_NUMBERS))
        if value is not None:
            argv += [flag, prefix + value]
            drawn[flag] = value
    if command == "lr-curve":
        argv += draw(st.sampled_from([[], ["--variant", "late"], ["--composition", "product"],
                                      ["--composition", "cosine"]]))
        # A run writes total_steps // stride + 2 rows at most, and with the default
        # stride --total-steps 2**63 asks for ~9e15 of them. So a stride that is
        # valid (absent or >= 1) is raised until at most ~_MAX_ROWS rows are written;
        # an invalid one is kept, to be refused.
        stride = draw(st.none() | st.sampled_from(_NUMBERS))
        total = _as_int(drawn.get("--total-steps"))
        total = total if total is not None and total > 0 else 500_000
        if stride is None or (_as_int(stride) or 0) >= 1:
            stride = str(max(_as_int(stride) or 1000, total // _MAX_ROWS))
        argv += ["--stride", stride]
    return argv


@given(argv=_flag_argv())
# Commands that once exited 0 with inf or nan in their output (the first asks
# for all 500,001 rows, and is refused before any is written).
@example(argv=["lr-curve", "--max-lr", "1e308", "--stride", "1", "--out", "@out"])
@example(argv=["lr-curve", "--composition", "product", "--max-lr", "1e200", "--stride", "100000", "--out", "@out"])
@example(argv=["mix-plan", "--sources", "@sources.json", "--total-tokens", "100", "--upweight", "ar=1e308",
               "--upweight", "en=1e308", "--out", "@out"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_numeric_flag_exits_0_1_or_2_and_writes_no_nan_or_inf(workdir, argv):
    outputs = [workdir / "out", workdir / "out2"]
    for path in outputs:
        path.unlink(missing_ok=True)
    code, out, err = _run([arg.replace("@", f"{workdir}/") for arg in argv])
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        written = [out] + [path.read_text(encoding="utf-8") for path in outputs if path.exists()]
        assert not any(_NON_FINITE.search(text) for text in written)
    elif code == 1:
        _assert_one_json_error(err)
