import argparse
import csv
import json
import math
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import threading
import time
import unicodedata
from itertools import islice
from pathlib import Path

import pytest

import ardata.cli
from ardata.cli import build_parser, dispatch
from ardata.corpus import document_to_record
from ardata.filters import FilterConfig
from ardata.instruct import Rejection, load_instruction_records, parse_chatml

from planted import AD_PHRASES, UNSAFE_PHRASES, clean_doc, planted_corpus, safety_url_doc

CONFIG = {
    "unsafe_phrases": list(UNSAFE_PHRASES),
    "ad_phrases": list(AD_PHRASES),
}


def write_jsonl(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(document_to_record(doc), ensure_ascii=False) + "\n")


@pytest.fixture
def corpus_files(tmp_path):
    docs, expected = planted_corpus(n_clean=30, n_safety=4, n_url=2, n_ads=4, n_lines=4, n_chars=3, n_gopher=3)
    in_path = tmp_path / "docs.jsonl"
    write_jsonl(in_path, docs)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return tmp_path, in_path, config_path, docs, expected


# --- exit codes -------------------------------------------------------------------


def test_no_arguments_usage_error(capsys):
    assert dispatch([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_usage_error():
    assert dispatch(["frobnicate"]) == 2


# Each subcommand's required arguments, so that only the flag under test
# decides whether parsing succeeds.
SUBCOMMAND_ARGV = {
    "clean": ["clean", "--in", "i", "--out", "o", "--report", "r"],
    "fertility": ["fertility", "--in", "i", "--tokenizer", "whitespace"],
    "mix-plan": ["mix-plan", "--sources", "s", "--total-tokens", "10"],
    "lr-curve": ["lr-curve"],
    "instruct build": ["instruct", "build", "--in", "i", "--out", "o", "--stats", "s"],
    "instruct mix": ["instruct", "mix", "--in", "i", "--out", "o", "--stats", "s"],
    "eval cf": ["eval", "cf", "--items", "i"],
    "eval mcf": ["eval", "mcf", "--items", "i"],
    "eval acva": ["eval", "acva", "--items", "i", "--exemplars", "e"],
    "eval diff": ["eval", "diff", "--items", "i"],
    "report merge": ["report", "merge", "r"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
@pytest.mark.parametrize("flag, readers", [
    ("--seed", {"instruct build", "eval acva"}),
    ("--parallelism", {"clean"}),
])
def test_seed_and_parallelism_only_where_read(command, flag, readers):
    argv = SUBCOMMAND_ARGV[command]
    build_parser().parse_args(argv)
    if command in readers:
        assert getattr(build_parser().parse_args(argv + [flag, "2"]), flag[2:]) == 2
    else:
        assert dispatch(argv + [flag, "2"]) == 2


def test_missing_input_is_validation_error(tmp_path, capsys):
    code = dispatch(
        ["clean", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o"), "--report", str(tmp_path / "r")]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and err["command"] == "clean"


# --- clean -------------------------------------------------------------------------


def test_clean_end_to_end(corpus_files):
    tmp_path, in_path, config_path, docs, expected = corpus_files
    out = tmp_path / "kept.jsonl"
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    rejects_path = tmp_path / "rejects.jsonl"
    code = dispatch([
        "clean", "--in", str(in_path), "--out", str(out),
        "--report", str(report_path), "--report-csv", str(csv_path),
        "--rejects", str(rejects_path), "--config", str(config_path),
    ])
    assert code == 0
    kept_lines = out.read_text(encoding="utf-8").splitlines()
    assert len(kept_lines) == 30
    report = json.loads(report_path.read_text(encoding="utf-8"))
    removed = report["sources"]["culturax"]["docs_removed"]
    assert removed == {k: v for k, v in expected.items() if v}
    rows = list(csv.reader(csv_path.read_text(encoding="utf-8").splitlines()))
    assert rows[0][0] == "dataset"
    assert rejects_path.read_text(encoding="utf-8") == ""


def test_clean_byte_identical_reruns(corpus_files):
    tmp_path, in_path, config_path, *_ = corpus_files
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"kept-{tag}.jsonl"
        report_path = tmp_path / f"report-{tag}.json"
        assert dispatch([
            "clean", "--in", str(in_path), "--out", str(out),
            "--report", str(report_path), "--config", str(config_path),
        ]) == 0
        payloads.append((out.read_bytes(), report_path.read_bytes()))
    assert payloads[0] == payloads[1]


def test_clean_parallelism_does_not_change_results(corpus_files):
    tmp_path, in_path, config_path, *_ = corpus_files
    results = []
    for par in ("1", "4"):
        out = tmp_path / f"kept-p{par}.jsonl"
        report_path = tmp_path / f"report-p{par}.json"
        assert dispatch([
            "clean", "--in", str(in_path), "--out", str(out),
            "--report", str(report_path), "--config", str(config_path),
            "--parallelism", par,
        ]) == 0
        results.append((out.read_bytes(), report_path.read_bytes()))
    assert results[0] == results[1]


def test_clean_rejects_channel(tmp_path):
    in_path = tmp_path / "docs.jsonl"
    in_path.write_text('{"id":"a","text":"hi"}\n{bad json\n', encoding="utf-8")
    rejects_path = tmp_path / "rejects.jsonl"
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(tmp_path / "kept.jsonl"),
        "--report", str(tmp_path / "report.json"), "--rejects", str(rejects_path),
    ]) == 0
    rejects = [json.loads(line) for line in rejects_path.read_text(encoding="utf-8").splitlines()]
    assert rejects == [{"line": 2, "reason": "invalid json"}]


def test_clean_rejects_lines_the_parser_or_document_refuses(tmp_path):
    in_path = tmp_path / "docs.jsonl"
    lines = ['{"id":"a","text":"hi"}', "[" * 100_000 + "]" * 100_000, '{"text":"x","n":%s}' % ("9" * 5000),
             '{"id":"","text":"x"}', '{"id":"e","text":"bye"}']
    in_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rejects_path = tmp_path / "rejects.jsonl"
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(tmp_path / "kept.jsonl"),
        "--report", str(tmp_path / "report.json"), "--rejects", str(rejects_path),
    ]) == 0
    rejects = [json.loads(line) for line in rejects_path.read_text(encoding="utf-8").splitlines()]
    assert rejects == [
        {"line": 2, "reason": "invalid json"}, {"line": 3, "reason": "invalid json"}, {"line": 4, "reason": "empty id"},
    ]
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["sources"]["other"]["docs_in"] == 2


def test_clean_rejects_a_lone_surrogate_escape_as_invalid_json(tmp_path):
    # The filters keep each document; writing the lone surrogate used to exit 1, naming no line.
    # json.dumps escapes "b"'s lone surrogate as \ud800 and "c"'s emoji as the pair \ud83d\ude00.
    record = document_to_record(clean_doc(0))
    in_path = tmp_path / "docs.jsonl"
    in_path.write_text("".join(json.dumps({**record, "id": doc_id, "text": record["text"] + tail}) + "\n"
                               for doc_id, tail in (("a", ""), ("b", "\ud800"), ("c", " \U0001f600"))),
                       encoding="utf-8")
    kept, rejects = tmp_path / "kept.jsonl", tmp_path / "rejects.jsonl"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert dispatch(["clean", "--in", str(in_path), "--out", str(kept), "--report", str(tmp_path / "report.json"),
                     "--config", str(config_path), "--rejects", str(rejects)]) == 0
    assert [json.loads(line) for line in rejects.read_text(encoding="utf-8").splitlines()] == [
        {"line": 2, "reason": "invalid json"},
    ]
    assert [json.loads(line)["id"] for line in kept.read_text(encoding="utf-8").splitlines()] == ["a", "c"]


def test_clean_rejects_ids_and_urls_of_another_kind(tmp_path):
    in_path = tmp_path / "docs.jsonl"
    # Coerced to `other`, the list source let a CulturaX document skip the safety rule.
    lines = ['{"id":["x",1],"text":"نص"}', '{"id":1.0,"text":"نص"}', '{"id":"a","text":"نص","url":{"a":1}}',
             '{"id":2,"text":"نص","url":"https://e.org/2"}', '{"id":3,"text":"نص","source":["culturax"]}']
    in_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rejects_path = tmp_path / "rejects.jsonl"
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(tmp_path / "kept.jsonl"),
        "--report", str(tmp_path / "report.json"), "--rejects", str(rejects_path),
    ]) == 0
    rejects = [json.loads(line) for line in rejects_path.read_text(encoding="utf-8").splitlines()]
    assert rejects == [
        {"line": 1, "reason": "id is not a string or an integer"},
        {"line": 2, "reason": "id is not a string or an integer"},
        {"line": 3, "reason": "url is not a string or null"},
        {"line": 5, "reason": "source is not a string or null"},
    ]
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["sources"]["other"]["docs_in"] == 1


@pytest.mark.parametrize("config, key", [
    ({"min_linez": 3}, "'min_linez'"),
    ({"gopher": {"min_words": "x"}}, "'gopher.min_words'"),
    # json.dumps writes NaN, which json.loads reads back; a NaN bound never fires.
    ({"gopher": {"max_punct_char_frac": math.nan}}, "'gopher.max_punct_char_frac' must be a finite number, got NaN"),
    ({"gopher": {"min_words": 5, "symbols": [""]}}, "symbols must not contain empty strings"),
    ({"unsafe_phrases": [""]}, "unsafe_phrases must not contain empty strings"),
    ({"ad_phrases": ["x", ""]}, "ad_phrases must not contain empty strings"),
])
def test_clean_bad_config_key_is_validation_error(corpus_files, capsys, config, key):
    tmp_path, in_path, config_path, *_ = corpus_files
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = dispatch([
        "clean", "--in", str(in_path), "--out", str(tmp_path / "kept.jsonl"),
        "--report", str(tmp_path / "report.json"), "--config", str(config_path),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "clean" and key in err["error"]


def _clean_argv_with_arabic_config_key(tmp_path, in_path, config_path):
    config_path.write_text(json.dumps({"مفتاح": 1}, ensure_ascii=False), encoding="utf-8")
    return ["clean", "--in", str(in_path), "--out", str(tmp_path / "kept.jsonl"), "--report", str(tmp_path / "report.json"),
            "--config", str(config_path)]


def test_validation_error_writes_arabic_verbatim(corpus_files, capsys):
    tmp_path, in_path, config_path, *_ = corpus_files
    assert dispatch(_clean_argv_with_arabic_config_key(tmp_path, in_path, config_path)) == 1
    err = capsys.readouterr().err
    assert "unknown filter config key 'مفتاح'" in err
    assert json.loads(err) == {"error": "unknown filter config key 'مفتاح'", "command": "clean"}


def test_validation_error_on_an_ascii_stderr_is_one_json_line(corpus_files):
    tmp_path, in_path, config_path, *_ = corpus_files
    result = subprocess.run(
        [sys.executable, "-m", "ardata.cli", *_clean_argv_with_arabic_config_key(tmp_path, in_path, config_path)],
        capture_output=True, env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert result.returncode == 1
    [line] = result.stderr.decode("ascii").splitlines()
    assert json.loads(line) == {"error": "unknown filter config key 'مفتاح'", "command": "clean"}


def test_validation_error_escapes_unicode_line_breaks(tmp_path, capsys):
    # U+0085, U+2028 and U+2029 are line breaks to str.splitlines, and
    # json.dumps(..., ensure_ascii=False) writes them raw.
    items = tmp_path / "items.json"
    items.write_text(json.dumps("\x85\u2028\u2029"), encoding="utf-8")
    argv = ["eval", "diff", "--items", str(items), "--scorers", "constant,anti-oracle", "--out", str(tmp_path / "o.json")]
    assert dispatch(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": f'{items}: benchmark file must be a list, got "\x85\u2028\u2029"', "command": "eval"}


def test_clean_failure_leaves_no_partial_output(corpus_files, capsys):
    # The report's directory is missing, so the run fails after kept.jsonl and
    # the rejects file were opened: neither may appear, and an existing
    # kept.jsonl from an earlier run stays as it was.
    tmp_path, in_path, config_path, *_ = corpus_files
    out = tmp_path / "kept.jsonl"
    out.write_text("earlier run\n", encoding="utf-8")
    code = dispatch([
        "clean", "--in", str(in_path), "--out", str(out), "--rejects", str(tmp_path / "rejects.jsonl"),
        "--report", str(tmp_path / "nodir" / "r.json"), "--config", str(config_path),
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["command"] == "clean"
    assert out.read_text(encoding="utf-8") == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "docs.jsonl", "kept.jsonl"]


def test_clean_report_directory_leaves_outputs_unchanged(corpus_files, capsys):
    # A directory target is refused when it is opened, before any output is moved into place.
    tmp_path, in_path, config_path, *_ = corpus_files
    out = tmp_path / "kept.jsonl"
    out.write_text("earlier run\n", encoding="utf-8")
    (tmp_path / "reports").mkdir()
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(out),
        "--report", str(tmp_path / "reports"), "--config", str(config_path),
    ]) == 1
    assert json.loads(capsys.readouterr().err)["command"] == "clean"
    assert out.read_text(encoding="utf-8") == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "docs.jsonl", "kept.jsonl", "reports"]


def test_clean_writes_through_symlink_target(corpus_files):
    tmp_path, in_path, config_path, *_ = corpus_files
    data = tmp_path / "data"
    data.mkdir()
    real = data / "kept.jsonl"
    real.write_text("earlier run\n", encoding="utf-8")
    real.chmod(0o640)
    link = tmp_path / "kept-link.jsonl"
    link.symlink_to(real)
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(link),
        "--report", str(tmp_path / "r.json"), "--config", str(config_path),
    ]) == 0
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text(encoding="utf-8").count("\n") == 30
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in data.iterdir()) == ["kept.jsonl"]


def test_stale_temporary_does_not_block_output(corpus_files):
    # A run killed before its cleanup leaves its temporary behind; a later run
    # with the same process id picks another name and leaves that file alone.
    tmp_path, in_path, config_path, *_ = corpus_files
    stale = tmp_path / f".kept.jsonl.{os.getpid()}.0.tmp"
    stale.write_text("killed run\n", encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(out),
        "--report", str(tmp_path / "r.json"), "--config", str(config_path),
    ]) == 0
    assert out.read_text(encoding="utf-8").count("\n") == 30
    assert stale.read_text(encoding="utf-8") == "killed run\n"


def test_fifo_target_is_written_directly(tmp_path):
    expected = tmp_path / "lr.csv"
    assert dispatch(["lr-curve", "--out", str(expected)]) == 0
    fifo = tmp_path / "lr.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert dispatch(["lr-curve", "--out", str(fifo)]) == 0
    finally:
        if reader.is_alive() and not received:
            # Release a reader still waiting for a writer. A reader that has read
            # everything but not yet appended it has closed its end, and a
            # blocking open would then wait forever; this one fails with ENXIO.
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
        reader.join(timeout=10)
    assert received == [expected.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.csv", "lr.fifo"]


def test_dash_writes_clean_jsonl_to_stdout(corpus_files, capsys, monkeypatch):
    # `-` is stdout for --out and --rejects too, as for every other output flag.
    tmp_path, in_path, config_path, *_ = corpus_files
    with open(in_path, "a", encoding="utf-8") as fh:
        fh.write("{bad json\n")
    argv = ["clean", "--in", str(in_path), "--report", str(tmp_path / "r.json"), "--config", str(config_path)]
    kept, rejects = tmp_path / "kept.jsonl", tmp_path / "rejects.jsonl"
    assert dispatch(argv + ["--out", str(kept), "--rejects", str(rejects)]) == 0
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv + ["--out", "-", "--rejects", "-"]) == 0
    written = kept.read_text(encoding="utf-8").splitlines() + rejects.read_text(encoding="utf-8").splitlines()
    assert len(written) == 31
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(written)
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("argv", [
    ["clean", "--in", "docs.jsonl", "--out", "same.json", "--report", "same.json"],
    ["clean", "--in", "docs.jsonl", "--out", "same.json", "--rejects", "link.json", "--report", "r.json"],
    ["instruct", "build", "--in", "docs.jsonl", "--out", "same.json", "--stats", "same.json"],
])
def test_two_outputs_naming_one_file_is_validation_error(corpus_files, capsys, monkeypatch, argv):
    # Only one of the two could survive, so the run writes nothing.
    tmp_path = corpus_files[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.json").write_text("earlier run\n", encoding="utf-8")
    (tmp_path / "link.json").symlink_to(tmp_path / "same.json")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert dispatch(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": argv[0], "error": "same.json is named by two outputs of this command"}
    assert (tmp_path / "same.json").read_text(encoding="utf-8") == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, named", [
    (["clean", "--in", "missing.jsonl", "--out", "same.json", "--report", "same.json"], "same.json is named"),
    (["clean", "--in", "missing.jsonl", "--out", "k.jsonl", "--report", "r.json", "--report-csv", "nodir/r.csv"],
     "nodir"),
    (["instruct", "build", "--in", "missing.jsonl", "--out", "d.jsonl", "--stats", "d.jsonl"], "d.jsonl is named"),
    (["instruct", "mix", "--in", "missing.jsonl", "--out", "d.jsonl", "--stats", "nodir/s.json"], "nodir"),
    (["fertility", "--in", "missing.jsonl", "--tokenizer", "whitespace", "--out", "nodir/f.csv"], "'nodir/f.csv'"),
    (["mix-plan", "--sources", "missing.jsonl", "--total-tokens", "10", "--out", "nodir/m.csv"], "'nodir/m.csv'"),
    (["lr-curve", "--total-steps", "5", "--out", "nodir/l.csv"], "'nodir/l.csv'"),
    (["instruct", "mix", "--in", "missing.jsonl", "--out", "nodir/s.json", "--stats", "s.json"], "'nodir/s.json'"),
    (["eval", "cf", "--items", "missing.jsonl", "--out", "nodir/x.json"], "'nodir/x.json'"),
    (["eval", "mcf", "--items", "missing.jsonl", "--out", "nodir/x.json"], "'nodir/x.json'"),
    (["eval", "acva", "--items", "missing.jsonl", "--exemplars", "missing.jsonl", "--out", "nodir/x.json"],
     "'nodir/x.json'"),
    (["eval", "diff", "--items", "missing.jsonl", "--out", "nodir/x.csv"], "'nodir/x.csv'"),
    (["report", "merge", "missing.jsonl", "--out", "nodir/r.json"], "'nodir/r.json'"),
    # A path that names no file is refused as a plain open refuses it, not staged as its directory.
    (["lr-curve", "--stride", "100000", "--out", "nodir/"], "Is a directory: 'nodir/'"),
    (["lr-curve", "--stride", "100000", "--out", ""], "No such file or directory: ''"),
])
def test_outputs_are_opened_before_the_input_is_read(tmp_path, capsys, monkeypatch, argv, named):
    # A bad output is refused before any work: the error names it as given,
    # not the missing input and not the temporary it would be staged in.
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert named in err["error"] and "missing.jsonl" not in err["error"] and ".tmp" not in err["error"]
    assert list(tmp_path.iterdir()) == []


def _leaf_parsers(parser, words=()):
    """(command, parser) for each subcommand that runs, such as ("eval cf", <parser>)."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(words), parser
    for action in subparsers:
        for word, child in action.choices.items():
            yield from _leaf_parsers(child, words + (word,))


OUTPUT_DESTS = {"out", "output", "report", "report_csv", "rejects", "stats"}


def test_every_output_is_declared():
    # dispatch opens only the declared outputs before a command runs, so an
    # undeclared output flag would reach its command as a path, unopened.
    leaves = dict(_leaf_parsers(build_parser()))
    assert sorted(leaves) == sorted(SUBCOMMAND_ARGV)
    for command, parser in leaves.items():
        options = {a.dest for a in parser._actions if a.option_strings}
        declared = parser.get_default("outputs")
        assert len(set(declared)) == len(declared), command
        assert options & OUTPUT_DESTS <= set(declared) <= options, command
        assert "outputs" not in options, command


def test_outputs_to_stdout_or_a_device_may_repeat(corpus_files, capsys, monkeypatch):
    tmp_path, in_path, config_path, *_ = corpus_files
    monkeypatch.chdir(tmp_path)
    for target in ("-", os.devnull):
        assert dispatch([
            "clean", "--in", str(in_path), "--out", target, "--rejects", target,
            "--report", target, "--report-csv", target, "--config", str(config_path),
        ]) == 0
    assert capsys.readouterr().out.count("\n") > 30


def _default_signals():
    # A signal ignored by the test runner (a background job ignores SIGINT)
    # would stay ignored in the child.
    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, signal.SIG_DFL)


@pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGHUP, 129), (signal.SIGINT, 130)])
@pytest.mark.parametrize("command", ["clean", "instruct mix"])
def test_signalled_run_leaves_no_partial_output(tmp_path, command, signum, code):
    # The input is a FIFO that the test keeps open, so the run blocks reading it
    # with its staged outputs on disk until the signal arrives. The input is
    # ended after the signal: one that lands just before the child enters read()
    # is handled only when the read returns.
    fifo, out = tmp_path / "in.fifo", tmp_path / "out.jsonl"
    os.mkfifo(fifo)
    out.write_text("earlier run\n", encoding="utf-8")
    if command == "clean":
        argv = ["clean", "--in", str(fifo), "--out", str(out), "--rejects", str(tmp_path / "rejects.jsonl"),
                "--report", str(tmp_path / "r.json")]
    else:
        argv = ["instruct", "mix", "--in", str(fifo), "--out", str(out), "--stats", str(tmp_path / "stats.json")]
    child = subprocess.Popen([sys.executable, "-m", "ardata.cli", *argv], stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True, preexec_fn=_default_signals)
    writer = None
    try:
        deadline = time.monotonic() + 60
        while writer is None:  # a non-blocking open fails until the child opens its end
            assert child.poll() is None and time.monotonic() < deadline
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError:
                time.sleep(0.01)
        assert list(tmp_path.glob(".out.jsonl.*.tmp"))
        child.send_signal(signum)
        os.close(writer)
        writer = None
        _, err = child.communicate(timeout=60)
    finally:
        if writer is not None:
            os.close(writer)
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == code
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.fifo", "out.jsonl"]
    assert out.read_text(encoding="utf-8") == "earlier run\n"
    if signum == signal.SIGINT:
        assert [json.loads(line) for line in err.splitlines()] == [{"command": argv[0], "error": "interrupted"}]
    else:
        assert err == ""


def test_clean_min_lines_zero_on_empty_text(tmp_path, capsys):
    # No non-empty line and no word: the short-line fraction and the per-word
    # ratios have nothing to divide by, so they pass and gopher's word count removes.
    in_path = tmp_path / "docs.jsonl"
    in_path.write_text('{"id":"a","text":""}\n', encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text('{"min_lines": 0}', encoding="utf-8")
    out, report_path = tmp_path / "kept.jsonl", tmp_path / "report.json"
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(out),
        "--report", str(report_path), "--config", str(config_path),
    ]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8") == ""
    assert json.loads(report_path.read_text(encoding="utf-8")) == {
        "rules": ["safety", "ads", "lines", "chars", "gopher"],
        "sources": {"other": {
            "docs_in": 1, "docs_kept": 0, "docs_removed": {"gopher": 1},
            "tokens_in": 0, "tokens_kept": 0, "tokens_removed": {"gopher": 0},
        }},
    }


def test_clean_output_depends_on_the_python_unicode_data(tmp_path, capsys):
    # Outputs are byte-identical for one Python version only: U+061D ARABIC END
    # OF TEXT MARK is unassigned in Unicode 13.0 (Python 3.10) and punctuation
    # from 14.0 (3.11) on, which tips gopher's punctuation fraction over 0.2.
    line = " ".join(["كتاب،،"] * 3 + ["كتاب،"] * 7 + ["في", "من"])
    text = "\n".join([line + " " + "؝" * 6] + [line] * 4)
    in_path = tmp_path / "docs.jsonl"
    in_path.write_text(json.dumps({"id": "a", "text": text, "source": "sanad"}) + "\n", encoding="utf-8")
    out, report_path = tmp_path / "kept.jsonl", tmp_path / "report.json"
    assert dispatch(["clean", "--in", str(in_path), "--out", str(out), "--report", str(report_path)]) == 0
    assert capsys.readouterr().err == ""
    kept = out.read_text(encoding="utf-8") != ""
    assert kept == (not unicodedata.category("\u061d").startswith("P"))
    removed = json.loads(report_path.read_text(encoding="utf-8"))["sources"]["sanad"]["docs_removed"]
    assert removed == ({} if kept else {"gopher": 1})


# --- lr-curve ----------------------------------------------------------------------


def test_lr_curve_shape(tmp_path):
    out = tmp_path / "curve.csv"
    assert dispatch(["lr-curve", "--variant", "early", "--stride", "1000", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 501
    assert rows[0] == ["0", "0.0"]
    assert int(rows[-1][0]) == 500_000
    assert float(rows[-1][1]) == pytest.approx(2.5e-6, rel=1e-12)


def test_lr_curve_stdout(capsys):
    assert dispatch(["lr-curve", "--stride", "250000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


def test_lr_curve_writes_each_row_as_it_is_computed(capsys, monkeypatch):
    from ardata import schedule

    assert dispatch(["lr-curve", "--stride", "1000"]) == 0
    first_rows = capsys.readouterr().out.splitlines()[:3]
    emit_curve = schedule.emit_curve

    def three_rows_then_fail(spec, stride):
        yield from islice(emit_curve(spec, stride), 3)
        raise ValueError("stopped after 3 rows")

    monkeypatch.setattr(schedule, "emit_curve", three_rows_then_fail)
    assert dispatch(["lr-curve", "--stride", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == first_rows
    assert json.loads(captured.err) == {"command": "lr-curve", "error": "stopped after 3 rows"}


def test_lr_curve_unknown_composition_is_usage_error(capsys):
    # The main phase has one shape, so lr-curve has no flag to choose it.
    assert dispatch(["lr-curve", "--composition", "min"]) == 2
    assert "unrecognized arguments: --composition min" in capsys.readouterr().err


def test_lr_curve_infinite_max_lr_is_validation_error(capsys):
    # Step counts past float range are refused by name, like an infinite max_lr.
    steps_past_floats = ["--warmup-steps", str(10**310), "--cooldown-start", str(2 * 10**310),
                         "--total-steps", str(3 * 10**310)]
    for argv, field in [(["--max-lr", "inf", "--stride", "250000"], "max_lr"), (steps_past_floats, "warmup_steps")]:
        assert dispatch(["lr-curve", *argv]) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert field in json.loads(captured.err)["error"]


def test_lr_curve_late_variant_differs_late(tmp_path):
    early, late = tmp_path / "early.csv", tmp_path / "late.csv"
    dispatch(["lr-curve", "--variant", "early", "--stride", "10000", "--out", str(early)])
    dispatch(["lr-curve", "--variant", "late", "--stride", "10000", "--out", str(late)])
    rows_early = list(csv.reader(early.read_text().splitlines()))
    rows_late = list(csv.reader(late.read_text().splitlines()))
    for (step_e, lr_e), (step_l, lr_l) in zip(rows_early, rows_late):
        if int(step_e) <= 300_000:
            assert lr_e == lr_l, step_e
    assert rows_early != rows_late


@pytest.mark.parametrize("total", [600_000, 200_000])
def test_lr_curve_late_cooldown_starts_10k_before_the_given_end(tmp_path, total):
    late, early = tmp_path / "late.csv", tmp_path / "early.csv"
    assert dispatch(["lr-curve", "--variant", "late", "--total-steps", str(total), "--out", str(late)]) == 0
    assert dispatch(["lr-curve", "--variant", "early", "--total-steps", str(total),
                     "--cooldown-start", str(total - 10_000), "--out", str(early)]) == 0
    assert late.read_bytes() == early.read_bytes()


# --- mix-plan ----------------------------------------------------------------------


def test_mix_plan_reproduces_published_percentages(tmp_path, capsys):
    sources = tmp_path / "sources.json"
    sources.write_text(
        json.dumps([
            {"name": "english-mix", "tokens": 619_000_000_000, "language": "english"},
            {"name": "arabic-mix", "tokens": 115_000_000_000, "language": "arabic"},
        ]),
        encoding="utf-8",
    )
    assert dispatch([
        "mix-plan", "--sources", str(sources), "--upweight", "arabic=4.6",
        "--total-tokens", "197000000000",
    ]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    header, body = rows[0], rows[1:]
    by_name = {row[0]: dict(zip(header, row)) for row in body}
    assert float(by_name["arabic-mix"]["token_pct"]) == pytest.approx(15.7, abs=0.05)
    assert float(by_name["english-mix"]["token_pct"]) == pytest.approx(84.3, abs=0.05)
    assert float(by_name["arabic-mix"]["sampling_pct"]) == pytest.approx(82.1, abs=0.05)
    assert float(by_name["english-mix"]["sampling_pct"]) == pytest.approx(17.9, abs=0.05)
    quotas = sum(int(row["token_quota"]) for row in by_name.values())
    assert quotas == 197_000_000_000


def test_mix_plan_reads_a_sources_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    sources = tmp_path / "sources.json"
    text = json.dumps([{"name": "a", "tokens": 30, "language": "ar"}, {"name": "b", "tokens": 10, "language": "en"}])
    outputs = []
    for prefix in ("", "\ufeff"):
        sources.write_text(prefix + text, encoding="utf-8")
        assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", "100"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


def test_mix_plan_sources_object_is_validation_error(tmp_path, capsys):
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps({"name": "arabic-mix", "tokens": 10, "language": "arabic"}), encoding="utf-8")
    assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", "100"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "mix-plan" and "sources file must be a list, got object" in err["error"]


@pytest.mark.parametrize("tokens", [True, 1.7, "12"])
def test_mix_plan_non_integer_tokens_is_validation_error(tmp_path, capsys, tokens):
    # Each of these used to pass through int() as 1, 1 and 12.
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps([{"name": "arabic-mix", "tokens": tokens, "language": "arabic"}]), encoding="utf-8")
    assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", "100"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": "mix-plan", "error": f"source 0: 'tokens' must be an integer, got {json.dumps(tokens)}"}


def test_mix_plan_tokens_past_float_range_is_validation_error(tmp_path, capsys):
    # Used to exit with "int too large to convert to float", naming no key.
    sources = tmp_path / "sources.json"
    sources.write_text('[{"name": "a", "tokens": 10}, {"name": "b", "tokens": %s}]' % ("9" * 400), encoding="utf-8")
    assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", "100"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": "mix-plan", "error": "source 1: 'tokens' must be below 2**63, got " + "9" * 37 + "..."}


def test_mix_plan_tokens_bound_is_2_to_the_63(tmp_path, capsys):
    sources = tmp_path / "sources.json"
    for tokens, code in ((2**63, 1), (2**63 - 1, 0)):
        sources.write_text(json.dumps([{"name": "a", "tokens": tokens}, {"name": "b", "tokens": tokens}]),
                           encoding="utf-8")
        assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", "100"]) == code
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[3] for row in rows[1:]] == ["50.0", "50.0"]


@pytest.mark.parametrize("total, shown", [(2**63, str(2**63)), (10**400, "1" + "0" * 36 + "...")])
def test_mix_plan_total_tokens_bound_is_2_to_the_63(tmp_path, capsys, total, shown):
    # 10**400 used to exit with "int too large to convert to float", naming no flag.
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps([{"name": "a", "tokens": 10}]), encoding="utf-8")
    assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", str(total)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": "mix-plan", "error": f"total_tokens must be below 2**63, got {shown}"}


@pytest.mark.parametrize("sources, upweight", [
    ([{"name": "a", "tokens": 10}], []),
    ([{"name": "a", "tokens": 7, "language": "ar"}, {"name": "b", "tokens": 5, "language": "ar"},
      {"name": "c", "tokens": 11, "language": "en"}], ["--upweight", "ar=4.6"]),
])
def test_mix_plan_quotas_sum_to_the_largest_total(tmp_path, capsys, sources, upweight):
    # In float arithmetic one source got 2**63 tokens, and these three got 252 tokens too few.
    path = tmp_path / "sources.json"
    path.write_text(json.dumps(sources), encoding="utf-8")
    assert dispatch(["mix-plan", "--sources", str(path), "--total-tokens", str(2**63 - 1), *upweight]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert sum(int(row["token_quota"]) for row in rows) == 2**63 - 1


def test_mix_plan_repeated_source_name_is_validation_error(tmp_path, capsys):
    # Used to exit with "fractions must sum to 1, got 0.875".
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps([{"name": "a", "tokens": 10}, {"name": "a", "tokens": 30},
                                   {"name": "b", "tokens": 10, "language": "en"}]), encoding="utf-8")
    assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", "900"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": "mix-plan", "error": "sources must have distinct names, repeated: ['a']"}


def test_mix_plan_sources_file_with_a_lone_surrogate_is_validation_error(tmp_path, capsys):
    sources = tmp_path / "sources.json"
    sources.write_text('[{"name": "a\\udc00", "tokens": 10}]', encoding="utf-8")
    assert dispatch(["mix-plan", "--sources", str(sources), "--total-tokens", "100"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": "mix-plan", "error": f"{sources}: invalid json: lone surrogate in a string"}


@pytest.mark.parametrize("upweights, error", [
    (["arabc=4.6"], "upweights reference unknown languages: ['arabc']"),
    (["arabic=4.6", "arabic=1"], "--upweight names language 'arabic' more than once"),
])
def test_mix_plan_upweight_it_cannot_apply_is_validation_error(tmp_path, capsys, upweights, error):
    # Each used to exit 0 with an un-upweighted 50/50 plan.
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps([{"name": "a", "tokens": 10, "language": "arabic"},
                                   {"name": "e", "tokens": 10, "language": "english"}]), encoding="utf-8")
    argv = ["mix-plan", "--sources", str(sources), "--total-tokens", "100"]
    for pair in upweights:
        argv += ["--upweight", pair]
    assert dispatch(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"command": "mix-plan", "error": error}


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0"])
def test_mix_plan_upweight_must_be_finite_and_positive(tmp_path, capsys, weight):
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps([{"name": "a", "tokens": 10, "language": "ar"}]), encoding="utf-8")
    argv = ["mix-plan", "--sources", str(sources), "--total-tokens", "100", "--upweight", f"ar={weight}"]
    assert dispatch(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == f"upweight for 'ar' must be a finite number > 0, got {float(weight)}"


# --- fertility ----------------------------------------------------------------------


def test_fertility_csv(tmp_path, capsys):
    docs_path = tmp_path / "sample.jsonl"
    docs_path.write_text('{"id":"a","text":"ab cde"}\n', encoding="utf-8")
    assert dispatch([
        "fertility", "--in", str(docs_path), "--tokenizer", "whitespace", "--tokenizer", "character",
    ]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["tokenizer", "dataset", "fertility"]
    values = {row[0]: float(row[2]) for row in rows[1:]}
    assert values == {"whitespace": 1.0, "character": 2.5}


def test_fertility_repeated_input_stem_is_validation_error(tmp_path, capsys):
    # a/docs.jsonl and b/docs.jsonl would both be rows named "docs".
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths += ["--in", str(tmp_path / folder / "docs.jsonl")]
        (tmp_path / folder / "docs.jsonl").write_text('{"id":"a","text":"ab cde"}\n', encoding="utf-8")
    assert dispatch(["fertility", *paths, "--tokenizer", "whitespace"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "--in stem 'docs' is named more than once"


@pytest.mark.parametrize("specs, name", [
    (["whitespace", "whitespace", "character"], "whitespace"),
    (["vocab:{tmp}/a/v.txt", "vocab:{tmp}/b/v.txt"], "v"),  # a vocab tokenizer is named after its file's stem
])
def test_fertility_repeated_tokenizer_is_validation_error_before_the_corpus_is_read(tmp_path, capsys, specs, name):
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "v.txt").write_text("ab\n", encoding="utf-8")
    argv = ["fertility", "--in", str(tmp_path / "missing.jsonl")]
    for spec in specs:
        argv += ["--tokenizer", spec.format(tmp=tmp_path)]
    assert dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == f"tokenizer {name!r} is named more than once"


class _CountTokensOnly:
    """A built-in tokenizer behind ``count_tokens`` alone, as a plug-in tokenizer may be."""

    def __init__(self, tok):
        self.name, self.count_tokens = tok.name, tok.count_tokens


def test_tokenizer_with_only_count_tokens_gives_the_builtins_outputs(corpus_files, monkeypatch):
    tmp_path, in_path, config_path, _, _ = corpus_files
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("ال\nت\nالش\nمس\n", encoding="utf-8")
    specs = ["whitespace", "character", f"vocab:{vocab}"]

    def outputs(label: str) -> dict[str, bytes]:
        out = tmp_path / label
        out.mkdir()
        argv = ["fertility", "--in", str(in_path), "--out", str(out / "fertility.csv")]
        for spec in specs:
            argv += ["--tokenizer", spec]
        assert dispatch(argv) == 0
        for i, spec in enumerate(specs):
            assert dispatch([
                "clean", "--in", str(in_path), "--out", str(out / "kept.jsonl"), "--config", str(config_path),
                "--tokenizer", spec, "--report", str(out / f"report{i}.json"), "--report-csv", str(out / f"report{i}.csv"),
            ]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    builtin = outputs("builtin")
    make_tokenizer = ardata.cli.make_tokenizer
    monkeypatch.setattr(ardata.cli, "make_tokenizer", lambda spec: _CountTokensOnly(make_tokenizer(spec)))
    assert outputs("count_tokens_only") == builtin


# --- instruct -----------------------------------------------------------------------


@pytest.fixture
def cleaned_docs(tmp_path):
    path = tmp_path / "cleaned.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(25):
            text = " ".join(f"جملة رقم {i}-{j} حول موضوع مفيد." for j in range(5))
            fh.write(json.dumps({"id": f"d{i:03d}", "text": text}, ensure_ascii=False) + "\n")
    return path


def test_instruct_build_and_stats(tmp_path, cleaned_docs):
    out = tmp_path / "chatml.jsonl"
    stats_path = tmp_path / "stats.json"
    assert dispatch([
        "instruct", "build", "--in", str(cleaned_docs), "--out", str(out),
        "--stats", str(stats_path), "--template", "both", "--seed", "3",
    ]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        parse_chatml(record["text"])  # every record is valid ChatML
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["kept"] == len(lines)
    assert set(stats["stats"]["per_origin_counts"]) == {"rephrase_mcq", "rephrase_standard"}

    stats_out = tmp_path / "stats2.json"
    assert dispatch(["instruct", "mix", "--in", str(out), "--out", os.devnull, "--stats", str(stats_out)]) == 0
    recomputed = json.loads(stats_out.read_text(encoding="utf-8"))
    assert (recomputed["kept"], recomputed["stats"]) == (stats["kept"], stats["stats"])


def test_dash_writes_instruct_build_jsonl_to_stdout(tmp_path, cleaned_docs, capsys, monkeypatch):
    argv = ["instruct", "build", "--in", str(cleaned_docs), "--stats", str(tmp_path / "stats.json"), "--seed", "3"]
    out = tmp_path / "chatml.jsonl"
    assert dispatch(argv + ["--out", str(out)]) == 0
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8") != ""
    assert not (tmp_path / "-").exists()


def test_instruct_build_failure_leaves_no_partial_output(tmp_path, cleaned_docs, capsys):
    out = tmp_path / "chatml.jsonl"
    assert dispatch([
        "instruct", "build", "--in", str(cleaned_docs), "--out", str(out),
        "--stats", str(tmp_path / "nodir" / "stats.json"),
    ]) == 1
    assert json.loads(capsys.readouterr().err)["command"] == "instruct"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cleaned.jsonl"]


@pytest.mark.parametrize("rate", ["nan", "2", "-0.5"])
def test_instruct_build_malformed_rate_outside_unit_interval_is_validation_error(tmp_path, cleaned_docs, capsys, rate):
    assert dispatch([
        "instruct", "build", "--in", str(cleaned_docs), "--out", str(tmp_path / "chatml.jsonl"),
        "--stats", str(tmp_path / "stats.json"), "--malformed-rate", rate,
    ]) == 1
    assert "malformed_rate" in json.loads(capsys.readouterr().err)["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cleaned.jsonl"]


def test_instruct_build_generator_failure_mid_stream_leaves_no_output(tmp_path, cleaned_docs, capsys, monkeypatch):
    # Dialogues are written as they come, so the failing call finds some already in
    # the staged --out; the failure still leaves neither --out nor --stats.
    from ardata import instruct

    generate, calls, staged_sizes = instruct.MockGenerator.generate, [], []

    def failing_generate(self, prompt, seed):
        calls.append(seed)
        if len(calls) == 200:
            staged_sizes.extend(p.stat().st_size for p in tmp_path.iterdir() if p.name.startswith(".chatml.jsonl."))
            raise ValueError("generator failed")
        return generate(self, prompt, seed)

    monkeypatch.setattr(instruct.MockGenerator, "generate", failing_generate)
    out, stats = tmp_path / "chatml.jsonl", tmp_path / "stats.json"
    assert dispatch([
        "instruct", "build", "--in", str(cleaned_docs), "--out", str(out), "--stats", str(stats),
        "--template", "both", "--max-chars", "40",
    ]) == 1
    assert json.loads(capsys.readouterr().err) == {"command": "instruct", "error": "generator failed"}
    assert len(staged_sizes) == 1 and staged_sizes[0] > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cleaned.jsonl"]


def test_instruct_mix_merges_datasets(tmp_path, cleaned_docs):
    rephrased = tmp_path / "rephrased.jsonl"
    stats1 = tmp_path / "stats1.json"
    assert dispatch([
        "instruct", "build", "--in", str(cleaned_docs), "--out", str(rephrased),
        "--stats", str(stats1), "--template", "standard", "--seed", "1",
    ]) == 0

    instar = tmp_path / "instar.jsonl"
    with open(instar, "w", encoding="utf-8") as fh:
        for i in range(5):
            fh.write(json.dumps({"instruction": f"مهمة {i}", "output": f"إنجاز {i}"}, ensure_ascii=False) + "\n")
        fh.write("{broken\n")  # tolerated: counted as a reject

    mixed = tmp_path / "mixed.jsonl"
    mix_stats = tmp_path / "mix-stats.json"
    assert dispatch([
        "instruct", "mix", "--in", str(rephrased), "--in", str(instar),
        "--out", str(mixed), "--stats", str(mix_stats),
    ]) == 0

    lines = mixed.read_text(encoding="utf-8").splitlines()
    stats = json.loads(mix_stats.read_text(encoding="utf-8"))
    n_rephrased = len(rephrased.read_text(encoding="utf-8").splitlines())
    assert stats["kept"] == len(lines) == n_rephrased + 5
    assert stats["rejected"] == 1
    origins = stats["stats"]["per_origin_counts"]
    assert origins["instar"] == 5 and origins["rephrase_standard"] == n_rephrased
    for line in lines:
        parse_chatml(json.loads(line)["text"])


_CHATML = "<|im_start|>user\nسؤال<|im_end|>\n<|im_start|>assistant\nجواب<|im_end|>\n"
# Records with a field of the wrong JSON type, and the error each one reports.
_MALFORMED_DIALOGUES = {
    "text-not-a-string": ('{"text": 5}', "'text' must be a string, got 5"),
    "list-of-non-objects": ("[1]", "turn 0 must be an object, got 1"),
    "turns-not-a-list": ('{"conversations": 5}', "'conversations' must be a list, got 5"),
    "origin-not-a-string": ('{"text": %s, "origin": 5}' % json.dumps(_CHATML), "'origin' must be a string or null, got 5"),
    # These used to be str()-ed into the ChatML text as None, 5 or {'x': 1}.
    "value-null": ('[{"from": "human", "value": null}, {"from": "gpt", "value": "x"}]',
                   "turn 0: 'value' must be a string, got null"),
    "value-not-a-string": ('{"conversations": [{"from": "human", "value": "q"}, {"from": "gpt", "value": 5}]}',
                           "turn 1: 'value' must be a string, got 5"),
    "from-not-a-string": ('[{"from": 5, "value": "q"}]', "turn 0: 'from' must be a string, got 5"),
    "instruction-not-a-string": ('{"instruction": {"x": 1}}', "'instruction' must be a string, got object"),
    "output-null": ('{"instruction": "q", "output": null}', "'output' must be a string, got null"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DIALOGUES))
def test_instruct_mix_counts_malformed_record_as_bad_record(tmp_path, case):
    line, _ = _MALFORMED_DIALOGUES[case]
    path = tmp_path / "dialogues.jsonl"
    path.write_text(json.dumps({"text": _CHATML, "origin": "a"}) + "\n" + line + "\n", encoding="utf-8")
    stats_path = tmp_path / "stats.json"
    assert dispatch(["instruct", "mix", "--in", str(path), "--out", str(tmp_path / "out.jsonl"),
                     "--stats", str(stats_path)]) == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert (stats["kept"], stats["rejects_by_reason"]) == (1, {"bad_record": 1})


@pytest.mark.parametrize("case", sorted(_MALFORMED_DIALOGUES))
def test_load_instruction_records_names_the_line_of_a_malformed_record(case):
    line, detail = _MALFORMED_DIALOGUES[case]
    outcomes = list(load_instruction_records([json.dumps({"text": _CHATML}), "", line], "dialogues"))
    assert outcomes[1] == Rejection("bad_record", f"line 3: {detail}")


def _mix_stats(tmp_path, path) -> dict:
    stats_path = tmp_path / "stats.json"
    assert dispatch(["instruct", "mix", "--in", str(path), "--out", str(tmp_path / "out.jsonl"),
                     "--stats", str(stats_path)]) == 0
    return json.loads(stats_path.read_text(encoding="utf-8"))


def test_instruct_mix_tallies_records_that_are_not_dialogues(tmp_path):
    # Invalid JSON, an unknown shape, a bad role and malformed ChatML yield no
    # dialogue; a record with no origin counts under the file stem.
    skipped = ["{broken", '{"other": 1}', '[{"from": "system", "value": "x"}]', '{"text": "no blocks"}']
    path = tmp_path / "dialogues.jsonl"
    path.write_text("\n".join([json.dumps({"text": _CHATML}), *skipped]) + "\n", encoding="utf-8")
    stats = _mix_stats(tmp_path, path)
    assert stats["rejects_by_reason"] == {"bad_record": 3, "bad_role": 1}
    assert stats["stats"]["per_origin_counts"] == {"dialogues": 1}


def test_instruct_mix_counts_an_empty_origin_apart_from_a_null_one(tmp_path):
    # Only a null origin counts under "unknown"; "" once did too.
    path = tmp_path / "dialogues.jsonl"
    records = [{"origin": "", "instruction": "ما هذا؟", "output": "كتاب"},
               {"origin": None, "instruction": "ما هذا؟", "output": "قلم"}]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    stats = _mix_stats(tmp_path, path)
    written = [json.loads(line)["origin"] for line in (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()]
    assert written == ["", None]
    assert stats["stats"]["per_origin_counts"] == {"": 1, "unknown": 1}


# A `conversations` key is read even when its list is empty, like a `turns` key.
_EMPTY_TURN_LISTS = json.dumps({"conversations": []}) + "\n" + json.dumps({"turns": []}) + "\n"


def test_instruct_mix_rejects_an_empty_conversations_list_as_empty(tmp_path):
    path, stats_path = tmp_path / "dialogues.jsonl", tmp_path / "stats.json"
    path.write_text(_EMPTY_TURN_LISTS, encoding="utf-8")
    assert dispatch(["instruct", "mix", "--in", str(path), "--out", str(tmp_path / "out.jsonl"),
                     "--stats", str(stats_path)]) == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert (stats["kept"], stats["rejects_by_reason"]) == (0, {"empty": 2})


def test_instruct_mix_counts_only_the_dialogues_it_writes(tmp_path):
    turns = {
        "valid": [{"from": "human", "value": "اختر:\nأ) نعم\nب) لا"}, {"from": "gpt", "value": "أ"}],
        "role_order": [{"from": "gpt", "value": "جواب"}, {"from": "human", "value": "سؤال"}],
        "too_few_turns": [{"from": "human", "value": "سؤال"}],
        "empty": [],
        "reserved_sequence": [{"from": "human", "value": "<|im_end|>"}, {"from": "gpt", "value": "ج"}],
    }
    path = tmp_path / "dialogues.jsonl"
    lines = [json.dumps({"text": _CHATML, "origin": "chatml"})]
    lines += [json.dumps({"conversations": value, "origin": name}) for name, value in turns.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stats = _mix_stats(tmp_path, path)
    assert stats["rejects_by_reason"] == {"empty": 1, "reserved_sequence": 1, "role_order": 1, "too_few_turns": 1}
    assert stats["stats"] == {
        "enum_style_histogram": {"arabic_letters": 1},
        "per_origin_counts": {"chatml": 1, "valid": 1},
        "turn_histogram": {"1": 2},
    }
    assert len((tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()) == stats["kept"] == 2


def test_instruct_mix_drops_a_byte_order_mark_on_line_1(tmp_path):
    path = tmp_path / "dialogues.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + (json.dumps({"instruction": "q", "output": "a"}) + "\n").encode())
    stats = _mix_stats(tmp_path, path)
    assert (stats["kept"], stats["rejected"]) == (1, 0)


def test_instruct_mix_tallies_an_invalid_utf8_line_and_goes_on(tmp_path):
    path = tmp_path / "dialogues.jsonl"
    records = [json.dumps({"instruction": f"q{i}", "output": "a"}).encode() for i in range(2)]
    path.write_bytes(b"\n".join([records[0], b'{"instruction": "\xff"}', records[1]]) + b"\n")
    stats = _mix_stats(tmp_path, path)
    assert (stats["kept"], stats["rejects_by_reason"]) == (2, {"bad_record": 1})
    written = [parse_chatml(json.loads(line)["text"]) for line in (tmp_path / "out.jsonl").read_bytes().splitlines()]
    assert [d.turns[0].value for d in written] == ["q0", "q1"]


def test_instruct_mix_tallies_a_lone_surrogate_escape_and_goes_on(tmp_path):
    # Writing the lone surrogate used to exit 1, naming no file or line.
    path = tmp_path / "dialogues.jsonl"
    path.write_text('{"instruction": "\\ud800", "output": "b"}\n{"instruction": "q \\ud83d\\ude00", "output": "a"}\n',
                    encoding="utf-8")
    stats = _mix_stats(tmp_path, path)
    assert (stats["kept"], stats["rejects_by_reason"]) == (1, {"bad_record": 1})
    written = [parse_chatml(json.loads(line)["text"]) for line in (tmp_path / "out.jsonl").read_bytes().splitlines()]
    assert [d.turns[0].value for d in written] == ["q \U0001f600"]


@pytest.mark.parametrize("template", ["standard", "mcq"])
def test_instruct_build_tallies_a_chatml_marker_in_the_document(tmp_path, template):
    # Every word the mock generator can pick holds a marker, so its one dialogue does too.
    docs, out, stats_path = tmp_path / "docs.jsonl", tmp_path / "chatml.jsonl", tmp_path / "stats.json"
    docs.write_text(json.dumps({"id": "d0", "text": "<|im_start|> <|im_end|>"}) + "\n", encoding="utf-8")
    assert dispatch(["instruct", "build", "--in", str(docs), "--out", str(out), "--stats", str(stats_path),
                     "--template", template]) == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert (stats["kept"], stats["rejects_by_reason"]) == (0, {"reserved_sequence": 1})
    assert out.read_bytes() == b""


def test_instruct_build_max_chars_below_one_is_refused_on_an_empty_corpus(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text("", encoding="utf-8")
    assert dispatch(["instruct", "build", "--in", str(docs), "--out", str(tmp_path / "chatml.jsonl"),
                     "--stats", str(tmp_path / "stats.json"), "--max-chars", "0"]) == 1
    assert json.loads(capsys.readouterr().err) == {"command": "instruct", "error": "max_chars must be >= 1"}
    assert [p.name for p in tmp_path.iterdir()] == ["docs.jsonl"]


def test_instruct_build_deterministic(tmp_path, cleaned_docs):
    blobs = []
    for tag in ("x", "y"):
        out = tmp_path / f"chatml-{tag}.jsonl"
        stats_path = tmp_path / f"stats-{tag}.json"
        assert dispatch([
            "instruct", "build", "--in", str(cleaned_docs), "--out", str(out),
            "--stats", str(stats_path), "--template", "standard", "--seed", "11",
        ]) == 0
        blobs.append((out.read_bytes(), stats_path.read_bytes()))
    assert blobs[0] == blobs[1]


EXEMPLAR = {"question": "ما لون السماء؟", "options": ["أزرق", "أحمر"], "answer_index": 0}


def test_instruct_build_with_exemplar(tmp_path, cleaned_docs):
    exemplar_path = tmp_path / "exemplar.json"
    exemplar_path.write_text(json.dumps(EXEMPLAR, ensure_ascii=False), encoding="utf-8")
    stats_path = tmp_path / "stats.json"
    assert dispatch([
        "instruct", "build", "--in", str(cleaned_docs), "--out", str(tmp_path / "chatml.jsonl"),
        "--stats", str(stats_path), "--template", "mcq", "--exemplar", str(exemplar_path),
    ]) == 0
    assert json.loads(stats_path.read_text(encoding="utf-8"))["kept"] > 0


@pytest.mark.parametrize("exemplar, message", [
    ([1], "MCQ item must be an object, got list"),
    ({**EXEMPLAR, "question": 5}, "'question' must be a string"),
    ({**EXEMPLAR, "options": "أب"}, "'options' must be a list of strings"),
    ({**EXEMPLAR, "options": ["أزرق", 2]}, "'options' must be a list of strings"),
    ({**EXEMPLAR, "answer_index": None}, "'answer_index' must be an integer"),
    ({**EXEMPLAR, "answer_index": True}, "'answer_index' must be an integer"),
    ({**EXEMPLAR, "enum_style": None}, "'enum_style' must be a string"),
])
def test_instruct_build_bad_exemplar_is_validation_error(tmp_path, cleaned_docs, capsys, exemplar, message):
    exemplar_path = tmp_path / "exemplar.json"
    exemplar_path.write_text(json.dumps(exemplar, ensure_ascii=False), encoding="utf-8")
    assert dispatch([
        "instruct", "build", "--in", str(cleaned_docs), "--out", str(tmp_path / "chatml.jsonl"),
        "--stats", str(tmp_path / "stats.json"), "--template", "mcq", "--exemplar", str(exemplar_path),
    ]) == 1
    err = json.loads(capsys.readouterr().err)
    assert message in err["error"] and err["command"] == "instruct"


@pytest.mark.parametrize("template", ["standard", "mcq", "both"])
def test_instruct_build_checks_the_exemplar_before_reading_the_input(tmp_path, capsys, monkeypatch, template):
    # A one-option exemplar is refused whether or not the template uses it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exemplar.json").write_text(json.dumps({**EXEMPLAR, "options": ["أزرق"]}), encoding="utf-8")
    assert dispatch(["instruct", "build", "--in", "missing.jsonl", "--out", "chatml.jsonl", "--stats", "stats.json",
                     "--template", template, "--exemplar", "exemplar.json"]) == 1
    assert json.loads(capsys.readouterr().err) == {"command": "instruct", "error": "invalid MCQ item: too_few_options"}
    assert [p.name for p in tmp_path.iterdir()] == ["exemplar.json"]


# --- eval ---------------------------------------------------------------------------


@pytest.fixture
def bench_files(tmp_path):
    items = [
        {
            "id": str(i),
            "question": f"سؤال تقييم رقم {i}؟",
            "choices": [f"جواب {i} أ", f"جواب {i} ب", f"جواب {i} ج"],
            "gold_index": i % 3,
            "category": ["stem", "language"][i % 2],
        }
        for i in range(12)
    ]
    items_path = tmp_path / "items.json"
    items_path.write_text(json.dumps(items, ensure_ascii=False), encoding="utf-8")

    tf_items = [
        {"id": f"t{i}", "question": f"عبارة ثقافية رقم {i}.", "choices": ["صح", "خطأ"], "gold_index": i % 2}
        for i in range(10)
    ]
    tf_path = tmp_path / "acva.json"
    tf_path.write_text(json.dumps(tf_items, ensure_ascii=False), encoding="utf-8")
    pool = [
        {"id": f"p{i}", "question": f"مثال تدريبي رقم {i}.", "choices": ["صح", "خطأ"], "gold_index": i % 2}
        for i in range(8)
    ]
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(pool, ensure_ascii=False), encoding="utf-8")
    return items_path, tf_path, pool_path


def test_eval_cf_oracle(bench_files, capsys):
    items_path, _, _ = bench_files
    assert dispatch(["eval", "cf", "--items", str(items_path), "--scorer", "oracle"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["overall"] == 1.0
    assert result["metric"] == "accuracy_norm"
    assert result["n"] == 12


@pytest.mark.parametrize("items, message", [
    ([1, 2], "item 0 must be an object, got 1"),
    ([{"question": "q", "choices": ["a", "b"], "gold_index": 0}, {"question": "q", "choices": 5, "gold_index": 0}],
     "item 1: 'choices' must be a list of strings, got 5"),
    ([{"question": 7, "choices": ["a", "b"], "gold_index": 0}], "item 0: 'question' must be a string, got 7"),
    ([{"question": "q", "choices": ["a", "b"], "gold_index": None}],
     "item 0: 'gold_index' must be an integer, got null"),
    ([{"question": "q", "choices": ["a", "b"], "gold_index": 0, "category": ["x"]}],
     "item 0: 'category' must be a string or null, got list"),
    # A bool, a numeric string and a float used to pass through int() and score as an index.
    ([{"question": "q", "choices": ["a", "b"], "gold_index": True}], "item 0: 'gold_index' must be an integer, got true"),
    ([{"question": "q", "choices": ["a", "b"], "gold_index": "1"}], "item 0: 'gold_index' must be an integer, got \"1\""),
    ([{"question": "q", "choices": ["a", "b"], "gold_index": 1.0}], "item 0: 'gold_index' must be an integer, got 1.0"),
    # A missing key used to surface as a bare KeyError: "'question'".
    ([{"choices": ["a", "b"], "gold_index": 0}], "item 0: 'question' must be a string, got nothing"),
    # An empty question was the oracle's key for every context: `eval cf --scorer oracle` scored 0.5 on this file.
    ([{"question": "", "choices": ["a", "b"], "gold_index": 0}, {"question": "q", "choices": ["a", "b"], "gold_index": 1}],
     "item '0': question must have a non-whitespace character"),
    # No scorer can tell equal choices apart: `eval cf --scorer oracle` scored this item 0.0 with a tie.
    ([{"question": "q", "choices": ["x", "x"], "gold_index": 1}], "item '0': choices must be distinct"),
])
def test_eval_malformed_items_are_validation_errors(tmp_path, capsys, items, message):
    items_path = tmp_path / "items.json"
    items_path.write_text(json.dumps(items), encoding="utf-8")
    assert dispatch(["eval", "cf", "--items", str(items_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": "eval", "error": f"{items_path}: {message}"}


def test_eval_mcf_constant(bench_files, capsys):
    items_path, _, _ = bench_files
    assert dispatch(["eval", "mcf", "--items", str(items_path), "--scorer", "constant"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["overall"] == pytest.approx(4 / 12)


def test_eval_acva(bench_files, capsys):
    _, tf_path, pool_path = bench_files
    assert dispatch([
        "eval", "acva", "--items", str(tf_path), "--exemplars", str(pool_path),
        "--scorer", "oracle", "--shots", "5", "--seed", "1",
    ]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["metric"] == "f1_macro"
    assert result["overall"] == 1.0


def test_eval_acva_names_the_file_holding_a_bad_item(bench_files, tmp_path, capsys):
    # The same bad item in --exemplars and in --items used to print the same message.
    _, tf_path, pool_path = bench_files
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps([{"question": "q", "choices": ["a", "b"], "gold_index": True}]), encoding="utf-8")
    for items, exemplars in ((tf_path, bad_path), (bad_path, pool_path)):
        assert dispatch([
            "eval", "acva", "--items", str(items), "--exemplars", str(exemplars), "--scorer", "oracle", "--shots", "1",
        ]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"{bad_path}: item 0: 'gold_index' must be an integer, got true"


def test_eval_acva_negative_shots_is_validation_error(bench_files, capsys):
    _, tf_path, pool_path = bench_files
    assert dispatch([
        "eval", "acva", "--items", str(tf_path), "--exemplars", str(pool_path), "--scorer", "oracle", "--shots", "-1",
    ]) == 1
    assert "shots" in json.loads(capsys.readouterr().err)["error"]


def test_eval_diff_csv(bench_files, capsys):
    items_path, _, _ = bench_files
    assert dispatch(["eval", "diff", "--items", str(items_path), "--scorers", "constant,oracle"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["model", "cf", "mcf", "diff"]
    by_model = {row[0]: row for row in rows[1:]}
    assert float(by_model["constant"][3]) == 0.0
    assert float(by_model["oracle"][1]) == 1.0


@pytest.mark.parametrize("argv, message", [
    (["cf", "--scorer", "bogus"], "argument --scorer: invalid choice: 'bogus'"),
    (["mcf", "--scorer", "bogus"], "argument --scorer: invalid choice: 'bogus'"),
    (["diff", "--scorers", "oracle,oracle"], "scorer 'oracle' is named more than once"),
    (["diff", "--scorers", "oracle,bogus"], "unknown scorer 'bogus'"),
    (["diff", "--scorers", ","], "unknown scorer ''"),
], ids=["cf-unknown", "mcf-unknown", "diff-repeated", "diff-unknown", "diff-empty"])
def test_bad_scorer_is_usage_error_before_the_items_are_read(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing.json"
    assert dispatch(["eval", *argv, "--items", str(missing)]) == 2
    err = capsys.readouterr().err
    assert message in err and "missing.json" not in err


@pytest.mark.parametrize("argv, message", [
    (["fertility", "--in", "missing.jsonl", "--tokenizer", "whitespace", "--average", "micro"],
     "unrecognized arguments: --average micro"),
    (["eval", "cf", "--items", "missing.json", "--norm", "by_tokens"], "argument --norm: invalid choice: 'by_tokens'"),
    (["eval", "diff", "--items", "missing.json", "--norm", "by_tokens"], "argument --norm: invalid choice: 'by_tokens'"),
], ids=["fertility-average", "cf-by-tokens", "diff-by-tokens"])
def test_one_fertility_and_two_norms_are_offered(capsys, argv, message):
    assert dispatch(argv) == 2
    assert message in capsys.readouterr().err


# --- config -----------------------------------------------------------------------


def test_config_is_named_by_the_flag_alone(corpus_files):
    tmp_path, in_path, config_path, *_ = corpus_files
    reports = []
    for flags in (["--config", str(config_path)], []):
        reports.append(tmp_path / f"report-{len(flags)}.json")
        assert dispatch(["clean", "--in", str(in_path), "--out", str(tmp_path / "kept.jsonl"),
                         "--report", str(reports[-1]), *flags]) == 0
    assert reports[0].read_bytes() != reports[1].read_bytes()


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "ardata.cli", "lr-curve", "--stride", "250000"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert len(result.stdout.strip().splitlines()) == 3

    usage = subprocess.run([sys.executable, "-m", "ardata.cli"], capture_output=True, text=True)
    assert usage.returncode == 2


# --- report merge ----------------------------------------------------------------------


def test_report_merge_equals_single_run(corpus_files, tmp_path, capsys):
    _, in_path, config_path, docs, _ = corpus_files
    full_report = tmp_path / "full.json"
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(tmp_path / "k.jsonl"),
        "--report", str(full_report), "--config", str(config_path),
    ]) == 0

    shard_reports = []
    lines = in_path.read_text(encoding="utf-8").splitlines()
    for i in range(3):
        shard_in = tmp_path / f"shard{i}.jsonl"
        shard_in.write_text("\n".join(lines[i::3]) + "\n", encoding="utf-8")
        shard_report = tmp_path / f"shard{i}-report.json"
        assert dispatch([
            "clean", "--in", str(shard_in), "--out", str(tmp_path / f"shard{i}-kept.jsonl"),
            "--report", str(shard_report), "--config", str(config_path),
        ]) == 0
        shard_reports.append(str(shard_report))

    merged_path = tmp_path / "merged.json"
    assert dispatch(["report", "merge", *shard_reports, "--out", str(merged_path)]) == 0
    assert merged_path.read_text(encoding="utf-8") == full_report.read_text(encoding="utf-8")


@pytest.mark.parametrize("report, message", [
    ([1], "report must be an object, got list"),
    (
        {"rules": ["safety", "ads", "lines", "chars", "gopher"], "sources": {"culturax": {
            "docs_in": "3", "tokens_in": 9, "docs_removed": {}, "tokens_removed": {},
        }}},
        "source 'culturax': 'docs_in' must be an integer",
    ),
    (
        {"rules": ["safety", "ads", "lines", "chars", "gopher"], "sources": {"culturax": {
            "docs_in": -3, "tokens_in": 9, "docs_removed": {}, "tokens_removed": {},
        }}},
        "source 'culturax': 'docs_in' must be an integer >= 0, got -3",
    ),
    (
        {"rules": ["bogus", "bogus"], "sources": {}},
        "report 'rules' must be ['safety', 'ads', 'lines', 'chars', 'gopher'], got ['bogus', 'bogus']",
    ),
])
def test_report_merge_malformed_report_is_validation_error(tmp_path, capsys, report, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    merged = tmp_path / "merged.json"
    assert dispatch(["report", "merge", str(path), str(path), "--out", str(merged)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert message in err["error"] and err["command"] == "report"
    assert not merged.exists()


def test_report_merge_names_the_file_whose_report_is_malformed(corpus_files, tmp_path, capsys):
    _, in_path, config_path, _, _ = corpus_files
    good, bad, merged = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "merged.json"
    assert dispatch([
        "clean", "--in", str(in_path), "--out", str(tmp_path / "k.jsonl"), "--report", str(good), "--config", str(config_path),
    ]) == 0
    bad.write_text(json.dumps({"rules": ["bogus"], "sources": {}}), encoding="utf-8")
    capsys.readouterr()
    assert dispatch(["report", "merge", str(good), str(bad), "--out", str(merged)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == f"{bad}: report 'rules' must be ['safety', 'ads', 'lines', 'chars', 'gopher'], got ['bogus']"
    assert not merged.exists()


def test_report_merge_of_a_report_clean_cannot_write_leaves_no_output(tmp_path, capsys):
    # Merged with itself, this report was written with "docs_kept": -8.
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "rules": ["safety", "ads", "lines", "chars", "gopher"],
        "sources": {"sanad": {"docs_in": 1, "tokens_in": 3, "docs_removed": {"bogus": 5}, "tokens_removed": {"safety": 9}}},
    }), encoding="utf-8")
    merged = tmp_path / "merged.json"
    assert dispatch(["report", "merge", str(path), str(path), "--out", str(merged)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "source 'sanad': 'docs_removed' and 'tokens_removed' name different rules" in err["error"]
    assert not merged.exists()


# --- docs -------------------------------------------------------------------------------

_JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.DOTALL | re.MULTILINE)
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_BASH_BLOCK = re.compile(r"^[ \t]*```bash\n(.*?)^[ \t]*```", re.DOTALL | re.MULTILINE)
_SHELL_OPERATOR = re.compile(r"^\d*[<>|&;]")


def _readme_commands() -> list[list[str]]:
    """The argv of each ``ardata`` command in README's bash blocks, continuations
    joined and cut at the first redirection, pipe or comment."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in _BASH_BLOCK.findall(readme):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["ardata"]:
                cut = next((i for i, word in enumerate(words) if _SHELL_OPERATOR.match(word)), len(words))
                commands.append(words[1:cut])
    return commands


def test_readme_filters_json_example_is_a_filter_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [example] = _JSON_BLOCK.findall(readme)
    FilterConfig.from_dict(json.loads(example))


def test_readme_library_use_block_runs(capsys):
    """README's ``## Library use`` block, run with planted documents in place of
    its ``docs = [...]`` placeholder."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1]
    [block] = _PYTHON_BLOCK.findall(section.split("\n## ", 1)[0])
    code, n = re.subn(r"^docs = \[\.\.\.\].*$", "docs = planted_docs", block, flags=re.MULTILINE)
    assert n == 1
    docs = [clean_doc(i) for i in range(3)] + [safety_url_doc(0)]
    namespace = {"planted_docs": docs}
    exec(compile(code, "README.md", "exec"), namespace)
    assert [d.id for d in namespace["kept"]] == [d.id for d in docs[:3]]
    assert json.loads(capsys.readouterr().out) == namespace["report"].to_dict()
    assert namespace["dialogues"]


def test_every_readme_command_parses():
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README shows a command that does not parse: ardata {shlex.join(argv)}")
