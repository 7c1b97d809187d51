"""Each command imports only the library modules it runs.

The pytest process has every module loaded already, so these checks run the
command in a fresh interpreter and read its ``sys.modules`` afterwards.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ardata

SRC = str(Path(ardata.__file__).resolve().parents[1])

# Runs one command through ``dispatch`` and prints its exit code and the
# modules it left loaded as the last line of stdout.
PROBE = """
import json, sys
from ardata.cli import dispatch
code = dispatch(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.split(".")[0] in ("ardata", "concurrent"))
print(json.dumps({"code": code, "modules": loaded}))
"""

# ``ardata.__all__`` at the commit before the exports became lazy, less the
# ``CharMap`` class that unification no longer takes.
PUBLIC_NAMES = [
    "BatchGeometry", "BenchmarkItem", "CharNgramScorer", "CharacterTokenizer", "CleaningReport",
    "ConstantScorer", "Dialogue", "Document", "EvalResult", "FertilityReport", "FilterConfig", "FilterDecision",
    "GopherConfig", "MCQItem", "MixturePlan", "MockGenerator", "OracleScorer", "Reject", "Rule", "ScheduleSpec",
    "Source", "SourceStats", "Turn", "VocabTokenizer", "WhitespaceTokenizer", "batch_tokens", "build_dialogues",
    "build_prompt", "cf_mcf_diff", "chunk_document", "corpus", "dataset_stats", "early_cooldown", "emit_curve",
    "evaluate_cf", "evaluate_mcf", "evaluate_true_false", "evaluation", "f1_macro", "fertility",
    "filter_dialogues", "filters", "ingest_jsonl", "instruct", "late_cooldown", "lr_at", "merge_reports",
    "mixture", "normalize_chars", "parse_chatml", "parse_dialogue_response", "parse_mcq", "plan_mixture",
    "render_chatml", "render_mcq", "run_pipeline", "sample_stream", "sampling_percentages", "schedule",
    "segment_words", "strip_title_date", "token_shares", "tokenization",
]


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    docs = root / "docs.jsonl"
    with open(docs, "w", encoding="utf-8") as fh:
        for i in range(4):
            text = " ".join(f"جملة رقم {i}-{j} حول موضوع مفيد." for j in range(5))
            fh.write(json.dumps({"id": f"d{i}", "text": text}, ensure_ascii=False) + "\n")
    items = root / "items.json"
    items.write_text(json.dumps([
        {"question": f"سؤال {i}؟", "choices": [f"جواب {i} أ", f"جواب {i} ب"], "gold_index": i % 2}
        for i in range(4)
    ], ensure_ascii=False), encoding="utf-8")
    return root


def _argv(command: str, root: Path) -> list[str]:
    docs, items, out = str(root / "docs.jsonl"), str(root / "items.json"), str(root / f"{command}.out")
    return {
        "eval cf": ["eval", "cf", "--items", items, "--out", out],
        "eval cf none": ["eval", "cf", "--items", items, "--norm", "none", "--out", out],
        "eval mcf": ["eval", "mcf", "--items", items, "--scorer", "oracle", "--out", out],
        "clean -p 1": ["clean", "--in", docs, "--out", out, "--report", out + ".json", "--parallelism", "1"],
        "clean -p 2": ["clean", "--in", docs, "--out", out, "--report", out + ".json", "--parallelism", "2"],
        "fertility": ["fertility", "--in", docs, "--tokenizer", "whitespace", "--out", out],
        "lr-curve": ["lr-curve", "--out", out],
        "instruct build": ["instruct", "build", "--in", docs, "--out", out, "--stats", out + ".json"],
    }[command]


@pytest.mark.parametrize("command, modules", [
    ("eval cf", {"ardata.evaluation"}),
    ("eval mcf", {"ardata.evaluation"}),
    ("clean -p 1", {"ardata.corpus", "ardata.filters", "ardata.tokenization"}),
    ("fertility", {"ardata.corpus", "ardata.tokenization"}),
    ("lr-curve", {"ardata.schedule"}),
    ("instruct build", {"ardata.corpus", "ardata.instruct", "ardata.tokenization"}),
    ("clean -p 2", {"ardata.corpus", "ardata.filters", "ardata.tokenization"}),
    ("eval cf none", {"ardata.evaluation"}),
])
def test_command_imports_only_its_modules(inputs, command, modules):
    result = fresh_python("-c", PROBE, *_argv(command, inputs))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["code"] == 0
    # No command loads `concurrent.*`: clean is one streaming pass at any --parallelism.
    # The CLI reads every file input through ardata._schema.
    assert set(report["modules"]) == {"ardata", "ardata.cli", "ardata._schema", *modules}


def test_instruct_build_does_not_load_openssl(inputs):
    # hashlib imports _hashlib, which loads OpenSSL (~3.7 MB resident); the seeding
    # hash comes from CPython's builtin SHA-256 module instead.
    probe = "import sys\nfrom ardata.cli import dispatch\ncode = dispatch(sys.argv[1:])\n" \
            "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    result = fresh_python("-c", probe, *_argv("instruct build", inputs), "--template", "both")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def test_import_ardata_loads_no_submodule():
    result = fresh_python("-c", "import sys, ardata; print(sorted(m for m in sys.modules if m.startswith('ardata')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['ardata']"


def test_public_names_unchanged():
    assert ardata.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(ardata))


def test_exports_are_the_submodule_objects():
    for name in ardata.__all__:
        value = getattr(ardata, name)
        if isinstance(value, ModuleType):
            assert value is importlib.import_module(f"ardata.{name}")
        else:
            assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ardata.no_such_name
