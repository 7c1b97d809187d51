"""Benchmark for the ardata batch commands: throughput, memory and output checks.

    python3 perfbench/run.py --workload clean-serial --seed 1 --seconds 35 --trace 0

Run from the root of a source tree (``src/ardata`` must exist). The run
generates its inputs from ``--seed``, runs the real ``ardata`` commands on
them one at a time, each in its own child process (a closed loop with one
client), and repeats the whole command set for ``--seconds`` seconds.
Every output is checked. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, and with ``--trace 1`` the per-layer ones
(medians over traced in-process passes, see ``traced.py``).
A fuller record (environment, every sample, every failed check) goes to
``.perfbench_runs/<run>/result.json``.

Every workload runs every command, so every metric exists on every
workload; the workloads differ in what ``clean`` gets:

* ``clean-serial``: a planted raw corpus (every filter defect, presentation
  forms, title/date headers, malformed lines), ``--parallelism 1``.
* ``clean-parallel``: the same corpus with ``--parallelism 2``.
* ``downstream``: ``clean`` gets the already-clean documents the downstream
  commands read, so it folds, strips and removes nothing, and the downstream
  commands take the larger share of each round.

End-to-end metrics (wall times are measured around each child process by
the launcher; MB is 10**6 bytes). Each throughput is that of the slowest
round of the run. On a shared host, speed switches between a steady base
and faster bursts lasting tens of seconds; the slowest round sits at the
base, while the median over rounds moves with how much of the run fell in a
burst. Over ten seeds per workload on a 2-core VM, the median over rounds
spread 6-33% between runs, the slowest round 2-12%. Every round's value
is kept in the result file.

* ``clean_docs_per_s``, ``clean_mb_per_s``: input lines, input bytes / clean wall time.
* ``peak_rss_mb``: the highest ``ru_maxrss`` among all commands of the run.
* ``fertility_words_per_s``: whitespace words x 3 tokenizers / fertility wall time.
* ``sample_draws_per_s``: documents drawn / ``sample_mixture.py`` wall time.
* ``instruct_chunks_per_s``: chunks prompted (both templates) / instruct wall time.
* ``eval_<scorer>_items_per_s``: items scored by ``eval cf`` and ``eval mcf``
  together / the sum of their wall times.
* ``setup_s``: time to generate and write the inputs, repeated after every
  round so its samples span the run like the others; like the throughputs it
  is the slowest repeat. The set-up before the first round is cold and is
  kept only in the result file. Over ten seeds on the downstream workload,
  whose set-up lasts under 0.1 s, the median over repeats spread 40%
  between runs and the slowest repeat 4%.

A failed command or check counts in ``failed``; ``failed / attempted`` is
written to the result file as ``failed_ops_frac``.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent

# Input sizes. The eval item count is part of the workload: the oracle
# scorer's cost grows with its square.
PLANTED_DOCS = 450
DOWNSTREAM_DOCS = 300
ITEMS = 600
SAMPLE_EPOCHS = 50
MAX_CHARS = 600
MALFORMED_RATE = 0.1
TOKENIZERS = ("whitespace", "character", "vocab")

COMMAND_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # no round starts after this, so a run ends well inside 180 s

# Output digests of the downstream commands on small fixed inputs. The clean
# outputs need no pins: their bytes follow from how the corpus is built.
CANARY = {"seed": 0, "docs": 40, "items": 60, "epochs": 20}
PINS = HERE / "pins.json"

WORKLOADS = {
    "clean-serial": {"clean_input": "planted.jsonl", "parallelism": 1},
    "clean-parallel": {"clean_input": "planted.jsonl", "parallelism": 2},
    "downstream": {"clean_input": "docs.jsonl", "parallelism": 1},
}

# name -> output files; the clean outputs are checked against construction.
OUTPUTS = {
    "clean": ("kept.jsonl", "report.json", "report.csv", "rejects.jsonl"),
    "fertility": ("fertility.csv",),
    "sample": ("draws.txt",),
    "instruct": ("dialogues.jsonl", "stats.json"),
    "eval_cf_oracle": ("cf_oracle.json",),
    "eval_mcf_oracle": ("mcf_oracle.json",),
    "eval_cf_ngram": ("cf_ngram.json",),
    "eval_mcf_ngram": ("mcf_ngram.json",),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Launcher:
    """Client of ``launcher.py``, the small process that spawns every command."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def run(self, argv: list[str], cwd: Path, env: dict, stderr: Path) -> dict:
        return self._ask({"argv": argv, "cwd": str(cwd), "env": env, "stderr": str(stderr), "timeout": COMMAND_TIMEOUT_S})

    def high_water_kb(self) -> int:
        return self._ask({"self": True})["hwm_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- inputs ------------------------------------------------------------------


def write_inputs(inputs: Path, seed: int, workload: dict, docs: int = DOWNSTREAM_DOCS, items: int = ITEMS) -> dict:
    """Generate every input file of a workload; returns sizes, digests and expectations."""
    inputs.mkdir(parents=True, exist_ok=True)
    info = {
        "docs": gen.write_clean_docs(inputs / "docs.jsonl", seed, docs),
        "vocab": gen.write_vocab(inputs / "vocab.txt", seed),
        "items": gen.write_items(inputs / "items.json", seed, items),
    }
    config = json.dumps(gen.filter_config(), ensure_ascii=False, sort_keys=True).encode("utf-8")
    (inputs / "filters.json").write_bytes(config)
    info["filters"] = {"input_sha256": gen.sha256(config)}
    if workload.get("clean_input") == "planted.jsonl":
        info["planted"] = gen.write_planted_corpus(inputs / "planted.jsonl", seed, PLANTED_DOCS)
    return info


def digests(info: dict) -> dict:
    return {name: part["input_sha256"] for name, part in info.items()}


# --- commands ----------------------------------------------------------------


def commands(py: str, inputs: Path, out: Path, seed: int, parallelism: int, clean_input: str | None, epochs: int) -> dict[str, list[str]]:
    """argv of every command in a round, in the order they run."""
    cli = [py, "-m", "ardata.cli"]
    cmds: dict[str, list[str]] = {}
    if clean_input is not None:
        cmds["clean"] = cli + [
            "clean", "--in", str(inputs / clean_input), "--out", str(out / "kept.jsonl"),
            "--report", str(out / "report.json"), "--report-csv", str(out / "report.csv"),
            "--rejects", str(out / "rejects.jsonl"), "--config", str(inputs / "filters.json"),
            "--tokenizer", "whitespace", "--parallelism", str(parallelism),
        ]
    cmds["fertility"] = cli + ["fertility", "--in", str(inputs / "docs.jsonl")]
    for tok in TOKENIZERS:
        cmds["fertility"] += ["--tokenizer", f"vocab:{inputs / 'vocab.txt'}" if tok == "vocab" else tok]
    cmds["fertility"] += ["--out", str(out / "fertility.csv")]
    cmds["sample"] = [py, str(HERE / "sample_mixture.py"), "--in", str(inputs / "docs.jsonl"),
                      "--out", str(out / "draws.txt"), "--seed", str(seed), "--epochs", str(epochs)]
    cmds["instruct"] = cli + [
        "instruct", "build", "--in", str(inputs / "docs.jsonl"), "--out", str(out / "dialogues.jsonl"),
        "--stats", str(out / "stats.json"), "--template", "both", "--malformed-rate", str(MALFORMED_RATE),
        "--max-chars", str(MAX_CHARS), "--seed", str(seed),
    ]
    for scorer in ("oracle", "ngram"):
        cmds[f"eval_cf_{scorer}"] = cli + ["eval", "cf", "--items", str(inputs / "items.json"), "--scorer", scorer,
                                           "--norm", "by_bytes", "--out", str(out / f"cf_{scorer}.json")]
        cmds[f"eval_mcf_{scorer}"] = cli + ["eval", "mcf", "--items", str(inputs / "items.json"), "--scorer", scorer,
                                            "--out", str(out / f"mcf_{scorer}.json")]
    return cmds


# --- output checks -------------------------------------------------------------


class Checker:
    """Checks each command's outputs; returns the list of failures (empty when correct)."""

    def __init__(self, inputs: Path, out: Path, info: dict, clean_input: str | None, seed: int, epochs: int):
        from ardata import corpus, instruct
        import sample_mixture

        self.out, self.info, self.seed, self.epochs = out, info, seed, epochs
        self.expected_clean = info["planted" if clean_input == "planted.jsonl" else "docs"]
        with open(inputs / "docs.jsonl", "rb") as stream:
            self.docs = list(corpus.ingest_jsonl(stream))
        self.items = json.loads((inputs / "items.json").read_text(encoding="utf-8"))
        self.instruct, self.sample_mixture = instruct, sample_mixture
        self.chunks = 2 * sum(len(instruct.chunk_document(d, MAX_CHARS)) for d in self.docs)

    def check(self, name: str) -> list[str]:
        if name == "clean":
            return self.clean()
        if name == "fertility":
            return self.fertility()
        if name == "sample":
            return self.sample()
        if name == "instruct":
            return self.instruct_build()
        return self.evaluation(name)

    def clean(self) -> list[str]:
        exp, errors = self.expected_clean, []
        kept = (self.out / "kept.jsonl").read_bytes()
        if gen.sha256(kept) != exp["kept_sha256"]:
            errors.append("clean: kept.jsonl differs from the planted expectation")
        for name, key in (("report.json", "report"), ("report.csv", "report_csv"), ("rejects.jsonl", "rejects_jsonl")):
            if (self.out / name).read_text(encoding="utf-8") != exp[key]:
                errors.append(f"clean: {name} differs from the planted expectation")
        text = kept.decode("utf-8")
        if any(gen.in_presentation_block(ch) for ch in text):
            errors.append("clean: kept text holds presentation-form codepoints")
        if gen.TITLE_MARK in text:
            errors.append("clean: kept text holds a planted title/date header")
        return errors

    def fertility(self) -> list[str]:
        rows = (self.out / "fertility.csv").read_text(encoding="utf-8").splitlines()
        got = {row.split(",")[0]: row.split(",")[2] for row in rows[1:]}
        words = sum(len(d.text.split()) for d in self.docs)
        chars = sum(len(w) for d in self.docs for w in d.text.split())
        errors = []
        if got.get("whitespace") != "1.0":
            errors.append(f"fertility: whitespace fertility is {got.get('whitespace')}, not 1.0")
        if got.get("character") != repr(chars / words):
            errors.append("fertility: character fertility is not characters per word")
        if set(got) != set(TOKENIZERS):
            errors.append(f"fertility: tokenizers {sorted(got)}")
        return errors

    def draws(self) -> int:
        return len((self.out / "draws.txt").read_text(encoding="utf-8").split())

    def sample(self) -> list[str]:
        from ardata.tokenization import WhitespaceTokenizer

        tok = WhitespaceTokenizer()
        by_source: dict[str, list] = {}
        for doc in self.docs:
            by_source.setdefault(doc.source.value, []).append(doc)
        plan = self.sample_mixture.make_plan(by_source, tok, self.epochs, self.seed)
        tokens = {d.id: tok.count_tokens(d.text) for d in self.docs}
        source = {d.id: d.source.value for d in self.docs}
        realized = dict.fromkeys(by_source, 0)
        for doc_id in (self.out / "draws.txt").read_text(encoding="utf-8").split():
            realized[source[doc_id]] += tokens[doc_id]
        errors = []
        for entry in plan.entries:
            longest = max(tokens[d.id] for d in by_source[entry.name])
            if not entry.token_quota <= realized[entry.name] < entry.token_quota + longest:
                errors.append(f"sample: {entry.name} drew {realized[entry.name]} tokens for quota {entry.token_quota}")
        return errors

    def instruct_build(self) -> list[str]:
        stats = json.loads((self.out / "stats.json").read_text(encoding="utf-8"))
        lines = (self.out / "dialogues.jsonl").read_text(encoding="utf-8").splitlines()
        errors = []
        if stats["kept"] != len(lines) or stats["kept"] + stats["rejected"] != self.chunks:
            errors.append(f"instruct: kept {stats['kept']} + rejected {stats['rejected']} != chunks {self.chunks}")
        for line in lines:
            text = json.loads(line)["text"]
            try:
                ok = self.instruct.render_chatml(self.instruct.parse_chatml(text)) == text
            except ValueError:
                ok = False
            if not ok:
                errors.append("instruct: an output line does not round-trip through parse_chatml")
                break
        return errors

    def evaluation(self, name: str) -> list[str]:
        _, fmt, scorer = name.split("_")
        result = json.loads((self.out / f"{fmt}_{scorer}.json").read_text(encoding="utf-8"))
        errors = []
        if result["n"] != len(self.items) or result["errored"]:
            errors.append(f"{name}: scored {result['n']} items, {result['errored']} errored")
        if scorer == "oracle" and result["overall"] != 1.0:
            errors.append(f"{name}: oracle accuracy {result['overall']}")
        return errors


def output_digests(out: Path, name: str) -> dict[str, str]:
    return {f: sha256_file(out / f) for f in OUTPUTS[name]}


# --- environment -----------------------------------------------------------------


def environment(root: Path) -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        commit = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ardata").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


# --- the run -----------------------------------------------------------------------


class Run:
    def __init__(self, root: Path, args):
        self.root, self.args = root, args
        self.workload = WORKLOADS[args.workload]
        self.started = time.perf_counter()
        self.dir = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.inputs, self.out = self.dir / "inputs", self.dir / "out"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("ARDATA_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.record: dict = {}
        self.info: dict | None = None
        self.setup_times: list[float] = []

    def count(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            for e in errors:
                log(f"FAILED {e}")

    def spawn(self, launcher: Launcher, name: str, argv: list[str]) -> dict:
        stderr = self.dir / "stderr" / name
        stderr.parent.mkdir(parents=True, exist_ok=True)
        reply = launcher.run(argv, self.root, self.env, stderr)
        if reply["rc"] != 0:
            err = stderr.read_text(encoding="utf-8", errors="replace")[-500:]
            reply["error"] = f"{name}: exit code {reply['rc']}: {err.strip()}"
        return reply

    def setup(self) -> None:
        """(Re)generate the inputs, timed; the same seed must give the same bytes."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        start = time.perf_counter()
        info = write_inputs(self.inputs, self.args.seed, self.workload)
        self.setup_times.append(time.perf_counter() - start)
        if self.info is not None and digests(info) != digests(self.info):
            raise RuntimeError("the generator gave different inputs for the same seed")
        self.info = info

    def round(self, launcher: Launcher, checker: Checker, reference: dict | None) -> dict:
        """Run every command once; check outputs (fully on the first round)."""
        cmds = commands(sys.executable, self.inputs, self.out, self.args.seed, self.workload["parallelism"],
                        self.workload["clean_input"], SAMPLE_EPOCHS)
        replies = {}
        for name, argv in cmds.items():
            for f in OUTPUTS[name]:
                (self.out / f).unlink(missing_ok=True)
            reply = replies[name] = self.spawn(launcher, name, argv)
            if "error" in reply:
                self.count([reply["error"]])
                continue
            try:
                reply["digests"] = output_digests(self.out, name)
                if reference is None:
                    errors = checker.check(name)
                elif reply["digests"] != reference[name]["digests"]:
                    errors = [f"{name}: outputs differ from the first round"]
                else:
                    errors = []
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"{name}: unreadable output: {exc!r}"]
            self.count(errors)
        return replies

    def canary(self, launcher: Launcher) -> None:
        """Downstream outputs on fixed small inputs must match the pinned digests."""
        pins = json.loads(PINS.read_text(encoding="utf-8"))["sha256"]
        got = self.canary_digests(launcher)
        for name, files in got.items():
            self.count([f"canary: {name} output bytes changed" for f, d in files.items() if pins.get(name, {}).get(f) != d])

    def canary_digests(self, launcher: Launcher) -> dict:
        inputs, out = self.dir / "canary", self.dir / "canary_out"
        out.mkdir(parents=True, exist_ok=True)
        write_inputs(inputs, CANARY["seed"], {}, docs=CANARY["docs"], items=CANARY["items"])
        cmds = commands(sys.executable, inputs, out, CANARY["seed"], 1, None, CANARY["epochs"])
        got = {}
        for name, argv in cmds.items():
            reply = self.spawn(launcher, f"canary_{name}", argv)
            try:
                got[name] = output_digests(out, name)
            except OSError as exc:
                reply["error"] = f"canary {name}: unreadable output: {exc!r}"
            if "error" in reply:
                self.count([reply["error"]])
        return got

    def repeat(self, step, start: float) -> list:
        """Call ``step(first result)`` until one more call would end more than
        --seconds after ``start``; at least once."""
        results: list = []
        while True:
            results.append(step(results[0] if results else None))
            now = time.perf_counter()
            if now + (now - start) / len(results) > start + self.args.seconds or now - self.started > RUN_BUDGET_S:
                return results

    def measure(self, launcher: Launcher) -> dict:
        checker = Checker(self.inputs, self.out, self.info, self.workload["clean_input"], self.args.seed, SAMPLE_EPOCHS)

        def step(first: dict | None) -> dict:
            replies = self.round(launcher, checker, first)
            self.setup()
            return replies

        rounds = self.repeat(step, time.perf_counter())
        self.record["rounds"] = [{k: {"wall_s": r["wall_s"], "maxrss_kb": r["maxrss_kb"], "rc": r["rc"]} for k, r in rnd.items()} for rnd in rounds]
        if self.failed:
            return {}
        clean_in = self.info["planted" if self.workload["clean_input"] == "planted.jsonl" else "docs"]
        words, items = self.info["docs"]["words"], self.info["items"]["items"]
        draws, chunks = checker.draws(), checker.chunks
        samples: dict[str, list[float]] = {}

        def add(name: str, value: float) -> None:
            samples.setdefault(name, []).append(value)

        for r in rounds:
            add("clean_docs_per_s", clean_in["input_lines"] / r["clean"]["wall_s"])
            add("clean_mb_per_s", clean_in["input_bytes"] / 1e6 / r["clean"]["wall_s"])
            add("peak_rss_mb", max(x["maxrss_kb"] for x in r.values()) * 1024 / 1e6)
            add("fertility_words_per_s", words * len(TOKENIZERS) / r["fertility"]["wall_s"])
            add("sample_draws_per_s", draws / r["sample"]["wall_s"])
            add("instruct_chunks_per_s", chunks / r["instruct"]["wall_s"])
            for scorer in ("oracle", "ngram"):
                wall = r[f"eval_cf_{scorer}"]["wall_s"] + r[f"eval_mcf_{scorer}"]["wall_s"]
                add(f"eval_{scorer}_items_per_s", 2 * items / wall)
        self.record["samples"] = samples
        self.record["work"] = {"clean_lines": clean_in["input_lines"], "clean_bytes": clean_in["input_bytes"],
                               "words": words, "draws": draws, "chunks": chunks, "items": items}
        metrics = {name: min(values) for name, values in samples.items()}
        metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
        return metrics

    def measure_traced(self, launcher: Launcher) -> dict:
        import traced

        checker = Checker(self.inputs, self.out, self.info, self.workload["clean_input"], self.args.seed, SAMPLE_EPOCHS)
        start = time.perf_counter()
        reference = self.round(launcher, checker, None)
        if self.failed:
            return {}
        cli_outputs = {f: (self.out / f).read_bytes() for files in OUTPUTS.values() for f in files}
        docs = traced.load_docs(self.inputs / "docs.jsonl")
        clean_input = self.inputs / self.workload["clean_input"]

        def one_pass(_) -> tuple[dict, traced.Tracer]:
            tracer = traced.Tracer()
            outputs: dict[str, bytes] = {}
            t0 = time.perf_counter()
            clean_counts, clean_out = traced.clean(tracer, clean_input, self.inputs / "filters.json")
            traced_clean_s = time.perf_counter() - t0
            self.count(construction_mismatches(clean_counts, checker.expected_clean))
            outputs.update(clean_out)
            untraced_clean_s = traced.clean_untraced(clean_input, self.inputs / "filters.json")
            outputs["fertility.csv"] = traced.fertility(tracer, docs, self.inputs / "vocab.txt")
            sample_counts, outputs["draws.txt"] = traced.sample(tracer, docs, self.args.seed, SAMPLE_EPOCHS)
            instruct_counts, instruct_out = traced.instruct_build(tracer, docs, self.args.seed, MALFORMED_RATE, MAX_CHARS)
            outputs.update(instruct_out)
            for scorer in ("oracle", "ngram"):
                outputs.update(traced.evaluate(tracer, self.inputs / "items.json", scorer))
            for name, files in OUTPUTS.items():
                self.count([f"traced {name}: {f} differs from the CLI's" for f in files if outputs[f] != cli_outputs[f]])
            return per_layer(tracer, clean_counts, sample_counts, instruct_counts, len(clean_out["kept.jsonl"]),
                             reference["clean"]["wall_s"], traced_clean_s, untraced_clean_s), tracer

        results = self.repeat(one_pass, start)
        passes = [metrics for metrics, _ in results]
        with gzip.open(self.dir / "spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for span in results[-1][1].spans:
                fh.write(json.dumps(span, ensure_ascii=False) + "\n")
        self.record["passes"] = passes
        return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def construction_mismatches(counts: dict, expected: dict) -> list[str]:
    """The traced loop's counts against those that follow from how the corpus was built."""
    want = {"docs": expected["docs"], "rejects": expected["rejects"],
            "changed": expected["normalized"], "stripped": expected["headers"]}
    want.update({f"{rule}_removed": expected["removed"][rule] for rule in gen.RULES})
    return [f"traced clean: {name} is {counts[name]}, construction gives {n}" for name, n in want.items() if counts[name] != n]


def per_layer(tracer, clean_counts: dict, sample_counts: dict, instruct_counts: dict, bytes_out: int,
              cli_clean_s: float, traced_clean_s: float, untraced_clean_s: float) -> dict:
    totals = tracer.totals()

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    m = {
        "corpus.ingest_s": total("corpus.ingest"),
        "corpus.ingest_docs": clean_counts["docs"],
        "corpus.ingest_rejects": clean_counts["rejects"],
        "corpus.normalize_chars_s": total("corpus.normalize_chars"),
        "corpus.normalize_chars_changed": clean_counts["changed"],
        "corpus.strip_title_date_s": total("corpus.strip_title_date"),
        "corpus.strip_title_date_hits": clean_counts["stripped"],
    }
    for rule in gen.RULES:
        m[f"filters.{rule}_s"] = total(f"filters.{rule}")
        m[f"filters.{rule}_evals"] = clean_counts[f"{rule}_evals"]
        m[f"filters.{rule}_removed"] = clean_counts[f"{rule}_removed"]
    m["filters.record_s"] = total("filters.record")
    m["tokenization.count_tokens_s"] = total("tokenization.count_tokens")
    m["tokenization.count_tokens_calls"] = calls("tokenization.count_tokens")
    for tok in TOKENIZERS:
        m[f"tokenization.fertility_{tok}_s"] = total(f"tokenization.fertility.{tok}")
    m["mixture.sample_stream_self_s"] = self_s("mixture.sample_stream")
    m["mixture.draws"] = sample_counts["draws"]
    m["mixture.stream_restarts"] = sample_counts["restarts"]
    m["instruct.build_dialogues_self_s"] = self_s("instruct.build_dialogues")
    m["instruct.generate_s"] = total("instruct.generate")
    m["instruct.generate_calls"] = calls("instruct.generate")
    m["instruct.kept_frac"] = instruct_counts["kept"] / instruct_counts["chunks"]
    m["instruct.render_chatml_s"] = total("instruct.render_chatml")
    m["instruct.dataset_stats_s"] = total("instruct.dataset_stats")
    for scorer in ("oracle", "ngram"):
        m[f"evaluation.loglikelihood_s.{scorer}"] = total(f"evaluation.loglikelihood.{scorer}")
        m[f"evaluation.loglikelihood_calls.{scorer}"] = calls(f"evaluation.loglikelihood.{scorer}")
        m[f"evaluation.evaluate_self_s.{scorer}"] = self_s(f"evaluation.evaluate.{scorer}")
    m["cli.serialize_s"] = total("cli.serialize")
    m["cli.bytes_out"] = bytes_out
    m["cli.shard_overhead_s"] = cli_clean_s - clean_counts["stage_s"]
    m["trace.overhead_s"] = traced_clean_s - untraced_clean_s
    m["trace.spans"] = len(tracer.spans)
    return m


def load_spec() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json from the current program")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "ardata" / "cli.py").is_file():
        log(f"no ardata source tree under {root}: run from the repository root")
        return 2
    if args.workload is None and not args.pin:
        parser.error("--workload is required")
    launcher = Launcher()  # before any input exists, so its children start small
    run = None
    try:
        sys.path.insert(0, str(root / "src"))
        if args.pin:
            run = Run(root, argparse.Namespace(workload="downstream", seed=CANARY["seed"], trace=0, seconds=0))
            pins = {"canary": CANARY, "sha256": run.canary_digests(launcher)}
            PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            return 1 if run.failed else 0
        units = load_spec()[args.trace]
        run = Run(root, args)
        run.record["environment"] = environment(root)
        run.record["load_before"] = os.getloadavg()
        run.record["args"] = vars(args)
        run.setup()
        run.out.mkdir(parents=True, exist_ok=True)
        warm = run.spawn(launcher, "warmup", [sys.executable, "-c", "import ardata.cli"])
        run.count([warm["error"]] if "error" in warm else [])
        noop = run.spawn(launcher, "noop", [sys.executable, "-c", "pass"])
        launcher_kb = launcher.high_water_kb()
        run.record["noop_maxrss_kb"], run.record["launcher_hwm_kb"] = noop["maxrss_kb"], launcher_kb
        run.count([] if noop["maxrss_kb"] <= 1.25 * launcher_kb else
                  [f"rss self-check: a no-op child peaked at {noop['maxrss_kb']} KB, the launcher at {launcher_kb} KB"])
        metrics = run.measure_traced(launcher) if args.trace else run.measure(launcher)
        if not args.trace and metrics:
            metrics["setup_s"] = max(run.setup_times[1:])
        run.canary(launcher)
        run.record["setup_s"] = run.setup_times
        run.record["load_after"] = os.getloadavg()
        run.record["inputs"] = digests(run.info)
        run.record["errors"] = run.errors
        run.record["failed_ops_frac"] = run.failed / run.attempted
        correct = run.failed == 0 and set(metrics) == set(units)
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
        }
        run.record["result"] = result
        (run.dir / "result.json").write_text(json.dumps(run.record, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        print(json.dumps(result))
        return 0
    finally:
        launcher.close()
        if run is not None:
            for sub in ("inputs", "out", "canary", "canary_out", "stderr"):
                shutil.rmtree(run.dir / sub, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
