"""Traced in-process passes over each layer, for the per-layer metrics.

Spans are recorded only here, around calls into ``ardata``: a
benchmark-owned ``clean`` loop calls the same public functions as
``ardata clean``, and the plug-in protocols (tokenizer, generator, scorer,
restartable streams) are wrapped. A span's self time is its duration minus
that of its child spans. Spans stay in memory until the run writes them.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import replace
from pathlib import Path

from ardata import corpus, evaluation, filters, instruct, mixture, tokenization

import sample_mixture


class Tracer:
    """In-memory spans: (name, start, end, parent index, trace id)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, trace=None) -> "_Span":
        return _Span(self, name, trace)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
        return {name: tuple(v) for name, v in out.items()}


class _Span:
    __slots__ = ("tracer", "name", "trace", "index")

    def __init__(self, tracer: Tracer, name: str, trace):
        self.tracer, self.name, self.trace = tracer, name, trace

    def __enter__(self):
        spans, stack = self.tracer.spans, self.tracer._stack
        self.index = len(spans)
        spans.append([self.name, 0.0, 0.0, stack[-1] if stack else None, self.trace])
        stack.append(self.index)
        spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans[self.index][2] = end
        self.tracer._stack.pop()
        return False


class TracedTokenizer:
    def __init__(self, tok, tracer: Tracer):
        self.tok, self.tracer, self.name = tok, tracer, tok.name

    def count_tokens(self, text: str) -> int:
        with self.tracer.span("tokenization.count_tokens"):
            return self.tok.count_tokens(text)


class TracedGenerator:
    def __init__(self, gen, tracer: Tracer):
        self.gen, self.tracer, self.name = gen, tracer, gen.name

    def generate(self, prompt: str, seed: int) -> str:
        with self.tracer.span("instruct.generate"):
            return self.gen.generate(prompt, seed)


class TracedScorer:
    def __init__(self, scorer, tracer: Tracer, label: str):
        self.scorer, self.tracer, self.name = scorer, tracer, scorer.name
        self.span_name = f"evaluation.loglikelihood.{label}"

    def loglikelihood(self, context: str, continuation: str) -> float:
        with self.tracer.span(self.span_name):
            return self.scorer.loglikelihood(context, continuation)


class CountingStream:
    """Restartable stream that counts how often it is iterated."""

    def __init__(self, docs: list):
        self.docs, self.iterations = docs, 0

    def __iter__(self):
        self.iterations += 1
        return iter(self.docs)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def clean(tracer: Tracer, corpus_path: Path, config_path: Path) -> tuple[dict, dict[str, bytes]]:
    """``ardata clean`` as a traced loop; returns counts (with ``stage_s``, the
    summed span time of the loop) and the four output files."""
    cfg = filters.FilterConfig.from_dict(json.loads(config_path.read_text(encoding="utf-8")))
    tok = tokenization.WhitespaceTokenizer()
    report = filters.CleaningReport()
    rejects: list[str] = []
    kept = io.StringIO()
    counts = {"docs": 0, "changed": 0, "stripped": 0}
    first_span = len(tracer.spans)
    for rule in filters.RULE_ORDER:
        counts[f"{rule.value}_evals"] = counts[f"{rule.value}_removed"] = 0
    with open(corpus_path, "rb") as stream:
        docs = corpus.ingest_jsonl(stream, on_reject=lambda r: rejects.append(r.to_json() + "\n"))
        while True:
            with tracer.span("corpus.ingest", counts["docs"]):
                doc = next(docs, None)
            if doc is None:
                break
            trace = doc.id
            counts["docs"] += 1
            with tracer.span("corpus.normalize_chars", trace):
                cleaned = replace(doc, text=corpus.normalize_chars(doc.text))
            counts["changed"] += cleaned.text != doc.text
            with tracer.span("corpus.strip_title_date", trace):
                stripped = corpus.strip_title_date(cleaned)
            counts["stripped"] += stripped is not cleaned
            decision = filters.KEEP
            for rule in filters.RULE_ORDER:
                with tracer.span(f"filters.{rule.value}", trace):
                    verdict = filters.apply_filter(stripped, rule, cfg)
                counts[f"{rule.value}_evals"] += 1
                if not verdict.keep:
                    counts[f"{rule.value}_removed"] += 1
                    decision = verdict
                    break
            with tracer.span("tokenization.count_tokens", trace):
                n_tokens = tok.count_tokens(stripped.text)
            with tracer.span("filters.record", trace):
                report.record(stripped.source, n_tokens, decision)
            if decision.keep:
                with tracer.span("cli.serialize", trace):
                    kept.write(json.dumps(corpus.document_to_record(stripped), sort_keys=True, ensure_ascii=False) + "\n")
    counts["rejects"] = len(rejects)
    counts["stage_s"] = sum(end - start for _, start, end, _, _ in tracer.spans[first_span:])
    report_csv = io.StringIO()
    csv.writer(report_csv, lineterminator="\n").writerows(report.csv_rows())
    outputs = {
        "kept.jsonl": kept.getvalue().encode("utf-8"),
        "report.json": _dump_json(report.to_dict()).encode("utf-8"),
        "report.csv": report_csv.getvalue().encode("utf-8"),
        "rejects.jsonl": "".join(rejects).encode("utf-8"),
    }
    return counts, outputs


def clean_untraced(corpus_path: Path, config_path: Path) -> float:
    """The program's own streaming loop on the same input, for the tracing overhead."""
    start = time.perf_counter()
    cfg = filters.FilterConfig.from_dict(json.loads(config_path.read_text(encoding="utf-8")))
    report = filters.CleaningReport()
    kept = io.StringIO()
    with open(corpus_path, "rb") as stream:
        docs = corpus.ingest_jsonl(stream, on_reject=lambda r: r.to_json())
        for doc in filters.iter_pipeline(docs, cfg, tokenization.WhitespaceTokenizer(), report):
            kept.write(json.dumps(corpus.document_to_record(doc), sort_keys=True, ensure_ascii=False) + "\n")
    return time.perf_counter() - start


def load_docs(path: Path) -> list:
    with open(path, "rb") as stream:
        return list(corpus.ingest_jsonl(stream))


def fertility(tracer: Tracer, docs: list, vocab_path: Path) -> bytes:
    """Per-tokenizer fertility; returns the CSV ``ardata fertility`` writes."""
    rows = [["tokenizer", "dataset", "fertility"]]
    toks = (
        ("whitespace", tokenization.WhitespaceTokenizer()),
        ("character", tokenization.CharacterTokenizer()),
        ("vocab", tokenization.VocabTokenizer.from_file(vocab_path)),
    )
    for label, tok in toks:
        with tracer.span(f"tokenization.fertility.{label}"):
            report = tokenization.fertility(docs, tok)
        rows.append([tok.name, "docs", repr(report.fertility)])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


def sample(tracer: Tracer, docs: list, seed: int, epochs: int) -> tuple[dict, bytes]:
    """Draw the mixture through counting streams; returns counts and the draws file."""
    by_source: dict[str, list] = {}
    for doc in docs:
        by_source.setdefault(doc.source.value, []).append(doc)
    plan = sample_mixture.make_plan(by_source, tokenization.WhitespaceTokenizer(), epochs, seed)
    streams = {name: CountingStream(d) for name, d in by_source.items()}
    tok = TracedTokenizer(tokenization.WhitespaceTokenizer(), tracer)
    with tracer.span("mixture.sample_stream"):
        drawn = [doc.id for doc in mixture.sample_stream(plan, streams, tok=tok)]
    restarts = sum(s.iterations for s in streams.values()) - len(streams)
    return {"draws": len(drawn), "restarts": restarts}, "".join(i + "\n" for i in drawn).encode("utf-8")


def instruct_build(tracer: Tracer, docs: list, seed: int, malformed_rate: float, max_chars: int) -> tuple[dict, dict[str, bytes]]:
    """``instruct build --template both``; returns counts and its two output files."""
    generator = TracedGenerator(instruct.MockGenerator(malformed_rate=malformed_rate), tracer)
    dialogues: list = []
    rejects: dict[str, int] = {}
    with tracer.span("instruct.build_dialogues"):
        for template in ("standard", "mcq"):
            kept, template_rejects = instruct.build_dialogues(docs, generator, template, max_chars=max_chars, seed=seed)
            dialogues.extend(kept)
            for reason, count in template_rejects.items():
                rejects[reason] = rejects.get(reason, 0) + count
    out = io.StringIO()
    with tracer.span("instruct.render_chatml"):
        for d in dialogues:
            out.write(json.dumps({"origin": d.origin, "text": instruct.render_chatml(d)}, sort_keys=True, ensure_ascii=False) + "\n")
    with tracer.span("instruct.dataset_stats"):
        stats = instruct.dataset_stats(dialogues)
    payload = {
        "kept": len(dialogues),
        "rejected": sum(rejects.values()),
        "rejects_by_reason": dict(sorted(rejects.items())),
        "stats": stats.to_dict(),
    }
    counts = {"kept": payload["kept"], "chunks": payload["kept"] + payload["rejected"]}
    return counts, {"dialogues.jsonl": out.getvalue().encode("utf-8"), "stats.json": _dump_json(payload).encode("utf-8")}


def evaluate(tracer: Tracer, items_path: Path, label: str) -> dict[str, bytes]:
    """``eval cf --norm by_bytes`` and ``eval mcf`` with one scorer; returns both outputs."""
    items = evaluation.load_benchmark_items(items_path)
    if label == "oracle":
        cf_scorer = evaluation.OracleScorer.for_cf(items)
        mcf_scorer = evaluation.OracleScorer.for_mcf(items)
    else:
        cf_scorer = mcf_scorer = evaluation.CharNgramScorer()
    with tracer.span(f"evaluation.evaluate.{label}"):
        cf = evaluation.evaluate_cf(items, TracedScorer(cf_scorer, tracer, label), norm="by_bytes")
        mcf = evaluation.evaluate_mcf(items, TracedScorer(mcf_scorer, tracer, label))
    return {
        f"cf_{label}.json": _dump_json(cf.to_dict()).encode("utf-8"),
        f"mcf_{label}.json": _dump_json(mcf.to_dict()).encode("utf-8"),
    }
