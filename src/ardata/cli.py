"""Command-line entry point.

One binary, subcommand style: clean, fertility, mix-plan, lr-curve,
instruct build/stats, eval cf/mcf/acva/diff, report merge. Reports are
machine-readable first (JSON/CSV with sorted keys), so identical argv,
inputs, and seed produce byte-identical outputs. ``-`` is stdout for every
output flag. Exit codes: 0 success, 1 validation/runtime error (JSON on
stderr; two outputs naming one file are one), 2 usage error, 130 SIGINT (JSON
on stderr), 129 SIGHUP, 143 SIGTERM. None of these leaves a partial output
file; a run killed by SIGKILL cannot clean up after itself.

Environment override: ARDATA_CONFIG supplies --config for ``clean`` when
the flag is omitted.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from functools import reduce
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from ._schema import read_json

# Each command imports the library modules it runs, so a command does not
# pay at start-up for the modules of the others.
if TYPE_CHECKING:
    from . import filters, tokenization

DEFAULT_SEED = 0

CONFIG_ENV = "ARDATA_CONFIG"


@contextmanager
def _staged_outputs():
    """Yield ``open_output(path)``, the one way a command opens an output.

    ``None`` and ``-`` are stdout. A target that is absent or a regular file
    is staged: the temporary sits next to the file ``path`` resolves to
    (through any symlinks), takes the mode of the file it will replace, and is
    moved onto it with ``os.replace`` once the block succeeds. When the block
    raises, the temporaries are removed, so a failed command leaves no partial
    output and its existing targets as they were. Each target is replaced on
    its own, so a replace that fails (it rarely can: the temporary is in the
    same directory) leaves the targets moved before it in place. A target
    staged twice raises ValueError: only one output could survive. Any other
    existing target (a device such as /dev/null, a FIFO) is written directly,
    and a directory is refused when it is opened. Every handle opened here is
    closed when the block ends, before any replace or removal.
    """
    staged: dict[Path, Path] = {}  # target -> temporary
    handles = ExitStack()

    def open_output(path: str | None) -> TextIO:
        if path is None or path == "-":
            return sys.stdout
        try:
            mode = os.stat(path).st_mode
        except OSError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            return handles.enter_context(open(path, "w", encoding="utf-8", newline=""))
        target = Path(os.path.realpath(path))
        if target in staged:
            raise ValueError(f"{path} is named by two outputs of this command")
        attempt = 0
        while True:
            temporary = target.with_name(f".{target.name}.{os.getpid()}.{attempt}.tmp")
            try:
                handle = handles.enter_context(open(temporary, "x", encoding="utf-8", newline=""))
                break
            except FileExistsError:  # left by a killed run that had this process id
                attempt += 1
        staged[target] = temporary
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        return handle

    try:
        with handles:
            yield open_output
        for target, temporary in staged.items():
            os.replace(temporary, target)
    finally:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)


def _write_json(out: TextIO, payload) -> None:
    out.write(json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def _write_csv(out: TextIO, rows) -> None:
    csv.writer(out, lineterminator="\n").writerows(rows)


def make_tokenizer(spec: str) -> tokenization.TokenizerAdapter:
    from . import tokenization

    if spec == "whitespace":
        return tokenization.WhitespaceTokenizer()
    if spec == "character":
        return tokenization.CharacterTokenizer()
    if spec.startswith("vocab:"):
        return tokenization.VocabTokenizer.from_file(spec.split(":", 1)[1])
    raise ValueError(f"unknown tokenizer {spec!r} (whitespace, character, or vocab:<path>)")


# --- clean ---------------------------------------------------------------------


def _load_filter_config(path: str | None) -> filters.FilterConfig:
    from . import filters

    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return filters.FilterConfig()
    return filters.FilterConfig.from_dict(read_json(path))


def cmd_clean(args, open_output) -> None:
    from . import corpus, filters

    cfg = _load_filter_config(args.config)
    tok = make_tokenizer(args.tokenizer)

    rejects_out = open_output(args.rejects) if args.rejects else None
    on_reject = (lambda reject: rejects_out.write(reject.to_json() + "\n")) if args.rejects else None
    out = open_output(args.output)
    with open(args.input, "rb") as stream:
        report = filters.CleaningReport()
        kept = filters.iter_pipeline(corpus.ingest_jsonl(stream, on_reject=on_reject), cfg, tok, report)
        for record in map(corpus.document_to_record, kept):
            out.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    _write_json(open_output(args.report), report.to_dict())
    if args.report_csv:
        _write_csv(open_output(args.report_csv), report.csv_rows())


# --- fertility -------------------------------------------------------------------


def cmd_fertility(args, open_output) -> None:
    from . import corpus, tokenization

    toks = [make_tokenizer(spec) for spec in args.tokenizer]
    accs = [[tokenization.FertilityAccumulator() for _ in args.input] for _ in toks]
    for j, path in enumerate(args.input):  # one read of each file feeds every tokenizer
        with open(path, "rb") as stream:
            for doc in corpus.ingest_jsonl(stream):
                words = len(tokenization.segment_words(doc.text))  # once, for every tokenizer
                for tok, tok_accs in zip(toks, accs):
                    tok_accs[j].add_counts(words, tok.count_tokens(doc.text))
    rows = [["tokenizer", "dataset", "fertility"]]
    for tok, tok_accs in zip(toks, accs):
        for path, acc in zip(args.input, tok_accs):
            rows.append([tok.name, Path(path).stem, repr(acc.report(tok.name, average=args.average).fertility)])
    _write_csv(open_output(args.out), rows)


# --- mix-plan --------------------------------------------------------------------


def _parse_upweights(pairs: list[str]) -> dict[str, float]:
    upweights = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--upweight expects language=weight, got {pair!r}")
        name, raw = pair.split("=", 1)
        upweights[name.strip()] = float(raw)
    return upweights


def cmd_mix_plan(args, open_output) -> None:
    from . import mixture

    sources = mixture.load_sources(args.sources)
    per_source = mixture.source_fractions(sources, _parse_upweights(args.upweight))
    plan = mixture.plan_mixture(sources, per_source, args.total_tokens)
    total_tokens_in = sum(s.tokens for s in sources)

    rows = [["source", "language", "tokens", "token_pct", "sampling_pct", "token_quota", "epochs"]]
    for s, entry in zip(sources, plan.entries):
        rows.append([
            s.name,
            s.language,
            s.tokens,
            f"{100.0 * s.tokens / total_tokens_in:.1f}",
            f"{100.0 * entry.sampling_fraction:.1f}",
            entry.token_quota,
            f"{entry.epochs:.3f}",
        ])
    _write_csv(open_output(args.out), rows)


# --- lr-curve --------------------------------------------------------------------


def _composition(value: str) -> str:
    """argparse type for --composition, so an unknown mode is a usage error."""
    from .schedule import MAIN_PHASE_MODES

    if value not in MAIN_PHASE_MODES:
        choices = ", ".join(map(repr, MAIN_PHASE_MODES))
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def cmd_lr_curve(args, open_output) -> None:
    from dataclasses import replace

    from . import schedule

    spec = schedule.early_cooldown() if args.variant == "early" else schedule.late_cooldown()
    names = ("total_steps", "warmup_steps", "cooldown_start", "max_lr", "min_lr")
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if args.composition:
        overrides["main_phase"] = args.composition
    if args.variant == "late" and args.cooldown_start is None:
        overrides["cooldown_start"] = overrides.get("total_steps", spec.total_steps) - schedule.LATE_COOLDOWN_STEPS
    spec = replace(spec, **overrides)
    rows = [[step, repr(lr)] for step, lr in schedule.emit_curve(spec, args.stride)]
    _write_csv(open_output(args.out), rows)


# --- instruct --------------------------------------------------------------------


def _write_dialogues(open_output, args, outcomes) -> None:
    """In one pass over ``outcomes``: each valid dialogue as a ChatML record to
    ``--out`` as it comes, then the stats of those written and the reject counts
    to ``--stats``. Neither the outcomes nor the dialogues are held in a list."""
    from . import instruct

    stats, rejects = instruct.write_chatml_jsonl(outcomes, open_output(args.output))
    _write_json(open_output(args.stats), {
        "kept": sum(stats.per_origin_counts.values()),  # every written dialogue counts under one origin
        "rejected": sum(rejects.values()),
        "rejects_by_reason": dict(sorted(rejects.items())),
        "stats": stats.to_dict(),
    })


def cmd_instruct_build(args, open_output) -> None:
    from . import corpus, instruct

    with open(args.input, "rb") as stream:
        docs = list(corpus.ingest_jsonl(stream))
    generator = instruct.MockGenerator(malformed_rate=args.malformed_rate)
    exemplar = instruct.MCQItem.from_dict(read_json(args.exemplar)) if args.exemplar else None

    templates = ["standard", "mcq"] if args.template == "both" else [args.template]
    _write_dialogues(open_output, args, chain.from_iterable(
        instruct.iter_chunk_outcomes(docs, generator, template, max_chars=args.max_chars, seed=args.seed,
                                     exemplar=exemplar)
        for template in templates
    ))


def cmd_instruct_stats(args, open_output) -> None:
    from . import instruct

    with open(args.input, "r", encoding="utf-8") as fh:
        outcomes = instruct.load_instruction_records(fh, "unknown", strict=True)
        # The dialogues `instruct mix` would write: parsed, and structurally valid.
        stats = instruct.dataset_stats(
            d for d in outcomes if isinstance(d, instruct.Dialogue) and not instruct.validate_dialogue(d)
        )
    _write_json(open_output(args.out), stats.to_dict())


def cmd_instruct_mix(args, open_output) -> None:
    """Merge dialogue datasets into one validated ChatML JSONL with stats."""
    from . import instruct

    def outcomes():
        for path in args.inputs:
            with open(path, "r", encoding="utf-8") as fh:
                yield from instruct.load_instruction_records(fh, Path(path).stem)

    _write_dialogues(open_output, args, outcomes())


# --- eval ------------------------------------------------------------------------


def _build_scorer(name: str, items, fmt: str):
    from . import evaluation

    if name == "constant":
        return evaluation.ConstantScorer()
    if name == "ngram":
        return evaluation.CharNgramScorer()
    if name in ("oracle", "anti-oracle"):
        if fmt == "mcf":
            base = evaluation.OracleScorer.for_mcf(items)
        else:
            base = evaluation.OracleScorer.for_cf(items)
        if name == "oracle":
            return base
        return evaluation.OracleScorer.anti(base.pairs)
    raise ValueError(f"unknown scorer {name!r} (constant, oracle, anti-oracle, or ngram)")


def cmd_eval_cf(args, open_output) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    scorer = _build_scorer(args.scorer, items, "cf")
    result = evaluation.evaluate_cf(items, scorer, norm=args.norm)
    _write_json(open_output(args.out), result.to_dict())


def cmd_eval_mcf(args, open_output) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    scorer = _build_scorer(args.scorer, items, "mcf")
    result = evaluation.evaluate_mcf(items, scorer)
    _write_json(open_output(args.out), result.to_dict())


def cmd_eval_acva(args, open_output) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    exemplars = evaluation.load_benchmark_items(args.exemplars)
    scorer = _build_scorer(args.scorer, items, "cf")
    result = evaluation.evaluate_true_false(
        items, scorer, exemplars, shots=args.shots, seed=args.seed
    )
    _write_json(open_output(args.out), result.to_dict())


def cmd_eval_diff(args, open_output) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    scorers = {}
    for name in args.scorers.split(","):
        name = name.strip()
        scorers[name] = _build_scorer(name, items, "cf")
    rows = [["model", "cf", "mcf", "diff"]]
    for row in evaluation.cf_mcf_diff(items, scorers, norm=args.norm):
        rows.append([row.model, repr(row.cf), repr(row.mcf), repr(row.diff)])
    _write_csv(open_output(args.out), rows)


# --- report merge -----------------------------------------------------------------


def cmd_report_merge(args, open_output) -> None:
    from . import filters

    reports = (filters.CleaningReport.from_dict(read_json(path)) for path in args.reports)
    _write_json(open_output(args.out), reduce(filters.merge_reports, reports).to_dict())


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ardata", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="filter a JSONL corpus and emit a cleaning report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--report-csv", default=None)
    p.add_argument("--rejects", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--tokenizer", default="whitespace")
    p.add_argument(
        "--parallelism", type=int, default=None,
        help="accepted and ignored: clean always runs as one streaming pass; to use more cores, "
        "run one clean per shard of the input and combine the reports with `report merge`",
    )
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("fertility", help="fertility CSV per (tokenizer, dataset)")
    p.add_argument("--in", dest="input", action="append", required=True)
    p.add_argument("--tokenizer", action="append", required=True)
    p.add_argument("--average", choices=("micro", "macro"), default="micro")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fertility)

    p = sub.add_parser("mix-plan", help="token shares, sampling percentages, quotas, epochs")
    p.add_argument("--sources", required=True, help="JSON array of {name, tokens, language}")
    p.add_argument("--upweight", action="append", default=[], help="language=weight (repeatable)")
    p.add_argument("--total-tokens", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mix_plan)

    p = sub.add_parser("lr-curve", help="CSV of (step, lr) samples")
    p.add_argument("--variant", choices=("early", "late"), default="early")
    p.add_argument("--stride", type=int, default=1000)
    p.add_argument("--total-steps", type=int, default=None)
    p.add_argument("--warmup-steps", type=int, default=None)
    p.add_argument("--cooldown-start", type=int, default=None)
    p.add_argument("--max-lr", type=float, default=None)
    p.add_argument("--min-lr", type=float, default=None)
    p.add_argument("--composition", type=_composition, default=None, help="main-phase composition mode")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lr_curve)

    p_instruct = sub.add_parser("instruct", help="synthetic dialogue factory")
    instruct_sub = p_instruct.add_subparsers(dest="subcommand", required=True)

    p = instruct_sub.add_parser("build", help="chunk, prompt, parse, filter, render ChatML")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--template", choices=("standard", "mcq", "both"), default="standard")
    p.add_argument("--max-chars", type=int, default=2000)
    p.add_argument("--malformed-rate", type=float, default=0.0)
    p.add_argument("--exemplar", default=None, help="JSON file with an MCQ exemplar")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_instruct_build)

    p = instruct_sub.add_parser("stats", help="turn/enumeration histograms for a dialogue JSONL")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_instruct_stats)

    p = instruct_sub.add_parser("mix", help="merge dialogue datasets into one ChatML JSONL")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--stats", required=True)
    p.set_defaults(func=cmd_instruct_mix)

    p_eval = sub.add_parser("eval", help="benchmark evaluation")
    eval_sub = p_eval.add_subparsers(dest="subcommand", required=True)

    p = eval_sub.add_parser("cf", help="cloze-format accuracy")
    p.add_argument("--items", required=True)
    p.add_argument("--scorer", default="ngram")
    p.add_argument("--norm", choices=("none", "by_bytes", "by_tokens"), default="by_bytes")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_cf)

    p = eval_sub.add_parser("mcf", help="multiple-choice-format accuracy")
    p.add_argument("--items", required=True)
    p.add_argument("--scorer", default="ngram")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_mcf)

    p = eval_sub.add_parser("acva", help="few-shot True/False with macro F1")
    p.add_argument("--items", required=True)
    p.add_argument("--exemplars", required=True)
    p.add_argument("--shots", type=int, default=5)
    p.add_argument("--scorer", default="ngram")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_eval_acva)

    p = eval_sub.add_parser("diff", help="CF minus MCF accuracy per scorer (CSV)")
    p.add_argument("--items", required=True)
    p.add_argument("--scorers", default="constant,oracle,anti-oracle,ngram")
    p.add_argument("--norm", choices=("none", "by_bytes", "by_tokens"), default="none")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_diff)

    p = sub.add_parser("report", help="cleaning-report utilities")
    report_sub = p.add_subparsers(dest="subcommand", required=True)
    p = report_sub.add_parser("merge", help="merge sharded cleaning reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report_merge)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _staged_outputs() as open_output:
            args.func(args, open_output)
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "command": args.command}) + "\n")
        return 1
    except KeyboardInterrupt:
        sys.stderr.write(json.dumps({"error": "interrupted", "command": args.command}) + "\n")
        return 130
    return 0


def main() -> None:
    import signal

    # SIGTERM and SIGHUP unwind as SystemExit, so the staged outputs are
    # removed; a signal the caller ignores (nohup) stays ignored.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        if signal.getsignal(signum) == signal.SIG_DFL:
            signal.signal(signum, lambda signum, _: sys.exit(128 + signum))
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
