"""Command-line entry point.

One binary, subcommand style: clean, fertility, mix-plan, lr-curve,
instruct build/mix, eval cf/mcf/acva/diff, report merge. Reports are
machine-readable first (JSON/CSV with sorted keys), so identical argv,
inputs, and seed produce byte-identical outputs. Every output is opened
before any input is read; ``-`` is stdout, the default of each optional
--out. Exit codes: 0 success, 1 validation/runtime error (JSON on stderr; two
outputs naming one file are one), 2 usage error, 130 SIGINT (JSON on stderr),
129 SIGHUP, 143 SIGTERM. None of these leaves a partial output file; a run
killed by SIGKILL cannot clean up after itself.
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
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from ._schema import json_document, json_record, read_json

# Each command imports the library modules it runs, so a command does not
# pay at start-up for the modules of the others.
if TYPE_CHECKING:
    from . import tokenization

DEFAULT_SEED = 0
# Line breaks that ``json.dumps(..., ensure_ascii=False)`` leaves raw and
# ``str.splitlines`` splits on; escaped so an error stays one line.
_RAW_LINE_BREAKS = str.maketrans({"\x85": "\\u0085", "\u2028": "\\u2028", "\u2029": "\\u2029"})


@contextmanager
def _staged_outputs():
    """Yield ``open_output(path)``, the one way an output is opened.

    ``-`` is stdout and ``None``, an output not asked for, opens nothing. A
    path that names no file (empty, or ending in a separator) is opened as
    given, so it is refused as a plain ``open`` refuses it. A target that is
    absent or a regular file is staged: the temporary sits next to the file
    ``path`` resolves to (through any symlinks), takes the mode of the file it
    will replace, and is moved onto it with ``os.replace`` once the block
    succeeds. When the block raises, the temporaries are removed, so a
    failed command leaves no partial output and its existing targets as they
    were. Each target is replaced on its own, so a replace that fails (it
    rarely can: the temporary is in the same directory) leaves the targets
    moved before it in place. A target staged twice raises ValueError: only one
    output could survive. Any other existing target (a device such as
    /dev/null, a FIFO) is written directly, and a directory is refused when it
    is opened. Every handle opened here is closed when the block ends, before
    any replace or removal.
    """
    staged: dict[Path, Path] = {}  # target -> temporary
    handles = ExitStack()

    def open_output(path: str | None) -> TextIO | None:
        if path in (None, "-"):
            return None if path is None else sys.stdout
        try:
            mode = os.stat(path).st_mode
        except OSError:
            mode = None
        if not os.path.basename(path) or (mode is not None and not stat.S_ISREG(mode)):
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
            except OSError as exc:  # named as given, not as the temporary
                raise OSError(exc.errno, exc.strerror, path) from None
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
    out.write(json_document(payload) + "\n")


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


def cmd_clean(args) -> None:
    from . import corpus, filters

    cfg = filters.FilterConfig.from_dict(read_json(args.config)) if args.config is not None else filters.FilterConfig()
    tok = make_tokenizer(args.tokenizer)
    on_reject = (lambda reject: args.rejects.write(reject.to_json() + "\n")) if args.rejects else None
    with open(args.input, "rb") as stream:
        report = filters.CleaningReport()
        kept = filters.iter_pipeline(corpus.ingest_jsonl(stream, on_reject=on_reject), cfg, tok, report)
        for record in map(corpus.document_to_record, kept):
            args.output.write(json_record(record) + "\n")
    _write_json(args.report, report.to_dict())
    if args.report_csv:
        _write_csv(args.report_csv, report.csv_rows())


# --- fertility -------------------------------------------------------------------


def cmd_fertility(args) -> None:
    from . import corpus, tokenization

    toks = [make_tokenizer(spec) for spec in args.tokenizer]
    # A row is named by its tokenizer and its input's stem, so neither may repeat.
    for what, names in (("--in stem", [Path(path).stem for path in args.input]), ("tokenizer", [t.name for t in toks])):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{what} {name!r} is named more than once")

    def reports(path: str) -> list[tokenization.FertilityReport]:  # one read of the file for every tokenizer
        with open(path, "rb") as stream:
            return tokenization.fertility_reports(corpus.ingest_jsonl(stream), toks)

    rows = [["tokenizer", "dataset", "fertility"]]
    for tok_reports in zip(*map(reports, args.input)):  # tokenizer-major
        rows.extend([r.tokenizer_name, Path(path).stem, repr(r.fertility)] for path, r in zip(args.input, tok_reports))
    _write_csv(args.out, rows)


# --- mix-plan --------------------------------------------------------------------


def _parse_upweights(pairs: list[str]) -> dict[str, float]:
    upweights = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--upweight expects language=weight, got {pair!r}")
        name, raw = pair.split("=", 1)
        name = name.strip()
        if name in upweights:
            raise ValueError(f"--upweight names language {name!r} more than once")
        upweights[name] = float(raw)
    return upweights


def cmd_mix_plan(args) -> None:
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
    _write_csv(args.out, rows)


# --- lr-curve --------------------------------------------------------------------


def cmd_lr_curve(args) -> None:
    from . import schedule

    names = ("total_steps", "warmup_steps", "cooldown_start", "max_lr", "min_lr")
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    spec = (schedule.early_cooldown if args.variant == "early" else schedule.late_cooldown)(**overrides)
    _write_csv(args.out, ([step, repr(lr)] for step, lr in schedule.emit_curve(spec, args.stride)))


# --- instruct --------------------------------------------------------------------


def _write_dialogues(out: TextIO, stats_out: TextIO, outcomes) -> None:
    """In one pass over ``outcomes``: each valid dialogue as a ChatML record to
    ``out`` as it comes, then the stats of those written and the reject counts
    to ``stats_out``. Neither the outcomes nor the dialogues are held in a list."""
    from . import instruct

    stats, rejects = instruct.write_chatml_jsonl(outcomes, out)
    _write_json(stats_out, {
        "kept": sum(stats.per_origin_counts.values()),  # every written dialogue counts under one origin
        "rejected": sum(rejects.values()),
        "rejects_by_reason": dict(sorted(rejects.items())),
        "stats": stats.to_dict(),
    })


def cmd_instruct_build(args) -> None:
    from . import corpus, instruct

    generator = instruct.MockGenerator(malformed_rate=args.malformed_rate)
    exemplar = instruct.MCQItem.from_dict(read_json(args.exemplar)) if args.exemplar else None
    with open(args.input, "rb") as stream:
        _write_dialogues(args.output, args.stats, instruct.iter_chunk_outcomes(
            corpus.ingest_jsonl(stream), generator, args.template, max_chars=args.max_chars, seed=args.seed,
            exemplar=exemplar,
        ))


def cmd_instruct_mix(args) -> None:
    """Merge dialogue datasets into one validated ChatML JSONL with stats."""
    from . import instruct

    def outcomes():
        for path in args.inputs:
            with open(path, "rb") as stream:
                yield from instruct.load_instruction_records(stream, Path(path).stem)

    _write_dialogues(args.output, args.stats, outcomes())


# --- eval ------------------------------------------------------------------------


SCORERS = ("constant", "oracle", "anti-oracle", "ngram")


def _scorer_names(value: str) -> list[str]:
    """argparse type for --scorers: comma-separated names, each a known scorer
    given once, so a bad list is a usage error before any input is read."""
    names = [name.strip() for name in value.split(",")]
    for i, name in enumerate(names):
        if name not in SCORERS:
            raise argparse.ArgumentTypeError(f"unknown scorer {name!r} (choose from {', '.join(SCORERS)})")
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"scorer {name!r} is named more than once")
    return names


def _build_scorer(name: str, items, fmt: str):
    from . import evaluation

    if name == "constant":
        return evaluation.ConstantScorer()
    if name == "ngram":
        return evaluation.CharNgramScorer()
    base = evaluation.OracleScorer.for_mcf(items) if fmt == "mcf" else evaluation.OracleScorer.for_cf(items)
    return base if name == "oracle" else evaluation.OracleScorer.anti(base.pairs)


def cmd_eval_cf(args) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    scorer = _build_scorer(args.scorer, items, "cf")
    result = evaluation.evaluate_cf(items, scorer, norm=args.norm)
    _write_json(args.out, result.to_dict())


def cmd_eval_mcf(args) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    scorer = _build_scorer(args.scorer, items, "mcf")
    result = evaluation.evaluate_mcf(items, scorer)
    _write_json(args.out, result.to_dict())


def cmd_eval_acva(args) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    exemplars = evaluation.load_benchmark_items(args.exemplars)
    scorer = _build_scorer(args.scorer, items, "cf")
    result = evaluation.evaluate_true_false(
        items, scorer, exemplars, shots=args.shots, seed=args.seed
    )
    _write_json(args.out, result.to_dict())


def cmd_eval_diff(args) -> None:
    from . import evaluation

    items = evaluation.load_benchmark_items(args.items)
    scorers = {name: _build_scorer(name, items, "cf") for name in args.scorers}
    rows = [["model", "cf", "mcf", "diff"]]
    for row in evaluation.cf_mcf_diff(items, scorers, norm=args.norm):
        rows.append([row.model, repr(row.cf), repr(row.mcf), repr(row.diff)])
    _write_csv(args.out, rows)


# --- report merge -----------------------------------------------------------------


def cmd_report_merge(args) -> None:
    from . import filters

    def load(path: str) -> filters.CleaningReport:  # a schema error names the file, as read_json's errors do
        data = read_json(path)
        try:
            return filters.CleaningReport.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    _write_json(args.out, reduce(filters.merge_reports, map(load, args.reports)).to_dict())


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
    p.set_defaults(func=cmd_clean, outputs=("rejects", "output", "report", "report_csv"))

    p = sub.add_parser("fertility", help="fertility CSV per (tokenizer, dataset)")
    p.add_argument("--in", dest="input", action="append", required=True)
    p.add_argument("--tokenizer", action="append", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fertility, outputs=("out",))

    p = sub.add_parser("mix-plan", help="token shares, sampling percentages, quotas, epochs")
    p.add_argument("--sources", required=True, help="JSON array of {name, tokens, language}")
    p.add_argument("--upweight", action="append", default=[], help="language=weight (repeatable)")
    p.add_argument("--total-tokens", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_mix_plan, outputs=("out",))

    p = sub.add_parser("lr-curve", help="CSV of (step, lr) samples")
    p.add_argument("--variant", choices=("early", "late"), default="early")
    p.add_argument("--stride", type=int, default=1000)
    p.add_argument("--total-steps", type=int, default=None)
    p.add_argument("--warmup-steps", type=int, default=None)
    p.add_argument("--cooldown-start", type=int, default=None)
    p.add_argument("--max-lr", type=float, default=None)
    p.add_argument("--min-lr", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_lr_curve, outputs=("out",))

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
    p.set_defaults(func=cmd_instruct_build, outputs=("output", "stats"))

    p = instruct_sub.add_parser("mix", help="merge dialogue datasets into one ChatML JSONL")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--stats", required=True)
    p.set_defaults(func=cmd_instruct_mix, outputs=("output", "stats"))

    p_eval = sub.add_parser("eval", help="benchmark evaluation")
    eval_sub = p_eval.add_subparsers(dest="subcommand", required=True)

    p = eval_sub.add_parser("cf", help="cloze-format accuracy")
    p.add_argument("--items", required=True)
    p.add_argument("--scorer", choices=SCORERS, default="ngram")
    p.add_argument("--norm", choices=("none", "by_bytes"), default="by_bytes")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eval_cf, outputs=("out",))

    p = eval_sub.add_parser("mcf", help="multiple-choice-format accuracy")
    p.add_argument("--items", required=True)
    p.add_argument("--scorer", choices=SCORERS, default="ngram")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eval_mcf, outputs=("out",))

    p = eval_sub.add_parser("acva", help="few-shot True/False with macro F1")
    p.add_argument("--items", required=True)
    p.add_argument("--exemplars", required=True)
    p.add_argument("--shots", type=int, default=5)
    p.add_argument("--scorer", choices=SCORERS, default="ngram")
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_eval_acva, outputs=("out",))

    p = eval_sub.add_parser("diff", help="CF minus MCF accuracy per scorer (CSV)")
    p.add_argument("--items", required=True)
    p.add_argument("--scorers", type=_scorer_names, default=",".join(SCORERS))
    p.add_argument("--norm", choices=("none", "by_bytes"), default="none")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eval_diff, outputs=("out",))

    p = sub.add_parser("report", help="cleaning-report utilities")
    report_sub = p.add_subparsers(dest="subcommand", required=True)
    p = report_sub.add_parser("merge", help="merge sharded cleaning reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_report_merge, outputs=("out",))

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _staged_outputs() as open_output:
            for dest in args.outputs:  # each path becomes its handle before the command runs
                setattr(args, dest, open_output(getattr(args, dest)))
            args.func(args)
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        error = json.dumps({"error": str(exc), "command": args.command}, ensure_ascii=False)
        sys.stderr.write(error.translate(_RAW_LINE_BREAKS) + "\n")
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
