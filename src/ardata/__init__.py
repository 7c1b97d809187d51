"""ardata: corpus curation and data-pipeline toolkit for Arabic LLM training.

Subpackages map to the pipeline stages: ``corpus`` (documents, ingestion,
character unification), ``filters`` (quality filtering with before/after
reports), ``tokenization`` (fertility scoring), ``mixture`` (sampling plans),
``schedule`` (learning-rate curves), ``instruct`` (synthetic dialogues and
ChatML), ``evaluation`` (CF/MCF/True-False harness), and ``cli``.

The public names load on first use (PEP 562): ``import ardata`` imports no
submodule, and ``ardata.FilterConfig`` imports ``ardata.filters`` only when
it is first read. So each ``ardata`` command pays for the modules it runs.
"""
import sys as _sys

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("Document", "Reject", "Source", "ingest_jsonl", "normalize_chars", "strip_title_date"),
    "filters": (
        "CleaningReport", "FilterConfig", "FilterDecision", "GopherConfig", "Rule", "merge_reports", "run_pipeline",
    ),
    "tokenization": (
        "CharacterTokenizer", "FertilityReport", "VocabTokenizer", "WhitespaceTokenizer", "fertility", "segment_words",
    ),
    "mixture": ("MixturePlan", "SourceStats", "plan_mixture", "sample_stream", "sampling_percentages", "token_shares"),
    "schedule": (
        "BatchGeometry", "ScheduleSpec", "batch_tokens", "early_cooldown", "emit_curve", "late_cooldown", "lr_at",
    ),
    "instruct": (
        "Dialogue", "MCQItem", "MockGenerator", "Turn", "build_dialogues", "build_prompt", "chunk_document",
        "dataset_stats", "filter_dialogues", "parse_chatml", "parse_dialogue_response", "parse_mcq",
        "render_chatml", "render_mcq",
    ),
    "evaluation": (
        "BenchmarkItem", "CharNgramScorer", "ConstantScorer", "EvalResult", "OracleScorer", "cf_mcf_diff",
        "evaluate_cf", "evaluate_mcf", "evaluate_true_false", "f1_macro",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SUBMODULE_OF])


def __getattr__(name: str):
    submodule = name if name in _EXPORTS else _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # builtins.__import__, unlike importlib.import_module, shows in -X importtime.
    __import__(f"{__name__}.{submodule}")
    module = _sys.modules[f"{__name__}.{submodule}"]
    if name == submodule:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
