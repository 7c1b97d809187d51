"""Token accounting and deterministic pre-training mixture planning.

The planner turns raw per-source token counts into sampling fractions,
token quotas, and epoch counts. Upweighting one language relative to its
natural token share (e.g. oversampling Arabic 4.6x against English) is a
direct dial here; ``suggested_upweight`` derives the dial from measured
fertility for callers who want the bias-correction rationale made concrete.
"""
from __future__ import annotations

import math
import random
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ._schema import BELOW_2_63, INTEGER, LIST, OBJECT, STRING, check, get_field, read_json
from .tokenization import TokenizerAdapter, WhitespaceTokenizer

if TYPE_CHECKING:
    from .corpus import Document


@dataclass(frozen=True)
class SourceStats:
    name: str
    tokens: int
    language: str = "other"

    def __post_init__(self):
        if self.tokens <= 0:
            raise ValueError(f"source {self.name!r} must have tokens > 0")


@dataclass(frozen=True)
class PlanEntry:
    name: str
    sampling_fraction: float
    token_quota: int
    epochs: float


@dataclass(frozen=True)
class MixturePlan:
    entries: tuple[PlanEntry, ...]
    total_tokens: int
    seed: int

    def entry(self, name: str) -> PlanEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def sampling_percentages(upweights: Mapping[str, float]) -> dict[str, float]:
    """Normalize per-group upweights into sampling fractions.

    Fractions are proportional to the weights (scale invariant): a 4.6:1
    Arabic:English upweight gives 4.6/5.6 vs 1/5.6, i.e. roughly 82%/18%.
    """
    if not upweights:
        raise ValueError("no groups given")
    for name, w in upweights.items():
        if not 0 < w < float("inf"):
            raise ValueError(f"upweight for {name!r} must be a finite number > 0, got {w}")
    total = sum(upweights.values())
    if total == math.inf:
        raise ValueError(f"upweights must sum to a finite number, got {total} from {dict(upweights)}")
    return {name: w / total for name, w in upweights.items()}


def load_sources(path: str | Path) -> list[SourceStats]:
    """Read a sources file: a JSON array of ``{name, tokens, language}`` objects."""
    sources = []
    for i, raw in enumerate(check(read_json(path), LIST, "sources file")):
        where = f"source {i}: "
        check(raw, OBJECT, f"source {i}")
        sources.append(SourceStats(
            name=get_field(raw, "name", STRING, where),
            tokens=check(get_field(raw, "tokens", INTEGER, where), BELOW_2_63, f"{where}'tokens'"),
            language=get_field(raw, "language", STRING, where, "other"),
        ))
    return sources


def _language_tokens(sources: Iterable[SourceStats]) -> dict[str, int]:
    per_language: dict[str, int] = {}
    for s in sources:
        per_language[s.language] = per_language.get(s.language, 0) + s.tokens
    if not per_language:
        raise ValueError("no sources given")
    return per_language


def token_shares(sources: Iterable[SourceStats]) -> dict[str, float]:
    """Share of raw tokens per language group."""
    per_language = _language_tokens(sources)
    total = sum(per_language.values())
    return {lang: tokens / total for lang, tokens in per_language.items()}


def source_fractions(sources: Iterable[SourceStats], upweights: Mapping[str, float]) -> dict[str, float]:
    """Sampling fraction per source name, from per-language upweights.

    Each language present gets its ``sampling_percentages`` share (weight 1.0
    unless ``upweights`` names it), split among that language's sources in
    proportion to their raw tokens. An upweight for a language that no source
    has is a ValueError. The result feeds ``plan_mixture``.
    """
    sources = list(sources)
    per_language = _language_tokens(sources)
    unknown = set(upweights) - set(per_language)
    if unknown:
        raise ValueError(f"upweights reference unknown languages: {sorted(unknown)}")
    lang_fractions = sampling_percentages({lang: upweights.get(lang, 1.0) for lang in per_language})
    return {s.name: lang_fractions[s.language] * s.tokens / per_language[s.language] for s in sources}


def _largest_remainder(fractions: list[float], total: int) -> list[int]:
    """Quotas proportional to ``fractions``, normalized to sum to exactly ``total``.

    Exact rational arithmetic: each fraction becomes an integer weight over
    one common denominator, so no product is rounded at any total.
    """
    ratios = [f.as_integer_ratio() for f in fractions]
    common = math.lcm(*(d for _, d in ratios))
    weights = [n * (common // d) for n, d in ratios]
    scale = sum(weights)
    divided = [divmod(w * total, scale) for w in weights]
    quotas = [q for q, _ in divided]
    by_remainder = sorted(range(len(divided)), key=lambda i: (divided[i][1], -i), reverse=True)
    for i in by_remainder[: total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def plan_mixture(
    sources: Iterable[SourceStats],
    fractions: Mapping[str, float],
    total_tokens: int,
    seed: int = 0,
) -> MixturePlan:
    """Assign token quotas and epoch counts from sampling fractions.

    Fractions are keyed by source name and must sum to 1; quotas use
    largest-remainder rounding so they sum to exactly ``total_tokens``.
    Epoch counts above 1 mean the source is repeated.
    """
    sources = list(sources)
    if total_tokens < 0:
        raise ValueError("total_tokens must be >= 0")
    check(total_tokens, BELOW_2_63, "total_tokens")
    names = [s.name for s in sources]
    repeated = sorted(name for name, count in Counter(names).items() if count > 1)
    if repeated:
        raise ValueError(f"sources must have distinct names, repeated: {repeated}")
    unknown = set(fractions) - set(names)
    if unknown:
        raise ValueError(f"fractions reference unknown sources: {sorted(unknown)}")
    missing = set(names) - set(fractions)
    if missing:
        raise ValueError(f"missing fractions for sources: {sorted(missing)}")
    for name in names:
        if not 0 <= fractions[name] < math.inf:
            raise ValueError(f"fraction for {name!r} must be a finite number >= 0, got {fractions[name]}")
    total_frac = sum(fractions.values())
    if abs(total_frac - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {total_frac}")
    quotas = _largest_remainder([fractions[n] for n in names], total_tokens)
    entries = tuple(
        PlanEntry(
            name=s.name,
            sampling_fraction=fractions[s.name],
            token_quota=q,
            epochs=q / s.tokens,
        )
        for s, q in zip(sources, quotas)
    )
    return MixturePlan(entries=entries, total_tokens=total_tokens, seed=seed)


def suggested_upweight(fertility_target: float, fertility_reference: float) -> float:
    """Upweight that compensates a fertility gap (target over reference)."""
    if fertility_target <= 0 or fertility_reference <= 0:
        raise ValueError("fertility scores must be > 0")
    return fertility_target / fertility_reference


class StreamExhaustedError(RuntimeError):
    pass


def sample_stream(
    plan: MixturePlan,
    streams: Mapping[str, Iterable[Document]],
    tok: TokenizerAdapter | None = None,
) -> Iterator[Document]:
    """Seeded interleaving of per-source streams, driven by remaining quota.

    Each draw picks a source with probability proportional to its unfilled
    token quota, so realized per-source token counts converge to the plan.
    Streams must be restartable (re-iterable) when a quota implies more than
    one epoch, and a restarted stream must yield the same documents in the
    same order: each stream position is counted on the first pass, and later
    passes reuse that count. A stream whose first pass makes no token
    progress, or that yields nothing on restart, raises StreamExhaustedError.
    The same plan seed reproduces the same sequence.
    """
    tok = tok or WhitespaceTokenizer()
    rng = random.Random(plan.seed)
    missing = [e.name for e in plan.entries if e.name not in streams]
    if missing:
        raise ValueError(f"no stream for planned sources: {missing}")

    remaining = {e.name: e.token_quota for e in plan.entries if e.token_quota > 0}
    names = sorted(remaining)
    quotas = [remaining[n] for n in names]
    sources = [_counted(n, streams[n], tok) for n in names]  # parallel to quotas; a filled source leaves both

    while quotas:
        # What rng.choices(range(len(quotas)), weights=quotas, k=1)[0] draws, from the same single random().
        cum = list(accumulate(quotas))
        i = bisect(cum, rng.random() * (cum[-1] + 0.0), 0, len(cum) - 1)
        doc, tokens = next(sources[i])
        quotas[i] -= tokens
        if quotas[i] <= 0:
            del quotas[i], sources[i]
        yield doc


def _counted(name: str, stream: Iterable[Document], tok: TokenizerAdapter) -> Iterator[tuple[Document, int]]:
    """``(doc, tokens)`` for each document of ``stream``, pass after pass, with
    each position's count taken on the first pass."""
    counts = []
    for doc in stream:
        counts.append(tok.count_tokens(doc.text))
        yield doc, counts[-1]
    if not sum(counts):
        raise StreamExhaustedError(f"stream for source {name!r} made no token progress over a full pass")
    while True:  # next epoch
        progress = 0
        for tokens, doc in zip(counts, stream):
            progress += tokens
            yield doc, tokens
        if not progress:  # nothing yielded, or a shorter restart with no counted token: drawing on would spin
            raise StreamExhaustedError(f"stream for source {name!r} is empty or not restartable")
