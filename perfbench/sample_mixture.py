"""Child program for the mixture layer, which has no ``ardata`` subcommand of its own.

Plans a mixture over the per-source streams of a JSONL corpus with
``plan_mixture`` and draws it with ``sample_stream``. The token budget is
``--epochs`` times the corpus size, so every source repeats and its stream
restarts. Writes one drawn document id per line.

    python sample_mixture.py --in docs.jsonl --out draws.txt --seed 0 --epochs 200
"""
from __future__ import annotations

import argparse

from ardata.corpus import ingest_jsonl
from ardata.mixture import SourceStats, plan_mixture, sample_stream
from ardata.tokenization import WhitespaceTokenizer

# Sampling fractions per source; none equals its token share, so some
# sources are upsampled and some downsampled.
FRACTIONS = {"culturax": 0.4, "sanad": 0.3, "ebook": 0.2, "other": 0.1}


def load_streams(path: str) -> dict[str, list]:
    streams: dict[str, list] = {}
    with open(path, "rb") as stream:
        for doc in ingest_jsonl(stream):
            streams.setdefault(doc.source.value, []).append(doc)
    return streams


def make_plan(streams: dict[str, list], tok, epochs: int, seed: int):
    sources = [
        SourceStats(name=name, tokens=sum(tok.count_tokens(d.text) for d in docs))
        for name, docs in sorted(streams.items())
    ]
    total = epochs * sum(s.tokens for s in sources)
    return plan_mixture(sources, {s.name: FRACTIONS[s.name] for s in sources}, total, seed=seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--in", dest="input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    args = parser.parse_args()
    tok = WhitespaceTokenizer()
    streams = load_streams(args.input)
    plan = make_plan(streams, tok, args.epochs, args.seed)
    with open(args.out, "w", encoding="utf-8") as out:
        for doc in sample_stream(plan, streams, tok=tok):
            out.write(doc.id + "\n")


if __name__ == "__main__":
    main()
