"""The corpus workload's program process (started fresh by ``run.py``).

Opens ``ReproSession.from_world`` with the default config, then streams a
JSONL corpus through ``annotate_wire_stream`` twice: the crawl pass, then
the recrawl pass on the same warm session.  The lone pass annotates fresh
tables one ``annotate`` call at a time (per-table latency).  The corpus
and the lone tables come in rounds (one file each per round); every round
runs its crawl, recrawl and lone slices in turn, with machine-speed probes
(see ``reference``) between the slices and before every lone call.  Writes
each pass's wire responses as JSONL and prints one JSON report on stdout,
with raw wall seconds and the probes next to them.

Usage: python3 perfbench/corpus_child.py --catalog C --corpus J [J ...]
       --warm W --lone L [L ...] --out DIR [--setup-only | --crawl-only]
       [--trace 0|1]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import layers
import reference
import settings
from spans import Tracer


def open_session(catalog: Path, warm_table):
    """Session open plus one warm table: the corpus job's set-up."""
    from repro.api.session import ReproSession

    session = ReproSession.from_world(catalog)
    for _ in session.annotate_wire_stream([warm_table]):
        pass
    return session


def run_pass(session, corpus: Path, sink, tracer: Tracer | None) -> float:
    """Corpus JSONL in, wire-response JSONL out to ``sink``; wall seconds."""
    from repro.api import types
    from repro.pipeline.io import iter_corpus_jsonl

    start = time.perf_counter()
    block = tracer.span("bench.pass") if tracer is not None else contextlib.nullcontext()
    with block:
        for response in session.annotate_wire_stream(iter_corpus_jsonl(corpus)):
            sink.write(types.encode_json(response.to_json()))
            sink.write("\n")
    return time.perf_counter() - start


def probed_pass(session, corpus: Path, sink, tracer: Tracer | None = None) -> dict:
    """One pass slice between two probes."""
    before = reference.probe(settings.SLICE_PROBES)
    seconds = run_pass(session, corpus, sink, tracer)
    return {"seconds": seconds, "probes": [before, reference.probe(settings.SLICE_PROBES)]}


def run_lone(session, requests: Path, sink) -> dict:
    """One ``annotate`` call per table on the warm session, each after a
    probe; per-call seconds and the probes."""
    from repro.api import types

    seconds, probes = [], []
    with requests.open(encoding="utf-8") as source:
        for line in source:
            payload = json.loads(line)
            probes.append(reference.probe())
            start = time.perf_counter()
            response = session.annotate(types.AnnotateRequest.from_json(payload))
            body = types.encode_json(response.to_json())
            seconds.append(time.perf_counter() - start)
            sink.write(body)
            sink.write("\n")
    return {"seconds": seconds, "probes": probes}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--catalog", type=Path, required=True)
    parser.add_argument("--corpus", type=Path, nargs="+", required=True)
    parser.add_argument("--warm", type=Path, required=True)
    parser.add_argument("--lone", type=Path, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--crawl-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.tables.model import Table

    warm_table = Table.from_dict(json.loads(args.warm.read_text(encoding="utf-8")))
    if args.trace:
        print(json.dumps(traced_passes(args, warm_table)))
        return 0
    # one set-up per process: a later open in the same process reuses the
    # memory the first one faulted in and runs markedly faster
    before = reference.probe(settings.SETUP_PROBES)
    start = time.perf_counter()
    session = open_session(args.catalog, warm_table)
    seconds = time.perf_counter() - start
    after = reference.probe(settings.SETUP_PROBES)
    report: dict = {"setup": {"seconds": seconds, "probes": [before, after]}}
    if args.crawl_only:
        with (args.out / "crawl.jsonl").open("w", encoding="utf-8") as crawl:
            report["crawl"] = [probed_pass(session, corpus, crawl) for corpus in args.corpus]
    elif not args.setup_only:
        report.update(crawl=[], recrawl=[], lone=[])
        with contextlib.ExitStack() as stack:
            crawl, recrawl, lone = (
                stack.enter_context((args.out / name).open("w", encoding="utf-8"))
                for name in ("crawl.jsonl", "recrawl.jsonl", "lone.jsonl")
            )
            for corpus, requests in zip(args.corpus, args.lone, strict=True):
                report["crawl"].append(probed_pass(session, corpus, crawl))
                report["recrawl"].append(probed_pass(session, corpus, recrawl))
                report["lone"].append(run_lone(session, requests, lone))
        report["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def traced_passes(args, warm_table) -> dict:
    """Crawl and recrawl with every layer wrapped, from a fresh process
    (the crawl-only run of another fresh process is its baseline)."""
    from repro.pipeline.io import iter_corpus_jsonl

    truth = {
        labeled.table.table_id: dict(labeled.truth.cell_entities)
        for corpus in args.corpus
        for labeled in iter_corpus_jsonl(corpus)
    }
    n_tables = len(truth)
    report: dict = {}
    tracer = Tracer()
    tracer.install(layers.targets(truth))
    try:
        session = open_session(args.catalog, warm_table)
        report["setup"] = layers.setup_metrics(tracer, 1)
        tracer.reset()
        pipeline = session.pipeline()
        before = layers.cache_counters(pipeline)
        with (args.out / "traced.jsonl").open("w", encoding="utf-8") as sink:
            report["traced_crawl"] = [
                probed_pass(session, corpus, sink, tracer) for corpus in args.corpus
            ]
        crawl = layers.layer_metrics(tracer, n_tables)
        crawl.update(layers.cache_ratios(pipeline, before))
        report["crawl_shares"] = layers.share_table(tracer)
        tracer.reset()
        before = layers.cache_counters(pipeline)
        with (args.out / "recrawl.jsonl").open("w", encoding="utf-8") as sink:
            for corpus in args.corpus:
                run_pass(session, corpus, sink, tracer)
        recrawl = layers.layer_metrics(tracer, n_tables)
        recrawl.update(layers.cache_ratios(pipeline, before))
        report["recrawl_shares"] = layers.share_table(tracer)
    finally:
        tracer.uninstall()
    report["crawl_layers"] = crawl
    report["recrawl_layers"] = recrawl
    report["absent"] = tracer.absent
    return report


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
