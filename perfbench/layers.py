"""Which public calls the traced run wraps, and the per-layer metrics.

Each layer is reached from outside by wrapping its entry points (resolved
by dotted name, see :mod:`spans`).  Module-level functions are wrapped where
their caller looks them up (``repro.core.annotator.annotate_collective``,
not the defining module), because the caller holds its own reference.
Both the per-table engine and the fused engine are wrapped, so the
``graph.*`` and ``core.*`` numbers survive a move from one to the other.
"""

from __future__ import annotations

import spans
from spans import Tracer, WrapTarget


def _count_cells(args, kwargs, result, tracer: Tracer) -> None:
    queries = args[1] if len(args) > 1 else kwargs.get("queries", ())
    tracer.count("text.cells", len(queries))


def _count_iterations(args, kwargs, result, tracer: Tracer) -> None:
    iterations = getattr(result, "iterations", None)
    if iterations is None:  # (iterations, converged) tuple
        iterations = result[0]
    if hasattr(iterations, "sum"):  # fused: one entry per table
        tracer.count("graph.bp_runs", len(iterations))
        tracer.count("graph.bp_iterations", float(iterations.sum()))
    else:
        tracer.count("graph.bp_runs")
        tracer.count("graph.bp_iterations", float(iterations))


def _count_answers(args, kwargs, result, tracer: Tracer) -> None:
    tracer.count("search.calls")
    tracer.count("search.answers", len(result.answers))


def recall_hook(truth: dict[str, dict]):
    """Count cells whose true entity made it into the candidate space.

    ``truth`` maps table id → ``{(row, column): entity id or None}``.
    """

    def hook(args, kwargs, problem, tracer: Tracer) -> None:
        cells = truth.get(problem.table.table_id)
        if cells is None:
            return
        for position, entity in cells.items():
            if entity is None:
                continue
            tracer.count("core.recall_total")
            space = problem.cells.get(position)
            if space is not None and entity in space.labels:
                tracer.count("core.recall_hits")

    return hook


def targets(truth: dict[str, dict] | None = None) -> list[WrapTarget]:
    recall = recall_hook(truth) if truth is not None else None
    return [
        WrapTarget("text.search_batch", "repro.text.index.InvertedIndex.search_batch", _count_cells),
        WrapTarget("core.candidates", "repro.core.annotator.TableAnnotator.build_problem", recall),
        WrapTarget("core.candidates", "repro.core.fused.build_problem", recall),
        WrapTarget("graph.compile", "repro.core.inference.build_compiled_graph"),
        WrapTarget("graph.compile", "repro.core.fused.build_fused_bundle"),
        WrapTarget("graph.bp", "repro.graph.compiled.BatchedMaxProductBP.run_paper_schedule", _count_iterations),
        WrapTarget("graph.bp", "repro.graph.compiled.BatchedMaxProductBP.run_flooding", _count_iterations),
        WrapTarget("graph.bp", "repro.graph.fused.FusedMaxProductBP.run_paper_schedule", _count_iterations),
        WrapTarget("core.decode", "repro.core.annotator.annotate_collective"),
        WrapTarget("core.decode", "repro.core.fused._decode_bundle"),
        WrapTarget("pipeline", "repro.pipeline.pipeline.AnnotationPipeline.annotate_with_tables"),
        WrapTarget("pipeline", "repro.pipeline.pipeline.AnnotationPipeline.annotate"),
        WrapTarget("api.session", "repro.api.session.ReproSession.annotate"),
        WrapTarget("api.session", "repro.api.session.ReproSession.annotate_wire_stream"),
        WrapTarget("api.session", "repro.api.session.ReproSession.search"),
        WrapTarget("api.session", "repro.api.session.ReproSession.join_search"),
        WrapTarget("search.relation", "repro.search.annotated_search.AnnotatedSearcher.search", _count_answers),
        WrapTarget("search.join", "repro.search.join_search.JoinSearcher.search", _count_answers),
        WrapTarget("api.decode", "repro.api.types.AnnotateRequest.from_json"),
        WrapTarget("api.decode", "repro.api.types.SearchRequest.from_json"),
        WrapTarget("api.decode", "repro.api.types.JoinSearchRequest.from_json"),
        WrapTarget("api.encode", "repro.api.types.AnnotateResponse.to_json"),
        WrapTarget("api.encode", "repro.api.types.SearchResponse.to_json"),
        WrapTarget("api.encode", "repro.api.types.encode_json"),
        WrapTarget("setup.bundle_load", "repro.serve.bundle.load_bundle"),
        WrapTarget("setup.session_open", "repro.api.session.ReproSession.from_bundle"),
        WrapTarget("setup.session_open", "repro.api.session.ReproSession.from_world"),
    ]


#: per-operation self-time metrics: metric name → span name
SELF_MS = {
    "text.search_batch_ms": "text.search_batch",
    "core.candidates_ms": "core.candidates",
    "graph.compile_ms": "graph.compile",
    "graph.bp_ms": "graph.bp",
    "core.decode_ms": "core.decode",
    "pipeline.self_ms": "pipeline",
    "search.relation_ms": "search.relation",
    "search.join_ms": "search.join",
    "api.decode_ms": "api.decode",
    "api.encode_ms": "api.encode",
}

#: metrics recorded on the corpus recrawl pass as well as the crawl pass
RECRAWL = (
    "text.search_batch_ms",
    "core.candidates_ms",
    "graph.compile_ms",
    "graph.bp_ms",
    "core.decode_ms",
    "pipeline.self_ms",
    "pipeline.cell_cache_hit_ratio",
    "pipeline.block_cache_hit_ratio",
    "pipeline.compiled_cache_hit_ratio",
)


#: a span under a parent of the mapped name is charged to that parent's
#: layer: a join runs relation searches for its middle entities
FOLD = {"search.relation": "search.join"}


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    """Self seconds per span name, with :data:`FOLD` applied."""
    own = spans.self_times(tracer.spans)
    names = {span.span_id: span.name for span in tracer.spans}
    totals: dict[str, float] = {}
    for span in tracer.spans:
        name = span.name
        if FOLD.get(name) is not None and names.get(span.parent) == FOLD[name]:
            name = FOLD[name]
        totals[name] = totals.get(name, 0.0) + own[span.span_id]
    return totals


def layer_metrics(tracer: Tracer, operations: int) -> dict[str, float]:
    """Self milliseconds per operation (table or request) for every layer,
    plus the counts each layer's hooks recorded."""
    own = self_time_by_layer(tracer)
    metrics = {
        metric: 1000.0 * own.get(span, 0.0) / operations
        for metric, span in SELF_MS.items()
    }
    counts = tracer.counts
    metrics["text.cells"] = counts.get("text.cells", 0.0) / operations
    runs = counts.get("graph.bp_runs", 0.0)
    metrics["graph.bp_iterations"] = (
        counts.get("graph.bp_iterations", 0.0) / runs if runs else 0.0
    )
    total = counts.get("core.recall_total", 0.0)
    metrics["core.candidate_recall"] = (
        counts.get("core.recall_hits", 0.0) / total if total else 0.0
    )
    calls = counts.get("search.calls", 0.0)
    metrics["search.answers"] = counts.get("search.answers", 0.0) / calls if calls else 0.0
    return metrics


def setup_metrics(tracer: Tracer, setups: int) -> dict[str, float]:
    """Self milliseconds per set-up of the bundle load and session open."""
    own = self_time_by_layer(tracer)
    return {
        "setup.bundle_load_ms": 1000.0 * own.get("setup.bundle_load", 0.0) / setups,
        "setup.session_open_ms": 1000.0 * own.get("setup.session_open", 0.0) / setups,
    }


def share_table(tracer: Tracer) -> dict[str, float]:
    """Every span name's share of all recorded self time (for the run log)."""
    own = self_time_by_layer(tracer)
    total = sum(own.values()) or 1.0
    return {name: round(value / total, 4) for name, value in sorted(own.items())}


def cache_ratios(pipeline, before: dict) -> dict[str, float]:
    """Hit ratios of the pipeline's three caches since ``before``
    (counters from :func:`cache_counters`), 0 for a cache that is gone."""
    ratios = {}
    for name, (hits, misses) in cache_counters(pipeline).items():
        old_hits, old_misses = before[name]
        lookups = (hits - old_hits) + (misses - old_misses)
        ratios[name] = (hits - old_hits) / lookups if lookups else 0.0
    return ratios


def cache_counters(pipeline) -> dict[str, tuple[int, int]]:
    counters = {}
    for metric, attribute in (
        ("pipeline.cell_cache_hit_ratio", "cache"),
        ("pipeline.block_cache_hit_ratio", "block_cache"),
        ("pipeline.compiled_cache_hit_ratio", "compiled_cache"),
    ):
        cache = getattr(pipeline, attribute, None)
        stats = cache.stats() if cache is not None else None
        counters[metric] = (
            (stats.hits, stats.misses) if stats is not None else (0, 0)
        )
    return counters
