"""Figure 7: time spent annotating a corpus snapshot.

The paper annotates 250k tables at ~0.7 s/table average with high variance,
and reports that ~80% of time goes to lemma-index probing + similarity
computation while inference is <1%.  We annotate a scaled snapshot and check
the same cost structure: candidate/feature work dominates, message passing is
a small fraction, and per-table time grows with row count.

Because lemma probing dominates, the annotation pipeline's shared candidate
cache is the highest-leverage optimisation in the system: a second section
annotates a repeated-cell corpus with the cache off and on, checks the
annotations are identical, and reports the speedup plus hit rate.

With the candidate stage amortised, the residual per-table cost is message
passing itself: a third section runs the inference stage of relation-heavy
tables through production (the fused engine on buckets of one) and through
the scalar per-edge oracle (``tests/oracles``), asserts identical
annotations and a >=3x inference-stage speedup.

Batched inference turned candidate generation back into ~90% of per-table
time, so the candidate stage got the same treatment: a dedicated section
builds the snapshot's candidate spaces through production (the array-backed
engine of :mod:`repro.core.candidates`) and through the scalar
per-cell oracle, asserts byte-identical annotations and a >=2x
candidate-stage speedup, and records the ``candidate_engine_speedup``
trajectory CI gates on.  A fourth section times corpus batching: BP and
decode over the same list compiled in batches of 128 tables (cut in
arrival order into the pipeline's fused runs, one BP run each) against one
table per fused run.
Set ``REPRO_BENCH_SMOKE=1`` to run the engine sections at CI scale.
"""

import os
import statistics
import time

from repro.core.annotator import TableAnnotator
from repro.core.fused import build_fused_bundle, fused_runs, run_fused_bundle
from repro.eval.experiments import timing_experiment
from repro.eval.reporting import format_table
from repro.pipeline import AnnotationPipeline, PipelineConfig, iter_batches
from repro.pipeline.io import annotation_to_dict
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)
from tests.oracles import OracleAnnotator

#: REPRO_BENCH_SMOKE=1 shrinks the engine-speedup corpus so CI can run this
#: bench on every push without paying the full measurement
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def test_fig7_annotation_time(
    bench_world, bench_datasets, trained_model, emit, emit_json, benchmark
):
    tables = (
        bench_datasets["web_manual"].tables + bench_datasets["wiki_link"].tables
    )
    report = timing_experiment(bench_world, tables, trained_model)

    rows = [
        ["tables annotated", report.n_tables],
        ["mean seconds/table", round(report.mean_seconds, 4)],
        ["median seconds/table", round(report.median_seconds, 4)],
        ["p90 seconds/table", round(report.p90_seconds, 4)],
        ["candidate+similarity share", f"{report.candidate_fraction:.1%}"],
        ["inference share", f"{report.inference_fraction:.1%}"],
        ["candidate cache hit rate", f"{report.cache_hit_rate:.1%}"],
        ["lemma probes saved", report.cache.hits],
        ["  raw-text hits", report.cache.raw_hits],
        ["  normalised-key-only hits", report.cache.normalized_hits],
    ]
    emit(
        "fig7_annotation_time",
        format_table(
            ["Quantity", "Value"],
            rows,
            title="Figure 7 — annotation time breakdown (scaled snapshot)",
        ),
    )
    emit_json(
        "fig7",
        "annotation_time",
        {
            "tables": report.n_tables,
            "wall_seconds": round(report.wall_seconds, 4),
            "per_table_seconds": {
                "mean": round(report.mean_seconds, 5),
                "median": round(report.median_seconds, 5),
                "p90": round(report.p90_seconds, 5),
            },
            "candidate_fraction": round(report.candidate_fraction, 4),
            "inference_fraction": round(report.inference_fraction, 4),
            "cache_hit_rate": round(report.cache_hit_rate, 4),
            "cache_hits": report.cache.hits,
            "cache_raw_hits": report.cache.raw_hits,
            "cache_normalized_hits": report.cache.normalized_hits,
        },
    )

    # the paper's cost structure
    assert report.candidate_fraction > 0.5
    assert report.inference_fraction < 0.5
    assert report.candidate_fraction > report.inference_fraction
    # the batched candidate engine (the default) keeps candidate work under
    # the ~90% share the scalar path exhibits (measured ~0.71 locally)
    assert report.candidate_fraction < 0.80
    # variance exists ("considerable variation depending on the number of rows")
    assert statistics.pstdev(report.per_table_seconds) > 0
    # real corpora repeat cell strings; the shared cache must be absorbing some
    assert report.cache.hits > 0

    # larger tables cost more on average (coarse correlation check)
    annotator_timings = sorted(
        zip(
            [labeled.table.n_rows for labeled in tables],
            report.per_table_seconds,
        )
    )
    third = len(annotator_timings) // 3
    small_mean = statistics.fmean(t for _r, t in annotator_timings[:third])
    large_mean = statistics.fmean(t for _r, t in annotator_timings[-third:])
    assert large_mean > small_mean

    # timed unit: annotate one mid-sized table end to end through the pipeline
    pipeline = AnnotationPipeline(bench_world.annotator_view, model=trained_model)
    table = bench_datasets["web_manual"].tables[0].table
    benchmark(lambda: pipeline.annotate(table))


def test_fig7_inference_engine_speedup(bench_world, trained_model, emit, emit_json):
    """Production vs scalar-oracle message passing on relation-heavy tables.

    PR 1's shared caches amortised the candidate stage, leaving the per-edge
    Python BP loop as the dominant per-table cost on relation-heavy tables
    (φ5 factors grow as O(rows·columns²)).  Production runs each table as a
    fused bucket of one; its *inference stage* (graph build + Figure-11
    message passing + decoding) must run at least 3x faster than the scalar
    oracle on the same candidate spaces while producing identical
    annotations.
    """
    generator = WebTableGenerator(
        bench_world.full,
        TableGeneratorConfig(
            seed=77,
            n_tables=6 if SMOKE else 24,
            rows_range=(28, 38),
            # force the second object column so every table carries several
            # column pairs — the φ4/φ5-heavy regime this engine targets
            extra_object_column_prob=1.0,
            noise=NoiseProfile.WIKI,
            id_prefix="fig7-relheavy",
        ),
    )
    tables = generator.generate()
    production = TableAnnotator(bench_world.annotator_view, model=trained_model)
    oracle = OracleAnnotator(
        bench_world.annotator_view,
        model=trained_model,
        candidates="batched",
        candidate_engine=production.candidate_engine,
    )
    start = time.perf_counter()
    problems = [production.build_problem(labeled.table) for labeled in tables]
    candidate_seconds = time.perf_counter() - start

    def run(annotate) -> tuple[list[dict], float]:
        start = time.perf_counter()
        annotations = [annotation_to_dict(annotate(problem)) for problem in problems]
        return annotations, time.perf_counter() - start

    run(production.annotate_problem)  # warm-up: NumPy/BLAS and allocator caches
    oracle_annotations, oracle_seconds = run(oracle.annotate_problem)
    production_annotations, production_seconds = run(production.annotate_problem)
    speedup = oracle_seconds / production_seconds

    def share(seconds: float) -> float:
        return seconds / (seconds + candidate_seconds)

    emit(
        "fig7_inference_engine_speedup",
        format_table(
            ["Quantity", "Scalar oracle", "Production"],
            [
                ["tables (relation-heavy)", len(tables), len(tables)],
                [
                    "inference-stage seconds",
                    round(oracle_seconds, 3),
                    round(production_seconds, 3),
                ],
                [
                    "inference share of total",
                    f"{share(oracle_seconds):.1%}",
                    f"{share(production_seconds):.1%}",
                ],
                ["inference-stage speedup", "1.00x", f"{speedup:.2f}x"],
            ],
            title="Scalar oracle vs fused BP engine (same annotations)",
        ),
    )
    emit_json(
        "fig7",
        "inference_engine_speedup",
        {
            "tables": len(tables),
            "oracle_inference_seconds": round(oracle_seconds, 4),
            "production_inference_seconds": round(production_seconds, 4),
            "speedup": round(speedup, 3),
            "oracle_inference_fraction": round(share(oracle_seconds), 4),
            "production_inference_fraction": round(share(production_seconds), 4),
            "identical_annotations": production_annotations == oracle_annotations,
        },
    )

    # production must agree with the oracle: identical labels everywhere
    assert production_annotations == oracle_annotations
    # the fused engine makes inference scale with NumPy throughput
    assert speedup >= 3.0


def test_fig7_candidate_engine_speedup(
    bench_world, bench_datasets, trained_model, emit, emit_json
):
    """Production vs scalar-oracle candidate generation on the Figure-7
    snapshot.

    With inference batched (PR 2), candidate generation is ~90% of per-table
    time.  The production candidate engine moves that stage onto build-time
    array layouts — batch retrieval in compact id space, interned ancestor /
    pair tables, the array similarity battery, dense f3 gathers — and must
    run the *candidate stage* (``build_problem``: retrieval + candidate
    spaces + feature assembly) at least 2x faster than the scalar per-cell
    oracle while producing byte-identical annotations.
    """
    tables = [
        labeled.table
        for labeled in (
            bench_datasets["web_manual"].tables + bench_datasets["wiki_link"].tables
        )
    ]
    if SMOKE:
        tables = tables[:24]

    def run(annotator) -> tuple[list[dict], float, float]:
        start = time.perf_counter()
        problems = [annotator.build_problem(table) for table in tables]
        candidate_seconds = time.perf_counter() - start
        start = time.perf_counter()
        annotations = [
            annotation_to_dict(annotator.annotate_problem(problem))
            for problem in problems
        ]
        return annotations, candidate_seconds, time.perf_counter() - start

    def production() -> TableAnnotator:
        return TableAnnotator(bench_world.annotator_view, model=trained_model)

    def oracle() -> OracleAnnotator:
        return OracleAnnotator(
            bench_world.annotator_view, model=trained_model, bp="batched"
        )

    run(production())  # warm-up: NumPy/BLAS and allocator caches
    oracle_annotations, oracle_candidates, oracle_inference = run(oracle())
    production_annotations, production_candidates, production_inference = run(
        production()
    )
    speedup = oracle_candidates / production_candidates
    end_to_end = (oracle_candidates + oracle_inference) / (
        production_candidates + production_inference
    )
    oracle_fraction = oracle_candidates / (oracle_candidates + oracle_inference)
    production_fraction = production_candidates / (
        production_candidates + production_inference
    )

    emit(
        "fig7_candidate_engine_speedup",
        format_table(
            ["Quantity", "Scalar oracle", "Production"],
            [
                ["tables (Figure-7 snapshot)", len(tables), len(tables)],
                [
                    "candidate-stage seconds",
                    round(oracle_candidates, 3),
                    round(production_candidates, 3),
                ],
                [
                    "candidate share of total",
                    f"{oracle_fraction:.1%}",
                    f"{production_fraction:.1%}",
                ],
                ["candidate-stage speedup", "1.00x", f"{speedup:.2f}x"],
                ["end-to-end speedup", "1.00x", f"{end_to_end:.2f}x"],
            ],
            title="Scalar oracle vs production candidate engine (same annotations)",
        ),
    )
    emit_json(
        "fig7",
        "candidate_engine_speedup",
        {
            "tables": len(tables),
            "oracle_candidate_seconds": round(oracle_candidates, 4),
            "production_candidate_seconds": round(production_candidates, 4),
            "speedup": round(speedup, 3),
            "end_to_end_speedup": round(end_to_end, 3),
            "oracle_candidate_fraction": round(oracle_fraction, 4),
            "production_candidate_fraction": round(production_fraction, 4),
            "identical_annotations": production_annotations == oracle_annotations,
        },
    )

    # production must agree with the oracle: identical labels
    assert production_annotations == oracle_annotations
    # the array-backed engine makes candidate work scale with NumPy throughput
    assert speedup >= 2.0
    # and shrinks the candidate share of the per-table budget
    assert production_fraction < oracle_fraction


#: fused_speedup floors (batch_size=128 over batch_size=1: BP + decode
#: over bundles compiled once per mode, best of five), set below the
#: minimum of the recorded runs on a 2-core VM — 320 tables: 2.04x-2.49x
#: (three runs); 60-table smoke: 2.07x-2.26x (median 2.09x, six runs)
FUSED_SPEEDUP_FLOOR = 1.6
FUSED_SPEEDUP_SMOKE_FLOOR = 1.5


def test_fig7_fused_speedup(bench_world, trained_model, emit, emit_json):
    """Corpus batching: one BP run per fused run of tables vs per table.

    The pipeline cuts every ``batch_size`` batch, in arrival order, into
    fused runs under one cell budget (``fused_runs``) and runs each as one
    cross-table BP graph.  ``batch_size=1`` is the baseline: every table
    its own fused run, paying the Python round trip per table.  Each mode
    annotates the corpus once through its pipeline (the cold pass,
    recorded alongside).  A second pass would be answered from the answer
    cache, so the warm steady state is measured below it: each mode's
    bundles are compiled once (runs of one, and the pipeline's
    ``fused_runs`` over batches of 128) and the headline times BP plus
    decode over them, as the best of five *interleaved* rounds per mode,
    which cancels machine-state drift between the two measurements without
    favouring either side.  Annotations must be byte-identical throughout.
    """
    generator = WebTableGenerator(
        bench_world.full,
        TableGeneratorConfig(
            seed=91,
            n_tables=60 if SMOKE else 320,
            rows_range=(3, 6),
            noise=NoiseProfile.WIKI,
            id_prefix="fig7-fused",
        ),
    )
    tables = [labeled.table for labeled in generator.generate()]

    def make_pipeline(batch_size):
        return AnnotationPipeline(
            bench_world.annotator_view,
            model=trained_model,
            config=PipelineConfig(batch_size=batch_size),
        )

    def timed_pass(pipeline):
        start = time.perf_counter()
        annotations = [
            annotation_to_dict(annotation)
            for _table, annotation in pipeline.annotate_with_tables(tables)
        ]
        return annotations, time.perf_counter() - start

    def compile_bundles(pipeline, chunks):
        annotator = pipeline.annotator
        return [
            (
                build_fused_bundle(
                    [annotator.build_problem(table) for table in chunk],
                    annotator.model,
                ),
                chunk,
            )
            for chunk in chunks
        ]

    def warm_pass(bundles):
        start = time.perf_counter()
        decoded = [
            run_fused_bundle(bundle, annotator_config, chunk)
            for bundle, chunk in bundles
        ]
        seconds = time.perf_counter() - start
        by_id = {
            annotation.table_id: annotation_to_dict(annotation)
            for annotations in decoded
            for annotation in annotations
        }
        return [by_id[table.table_id] for table in tables], seconds

    baseline = make_pipeline(1)
    fused = make_pipeline(128)
    baseline_annotations, baseline_cold = timed_pass(baseline)
    fused_annotations, fused_cold = timed_pass(fused)
    identical = fused_annotations == baseline_annotations
    annotator_config = fused.annotator.config
    baseline_bundles = compile_bundles(baseline, [[table] for table in tables])
    fused_bundles = compile_bundles(
        fused,
        [
            run
            for batch in iter_batches(tables, 128)
            for run in fused_runs(batch, fused.config.batch_size)
        ],
    )
    baseline_warm = fused_warm = float("inf")
    for _round in range(5):
        _, seconds = warm_pass(baseline_bundles)
        baseline_warm = min(baseline_warm, seconds)
        warm_annotations, seconds = warm_pass(fused_bundles)
        fused_warm = min(fused_warm, seconds)
        identical = identical and warm_annotations == baseline_annotations
    fused_report = fused.last_report
    speedup = baseline_warm / fused_warm
    cold_speedup = baseline_cold / fused_cold

    histogram = {
        str(size): count
        for size, count in fused_report.bucket_size_histogram.items()
    }
    emit(
        "fig7_fused_speedup",
        format_table(
            ["Quantity", "batch_size=1", "batch_size=128"],
            [
                ["tables", len(tables), len(tables)],
                [
                    "cold pass seconds",
                    round(baseline_cold, 3),
                    round(fused_cold, 3),
                ],
                [
                    "warm BP + decode seconds",
                    round(baseline_warm, 3),
                    round(fused_warm, 3),
                ],
                ["warm speedup", "1.00x", f"{speedup:.2f}x"],
                ["fused batches", len(tables), fused_report.fused_batches],
                ["tables-per-run histogram", "-", histogram],
            ],
            title="One table vs many tables per fused run (same annotations)",
        ),
    )
    emit_json(
        "fig7",
        "fused_speedup",
        {
            "tables": len(tables),
            "baseline_cold_seconds": round(baseline_cold, 4),
            "fused_cold_seconds": round(fused_cold, 4),
            "baseline_warm_seconds": round(baseline_warm, 4),
            "fused_warm_seconds": round(fused_warm, 4),
            "speedup": round(speedup, 3),
            "cold_speedup": round(cold_speedup, 3),
            "fused_batches": fused_report.fused_batches,
            "bucket_size_histogram": histogram,
            "cpu_count": os.cpu_count(),
            "identical_annotations": identical,
        },
    )

    # batching must be invisible in the output
    assert identical
    # and pay for itself at the warm steady state
    assert speedup >= (FUSED_SPEEDUP_SMOKE_FLOOR if SMOKE else FUSED_SPEEDUP_FLOOR)


def test_fig7_serving_bundle_speedup(
    bench_world, bench_datasets, trained_model, emit, emit_json, tmp_path
):
    """Warm bundle load vs cold corpus re-annotation (the serving split).

    The serving subsystem's premise: everything the query path needs can be
    serialized once (``repro bundle build``) and loaded array-backed, so a
    server process starts by *reading* state the one-shot CLI would have
    *recomputed*.  This section measures both paths over the same snapshot,
    checks the loaded index answers queries byte-identically, and pins the
    headline claim — load at least 5x faster than cold re-annotation.
    """
    from repro.api.types import SearchResponse
    from repro.pipeline.io import annotation_to_dict
    from repro.search.annotated_search import AnnotatedSearcher
    from repro.search.query import RelationQuery
    from repro.search.table_index import AnnotatedTableIndex
    from repro.serve.bundle import build_bundle, load_bundle
    from repro.serve.state import ServeState

    catalog = bench_world.annotator_view
    tables = bench_datasets["web_manual"].tables[: 10 if SMOKE else 32]

    # cold path: what every process start paid before bundles existed
    cold_pipeline = AnnotationPipeline(catalog, model=trained_model)
    cold_start = time.perf_counter()
    cold_index = AnnotatedTableIndex.from_corpus(
        catalog, tables, pipeline=cold_pipeline
    )
    cold_seconds = time.perf_counter() - cold_start

    # offline build (untimed here: it runs once, not per process start)
    bundle_path = tmp_path / "bundle"
    manifest = build_bundle(
        bundle_path,
        catalog,
        tables,
        pipeline=AnnotationPipeline(catalog, model=trained_model),
    )

    # warm path: verify hashes, read arrays, rebuild nothing
    load_start = time.perf_counter()
    loaded = load_bundle(bundle_path)
    load_seconds = time.perf_counter() - load_start
    speedup = cold_seconds / load_seconds

    # the loaded state must be indistinguishable from the cold build:
    # identical annotations and byte-identical search responses
    assert {
        table_id: annotation_to_dict(annotation)
        for table_id, annotation in loaded.table_index.annotations.items()
    } == {
        table_id: annotation_to_dict(annotation)
        for table_id, annotation in cold_index.annotations.items()
    }
    queries_checked = 0
    for relation in catalog.relations.all_relations():
        objects = sorted(
            catalog.relations.participating_objects(relation.relation_id)
        )[:2]
        for entity_id in objects:
            query = RelationQuery.from_catalog(
                catalog, relation.relation_id, entity_id
            )
            cold_response = AnnotatedSearcher(cold_index, catalog).search(query)
            warm_response = AnnotatedSearcher(
                loaded.table_index, catalog
            ).search(query)
            assert (
                SearchResponse.from_ranked(warm_response).to_json()
                == SearchResponse.from_ranked(cold_response).to_json()
            )
            queries_checked += 1
    assert queries_checked > 0

    # the warm server annotates single tables just like the one-shot path
    state = ServeState(loaded)
    served = state.annotate_payload({"table": tables[0].table.to_dict()})
    assert served["annotation"] == annotation_to_dict(
        cold_index.annotations[tables[0].table_id]
    )

    emit(
        "fig7_serving_bundle_speedup",
        format_table(
            ["Quantity", "Value"],
            [
                ["tables in snapshot", len(tables)],
                ["cold re-annotation seconds", round(cold_seconds, 3)],
                ["bundle load seconds", round(load_seconds, 3)],
                ["startup speedup", f"{speedup:.1f}x"],
                ["bundle files", len(manifest.files)],
                ["search queries checked identical", queries_checked],
            ],
            title="Serving: prebuilt bundle vs cold corpus re-annotation",
        ),
    )
    emit_json(
        "fig7",
        "serving_bundle",
        {
            "tables": len(tables),
            "cold_annotate_seconds": round(cold_seconds, 4),
            "bundle_load_seconds": round(load_seconds, 4),
            "startup_speedup": round(speedup, 2),
            "bundle_build_seconds": manifest.stats["annotate_seconds"],
            "bundle_files": len(manifest.files),
            "queries_checked_identical": queries_checked,
            "identical_annotations": True,
        },
    )

    # the headline serving claim: startup reads arrays instead of
    # re-annotating the corpus.  Measured headroom is ~70x; the smoke floor
    # is lower because CI runners make tiny-corpus wall-clock ratios noisy.
    assert speedup >= (2.0 if SMOKE else 5.0)


def test_fig7_candidate_cache_speedup(
    bench_world, bench_datasets, trained_model, emit, emit_json
):
    """Cached vs uncached pipeline on a repeated-cell corpus.

    A corpus where most cell strings recur (here: the same snapshot passed
    three times, mimicking the country/person/title repetition of real web
    corpora) must annotate measurably faster with the shared cache, while
    producing byte-identical annotations.
    """
    snapshot = bench_datasets["web_manual"].tables[:12]
    corpus = snapshot * 3  # >=2/3 of cells repeat earlier ones

    def run(cache_size: int) -> tuple[list[dict], float, object]:
        # the answer cache would answer the repeats before their cells
        # reach the candidate cache, so both arms run without it
        pipeline = AnnotationPipeline(
            bench_world.annotator_view,
            model=trained_model,
            config=PipelineConfig(cache_size=cache_size, answer_cache_size=0),
        )
        start = time.perf_counter()
        annotations = [
            annotation_to_dict(a) for a in pipeline.annotate_corpus(corpus)
        ]
        return annotations, time.perf_counter() - start, pipeline.last_report

    run(0)  # warm-up: NumPy/BLAS and allocator caches, excluded from timing
    uncached_annotations, uncached_seconds, uncached_report = run(0)
    cached_annotations, cached_seconds, cached_report = run(100_000)

    emit(
        "fig7_candidate_cache_speedup",
        format_table(
            ["Quantity", "Value"],
            [
                ["tables (3× repeated snapshot)", len(corpus)],
                ["uncached seconds", round(uncached_seconds, 3)],
                ["cached seconds", round(cached_seconds, 3)],
                ["speedup", f"{uncached_seconds / cached_seconds:.2f}x"],
                [
                    "candidate-stage speedup",
                    f"{uncached_report.candidate_seconds / cached_report.candidate_seconds:.2f}x",
                ],
                ["cache hit rate", f"{cached_report.cache.hit_rate:.1%}"],
                ["lemma probes saved", cached_report.cache.hits],
                [
                    "feature-block hit rate",
                    f"{cached_report.block_cache.hit_rate:.1%}",
                ],
            ],
            title="Candidate cache on a repeated-cell corpus",
        ),
    )
    emit_json(
        "fig7",
        "candidate_cache_speedup",
        {
            "tables": len(corpus),
            "uncached_seconds": round(uncached_seconds, 4),
            "cached_seconds": round(cached_seconds, 4),
            "speedup": round(uncached_seconds / cached_seconds, 3),
            "candidate_stage_speedup": round(
                uncached_report.candidate_seconds
                / cached_report.candidate_seconds,
                3,
            ),
            "cache_hit_rate": round(cached_report.cache.hit_rate, 4),
            "block_cache_hit_rate": round(
                cached_report.block_cache.hit_rate, 4
            ),
            "identical_annotations": cached_annotations == uncached_annotations,
        },
    )

    # identical output — caching must not change a single label
    assert cached_annotations == uncached_annotations
    # most lookups hit: the corpus repeats its cells
    assert cached_report.cache.hit_rate > 0.5
    assert uncached_report.cache is None
    # measurably faster end to end, with the win concentrated in the
    # candidate stage the cache targets
    assert cached_seconds < uncached_seconds
    assert (
        cached_report.candidate_seconds < 0.9 * uncached_report.candidate_seconds
    )
