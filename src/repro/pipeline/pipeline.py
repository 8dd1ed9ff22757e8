"""Corpus-scale annotation: one entry point for every corpus loop.

The seed code annotated corpora by looping ``TableAnnotator.annotate(table)``
— no sharing between tables, no parallelism, whole corpus in memory.
:class:`AnnotationPipeline` replaces that loop everywhere (CLI, experiment
runners, search-index construction) with:

* a **shared candidate cache** (:mod:`repro.pipeline.cache`): repeated cell
  strings across the corpus probe the lemma index once,
* an **answer cache**: every table is looked up by content before any
  planning (:meth:`AnnotationPipeline.answer`), so a table seen before is
  answered without candidate generation, compilation or BP, and only the
  misses are planned into buckets,
* **fused batched execution** (:mod:`repro.pipeline.executor`): tables are
  chunked into batches, each batch is planned into shape buckets
  (:mod:`repro.pipeline.planner`) and every bucket runs as one fused BP
  super-graph; batches optionally run on a thread pool, with results
  streamed back in deterministic corpus order,
* **streaming I/O** (:mod:`repro.pipeline.io`): JSONL in, JSONL out, bounded
  memory, and
* **aggregate timing** extending the per-table
  :class:`~repro.core.annotator.AnnotationTiming` records with per-batch and
  corpus-level rollups plus cache hit-rates — the Figure-7 instrumentation
  at corpus scale.

Parallel, serial, batched and lone-table execution produce identical
annotations: each table's annotation is a pure function of (table, catalog,
model) whatever bucket it runs in, and the caches only memoise pure
functions of the content.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.catalog.catalog import Catalog
from repro.core.annotation import AnnotationTiming, FrozenAnnotation, TableAnnotation
from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.candidates import CandidateEngine
from repro.core.fused import annotate_fused_chunk
from repro.core.model import AnnotationModel
from repro.pipeline.cache import CacheStats, CandidateCache, LRUCache
from repro.pipeline.executor import BatchExecutor, iter_batches
from repro.pipeline.io import (
    annotation_to_dict,
    iter_corpus_jsonl,
    write_annotations_jsonl,
)
from repro.pipeline.planner import plan_buckets
from repro.tables.model import LabeledTable, Table

#: what a caller's compute step may return for a table it could not
#: annotate (the session's per-request errors)
Failure = TypeVar("Failure", bound=Exception)


def answer_keys(
    tables: list[Table], model: AnnotationModel, config: AnnotatorConfig
) -> list[tuple]:
    """The answer-cache key of each table.

    A table's annotation is a pure function of its headers and cells, the
    model's weights and feature mode, and every :class:`AnnotatorConfig`
    field (the candidate knobs and the inference settings), within one
    pipeline's frozen catalog and candidate engine.  The table id, context
    and source are left out, so the same content under a new id hits.
    """
    settings = (
        model.as_flat().tobytes(),
        model.mode.value,
        dataclasses.astuple(config),
    )
    return [
        (
            settings,
            None if table.headers is None else tuple(table.headers),
            tuple(map(tuple, table.cells)),
        )
        for table in tables
    ]


@dataclass
class PipelineConfig:
    """Configuration of corpus-scale annotation.

    ``batch_size`` tables are planned and fused together (and bound the
    tables in flight per worker); ``workers=1`` runs batches inline,
    ``workers>1`` on a shared-memory thread pool.  ``cache_size=0`` disables
    the shared candidate cache (every cell probes the lemma index, as the
    seed code did).
    """

    batch_size: int = 16
    workers: int = 1
    cache_size: int = 100_000
    #: tables in the answer LRU (0 disables it: every table is computed)
    answer_cache_size: int = 2048
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.answer_cache_size < 0:
            raise ValueError("answer_cache_size must be >= 0")


@dataclass
class BatchTiming:
    """Rollup of one batch of annotations."""

    batch_index: int
    n_tables: int
    #: wall-clock of the batch as one unit of work (overlaps other batches
    #: when running threaded)
    wall_seconds: float
    total_seconds: float
    candidate_seconds: float
    inference_seconds: float


@dataclass
class CorpusTimingReport:
    """Figure-7 timing at corpus scale, plus cache accounting.

    Aggregates the per-table :class:`AnnotationTiming` records of one corpus
    run.  The report is complete once the annotation stream has been fully
    consumed (``finished`` is then True).
    """

    n_tables: int = 0
    total_seconds: float = 0.0
    candidate_seconds: float = 0.0
    inference_seconds: float = 0.0
    #: end-to-end elapsed time of the run (≤ total_seconds when threaded)
    wall_seconds: float = 0.0
    batches: list[BatchTiming] = field(default_factory=list)
    per_table_seconds: list[float] = field(default_factory=list)
    #: candidate-cache activity during this run (None when caching is disabled)
    cache: CacheStats | None = None
    #: feature-block-cache activity during this run (None when disabled)
    block_cache: CacheStats | None = None
    #: answer-cache activity during this run (None when disabled)
    answer_cache: CacheStats | None = None
    #: number of fused work units (shape buckets) executed
    fused_batches: int = 0
    #: tables per fused work unit, in execution order
    bucket_sizes: list[int] = field(default_factory=list)
    finished: bool = False

    def record(self, timing: AnnotationTiming) -> None:
        self.n_tables += 1
        self.total_seconds += timing.total_seconds
        self.candidate_seconds += timing.candidate_seconds
        self.inference_seconds += timing.inference_seconds
        self.per_table_seconds.append(timing.total_seconds)

    # -- Figure-7 fractions -------------------------------------------------
    @property
    def candidate_fraction(self) -> float:
        return self.candidate_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def inference_fraction(self) -> float:
        return self.inference_seconds / self.total_seconds if self.total_seconds else 0.0

    # -- per-table distribution --------------------------------------------
    @property
    def mean_seconds(self) -> float:
        return statistics.fmean(self.per_table_seconds) if self.per_table_seconds else 0.0

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.per_table_seconds) if self.per_table_seconds else 0.0

    @property
    def p90_seconds(self) -> float:
        if not self.per_table_seconds:
            return 0.0
        ordered = sorted(self.per_table_seconds)
        return ordered[int(0.9 * (len(ordered) - 1))]

    # -- cache --------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate if self.cache else 0.0

    # -- fusion -------------------------------------------------------------
    @property
    def bucket_size_histogram(self) -> dict[int, int]:
        """``{bucket size: count}`` over the fused work units of this run."""
        histogram: dict[int, int] = {}
        for size in self.bucket_sizes:
            histogram[size] = histogram.get(size, 0) + 1
        return dict(sorted(histogram.items()))


class AnnotationPipeline:
    """Annotates whole corpora against one catalog.

    One pipeline owns one :class:`TableAnnotator` (hence one candidate
    engine and one feature cache), one shared :class:`CandidateCache` and
    one answer cache; it should be built once per catalog and reused across
    corpora, exactly like the annotator it wraps.  A prebuilt
    ``candidate_engine`` (a session's, loaded from a bundle) is shared
    rather than rebuilt.
    """

    def __init__(
        self,
        catalog: Catalog,
        model: AnnotationModel | None = None,
        config: PipelineConfig | None = None,
        candidate_engine: CandidateEngine | None = None,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.annotator = TableAnnotator(
            catalog,
            model=model,
            config=self.config.annotator,
            candidate_engine=candidate_engine,
        )
        self.cache: CandidateCache | None = None
        self.block_cache: LRUCache | None = None
        if self.config.cache_size:
            # every problem built through this annotator goes through the
            # caches, including baseline/learner paths that reuse it
            self.cache = CandidateCache(max_entries=self.config.cache_size)
            self.annotator.candidate_cache = self.cache
            self.block_cache = LRUCache(max_entries=self.config.cache_size)
            self.annotator.features.block_cache = self.block_cache
        self.answer_cache: LRUCache | None = None
        if self.config.answer_cache_size:
            self.answer_cache = LRUCache(max_entries=self.config.answer_cache_size)
        #: fused buckets that failed and were rerun one table at a time
        #: (see :meth:`record_fallback`); a lifetime counter
        self.fallbacks = 0
        self._fallback_lock = threading.Lock()
        #: one persistent executor for the pipeline's lifetime — repeated
        #: corpus runs reuse the same pool instead of paying construction
        #: and teardown per call (see :class:`BatchExecutor`)
        self.executor = BatchExecutor(self.config.workers)
        self.last_report: CorpusTimingReport | None = None

    def close(self) -> None:
        """Release the pipeline's executor pool (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "AnnotationPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def catalog(self) -> Catalog:
        return self.annotator.catalog

    @property
    def model(self) -> AnnotationModel:
        return self.annotator.model

    def cache_stats(self) -> CacheStats | None:
        """Lifetime cache counters (None when caching is disabled)."""
        return self.cache.stats() if self.cache is not None else None

    def record_fallback(self) -> None:
        """Count one fused bucket rerun table by table after a failure."""
        with self._fallback_lock:
            self.fallbacks += 1

    # ------------------------------------------------------------------
    # annotation
    # ------------------------------------------------------------------
    def annotate(self, table: Table | LabeledTable) -> TableAnnotation:
        """Annotate a single table (shares the pipeline's caches)."""
        if isinstance(table, LabeledTable):
            table = table.table
        (annotation,) = self.answer(
            [table], lambda misses: [self.annotator.annotate(misses[0])]
        )
        return annotation

    def answer(
        self,
        tables: list[Table],
        compute: Callable[[list[Table]], Sequence[TableAnnotation | Failure]],
    ) -> list[TableAnnotation | Failure]:
        """Every table's annotation, looked up in the answer cache first.

        ``compute`` gets the distinct misses, once each in first-seen order,
        and returns an annotation or a failure per miss.  A computed
        annotation answers its table and is cached frozen; a hit, or a
        repeat of a miss within ``tables``, gets a fresh copy under its own
        table id, timed as its share of the lookup.  Failures are not
        cached.  Without the cache every table goes to ``compute``.
        """
        cache = self.answer_cache
        if cache is None or not tables:
            return list(compute(tables))
        start = time.perf_counter()
        keys = answer_keys(tables, self.annotator.model, self.annotator.config)
        frozen: dict[tuple, FrozenAnnotation] = {}
        misses: dict[tuple, Table] = {}
        for key, table in zip(keys, tables):
            if key not in frozen and key not in misses:
                hit = cache.get(key)
                if hit is None:
                    misses[key] = table
                else:
                    frozen[key] = hit
        seconds = (time.perf_counter() - start) / len(tables)
        computed: dict[tuple, TableAnnotation | Failure] = {}
        if misses:
            computed = dict(zip(misses, compute(list(misses.values()))))
        for key, result in computed.items():
            if isinstance(result, TableAnnotation):
                frozen[key] = FrozenAnnotation.of(result)
                cache.put(key, frozen[key])
        answers: list[TableAnnotation | Failure] = []
        for key, table in zip(keys, tables):
            if misses.pop(key, None) is None and key in frozen:
                answers.append(frozen[key].thaw(table, seconds))
            else:  # the table computed for this key, or a repeat of a failure
                answers.append(computed[key])
        return answers

    def annotate_with_tables(
        self, tables: Iterable[Table | LabeledTable]
    ) -> Iterator[tuple[Table, TableAnnotation]]:
        """Stream ``(table, annotation)`` pairs in corpus order.

        Tables are chunked into ``config.batch_size`` batches and executed on
        the pipeline's executor; each batch is looked up in the answer cache
        and its misses are planned into shape buckets, every bucket running
        as one fused BP super-graph (:meth:`answer`).  Pairs come back in
        exactly the order the input iterable produced them, only
        ``O(workers × batch_size)`` tables are in flight at once, and each
        annotation is identical to a lone :meth:`annotate` call's.

        Consuming the stream to the end finalises :attr:`last_report`.
        """
        report = CorpusTimingReport()
        self.last_report = report
        stats_before = self.cache_stats()
        blocks_before = (
            self.block_cache.stats() if self.block_cache is not None else None
        )
        answers_before = (
            self.answer_cache.stats() if self.answer_cache is not None else None
        )
        start = time.perf_counter()

        batches = iter_batches(tables, self.config.batch_size)
        for batch_index, (pairs, bucket_sizes, batch_wall) in enumerate(
            self.executor.map_ordered(batches, self._annotate_batch)
        ):
            report.fused_batches += len(bucket_sizes)
            report.bucket_sizes.extend(bucket_sizes)
            self._record_batch(report, batch_index, pairs, batch_wall)
            yield from pairs

        report.wall_seconds = time.perf_counter() - start
        stats_after = self.cache_stats()
        if stats_before is not None and stats_after is not None:
            report.cache = stats_after.since(stats_before)
        if blocks_before is not None and self.block_cache is not None:
            report.block_cache = self.block_cache.stats().since(blocks_before)
        if answers_before is not None and self.answer_cache is not None:
            report.answer_cache = self.answer_cache.stats().since(answers_before)
        report.finished = True

    # ------------------------------------------------------------------
    # batch worker
    # ------------------------------------------------------------------
    def _annotate_batch(
        self, batch: list[Table | LabeledTable]
    ) -> tuple[list[tuple[Table, TableAnnotation]], list[int], float]:
        """Answer one batch from the answer cache, plan its misses into
        shape buckets and run each bucket fused.

        Returns the batch's ``(table, annotation)`` pairs in batch order,
        the bucket sizes in execution order, and the batch wall time.
        """
        batch_start = time.perf_counter()
        tables = [
            item.table if isinstance(item, LabeledTable) else item
            for item in batch
        ]
        bucket_sizes: list[int] = []

        def compute(misses: list[Table]) -> list[TableAnnotation]:
            annotations: dict[int, TableAnnotation] = {}
            for bucket in plan_buckets(misses):
                chunk = [table for _position, table in bucket.entries]
                results = annotate_fused_chunk(self.annotator, chunk)
                for (position, _table), annotation in zip(bucket.entries, results):
                    annotations[position] = annotation
                bucket_sizes.append(bucket.size)
            return [annotations[position] for position in range(len(misses))]

        pairs = list(zip(tables, self.answer(tables, compute)))
        return pairs, bucket_sizes, time.perf_counter() - batch_start

    def _record_batch(
        self,
        report: CorpusTimingReport,
        batch_index: int,
        pairs: list,
        batch_wall: float,
    ) -> None:
        timings = [pair[-1].diagnostics["timing"] for pair in pairs]
        for timing in timings:
            report.record(timing)
        report.batches.append(
            BatchTiming(
                batch_index=batch_index,
                n_tables=len(pairs),
                wall_seconds=batch_wall,
                total_seconds=sum(t.total_seconds for t in timings),
                candidate_seconds=sum(t.candidate_seconds for t in timings),
                inference_seconds=sum(t.inference_seconds for t in timings),
            )
        )

    def annotate_stream(
        self, tables: Iterable[Table | LabeledTable]
    ) -> Iterator[TableAnnotation]:
        """Stream annotations in corpus order (see :meth:`annotate_with_tables`)."""
        for _table, annotation in self.annotate_with_tables(tables):
            yield annotation

    def annotate_corpus(
        self, tables: Iterable[Table | LabeledTable]
    ) -> list[TableAnnotation]:
        """Annotate a corpus and return its annotations in corpus order."""
        return list(self.annotate_stream(tables))

    # ------------------------------------------------------------------
    # streaming corpus I/O
    # ------------------------------------------------------------------
    def annotate_jsonl(
        self,
        corpus_path: str | Path,
        output: str | Path | IO[str],
    ) -> CorpusTimingReport:
        """Annotate a JSONL corpus file into a JSONL annotations stream.

        Tables are read, annotated and written one batch at a time — the
        corpus is never materialised.  ``output`` may be a path or an open
        text handle (e.g. ``sys.stdout``).
        """
        annotations = (
            annotation_to_dict(annotation)
            for annotation in self.annotate_stream(iter_corpus_jsonl(corpus_path))
        )
        if hasattr(output, "write"):
            write_annotations_jsonl(annotations, output)
        else:
            with Path(output).open("w", encoding="utf-8") as handle:
                write_annotations_jsonl(annotations, handle)
        assert self.last_report is not None
        return self.last_report
