"""Corpus-scale annotation: one entry point for every corpus loop.

The seed code annotated corpora by looping ``TableAnnotator.annotate(table)``
— no sharing between tables, no parallelism, whole corpus in memory.
:class:`AnnotationPipeline` replaces that loop everywhere (CLI, experiment
runners, search-index construction) with:

* a **shared candidate cache** (:mod:`repro.pipeline.cache`): repeated cell
  strings across the corpus probe the lemma index once,
* an **answer cache**: every table is looked up by content before any
  computation (:meth:`AnnotationPipeline.answer`), so a table seen before
  is answered without candidate generation, compilation or BP, and only
  the misses are computed,
* **fused batched execution**: tables are chunked into batches
  (:func:`iter_batches`), each batch's misses are cut in arrival order
  into fused runs under one cell budget
  (:func:`~repro.core.fused.fused_runs`) and every run is one fused BP
  super-graph; batches run one after another, with results streamed back
  in corpus order,
* **failure isolation**: a run that fails is rerun one table at a time,
  so only the failing table gets an error, and every such rerun is logged
  and counted (:meth:`AnnotationPipeline.answer`),
* **streaming I/O** (:mod:`repro.pipeline.io`): JSONL in, JSONL out, bounded
  memory, and
* **aggregate timing** rolling the per-table
  :class:`~repro.core.annotation.AnnotationTiming` records up into one
  :class:`CorpusTimingReport` with cache hit-rates — the Figure-7
  instrumentation at corpus scale.

Batched and lone-table execution produce identical annotations: each
table's annotation is a pure function of (table, catalog, model) whatever
run it shares, and the caches only memoise pure functions of the
content.  The caches are locked, so one pipeline may also be shared by
threads (a library caller sharing one :class:`~repro.api.ReproSession`);
parallel corpus runs belong in separate processes.
"""

from __future__ import annotations

import dataclasses
import logging
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, TypeVar

from repro.catalog.catalog import Catalog
from repro.core.annotation import AnnotationTiming, FrozenAnnotation, TableAnnotation
from repro.core.annotator import AnnotatorConfig, TableAnnotator, check_count
from repro.core.candidates import CandidateEngine
from repro.core.fused import annotate_fused_chunk, fused_runs
from repro.core.model import AnnotationModel
from repro.pipeline.cache import CacheStats, CandidateCache, LRUCache
from repro.pipeline.io import (
    annotation_to_dict,
    iter_corpus_jsonl,
    write_annotations_jsonl,
)
from repro.tables.model import LabeledTable, Table

logger = logging.getLogger(__name__)

ItemT = TypeVar("ItemT")


def iter_batches(items: Iterable[ItemT], batch_size: int) -> Iterator[list[ItemT]]:
    """Chunk ``items`` into lists of at most ``batch_size`` (lazily)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batch: list[ItemT] = []
    for item in items:
        batch.append(item)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


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

    ``batch_size`` tables are read in one batch (and bound the tables in
    flight), and at most that many share one fused run.  ``cache_size``
    sizes both the shared candidate cache and the f1 block cache;
    ``cache_size=0`` disables both (every cell probes the lemma index and
    every f1 block is assembled afresh, as the seed code did).
    """

    batch_size: int = 16
    cache_size: int = 100_000
    #: tables in the answer LRU (0 disables it: every table is computed)
    answer_cache_size: int = 2048
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)

    def __post_init__(self) -> None:
        check_count("batch_size", self.batch_size, 1)
        check_count("cache_size", self.cache_size, 0)
        check_count("answer_cache_size", self.answer_cache_size, 0)


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
    #: elapsed time from the first batch to the end of the stream (the
    #: consumer's own work between annotations included)
    wall_seconds: float = 0.0
    per_table_seconds: list[float] = field(default_factory=list)
    #: candidate-cache activity during this run (None when caching is disabled)
    cache: CacheStats | None = None
    #: feature-block-cache activity during this run (None when disabled)
    block_cache: CacheStats | None = None
    #: answer-cache activity during this run (None when disabled)
    answer_cache: CacheStats | None = None
    #: tables per fused run, in execution order
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
    def fused_batches(self) -> int:
        """Number of fused runs executed."""
        return len(self.bucket_sizes)

    @property
    def bucket_size_histogram(self) -> dict[int, int]:
        """``{tables per fused run: count}`` over this corpus run."""
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
        #: fused runs that failed and were rerun one table at a time
        #: (see :meth:`answer`); a lifetime counter
        self.fallbacks = 0
        self._fallback_lock = threading.Lock()
        self.last_report: CorpusTimingReport | None = None

    @property
    def catalog(self) -> Catalog:
        return self.annotator.catalog

    @property
    def model(self) -> AnnotationModel:
        return self.annotator.model

    def cache_stats(self) -> CacheStats | None:
        """Lifetime cache counters (None when caching is disabled)."""
        return self.cache.stats() if self.cache is not None else None

    # ------------------------------------------------------------------
    # annotation
    # ------------------------------------------------------------------
    def annotate(self, table: Table | LabeledTable) -> TableAnnotation:
        """Annotate a single table (shares the pipeline's caches); raises
        the table's own error when it cannot be annotated."""
        if isinstance(table, LabeledTable):
            table = table.table
        (outcome,) = self.answer([table])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def answer(
        self, tables: list[Table], bucket_sizes: list[int] | None = None
    ) -> list[TableAnnotation | Exception]:
        """Every table's annotation, or the exception that failed it.

        The one miss path.  Every table is looked up in the answer cache
        first; the distinct misses, once each in first-seen order, are cut
        into fused runs (:func:`~repro.core.fused.fused_runs`, at most
        ``batch_size`` tables each, whose sizes are appended to
        ``bucket_sizes`` in execution order) and each run is one fused BP
        super-graph.  A run of two or more that fails is rerun one table
        at a time, so only the failing table gets an error; each rerun is
        logged at WARNING and counted in :attr:`fallbacks`.

        A computed annotation answers its table and is cached frozen; a
        hit, or a repeat of a miss within ``tables``, gets a fresh copy
        under its own table id, timed as its share of the lookup.  Failures
        are not cached.  Without the cache every table is computed.
        """
        cache = self.answer_cache
        if cache is None or not tables:
            return self._compute(tables, bucket_sizes)
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
        computed: dict[tuple, TableAnnotation | Exception] = {}
        if misses:
            computed = dict(
                zip(misses, self._compute(list(misses.values()), bucket_sizes))
            )
        for key, result in computed.items():
            if isinstance(result, TableAnnotation):
                frozen[key] = FrozenAnnotation.of(result)
                cache.put(key, frozen[key])
        answers: list[TableAnnotation | Exception] = []
        for key, table in zip(keys, tables):
            if misses.pop(key, None) is None and key in frozen:
                answers.append(frozen[key].thaw(table, seconds))
            else:  # the table computed for this key, or a repeat of a failure
                answers.append(computed[key])
        return answers

    def _compute(
        self, tables: list[Table], bucket_sizes: list[int] | None
    ) -> list[TableAnnotation | Exception]:
        """``tables`` as fused runs, outcomes in order (see :meth:`answer`)."""
        outcomes: list[TableAnnotation | Exception] = []
        for run in fused_runs(tables, self.config.batch_size):
            if bucket_sizes is not None:
                bucket_sizes.append(len(run))
            outcomes.extend(self._run_bucket(run))
        return outcomes

    def _run_bucket(
        self, chunk: list[Table]
    ) -> Sequence[TableAnnotation | Exception]:
        """One fused run; a failed run of two or more reruns table by
        table, so only the failing table gets its error."""
        try:
            return annotate_fused_chunk(self.annotator, chunk)
        except Exception as error:  # noqa: BLE001 - isolate batchmates
            if len(chunk) == 1:
                return [error]
            logger.warning(
                "fused bucket of %d tables failed; rerunning them one at a time",
                len(chunk),
                exc_info=error,
            )
            with self._fallback_lock:
                self.fallbacks += 1
            return [outcome for table in chunk for outcome in self._run_bucket([table])]

    def annotate_with_tables(
        self, tables: Iterable[Table | LabeledTable]
    ) -> Iterator[tuple[Table, TableAnnotation]]:
        """Stream ``(table, annotation)`` pairs in corpus order.

        Tables are chunked into ``config.batch_size`` batches and each batch
        is answered by :meth:`answer` in turn.  Pairs come back in exactly
        the order the input iterable produced them, only one batch of
        tables is in flight at once, and each annotation is identical to a
        lone :meth:`annotate` call's.  A table that cannot be annotated
        raises its own error (the first failure of its batch, before any of
        that batch is yielded) after its batchmates were isolated from it.

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

        for batch in iter_batches(tables, self.config.batch_size):
            pairs = self._annotate_batch(batch, report.bucket_sizes)
            for _table, annotation in pairs:
                report.record(annotation.diagnostics["timing"])
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

    def _annotate_batch(
        self, batch: list[Table | LabeledTable], bucket_sizes: list[int]
    ) -> list[tuple[Table, TableAnnotation]]:
        """One batch's ``(table, annotation)`` pairs in batch order (its
        fused run sizes appended to ``bucket_sizes``); raises the batch's
        first failure."""
        tables = [
            item.table if isinstance(item, LabeledTable) else item
            for item in batch
        ]
        pairs: list[tuple[Table, TableAnnotation]] = []
        for table, outcome in zip(tables, self.answer(tables, bucket_sizes)):
            if isinstance(outcome, Exception):
                raise outcome
            pairs.append((table, outcome))
        return pairs

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
