"""Tests for the corpus annotation pipeline.

The load-bearing properties: batched == uncached (annotations are
byte-identical however the pipeline is configured), cache accounting is
correct, a table that cannot be annotated fails only itself, and streaming
JSONL round-trips.
"""

import logging

import pytest

from repro.core.fused import fused_runs
from repro.pipeline import (
    AnnotationPipeline,
    PipelineConfig,
    annotation_to_dict,
    iter_corpus_jsonl,
    read_annotations_jsonl,
)
from repro.search.table_index import AnnotatedTableIndex
from repro.tables.corpus import TableCorpus, save_corpus_jsonl
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)
from repro.tables.model import Table


@pytest.fixture(scope="module")
def corpus_tables(tiny_world):
    generator = WebTableGenerator(
        tiny_world.full,
        TableGeneratorConfig(seed=31, n_tables=8, noise=NoiseProfile.WIKI),
    )
    return generator.generate()


@pytest.fixture(scope="module")
def serial_annotations(tiny_world, corpus_tables):
    pipeline = AnnotationPipeline(
        tiny_world.annotator_view, config=PipelineConfig(batch_size=3)
    )
    dicts = [annotation_to_dict(a) for a in pipeline.annotate_corpus(corpus_tables)]
    return dicts, pipeline.last_report


class TestDeterminism:
    def test_cached_identical_to_uncached(
        self, tiny_world, corpus_tables, serial_annotations
    ):
        serial, _ = serial_annotations
        pipeline = AnnotationPipeline(
            tiny_world.annotator_view, config=PipelineConfig(cache_size=0)
        )
        uncached = [
            annotation_to_dict(a) for a in pipeline.annotate_corpus(corpus_tables)
        ]
        assert uncached == serial

    def test_order_matches_input(self, corpus_tables, serial_annotations):
        serial, _ = serial_annotations
        assert [a["table_id"] for a in serial] == [
            labeled.table.table_id for labeled in corpus_tables
        ]


class TestCacheAccounting:
    def test_first_run_misses_fill_cache(self, tiny_world, corpus_tables):
        pipeline = AnnotationPipeline(tiny_world.annotator_view)
        pipeline.annotate_corpus(corpus_tables)
        report = pipeline.last_report
        assert report.cache is not None
        assert report.cache.misses == len(pipeline.cache)
        assert report.cache.lookups == report.cache.hits + report.cache.misses

    def test_second_run_all_hits(self, tiny_world, corpus_tables):
        # without the answer cache, which would serve the second run
        # before any candidate lookup happens
        pipeline = AnnotationPipeline(
            tiny_world.annotator_view, config=PipelineConfig(answer_cache_size=0)
        )
        pipeline.annotate_corpus(corpus_tables)
        pipeline.annotate_corpus(corpus_tables)
        report = pipeline.last_report
        assert report.cache.misses == 0
        assert report.cache.hit_rate == 1.0
        assert report.block_cache.misses == 0

    def test_block_cache_holds_only_f1(self, tiny_world, corpus_tables):
        """f2 and f4 blocks almost never recur and f3 and f5 blocks are
        whole-column array passes, so all four are built directly; after a
        crawl the block cache holds f1 blocks only."""
        pipeline = AnnotationPipeline(tiny_world.annotator_view)
        pipeline.annotate_corpus(corpus_tables)
        families = {key[0] for key in pipeline.block_cache._entries}
        assert families == {"f1"}

    def test_cached_arrays_are_read_only(
        self, tiny_world, corpus_tables, serial_annotations
    ):
        """Every table that hits the candidate cache shares its ``Erc``
        arrays, and every table that hits the block cache its f1 blocks, so
        both are stored read-only: a write raises, and a later pass still
        annotates byte-identically."""
        serial, _ = serial_annotations
        pipeline = AnnotationPipeline(
            tiny_world.annotator_view, config=PipelineConfig(answer_cache_size=0)
        )
        pipeline.annotate_corpus(corpus_tables)
        shared = [
            array
            for _raw_text, found in pipeline.cache._entries.values()
            for array in (found.entities, found.scores)
        ] + list(pipeline.block_cache._entries.values())
        assert shared
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        again = [
            annotation_to_dict(a) for a in pipeline.annotate_corpus(corpus_tables)
        ]
        assert pipeline.last_report.cache.misses == 0
        assert pipeline.last_report.block_cache.misses == 0
        assert again == serial

    def test_disabled_cache_reports_none(self, tiny_world, corpus_tables):
        pipeline = AnnotationPipeline(
            tiny_world.annotator_view, config=PipelineConfig(cache_size=0)
        )
        pipeline.annotate_corpus(corpus_tables[:2])
        assert pipeline.cache is None
        assert pipeline.cache_stats() is None
        assert pipeline.last_report.cache is None


class TestCompiledGraphReuse:
    def test_scalar_engine_through_pipeline_matches(
        self, tiny_world, corpus_tables, serial_annotations
    ):
        """The pipeline's fused batches match the scalar oracle (per-cell
        candidates, per-edge BP) table by table."""
        from tests.oracles import OracleAnnotator

        serial, _ = serial_annotations
        oracle = OracleAnnotator(tiny_world.annotator_view)
        scalar = [
            annotation_to_dict(oracle.annotate(labeled.table))
            for labeled in corpus_tables
        ]
        assert scalar == serial


class TestAnswerReuse:
    def test_repeated_tables_hit_answer_cache(self, tiny_world, corpus_tables):
        """A corpus that repeats its tables answers the repeats from the
        answer cache, identical to computing them afresh."""
        fresh = AnnotationPipeline(
            tiny_world.annotator_view,
            config=PipelineConfig(answer_cache_size=0),
        )
        baseline = [
            annotation_to_dict(a)
            for a in fresh.annotate_corpus(corpus_tables * 2)
        ]
        assert fresh.last_report.answer_cache is None

        reusing = AnnotationPipeline(
            tiny_world.annotator_view,
            config=PipelineConfig(batch_size=len(corpus_tables)),
        )
        reused = [
            annotation_to_dict(a)
            for a in reusing.annotate_corpus(corpus_tables * 2)
        ]
        assert reused == baseline
        report = reusing.last_report
        stats = report.answer_cache
        # the second pass over the corpus is all hits, one per table, and
        # plans no bucket
        assert stats is not None
        assert stats.hits == stats.misses == len(corpus_tables)
        assert sum(report.bucket_sizes) == len(corpus_tables)


class TestTimingReport:
    def test_rollup_consistency(self, serial_annotations):
        _, report = serial_annotations
        assert report.finished
        assert report.n_tables == 8
        assert report.total_seconds == pytest.approx(
            report.candidate_seconds + report.inference_seconds
        )
        assert report.candidate_fraction + report.inference_fraction == pytest.approx(
            1.0
        )
        assert report.wall_seconds > 0
        assert len(report.per_table_seconds) == 8
        assert report.mean_seconds > 0
        assert report.p90_seconds >= report.median_seconds


#: a cell text the poisoned candidate engine below refuses to resolve
POISON_CELL = "poison cell"


class TestFailureIsolation:
    """A table whose candidate lookup raises, on the corpus and lone paths."""

    @pytest.fixture()
    def poisoned(self, tiny_world, corpus_tables, monkeypatch):
        """A pipeline whose candidate engine raises on :data:`POISON_CELL`,
        a table and its poisoned twin, and the list of errors the engine
        raised."""
        pipeline = AnnotationPipeline(tiny_world.annotator_view)
        engine = pipeline.annotator.candidate_engine
        resolve = engine.cell_candidates_batch
        raised: list[Exception] = []

        def lookup(texts, cache=None):
            if POISON_CELL in texts:
                raised.append(RuntimeError("candidate index corrupted"))
                raise raised[-1]
            return resolve(texts, cache)

        monkeypatch.setattr(engine, "cell_candidates_batch", lookup)
        table = corpus_tables[0].table
        cells = [list(row) for row in table.cells]
        cells[0][0] = POISON_CELL
        twin = Table("poisoned", cells, table.headers)
        # the twin shares one fused run with its batchmate
        assert list(fused_runs([table, twin], pipeline.config.batch_size)) == [
            [table, twin]
        ]
        return pipeline, table, twin, raised

    def test_corpus_pass_raises_the_poisoned_tables_own_error(
        self, poisoned, caplog
    ):
        pipeline, table, twin, raised = poisoned
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.pipeline"):
            with pytest.raises(RuntimeError) as excinfo:
                list(pipeline.annotate_with_tables([table, twin]))
        # the shared run failed, then the twin failed alone: its own error
        assert len(raised) == 2
        assert excinfo.value is raised[-1]
        assert pipeline.fallbacks == 1
        warnings = [
            record for record in caplog.records if record.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert "rerunning them one at a time" in warnings[0].getMessage()
        assert warnings[0].exc_info[1] is raised[0]

    def test_lone_annotate_raises_without_fallback(self, poisoned, caplog):
        pipeline, _table, twin, raised = poisoned
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.pipeline"):
            with pytest.raises(RuntimeError) as excinfo:
                pipeline.annotate(twin)
        assert raised == [excinfo.value]
        assert pipeline.fallbacks == 0
        assert not caplog.records


class TestStreamingJsonl:
    def test_round_trip(self, tiny_world, corpus_tables, serial_annotations, tmp_path):
        serial, _ = serial_annotations
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus_jsonl(TableCorpus(corpus_tables), corpus_path)
        # streaming read matches the in-memory corpus
        streamed = list(iter_corpus_jsonl(corpus_path))
        assert [t.table.table_id for t in streamed] == [
            t.table.table_id for t in corpus_tables
        ]
        out_path = tmp_path / "annotations.jsonl"
        pipeline = AnnotationPipeline(tiny_world.annotator_view)
        report = pipeline.annotate_jsonl(corpus_path, out_path)
        assert report.finished and report.n_tables == 8
        assert list(read_annotations_jsonl(out_path)) == serial


class TestIndexConstruction:
    def test_from_corpus_matches_manual_build(
        self, tiny_world, corpus_tables, serial_annotations
    ):
        _, _ = serial_annotations
        pipeline = AnnotationPipeline(tiny_world.annotator_view)
        index = AnnotatedTableIndex.from_corpus(
            tiny_world.annotator_view, corpus_tables, pipeline=pipeline
        )
        manual = AnnotatedTableIndex(catalog=tiny_world.annotator_view)
        for labeled in corpus_tables:
            manual.add_table(
                labeled.table, pipeline.annotator.annotate(labeled.table)
            )
        manual.freeze()
        assert index.stats() == manual.stats()
        assert set(index.tables) == set(manual.tables)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"cache_size": -1},
            {"answer_cache_size": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("name", ["batch_size", "cache_size", "answer_cache_size"])
    @pytest.mark.parametrize("value", [2.5, True, "4"])
    def test_rejects_non_int_counts(self, name, value):
        """Counts are ints, as in ``SessionConfig``: a float batch size
        would fail later in the batching ``range()``."""
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: value})

    def test_single_table_annotate_shares_answer_cache(self, tiny_world, corpus_tables):
        pipeline = AnnotationPipeline(tiny_world.annotator_view)
        first = pipeline.annotate(corpus_tables[0])
        again = pipeline.annotate(corpus_tables[0])
        assert annotation_to_dict(first) == annotation_to_dict(again)
        # the repeat is answered from the pipeline's answer cache, and so
        # is the same table in a corpus run
        assert pipeline.answer_cache.stats().hits == 1
        pipeline.annotate_corpus(corpus_tables[:1])
        assert pipeline.answer_cache.stats().hits == 2
