"""Fused corpus execution must be invisible in the output.

The pipeline cuts every batch into fused runs and runs each as one
cross-table BP graph, but every table's annotation must be
byte-identical to the one it gets alone — and to the scalar oracle's, one
layer swapped at a time.  These tests compare the full
``annotation_to_dict`` payloads, the same serialisation the JSONL corpus
path writes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.fused import FUSED_RUN_CELLS, fused_runs
from repro.pipeline.io import annotation_to_dict
from repro.pipeline.pipeline import AnnotationPipeline, PipelineConfig
from repro.tables.model import Table
from tests.oracles import OracleAnnotator


def annotate_corpus(world, tables, with_relations=True, **kwargs):
    """All annotations for ``tables`` under one pipeline configuration."""
    config = PipelineConfig(
        annotator=AnnotatorConfig(with_relations=with_relations), **kwargs
    )
    pipeline = AnnotationPipeline(world.annotator_view, config=config)
    payloads = [
        annotation_to_dict(annotation)
        for _table, annotation in pipeline.annotate_with_tables(tables)
    ]
    return payloads, pipeline.last_report


@pytest.fixture(scope="module")
def corpus(wiki_tables):
    return [labeled.table for labeled in wiki_tables[:8]]


@pytest.fixture(scope="module")
def serial_payloads(world, corpus):
    """Every table annotated alone (a fused bucket of one each)."""
    annotator = TableAnnotator(world.annotator_view)
    return [annotation_to_dict(annotator.annotate(table)) for table in corpus]


class TestFusedEquality:
    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    @pytest.mark.parametrize("candidate_engine", ["batched", "scalar"])
    def test_identical_for_every_engine_combination(
        self, world, corpus, engine, candidate_engine
    ):
        """Fused buckets against the oracle with each layer either the
        production one ("batched") or the scalar reference."""
        oracle = OracleAnnotator(
            world.annotator_view, candidates=candidate_engine, bp=engine
        )
        expected = [annotation_to_dict(oracle.annotate(table)) for table in corpus]
        fused, report = annotate_corpus(world, corpus)
        assert fused == expected
        assert report.fused_batches == len(report.bucket_sizes) > 0
        assert sum(report.bucket_sizes) == len(corpus)
        assert max(report.bucket_sizes) > 1

    def test_identical_without_relations(self, world, corpus):
        oracle = OracleAnnotator(
            world.annotator_view, config=AnnotatorConfig(with_relations=False)
        )
        expected = [annotation_to_dict(oracle.annotate(table)) for table in corpus]
        fused, _ = annotate_corpus(world, corpus, with_relations=False)
        assert fused == expected

    def test_duplicate_tables_share_buckets(self, world, corpus, serial_payloads):
        doubled = list(corpus) + list(corpus)
        fused, report = annotate_corpus(world, doubled, batch_size=len(doubled))
        assert fused == serial_payloads + serial_payloads
        assert max(report.bucket_size_histogram) >= 2

    def test_output_order_is_corpus_order(self, world, corpus):
        reversed_corpus = list(reversed(corpus))
        pipeline = AnnotationPipeline(world.annotator_view)
        pairs = list(pipeline.annotate_with_tables(reversed_corpus))
        assert [table.table_id for table, _ in pairs] == [
            table.table_id for table in reversed_corpus
        ]
        assert all(
            annotation.table_id == table.table_id
            for table, annotation in pairs
        )


def _cells(tables: list[Table]) -> int:
    return sum(table.n_rows * table.n_columns for table in tables)


@settings(max_examples=200, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 8)), max_size=40
    ),
    limit=st.integers(1, 20),
)
def test_fused_runs_cut_arrival_order_under_both_bounds(shapes, limit):
    """Runs are the input in order, cut only where the next table would
    break the table limit or the cell budget; only a lone table may
    exceed the budget."""
    tables = [
        Table(f"t{index}", [["x"] * columns for _ in range(rows)])
        for index, (rows, columns) in enumerate(shapes)
    ]
    runs = list(fused_runs(tables, limit))
    assert [table for run in runs for table in run] == tables
    for run in runs:
        assert 1 <= len(run) <= limit
        assert len(run) == 1 or _cells(run) <= FUSED_RUN_CELLS
    for run, following in zip(runs, runs[1:]):
        assert len(run) == limit or _cells(run + following[:1]) > FUSED_RUN_CELLS


class TestPipelineLifecycle:
    def test_fusion_knob_validated(self):
        """The removed ``fusion`` knob is rejected, not silently ignored."""
        with pytest.raises(ValueError, match="fusion"):
            AnnotatorConfig.from_dict({"fusion": "bucket"})

    def test_executor_knob_validated(self):
        """The removed ``executor`` and ``workers`` knobs are rejected, not
        silently ignored: batches always run inline."""
        with pytest.raises(TypeError, match="executor"):
            PipelineConfig(executor="thread")  # type: ignore[call-arg]
        with pytest.raises(TypeError, match="workers"):
            PipelineConfig(workers=2)  # type: ignore[call-arg]
