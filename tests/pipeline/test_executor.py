"""Tests for batched execution: chunking, and streaming one batch at a time."""

import pytest

from repro.pipeline import AnnotationPipeline, PipelineConfig, iter_batches
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)


class TestIterBatches:
    def test_chunks_evenly(self):
        assert list(iter_batches(range(6), 2)) == [[0, 1], [2, 3], [4, 5]]

    def test_ragged_tail(self):
        assert list(iter_batches(range(5), 2)) == [[0, 1], [2, 3], [4]]

    def test_empty(self):
        assert list(iter_batches([], 3)) == []

    def test_lazy(self):
        def forever():
            i = 0
            while True:
                yield i
                i += 1

        batches = iter_batches(forever(), 4)
        assert next(batches) == [0, 1, 2, 3]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(iter_batches([1], 0))


class TestExecuteBatches:
    """Executing a table stream through ``annotate_with_tables``."""

    def test_bounded_in_flight(self, tiny_world):
        # an endless table stream is read one batch ahead of the consumer,
        # never drained eagerly
        tables = [
            labeled.table
            for labeled in WebTableGenerator(
                tiny_world.full,
                TableGeneratorConfig(seed=37, n_tables=4, noise=NoiseProfile.WIKI),
            ).generate()
        ]
        consumed = []

        def counting():
            i = 0
            while True:
                consumed.append(i)
                yield tables[i % len(tables)]
                i += 1

        pipeline = AnnotationPipeline(
            tiny_world.annotator_view, config=PipelineConfig(batch_size=2)
        )
        stream = pipeline.annotate_with_tables(counting())
        for _ in range(3):
            next(stream)
        assert len(consumed) == 4
