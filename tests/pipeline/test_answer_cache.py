"""The pipeline's answer cache: a table seen before is answered, not rerun.

Pinned here: a second pass over a corpus runs no BP and answers byte for
byte as the first; a hit answers under the caller's table id with its own
timing; a caller changing a returned annotation cannot change a later
answer; the key follows the model, every annotator setting and the table
content, never the id, context or source; a batch holding one table twice
computes it once.
"""

import dataclasses
import json
import sys
import threading

import pytest

from repro.core.annotation import FrozenAnnotation
from repro.core.annotator import AnnotatorConfig
from repro.core.features import TypeEntityFeatureMode
from repro.core.model import default_model
from repro.graph.fused import FusedMaxProductBP
from repro.pipeline import AnnotationPipeline, PipelineConfig
from repro.pipeline import pipeline as pipeline_module
from repro.pipeline.io import annotation_to_payload
from repro.pipeline.pipeline import answer_keys
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)
from repro.tables.model import Table


@pytest.fixture(scope="module")
def tables(tiny_world):
    generator = WebTableGenerator(
        tiny_world.full,
        TableGeneratorConfig(seed=43, n_tables=10, noise=NoiseProfile.WIKI),
    )
    return [labeled.table for labeled in generator.generate()]


def wire(annotation) -> str:
    """Everything an annotation answers with except its timing, as bytes."""
    diagnostics = {
        key: value
        for key, value in annotation.diagnostics.items()
        if key != "timing"
    }
    return json.dumps([annotation_to_payload(annotation), diagnostics])


def renamed(table: Table, table_id: str) -> Table:
    return Table(table_id, table.cells, table.headers, "other context", "other")


def test_second_pass_runs_no_bp_and_answers_identically(tiny_world, tables, monkeypatch):
    runs: list[int] = []
    run_paper_schedule = FusedMaxProductBP.run_paper_schedule

    def counted(self, *args, **kwargs):
        runs.append(1)
        return run_paper_schedule(self, *args, **kwargs)

    monkeypatch.setattr(FusedMaxProductBP, "run_paper_schedule", counted)
    pipeline = AnnotationPipeline(
        tiny_world.annotator_view, config=PipelineConfig(batch_size=4)
    )
    first = [wire(a) for a in pipeline.annotate_corpus(tables)]
    assert runs
    runs.clear()
    second = [wire(a) for a in pipeline.annotate_corpus(tables)]
    assert runs == []
    assert second == first
    report = pipeline.last_report
    assert report.fused_batches == 0
    assert (report.answer_cache.hits, report.answer_cache.misses) == (len(tables), 0)


def test_hit_answers_under_the_new_id_with_its_own_timing(tiny_world, tables):
    pipeline = AnnotationPipeline(tiny_world.annotator_view)
    first = pipeline.annotate(tables[0])
    hit = pipeline.annotate(renamed(tables[0], "another-id"))
    assert pipeline.answer_cache.stats().hits == 1
    assert hit.table_id == "another-id"
    assert wire(hit) == wire(first).replace(tables[0].table_id, "another-id")
    timing = hit.diagnostics["timing"]
    assert timing.table_id == "another-id"
    assert timing.candidate_seconds == timing.inference_seconds == 0.0
    assert timing.total_seconds > 0.0
    assert first.diagnostics["timing"].table_id == tables[0].table_id


def test_changing_a_returned_annotation_leaves_later_hits_alone(tiny_world, tables):
    pipeline = AnnotationPipeline(tiny_world.annotator_view)
    table = tables[1]
    first = pipeline.annotate(table)
    expected = wire(first)
    for returned in (first, pipeline.annotate(table)):
        returned.cells.clear()
        returned.columns.clear()
        returned.relations.clear()
        returned.diagnostics["iterations"] = -1
        returned.diagnostics.pop("converged")
    later = pipeline.annotate(table)
    assert pipeline.answer_cache.stats().hits == 2
    assert wire(later) == expected
    with pytest.raises(TypeError):
        FrozenAnnotation.of(later).cells[(0, 0)] = None


def test_key_follows_model_settings_and_content_only(tables):
    table = tables[2]
    model = default_model()
    config = AnnotatorConfig()

    def key(table=table, model=model, config=config):
        (only,) = answer_keys([table], model, config)
        return only

    base = key()
    assert key(table=renamed(table, "other-id")) == base
    assert key(model=default_model()) == base

    reweighted = default_model()
    reweighted.w1 = reweighted.w1 + 0.5
    assert key(model=reweighted) != base
    assert key(model=default_model(TypeEntityFeatureMode.IDF)) != base
    for field in dataclasses.fields(AnnotatorConfig):
        value = getattr(config, field.name)
        changed = (not value) if isinstance(value, bool) else value + 1
        other = dataclasses.replace(config, **{field.name: changed})
        assert key(config=other) != base, field.name

    headers = [f"header {column}" for column in range(table.n_columns)]
    assert table.headers != headers
    assert key(table=Table(table.table_id, table.cells, headers)) != base
    cells = [list(row) for row in table.cells]
    cells[0][0] += " changed"
    assert key(table=Table(table.table_id, cells, table.headers)) != base


def test_replacing_the_model_misses(tiny_world, tables):
    """The trainer replaces ``annotator.model``; the next lookup reads it."""
    pipeline = AnnotationPipeline(tiny_world.annotator_view)
    pipeline.annotate(tables[4])
    reweighted = default_model()
    reweighted.w1 = reweighted.w1 + 0.5
    pipeline.annotator.model = reweighted
    pipeline.annotate(tables[4])
    stats = pipeline.answer_cache.stats()
    assert (stats.hits, stats.misses) == (0, 2)


def test_batch_holding_a_table_twice_computes_it_once(tiny_world, tables, monkeypatch):
    computed: list[str] = []
    annotate_fused_chunk = pipeline_module.annotate_fused_chunk

    def recorded(annotator, chunk):
        computed.extend(table.table_id for table in chunk)
        return annotate_fused_chunk(annotator, chunk)

    monkeypatch.setattr(pipeline_module, "annotate_fused_chunk", recorded)
    pipeline = AnnotationPipeline(tiny_world.annotator_view)
    table = tables[3]
    twin = renamed(table, "twin")
    first, second = pipeline.annotate_corpus([table, twin])
    assert computed == [table.table_id]
    assert (first.table_id, second.table_id) == (table.table_id, "twin")
    assert wire(second) == wire(first).replace(table.table_id, "twin")


def test_disabled_cache_computes_every_table(tiny_world, tables):
    pipeline = AnnotationPipeline(
        tiny_world.annotator_view, config=PipelineConfig(answer_cache_size=0)
    )
    assert pipeline.answer_cache is None
    pipeline.annotate_corpus(tables[:2] * 2)
    report = pipeline.last_report
    assert report.answer_cache is None
    assert sum(report.bucket_sizes) == 4


def test_threads_sharing_the_cache_answer_as_serial(tiny_world, tables):
    """Four threads calling one shared pipeline (library threads sharing
    one ``ReproSession``) over a corpus that repeats every table: each
    answer is the serial one, and every lookup is counted once."""
    serial = AnnotationPipeline(
        tiny_world.annotator_view, config=PipelineConfig(answer_cache_size=0)
    )
    corpus = tables * 3
    expected = [wire(a) for a in serial.annotate_corpus(corpus)]
    shared = AnnotationPipeline(tiny_world.annotator_view)
    answers: list[str | None] = [None] * len(corpus)
    errors: list[Exception] = []

    def serve(offset: int) -> None:
        try:
            for position in range(offset, len(corpus), 4):
                answers[position] = wire(shared.annotate(corpus[position]))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=serve, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert answers == expected
    stats = shared.answer_cache.stats()
    assert stats.hits + stats.misses == len(corpus)
    assert stats.misses >= len(tables)
