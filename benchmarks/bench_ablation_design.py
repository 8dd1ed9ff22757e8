"""Ablations of design decisions beyond the paper's own figures.

* missing-link repair on/off — the Section-4.2.3 repair feature,
* Figure-11 paper schedule vs generic flooding BP,
* collective vs relation-free (Figure 2) inference.
"""

import numpy as np

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.eval.metrics import entity_accuracy, relation_f1, type_f1, annotation_type_sets
from repro.eval.reporting import format_table, percent
from repro.pipeline.io import annotation_to_dict
from tests.oracles import OracleAnnotator, ScalarFeatureComputer


class _NoRepairFeatureComputer(ScalarFeatureComputer):
    """The oracle's element-loop features with the missing-link repair
    disabled: f3 signals are zero whenever E is not (transitively) contained
    in T.  The oracle assembles f3 blocks through :meth:`f3`, so the
    override reaches every block (production gathers a dense grid)."""

    def f3(self, type_id, entity_id):
        vector = super().f3(type_id, entity_id)
        if vector[-1] == 0.0:  # not contained -> kill the repaired signals
            return np.zeros_like(vector)
        return vector


def _score(annotator, tables, annotations=None):
    """(entity accuracy, type F1, relation F1); ``annotations`` collects
    each table's annotation when given."""
    from repro.eval.metrics import MetricCounts

    entity, type_, relation = MetricCounts(), MetricCounts(), MetricCounts()
    for labeled in tables:
        annotation = annotator.annotate(labeled.table)
        if annotations is not None:
            annotations.append(annotation_to_dict(annotation))
        entity.merge(entity_accuracy(labeled.truth, annotation))
        type_.merge(type_f1(labeled.truth, annotation_type_sets(annotation)))
        relation.merge(relation_f1(labeled.truth, annotation))
    return entity.accuracy, type_.mean_f1, relation.mean_f1


def test_missing_link_repair_ablation(
    bench_world, bench_datasets, trained_model, emit, benchmark
):
    tables = bench_datasets["wiki_manual"].tables
    with_repair = TableAnnotator(bench_world.annotator_view, model=trained_model)
    # the oracle's row-by-row problem builder, fused BP
    without_repair = OracleAnnotator(
        bench_world.annotator_view,
        model=trained_model,
        bp="batched",
        candidate_engine=with_repair.candidate_engine,
    )
    without_repair.features = _NoRepairFeatureComputer(
        bench_world.annotator_view, trained_model.mode, without_repair.generator
    )
    annotations_with: list[dict] = []
    annotations_without: list[dict] = []
    scores_with = _score(with_repair, tables, annotations_with)
    scores_without = _score(without_repair, tables, annotations_without)
    emit(
        "ablation_repair",
        format_table(
            ["Variant", "Entity acc (%)", "Type F1 (%)", "Rel F1 (%)"],
            [
                ["with repair"] + [percent(v) for v in scores_with],
                ["without repair"] + [percent(v) for v in scores_without],
            ],
            title="Ablation — missing-link repair feature (paper §4.2.3)",
        ),
    )
    # the variants must really differ, or the comparison below is vacuous
    assert annotations_with != annotations_without
    # repair exists to recover type accuracy under catalog incompleteness
    assert scores_with[1] >= scores_without[1]

    benchmark(lambda: with_repair.annotate(tables[0].table))


def test_schedule_ablation(bench_world, bench_datasets, trained_model, emit, benchmark):
    """Paper Figure-11 schedule vs generic flooding BP: same quality here,
    the paper schedule converging at least as fast.  Flooding is not a
    production schedule; it runs through the scalar oracle on the same
    candidate spaces."""
    tables = bench_datasets["wiki_manual"].tables[:12]
    paper = TableAnnotator(bench_world.annotator_view, model=trained_model)
    flooding = OracleAnnotator(
        bench_world.annotator_view,
        model=trained_model,
        config=AnnotatorConfig(max_iterations=30),
        candidates="batched",
        schedule="flooding",
        candidate_engine=paper.candidate_engine,
    )
    rows = []
    paper_scores = _score(paper, tables)
    flooding_scores = _score(flooding, tables)
    rows.append(["paper (Fig 11)"] + [percent(v) for v in paper_scores])
    rows.append(["flooding"] + [percent(v) for v in flooding_scores])
    emit(
        "ablation_schedule",
        format_table(
            ["Schedule", "Entity acc (%)", "Type F1 (%)", "Rel F1 (%)"],
            rows,
            title="Ablation — message-passing schedule",
        ),
    )
    assert abs(paper_scores[0] - flooding_scores[0]) < 0.05

    table = tables[0].table
    benchmark(lambda: paper.annotate(table))


def test_relations_onoff_ablation(
    bench_world, bench_datasets, trained_model, emit, benchmark
):
    """Collective (full model) vs the polynomial special case without bcc'.

    This isolates what the φ4/φ5 coupling buys — the heart of the paper's
    'collective beats local' claim."""
    tables = bench_datasets["web_manual"].tables
    full = TableAnnotator(bench_world.annotator_view, model=trained_model)
    norel = TableAnnotator(
        bench_world.annotator_view,
        model=trained_model,
        config=AnnotatorConfig(with_relations=False),
    )
    full_scores = _score(full, tables)
    # relation F1 is undefined for the no-relation variant; compare e/t only
    entity_norel, type_norel, _ = _score(norel, tables)
    emit(
        "ablation_relations",
        format_table(
            ["Variant", "Entity acc (%)", "Type F1 (%)"],
            [
                ["full collective", percent(full_scores[0]), percent(full_scores[1])],
                ["no relation variables", percent(entity_norel), percent(type_norel)],
            ],
            title="Ablation — relation variables (phi4/phi5) on/off",
        ),
    )
    assert full_scores[0] >= entity_norel - 0.01
    assert full_scores[1] >= type_norel - 0.01

    benchmark(lambda: norel.annotate(tables[0].table))
