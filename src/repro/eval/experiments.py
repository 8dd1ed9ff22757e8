"""Experiment runners — one per table/figure of the paper's evaluation.

Every runner is deterministic given its seeds and returns plain data
structures; the benchmark harness under ``benchmarks/`` times them and prints
paper-style tables, one ``bench_fig<N>_*.py`` per figure.
"""

from __future__ import annotations

from dataclasses import replace

from repro.catalog.catalog import Catalog
from repro.catalog.synthetic import SyntheticWorld
from repro.core.annotator import AnnotatorConfig
from repro.core.features import TypeEntityFeatureMode
from repro.core.learning import StructuredTrainer, TrainingConfig
from repro.core.model import AnnotationModel, default_model
from repro.pipeline.pipeline import (
    AnnotationPipeline,
    CorpusTimingReport,
    PipelineConfig,
)
from repro.eval.datasets import EvalDataset
from repro.eval.metrics import (
    AnnotationScores,
    annotation_type_sets,
    entity_accuracy,
    mean_average_precision,
    relation_f1,
    type_f1,
)
from repro.eval.workload import SearchWorkload, relevance_keys
from repro.search.annotated_search import AnnotatedSearcher
from repro.search.baseline_search import BaselineSearcher
from repro.search.table_index import AnnotatedTableIndex
from repro.tables.model import LabeledTable

ALGORITHMS = ("lca", "majority", "collective")


def _make_pipeline(
    catalog: Catalog,
    model: AnnotationModel | None = None,
    annotator_config: AnnotatorConfig | None = None,
    pipeline_config: PipelineConfig | None = None,
) -> AnnotationPipeline:
    """One pipeline per experiment: shared lemma index + candidate cache.

    ``annotator_config``, when given, overrides the annotator settings inside
    ``pipeline_config`` (kept for backward compatibility with the pre-pipeline
    runner signatures).
    """
    config = pipeline_config if pipeline_config is not None else PipelineConfig()
    if annotator_config is not None:
        config = replace(config, annotator=annotator_config)
    return AnnotationPipeline(catalog, model=model, config=config)


# ----------------------------------------------------------------------
# training (Section 6.1.3)
# ----------------------------------------------------------------------
def train_model(
    world: SyntheticWorld,
    train_tables: list[LabeledTable],
    mode: TypeEntityFeatureMode = TypeEntityFeatureMode.INV_SQRT_DIST,
    training: TrainingConfig | None = None,
    annotator_config: AnnotatorConfig | None = None,
) -> AnnotationModel:
    """Train w1..w5 on the given tables (the paper trains on Wiki Manual)."""
    pipeline = _make_pipeline(
        world.annotator_view,
        model=default_model(mode),
        annotator_config=annotator_config,
    )
    trainer = StructuredTrainer(
        pipeline.annotator, training if training is not None else TrainingConfig()
    )
    return trainer.train(train_tables)


# ----------------------------------------------------------------------
# Figure 6: annotation accuracy, three algorithms x datasets
# ----------------------------------------------------------------------
def evaluate_annotation(
    world: SyntheticWorld,
    dataset: EvalDataset,
    model: AnnotationModel,
    algorithms: tuple[str, ...] = ALGORITHMS,
    majority_threshold: float = 50.0,
    annotator_config: AnnotatorConfig | None = None,
    pipeline_config: PipelineConfig | None = None,
) -> dict[str, AnnotationScores]:
    """Score each algorithm on one dataset (shared problems and caches)."""
    annotator = _make_pipeline(
        world.annotator_view,
        model=model,
        annotator_config=annotator_config,
        pipeline_config=pipeline_config,
    ).annotator
    scores = {name: AnnotationScores() for name in algorithms}
    for labeled in dataset.tables:
        problem = annotator.build_problem(labeled.table)
        truth = labeled.truth
        for name in algorithms:
            if name == "collective":
                annotation = annotator.annotate_problem(problem)
                type_sets = annotation_type_sets(annotation)
            elif name == "lca":
                result = annotator.lca_baseline().annotate(problem)
                annotation = result.annotation
                type_sets = result.column_type_sets
            elif name == "majority":
                result = annotator.majority_baseline(majority_threshold).annotate(
                    problem
                )
                annotation = result.annotation
                type_sets = result.column_type_sets
            else:
                raise ValueError(f"unknown algorithm: {name!r}")
            scores[name].entity.merge(entity_accuracy(truth, annotation))
            if truth.column_types:
                scores[name].type_.merge(type_f1(truth, type_sets))
            if truth.relations and name == "collective":
                scores[name].relation.merge(relation_f1(truth, annotation))
            elif truth.relations:
                # Baselines carry no relation model; the paper evaluates
                # their relation row via majority voting over row-level
                # tuple matches, which we reproduce here.
                scores[name].relation.merge(
                    relation_f1(truth, _baseline_relations(world, annotation, labeled))
                )
    return scores


def _baseline_relations(world, annotation, labeled):
    """Relation-by-voting for baselines: the label whose catalog tuples match
    the most rows wins, if it beats half the rows with both cells labelled."""
    from repro.core.annotation import RelationAnnotation, TableAnnotation
    from repro.tables.generator import reversed_label

    catalog = world.annotator_view
    result = TableAnnotation(table_id=annotation.table_id)
    result.cells = annotation.cells
    result.columns = annotation.columns
    table = labeled.table
    for (left, right) in labeled.truth.relations:
        votes: dict[str, int] = {}
        rows_with_pair = 0
        for row in range(table.n_rows):
            left_entity = annotation.entity_of(row, left)
            right_entity = annotation.entity_of(row, right)
            if left_entity is None or right_entity is None:
                continue
            rows_with_pair += 1
            for relation_id in catalog.relations.relations_between(
                left_entity, right_entity
            ):
                votes[relation_id] = votes.get(relation_id, 0) + 1
            for relation_id in catalog.relations.relations_between(
                right_entity, left_entity
            ):
                label = reversed_label(relation_id)
                votes[label] = votes.get(label, 0) + 1
        chosen = None
        if votes and rows_with_pair:
            best_label, best_votes = max(
                votes.items(), key=lambda item: (item[1], item[0])
            )
            if best_votes > rows_with_pair / 2:
                chosen = best_label
        result.relations[(left, right)] = RelationAnnotation(
            left_column=left, right_column=right, label=chosen
        )
    return result


# ----------------------------------------------------------------------
# Figure 6 drill-down: Majority threshold sweep
# ----------------------------------------------------------------------
def threshold_sweep(
    world: SyntheticWorld,
    dataset: EvalDataset,
    model: AnnotationModel,
    thresholds: tuple[float, ...] = (50.0, 60.0, 70.0, 80.0, 90.0, 100.0),
    annotator_config: AnnotatorConfig | None = None,
) -> dict[float, float]:
    """Type F1 of Majority(F) for each threshold F (LCA at 100)."""
    annotator = _make_pipeline(
        world.annotator_view, model=model, annotator_config=annotator_config
    ).annotator
    results: dict[float, float] = {}
    problems = [
        (annotator.build_problem(labeled.table), labeled.truth)
        for labeled in dataset.tables
        if labeled.truth.column_types
    ]
    for threshold in thresholds:
        counts = None
        baseline = annotator.majority_baseline(threshold)
        for problem, truth in problems:
            result = baseline.annotate(problem)
            partial = type_f1(truth, result.column_type_sets)
            if counts is None:
                counts = partial
            else:
                counts.merge(partial)
        results[threshold] = counts.mean_f1 if counts else 0.0
    return results


# ----------------------------------------------------------------------
# Figure 7: annotation time
# ----------------------------------------------------------------------
def timing_experiment(
    world: SyntheticWorld,
    tables: list[LabeledTable],
    model: AnnotationModel,
    annotator_config: AnnotatorConfig | None = None,
    pipeline_config: PipelineConfig | None = None,
) -> CorpusTimingReport:
    """Annotate a snapshot of tables, recording the Figure-7 breakdown.

    The report's ``cache`` describes the pipeline's shared candidate cache
    during the run (None when caching is disabled).
    """
    pipeline = _make_pipeline(
        world.annotator_view,
        model=model,
        annotator_config=annotator_config,
        pipeline_config=pipeline_config,
    )
    pipeline.annotate_corpus(tables)
    report = pipeline.last_report
    assert report is not None
    return report


# ----------------------------------------------------------------------
# Figure 8: type-entity compatibility feature ablation
# ----------------------------------------------------------------------
def feature_ablation(
    world: SyntheticWorld,
    train_tables: list[LabeledTable],
    eval_datasets: dict[str, EvalDataset],
    modes: tuple[TypeEntityFeatureMode, ...] = (
        TypeEntityFeatureMode.INV_SQRT_DIST,
        TypeEntityFeatureMode.INV_DIST,
        TypeEntityFeatureMode.IDF,
    ),
    training: TrainingConfig | None = None,
    annotator_config: AnnotatorConfig | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Retrain per mode and evaluate entity/type accuracy per dataset.

    Returns ``{mode: {dataset: {"entity_accuracy": .., "type_f1": ..}}}``.
    """
    results: dict[str, dict[str, dict[str, float]]] = {}
    for mode in modes:
        model = train_model(
            world,
            train_tables,
            mode=mode,
            training=training,
            annotator_config=annotator_config,
        )
        per_dataset: dict[str, dict[str, float]] = {}
        for name, dataset in eval_datasets.items():
            scores = evaluate_annotation(
                world,
                dataset,
                model,
                algorithms=("collective",),
                annotator_config=annotator_config,
            )["collective"]
            per_dataset[name] = {
                "entity_accuracy": scores.entity.accuracy,
                "type_f1": scores.type_.mean_f1,
            }
        results[mode.value] = per_dataset
    return results


# ----------------------------------------------------------------------
# Figure 9: search MAP
# ----------------------------------------------------------------------
def build_annotated_index(
    world: SyntheticWorld,
    corpus_tables: list[LabeledTable],
    model: AnnotationModel,
    annotator_config: AnnotatorConfig | None = None,
    pipeline_config: PipelineConfig | None = None,
) -> AnnotatedTableIndex:
    """Annotate a corpus with the collective model and index it."""
    pipeline = _make_pipeline(
        world.annotator_view,
        model=model,
        annotator_config=annotator_config,
        pipeline_config=pipeline_config,
    )
    return AnnotatedTableIndex.from_corpus(
        world.annotator_view, corpus_tables, pipeline=pipeline
    )


def search_map_experiment(
    world: SyntheticWorld,
    index: AnnotatedTableIndex,
    workload: SearchWorkload,
) -> dict[str, dict[str, float]]:
    """MAP per relation for Baseline / Type / Type+Rel (Figure 9).

    Returns ``{relation_id: {"baseline": .., "type": .., "type_rel": ..}}``
    plus an ``"__all__"`` row averaging over every query.
    """
    searchers = {
        "baseline": BaselineSearcher(index, world.annotator_view),
        "type": AnnotatedSearcher(index, world.annotator_view, use_relations=False),
        "type_rel": AnnotatedSearcher(index, world.annotator_view, use_relations=True),
    }
    per_relation: dict[str, dict[str, list[tuple[list[str], set[str]]]]] = {}
    for query in workload.queries:
        relevant = relevance_keys(world, workload.relevant[query])
        for system, searcher in searchers.items():
            response = searcher.search(query)
            per_relation.setdefault(query.relation_id, {}).setdefault(
                system, []
            ).append((response.ranked_keys(), relevant))
    results: dict[str, dict[str, float]] = {}
    overall: dict[str, list[tuple[list[str], set[str]]]] = {}
    for relation_id, by_system in sorted(per_relation.items()):
        results[relation_id] = {}
        for system, pairs in by_system.items():
            results[relation_id][system] = mean_average_precision(pairs)
            overall.setdefault(system, []).extend(pairs)
    results["__all__"] = {
        system: mean_average_precision(pairs) for system, pairs in overall.items()
    }
    return results


# ----------------------------------------------------------------------
# Section 6.1.1: candidate-space statistics
# ----------------------------------------------------------------------
def candidate_statistics(
    world: SyntheticWorld,
    tables: list[LabeledTable],
    annotator_config: AnnotatorConfig | None = None,
) -> dict[str, float]:
    """Average candidate entities per cell / types per column / relations.

    The paper reports ~7-8 candidate entities per cell and hundreds of
    candidate types per column on YAGO scale.
    """
    annotator = _make_pipeline(
        world.annotator_view, annotator_config=annotator_config
    ).annotator
    totals = {
        "cells_with_candidates": 0.0,
        "avg_entity_candidates": 0.0,
        "avg_type_candidates": 0.0,
        "avg_relation_candidates": 0.0,
    }
    n_tables = 0
    for labeled in tables:
        problem = annotator.build_problem(labeled.table)
        stats = problem.stats()
        n_tables += 1
        for key in totals:
            totals[key] += stats[key]
    if n_tables:
        for key in totals:
            totals[key] /= n_tables
    totals["n_tables"] = float(n_tables)
    return totals
