"""Collective inference: the paper's Figure-11 message-passing schedule.

Inference in the full model (1) is NP-hard (Appendix C), so the paper runs
max-product message passing on the factor graph with a fixed block schedule:

1. entities → φ3 → types, then types → φ3 → entities (per column),
2. entities → φ5 → relations, then relations → φ5 → entities (per pair/row),
3. types → φ4 → relations, then relations → φ4 → types (per pair),

repeated until messages converge ("in practice ... within three iterations").
When the graph has no relation variables the schedule degenerates to the
exact Figure-2 computation, which the tests verify against
:mod:`repro.core.simple_inference`.

The schedule runs on one engine, :class:`~repro.graph.fused.FusedMaxProductBP`,
driven by :mod:`repro.core.fused` for a bucket of tables (a lone table is a
bucket of one), with the knobs of
:class:`~repro.core.annotator.AnnotatorConfig`.  This module holds the
sum-product marginals extension.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.annotation import TableAnnotation
from repro.core.model import AnnotationModel
from repro.core.problem import AnnotationProblem, build_factor_graph
from repro.graph.bp import SumProductBP
from repro.graph.fused import TOLERANCE

if TYPE_CHECKING:  # the annotator module imports this one
    from repro.core.annotator import AnnotatorConfig


def annotation_marginals(
    problem: AnnotationProblem,
    model: AnnotationModel,
    config: AnnotatorConfig,
) -> dict[str, dict[str | None, float]]:
    """Posterior marginals for every variable via sum-product BP.

    An extension beyond the paper (which decodes with max-product only):
    returns, for each variable name (``e:r,c`` / ``t:c`` / ``b:l,r``), a
    mapping from label (including na) to its approximate posterior
    probability.  Useful for calibrated confidence thresholds; catalog
    augmentation thresholds the belief-margin scores instead.
    """
    graph = build_factor_graph(problem, model, with_relations=config.with_relations)
    engine = SumProductBP(graph)
    engine.run_flooding(
        max_iterations=max(config.max_iterations, 10), tolerance=TOLERANCE
    )
    marginals: dict[str, dict[str | None, float]] = {}
    for name, variable in graph.variables.items():
        probabilities = engine.marginals(name)
        marginals[name] = {
            label: float(probability)
            for label, probability in zip(variable.domain, probabilities)
        }
    return marginals


def map_assignment_of(annotation: TableAnnotation) -> dict[str, str | None]:
    """Assignment dict (variable name -> label) from a decoded annotation.

    Used by the learner to compare prediction and truth through the joint
    feature map.
    """
    assignment: dict[str, str | None] = {}
    for (row, column), cell in annotation.cells.items():
        assignment[f"e:{row},{column}"] = cell.entity_id
    for column, column_annotation in annotation.columns.items():
        assignment[f"t:{column}"] = column_annotation.type_id
    for (left, right), relation in annotation.relations.items():
        assignment[f"b:{left},{right}"] = relation.label
    return assignment
