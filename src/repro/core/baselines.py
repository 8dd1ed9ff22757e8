"""The paper's baseline annotators: LCA and Majority (Section 4.5).

Both start from the same candidate entity sets ``Erc`` as the collective
model and differ in how they pick column types:

* **LCA** — a type qualifies only when *every* row could belong to it
  (intersection over rows of the candidate-ancestor sets), and only minimal
  such types are kept.  This over-generalises badly under missing links
  (Appendix F): one unreachable entity pushes the answer to the root.
* **Majority(F)** — a type qualifies when more than ``F%`` of rows support
  it.  ``F = 100`` recovers LCA; the paper's Majority uses ``F = 50`` and its
  drill-down sweeps the thresholds in between (best ≈ 60%, still below
  Collective).

Both report a *set* of types per column (evaluated with F1).  Entity
assignment: LCA restricts each cell to the chosen type and maximises
``φ1 · φ3`` (the Figure-2 idea); Majority labels each cell independently by
``φ1`` alone, as described in Section 4.5.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    TableAnnotation,
)
from repro.core.model import AnnotationModel, default_model
from repro.core.problem import NA, AnnotationProblem, FeatureComputer


@dataclass
class BaselineResult:
    """Baseline output: a type *set* per column plus a point annotation.

    ``annotation`` carries one representative type per column (the most
    specific of ``column_type_sets``) so baselines can flow through the same
    downstream code as the collective annotator, while evaluation of type F1
    uses the full sets.
    """

    annotation: TableAnnotation
    column_type_sets: dict[int, set[str]] = field(default_factory=dict)


class LCAAnnotator:
    """Least-common-ancestor baseline (Section 4.5.1)."""

    def __init__(self, features: FeatureComputer, model: AnnotationModel | None = None):
        self.features = features
        self.model = model if model is not None else default_model()

    def annotate(self, problem: AnnotationProblem) -> BaselineResult:
        catalog = self.features.catalog
        annotation = TableAnnotation(table_id=problem.table.table_id)
        annotation.diagnostics["method"] = "lca"
        type_sets: dict[int, set[str]] = {}
        for column_index in range(problem.table.n_columns):
            # Strictly per Section 4.5.1 the intersection runs over *all*
            # rows: a cell whose candidate set is empty contributes an empty
            # ancestor union and empties the whole intersection.  This is the
            # brittleness the paper criticises ("insisting on a brittle
            # choice like LCA may be damaging").
            common: set[str] | None = None
            space = problem.columns[column_index]
            cells = dict(zip(space.rows.tolist(), range(len(space.rows))))
            for row in range(problem.table.n_rows):
                cell = cells.get(row)
                ancestors: set[str] = set()
                if cell is not None:
                    for entity_id in space.labels(cell)[1:]:
                        ancestors.update(catalog.type_ancestors(entity_id))
                common = ancestors if common is None else common & ancestors
                if not common:
                    break
            common = common or set()
            minimal = catalog.types.minimal_elements(common)
            type_sets[column_index] = minimal
            representative = _most_specific(catalog, minimal)
            annotation.columns[column_index] = ColumnAnnotation(
                column=column_index, type_id=representative
            )
            _assign_cells_constrained(
                problem,
                annotation,
                self.model,
                self.features,
                column_index,
                representative,
            )
        # Cells in columns whose intersection came up empty are forced to na:
        # in the multiplicative Figure-2 reading, phi3(na-type, E) carries no
        # support for any concrete entity.
        for (row, column_index) in problem.cells:
            if (row, column_index) not in annotation.cells:
                annotation.cells[(row, column_index)] = CellAnnotation(
                    row=row, column=column_index, entity_id=NA, score=0.0
                )
        return BaselineResult(annotation=annotation, column_type_sets=type_sets)


class MajorityAnnotator:
    """Majority-vote baseline with threshold ``F`` percent (Section 4.5.2)."""

    def __init__(
        self,
        features: FeatureComputer,
        model: AnnotationModel | None = None,
        threshold_percent: float = 50.0,
    ):
        if not 0.0 < threshold_percent <= 100.0:
            raise ValueError(
                f"threshold_percent must be in (0, 100]: {threshold_percent}"
            )
        self.features = features
        self.model = model if model is not None else default_model()
        self.threshold_percent = threshold_percent

    def annotate(self, problem: AnnotationProblem) -> BaselineResult:
        catalog = self.features.catalog
        annotation = TableAnnotation(table_id=problem.table.table_id)
        annotation.diagnostics["method"] = f"majority@{self.threshold_percent:g}"
        type_sets: dict[int, set[str]] = {}
        for column_index in range(problem.table.n_columns):
            votes: dict[str, int] = {}
            space = problem.columns[column_index]
            n_voting_rows = len(space.rows)
            for cell in range(n_voting_rows):
                row_types: set[str] = set()
                for entity_id in space.labels(cell)[1:]:
                    row_types.update(catalog.type_ancestors(entity_id))
                for type_id in row_types:
                    votes[type_id] = votes.get(type_id, 0) + 1
            if not n_voting_rows:
                annotation.columns[column_index] = ColumnAnnotation(
                    column=column_index, type_id=NA
                )
                type_sets[column_index] = set()
                continue
            needed = self.threshold_percent / 100.0 * n_voting_rows
            # strict majority at F<100; at F=100 require all rows (LCA)
            qualifying = {
                type_id
                for type_id, count in votes.items()
                if (count >= needed if self.threshold_percent == 100.0 else count > needed)
            }
            minimal = catalog.types.minimal_elements(qualifying)
            type_sets[column_index] = minimal
            representative = _most_specific(catalog, minimal)
            annotation.columns[column_index] = ColumnAnnotation(
                column=column_index, type_id=representative
            )
        _fill_unassigned_cells(problem, annotation, self.model)
        return BaselineResult(annotation=annotation, column_type_sets=type_sets)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _most_specific(catalog, type_ids: set[str]) -> str | None:
    """Deterministic representative: highest IDF specificity, then id."""
    if not type_ids:
        return NA
    return max(
        sorted(type_ids),
        key=lambda type_id: catalog.type_idf_specificity(type_id),
    )


def _assign_cells_constrained(
    problem: AnnotationProblem,
    annotation: TableAnnotation,
    model: AnnotationModel,
    features: FeatureComputer,
    column_index: int,
    type_id: str | None,
) -> None:
    """Figure-2 style cell assignment given a fixed column type.

    Entities are *hard-constrained* to the chosen type: in the multiplicative
    form of Figure 2, an entity with ``E ∉+ T`` has φ3 support zero, so only
    contained candidates compete (on ``φ1 · φ3``); a cell with no contained
    candidate falls to na.  The LCA representative type may not be among the
    column's cached type candidates (minimal common ancestors can sit above
    them), so φ3 is read from the interned grid through
    :meth:`FeatureComputer.f3` rather than from the problem's f3 blocks.
    """
    catalog = features.catalog
    space = problem.columns[column_index]
    starts = space.offsets.tolist()
    for cell, (row, start, stop) in enumerate(
        zip(space.rows.tolist(), starts, starts[1:])
    ):
        if type_id is NA:
            # a killed column (empty intersection) carries no phi3 support
            # for any concrete entity: every cell falls to na
            annotation.cells[(row, column_index)] = CellAnnotation(
                row=row, column=column_index, entity_id=NA, score=0.0
            )
            continue
        labels = space.labels(cell)
        scores = np.concatenate(([0.0], space.f1[start:stop] @ model.w1))
        for index, entity_id in enumerate(labels[1:], start=1):
            if not catalog.is_instance(entity_id, type_id):
                scores[index] = float("-inf")
            else:
                f3 = features.f3(type_id, entity_id)
                scores[index] += float(f3 @ model.w3)
        chosen = int(scores.argmax())
        annotation.cells[(row, column_index)] = CellAnnotation(
            row=row,
            column=column_index,
            entity_id=labels[chosen],
            score=float(scores[chosen]),
        )


def _fill_unassigned_cells(
    problem: AnnotationProblem,
    annotation: TableAnnotation,
    model: AnnotationModel,
) -> None:
    """Per-cell φ1-argmax for cells not yet labelled (Majority's rule)."""
    for (row, column_index), cell in problem.cells.items():
        if (row, column_index) in annotation.cells:
            continue
        unary = np.concatenate(([0.0], cell.f1 @ model.w1))
        chosen = int(unary.argmax())
        annotation.cells[(row, column_index)] = CellAnnotation(
            row=row,
            column=column_index,
            entity_id=cell.labels[chosen],
            score=float(unary[chosen]),
        )
