"""Exact polynomial inference for the relation-free special case.

This is the paper's Figure 2: without ``bcc'`` variables and φ4/φ5, the
objective (2) decomposes per column — fix a column type ``T``, then each
cell's best entity is independent:

    A_T = φ2(c, T) + Σ_r max_E [ φ1(r, c, E) + φ3(T, E) ]      (log space)

and the best column label is ``argmax_T A_T`` (including ``T = na``, whose
φ2/φ3 contributions are zero).  This module is both a fast path and the
exactness oracle the message-passing tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    TableAnnotation,
)
from repro.core.model import AnnotationModel
from repro.core.problem import NA, AnnotationProblem, candidate_products


def annotate_simple(
    problem: AnnotationProblem,
    model: AnnotationModel,
    unique_columns: tuple[int, ...] = (),
    features=None,
) -> TableAnnotation:
    """Run Figure-2 inference; returns annotations without relations.

    ``unique_columns`` enforces the paper's primary-key variant
    (Section 4.4.1): after the column type is chosen, cell entities in those
    columns are assigned jointly under an all-different constraint via the
    Hungarian algorithm (:mod:`repro.core.constraints`).  Requires the
    ``features`` computer used to build the problem.
    """
    if unique_columns and features is None:
        raise ValueError("unique_columns requires the FeatureComputer")
    annotation = TableAnnotation(table_id=problem.table.table_id)
    chosen_cells: dict[tuple[int, int], tuple[str | None, float]] = {}

    for space in problem.columns:
        if not space.has_type:
            continue
        # every cell's concrete φ1 scores, one product over the column
        unaries = candidate_products(space.f1, space.offsets, model.w1)
        starts = space.offsets.tolist()
        cells = list(zip(space.rows.tolist(), starts, starts[1:]))
        n_types = len(space.types)  # includes na at index 0
        type_scores = np.zeros(n_types)
        type_scores[1:] = space.f2 @ model.w2
        pairwise = candidate_products(space.f3, space.offsets, model.w3)
        # per (type, row) best entity indices, to recall after argmax over T
        combined_rows: list[np.ndarray] = []
        best_rows: list[np.ndarray] = []
        for row, start, stop in cells:
            combined = np.zeros((n_types, stop - start + 1))
            combined[1:, 1:] = pairwise[:, start:stop]
            combined += np.concatenate(([0.0], unaries[start:stop]))[None, :]
            best = combined.argmax(axis=1)
            type_scores += combined[np.arange(n_types), best]
            combined_rows.append(combined)
            best_rows.append(best)
        chosen_type_index = int(type_scores.argmax())
        runner_up = float(np.partition(type_scores, -2)[-2]) if n_types > 1 else 0.0
        annotation.columns[space.column] = ColumnAnnotation(
            column=space.column,
            type_id=space.types[chosen_type_index],
            score=float(type_scores[chosen_type_index]) - runner_up,
        )
        if space.column in unique_columns:
            from repro.core.constraints import assign_unique_entities

            assigned = assign_unique_entities(
                problem,
                model,
                features,
                space.column,
                space.types[chosen_type_index],
            )
            for row, entity_id in assigned.items():
                chosen_cells[(row, space.column)] = (entity_id, 0.0)
            continue
        for cell, (row, _start, _stop) in enumerate(cells):
            entity_index = int(best_rows[cell][chosen_type_index])
            margin = _margin(combined_rows[cell][chosen_type_index], entity_index)
            chosen_cells[(row, space.column)] = (
                space.labels(cell)[entity_index],
                margin,
            )

    # Cells in columns that never got a type variable: best φ1 alone.
    for space in problem.columns:
        if space.has_type:
            continue
        unaries = candidate_products(space.f1, space.offsets, model.w1)
        starts = space.offsets.tolist()
        for cell, (row, start, stop) in enumerate(
            zip(space.rows.tolist(), starts, starts[1:])
        ):
            unary = np.concatenate(([0.0], unaries[start:stop]))
            entity_index = int(unary.argmax())
            chosen_cells[(row, space.column)] = (
                space.labels(cell)[entity_index],
                _margin(unary, entity_index),
            )

    for (row, column_index), (entity_id, score) in chosen_cells.items():
        annotation.cells[(row, column_index)] = CellAnnotation(
            row=row, column=column_index, entity_id=entity_id, score=score
        )
    # Columns with no type variable are explicitly na.
    for column_index in range(problem.table.n_columns):
        if column_index not in annotation.columns:
            annotation.columns[column_index] = ColumnAnnotation(
                column=column_index, type_id=NA, score=0.0
            )
    annotation.diagnostics["method"] = "simple"
    return annotation


def _margin(scores: np.ndarray, chosen: int) -> float:
    """Gap between the chosen score and the best alternative."""
    if scores.shape[0] < 2:
        return float(scores[chosen])
    others = np.delete(scores, chosen)
    return float(scores[chosen] - others.max())
