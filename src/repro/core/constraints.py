"""Unique-column (primary key) constrained entity assignment.

The paper notes (Section 4.4.1) that "primary key or unique constraints on a
column can be handled using a min cost flow formulation".  With one unit of
flow per row and unit capacity per entity this is exactly the rectangular
assignment problem, which we solve with
:func:`scipy.optimize.linear_sum_assignment` (the Hungarian algorithm — the
min-cost-flow special case the construction reduces to).

Given a fixed column type ``T`` (from Figure-2 inference), each row may take
one of its candidate entities (score ``φ1 + φ3(T, ·)``) or ``na`` (score 0),
and no concrete entity may be used by two rows.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.model import AnnotationModel
from repro.core.problem import NA, AnnotationProblem, FeatureComputer

#: Effective -inf for forbidden (row, entity) pairs; finite so the Hungarian
#: solver stays numerically happy, large enough never to be chosen over na.
_FORBIDDEN = -1e9


def assign_unique_entities(
    problem: AnnotationProblem,
    model: AnnotationModel,
    features: FeatureComputer,
    column: int,
    type_id: str | None,
) -> dict[int, str | None]:
    """Best row→entity assignment with each entity used at most once.

    Args:
        problem: The table's annotation problem (candidate spaces + f1).
        model: Weights used to score ``φ1`` and ``φ3``.
        features: Memoised feature computer (φ3 may need types outside the
            column's cached candidates).
        column: The column index carrying the uniqueness constraint.
        type_id: The column's (already chosen) type, or ``None`` for na.

    Returns:
        Mapping from every row that has a cell variable to its assigned
        entity id or ``None`` (na).  Maximises the summed log-score subject
        to the all-different constraint over concrete entities.
    """
    space = problem.columns[column]
    rows = space.rows.tolist()
    if not rows:
        return {}
    entities = sorted(set(space.entities))
    entity_index = {entity: position for position, entity in enumerate(entities)}

    # Score matrix: rows x (entities ... | one na slot per row).
    n_rows, n_entities = len(rows), len(entities)
    scores = np.full((n_rows, n_entities + n_rows), _FORBIDDEN)
    starts = space.offsets.tolist()
    for row_position, (start, stop) in enumerate(zip(starts, starts[1:])):
        unary = space.f1[start:stop] @ model.w1
        for candidate_position, entity_id in enumerate(space.entities[start:stop]):
            score = float(unary[candidate_position])
            if type_id is not NA:
                score += float(features.f3(type_id, entity_id) @ model.w3)
            scores[row_position, entity_index[entity_id]] = score
        scores[row_position, n_entities + row_position] = 0.0  # this row's na

    row_indices, column_indices = linear_sum_assignment(scores, maximize=True)
    assignment: dict[int, str | None] = {}
    for row_position, chosen in zip(row_indices, column_indices):
        row = rows[row_position]
        if chosen < n_entities and scores[row_position, chosen] > _FORBIDDEN / 2:
            assignment[row] = entities[chosen]
        else:
            assignment[row] = NA
    return assignment
