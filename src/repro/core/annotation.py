"""Annotation result objects.

``None`` as a label uniformly means the paper's ``na`` ("no annotation").
Scores are log-belief margins from inference: the gap between the chosen
label and the runner-up, usable for ranking and confidence thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from repro.tables.model import Table


@dataclass(frozen=True)
class CellAnnotation:
    """Entity annotation of one cell."""

    row: int
    column: int
    entity_id: str | None
    score: float = 0.0


@dataclass(frozen=True)
class ColumnAnnotation:
    """Type annotation of one column."""

    column: int
    type_id: str | None
    score: float = 0.0


@dataclass(frozen=True)
class RelationAnnotation:
    """Relation annotation of an ordered column pair ``(left < right)``.

    ``label`` is a relation id, optionally carrying the ``^-1`` suffix when
    the relation reads right-to-left across the pair (see
    :mod:`repro.tables.generator`); ``None`` means na.
    """

    left_column: int
    right_column: int
    label: str | None
    score: float = 0.0


@dataclass
class TableAnnotation:
    """Full annotation of one table plus inference diagnostics."""

    table_id: str
    cells: dict[tuple[int, int], CellAnnotation] = field(default_factory=dict)
    columns: dict[int, ColumnAnnotation] = field(default_factory=dict)
    relations: dict[tuple[int, int], RelationAnnotation] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def entity_of(self, row: int, column: int) -> str | None:
        annotation = self.cells.get((row, column))
        return annotation.entity_id if annotation else None

    def type_of(self, column: int) -> str | None:
        annotation = self.columns.get(column)
        return annotation.type_id if annotation else None

    def relation_of(self, left: int, right: int) -> str | None:
        annotation = self.relations.get((left, right))
        return annotation.label if annotation else None


@dataclass(frozen=True)
class FrozenAnnotation:
    """A :class:`TableAnnotation` without table id or timing, as the answer
    cache keeps it.  Its maps are read-only and :meth:`thaw` copies them,
    so changing a returned annotation cannot change a later answer.
    """

    cells: MappingProxyType[tuple[int, int], CellAnnotation]
    columns: MappingProxyType[int, ColumnAnnotation]
    relations: MappingProxyType[tuple[int, int], RelationAnnotation]
    diagnostics: MappingProxyType[str, Any]

    @classmethod
    def of(cls, annotation: TableAnnotation) -> "FrozenAnnotation":
        diagnostics = dict(annotation.diagnostics)
        diagnostics.pop("timing", None)
        return cls(
            MappingProxyType(dict(annotation.cells)),
            MappingProxyType(dict(annotation.columns)),
            MappingProxyType(dict(annotation.relations)),
            MappingProxyType(diagnostics),
        )

    def thaw(self, table: Table, seconds: float) -> TableAnnotation:
        """A fresh annotation of ``table``, timed as ``seconds`` of lookup
        (no candidate or inference time)."""
        diagnostics = self.diagnostics.copy()
        diagnostics["timing"] = AnnotationTiming(
            table_id=table.table_id,
            total_seconds=seconds,
            candidate_seconds=0.0,
            inference_seconds=0.0,
            n_rows=table.n_rows,
            n_columns=table.n_columns,
        )
        return TableAnnotation(
            table.table_id,
            self.cells.copy(),
            self.columns.copy(),
            self.relations.copy(),
            diagnostics,
        )


@dataclass
class AnnotationTiming:
    """Wall-clock breakdown of one table's annotation (Figure 7)."""

    table_id: str
    total_seconds: float
    candidate_seconds: float
    inference_seconds: float
    n_rows: int = 0
    n_columns: int = 0

    @property
    def candidate_fraction(self) -> float:
        return self.candidate_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def inference_fraction(self) -> float:
        return self.inference_seconds / self.total_seconds if self.total_seconds else 0.0
