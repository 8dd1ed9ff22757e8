"""Table data model, mirroring the paper's source representation (Section 3.2).

A :class:`Table` is a perfectly regular grid (cells = rows × columns — merged
cells were screened out upstream) plus optional per-column headers and a short
context text.  :class:`TableTruth` carries ground-truth annotations where
known; ``None`` inside a truth mapping means the ground truth is the paper's
``na`` ("no annotation") label, while a *missing* key means no ground truth
was collected for that slot (the slot is then excluded from evaluation,
matching "If ground truth is missing ... we drop it from the labeling task").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Table:
    """One source table.

    Attributes:
        table_id: Corpus-unique identifier.
        cells: Row-major grid of cell text; every row has equal length.
        headers: Per-column header text or ``None`` when the column (or the
            whole table) has no header row.
        context: Short text surrounding the table (caption, nearby sentence).
        source: Optional provenance (URL / generator tag).
    """

    table_id: str
    cells: list[list[str]]
    headers: list[str | None] | None = None
    context: str = ""
    source: str | None = None

    def __post_init__(self) -> None:
        if self.cells:
            width = len(self.cells[0])
            for row_index, row in enumerate(self.cells):
                if len(row) != width:
                    raise ValueError(
                        f"table {self.table_id!r}: row {row_index} has "
                        f"{len(row)} cells, expected {width}"
                    )
            if self.headers is not None and len(self.headers) != width:
                raise ValueError(
                    f"table {self.table_id!r}: {len(self.headers)} headers for "
                    f"{width} columns"
                )
        elif self.headers:
            raise ValueError(f"table {self.table_id!r}: headers without cells")

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_columns(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def cell(self, row: int, column: int) -> str:
        return self.cells[row][column]

    def column(self, column: int) -> list[str]:
        """All cell texts of one column, top to bottom."""
        return [row[column] for row in self.cells]

    def header(self, column: int) -> str | None:
        if self.headers is None:
            return None
        return self.headers[column]

    def iter_cells(self) -> Iterator[tuple[int, int, str]]:
        """Yield ``(row, column, text)`` for every cell."""
        for row_index, row in enumerate(self.cells):
            for column_index, text in enumerate(row):
                yield row_index, column_index, text

    def to_dict(self) -> dict[str, Any]:
        return {
            "table_id": self.table_id,
            "cells": self.cells,
            "headers": self.headers,
            "context": self.context,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Table":
        """Decode a table, checking every field's type.

        Wire requests, JSONL corpora and bundles all decode through here.

        Raises:
            KeyError: ``table_id`` or ``cells`` is missing.
            TypeError: a field has the wrong type (e.g. a non-string cell).
            ValueError: the grid is ragged or headers do not match it.
        """
        table_id = payload["table_id"]
        cells = payload["cells"]
        headers = payload.get("headers")
        context = payload.get("context", "")
        source = payload.get("source")
        if not isinstance(table_id, str):
            raise TypeError("table_id must be a string")
        if not isinstance(cells, list) or not all(
            isinstance(row, list) and all(isinstance(text, str) for text in row)
            for row in cells
        ):
            raise TypeError("cells must be a list of rows of strings")
        if headers is not None and (
            not isinstance(headers, list)
            or not all(header is None or isinstance(header, str) for header in headers)
        ):
            raise TypeError("headers must be a list of strings or nulls")
        if not isinstance(context, str):
            raise TypeError("context must be a string")
        if source is not None and not isinstance(source, str):
            raise TypeError("source must be a string or null")
        return cls(
            table_id=table_id,
            cells=[list(row) for row in cells],
            headers=list(headers) if headers is not None else None,
            context=context,
            source=source,
        )


@dataclass
class TableTruth:
    """Ground-truth annotations for one table (all mappings partial).

    ``cell_entities[(r, c)]`` is an entity id or ``None`` (= true label na);
    ``column_types[c]`` is a type id or ``None``; ``relations[(c, c')]`` is a
    relation id or ``None`` with ``c < c'`` by convention.
    """

    cell_entities: dict[tuple[int, int], str | None] = field(default_factory=dict)
    column_types: dict[int, str | None] = field(default_factory=dict)
    relations: dict[tuple[int, int], str | None] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell_entities": {
                f"{r},{c}": entity for (r, c), entity in self.cell_entities.items()
            },
            "column_types": {str(c): t for c, t in self.column_types.items()},
            "relations": {
                f"{c},{d}": rel for (c, d), rel in self.relations.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TableTruth":
        cell_entities = {}
        for key, entity in payload.get("cell_entities", {}).items():
            row, column = key.split(",")
            cell_entities[(int(row), int(column))] = entity
        column_types = {
            int(column): type_id
            for column, type_id in payload.get("column_types", {}).items()
        }
        relations = {}
        for key, relation in payload.get("relations", {}).items():
            left, right = key.split(",")
            relations[(int(left), int(right))] = relation
        return cls(
            cell_entities=cell_entities,
            column_types=column_types,
            relations=relations,
        )


@dataclass
class LabeledTable:
    """A table together with (possibly partial) ground truth."""

    table: Table
    truth: TableTruth = field(default_factory=TableTruth)

    @property
    def table_id(self) -> str:
        return self.table.table_id

    def to_dict(self) -> dict[str, Any]:
        return {"table": self.table.to_dict(), "truth": self.truth.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LabeledTable":
        return cls(
            table=Table.from_dict(payload["table"]),
            truth=TableTruth.from_dict(payload.get("truth", {})),
        )

    def strip_to_entities(self) -> "LabeledTable":
        """Keep only cell-entity truth (the Wiki Link dataset shape)."""
        return LabeledTable(
            table=self.table,
            truth=TableTruth(cell_entities=dict(self.truth.cell_entities)),
        )

    def strip_to_relations(self) -> "LabeledTable":
        """Keep only relation truth (the Web Relations dataset shape)."""
        return LabeledTable(
            table=self.table,
            truth=TableTruth(relations=dict(self.truth.relations)),
        )
