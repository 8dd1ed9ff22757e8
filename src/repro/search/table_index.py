"""Index over a table corpus and its annotations.

This is the search application's preprocessing product (paper Section 5):
tables are indexed *textually* (headers, context — what the Figure-3 baseline
can use) and *semantically* (column types, cell entities, column-pair
relations produced by the annotator — what Figure 4 exploits).

Type lookups expand through the catalog's subtype DAG: a column annotated
``type:cat:1990s_films`` satisfies a query for ``type:movie``.

Cell text is indexed per column as token postings (:class:`ColumnPostings`),
so anchoring ``E2`` by text (:meth:`AnnotatedTableIndex.anchor_rows`) visits
only the rows that share a token with it.  A column's postings are built on
the first query that touches it, not when the index is built or loaded.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.catalog.catalog import Catalog
from repro.core.annotation import TableAnnotation
from repro.tables.generator import base_relation
from repro.tables.model import Table
from repro.text.index import InvertedIndex
from repro.text.tokenize import tokenize


@dataclass
class RelationEdge:
    """One annotated relation instance: subject/object columns of a table."""

    table_id: str
    subject_column: int
    object_column: int
    relation_id: str
    score: float = 0.0


@dataclass(frozen=True)
class ColumnPostings:
    """One column's cell text as token postings.

    ``postings`` maps each token to a flat ``(row, count, row, count, …)``
    tuple in ascending row order.  ``norms[row]`` is the cell's
    ``sqrt(Σ count²)``, 0.0 for a cell without tokens; ``tokenless_rows``
    lists those cells in ascending order.
    """

    postings: dict[str, tuple[int, ...]]
    norms: tuple[float, ...]
    tokenless_rows: tuple[int, ...]

    @classmethod
    def of_cells(cls, cells: list[str]) -> "ColumnPostings":
        postings: dict[str, list[int]] = {}
        norms = []
        tokenless_rows = []
        for row, text in enumerate(cells):
            counts = Counter(tokenize(text))
            if not counts:
                tokenless_rows.append(row)
            for token, count in counts.items():
                # columns share one string per token
                postings.setdefault(sys.intern(token), []).extend((row, count))
            norms.append(math.sqrt(sum(count * count for count in counts.values())))
        return cls(
            postings={token: tuple(flat) for token, flat in postings.items()},
            norms=tuple(norms),
            tokenless_rows=tuple(tokenless_rows),
        )


@dataclass
class AnnotatedTableIndex:
    """Tables + text indexes + semantic (annotation) indexes."""

    catalog: Catalog
    tables: dict[str, Table] = field(default_factory=dict)
    annotations: dict[str, TableAnnotation] = field(default_factory=dict)
    _header_index: InvertedIndex = field(default_factory=InvertedIndex)
    _context_index: InvertedIndex = field(default_factory=InvertedIndex)
    _columns_by_type: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    _cells_by_entity: dict[str, list[tuple[str, int, int]]] = field(default_factory=dict)
    _edges_by_relation: dict[str, list[RelationEdge]] = field(default_factory=dict)
    #: (table, column) → postings, filled lazily by :meth:`anchor_rows`
    _postings: dict[tuple[str, int], ColumnPostings] = field(
        default_factory=dict, repr=False, compare=False
    )
    _frozen: bool = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_table(
        self, table: Table, annotation: TableAnnotation | None = None
    ) -> None:
        """Register a table and (optionally) its annotation."""
        if table.table_id in self.tables:
            raise ValueError(f"duplicate table id: {table.table_id!r}")
        if self._frozen:
            raise RuntimeError("index is frozen")
        self.tables[table.table_id] = table
        if table.headers:
            for column, header in enumerate(table.headers):
                if header:
                    self._header_index.add((table.table_id, column), header)
        if table.context:
            self._context_index.add(table.table_id, table.context)
        if annotation is not None:
            self._register_annotation(table.table_id, annotation)

    def _register_annotation(
        self, table_id: str, annotation: TableAnnotation
    ) -> None:
        """Populate the semantic maps for one table's annotation."""
        self.annotations[table_id] = annotation
        for column, column_annotation in annotation.columns.items():
            if column_annotation.type_id is not None:
                self._columns_by_type.setdefault(
                    column_annotation.type_id, []
                ).append((table_id, column))
        for (row, column), cell in annotation.cells.items():
            if cell.entity_id is not None:
                self._cells_by_entity.setdefault(cell.entity_id, []).append(
                    (table_id, row, column)
                )
        for (left, right), relation in annotation.relations.items():
            if relation.label is None:
                continue
            relation_id, reverse = base_relation(relation.label)
            edge = RelationEdge(
                table_id=table_id,
                subject_column=right if reverse else left,
                object_column=left if reverse else right,
                relation_id=relation_id,
                score=relation.score,
            )
            self._edges_by_relation.setdefault(relation_id, []).append(edge)

    @classmethod
    def from_corpus(
        cls,
        catalog: Catalog,
        tables,
        pipeline=None,
        model=None,
        pipeline_config=None,
    ) -> "AnnotatedTableIndex":
        """Build a frozen index by annotating ``tables`` through the pipeline.

        ``tables`` is any iterable of :class:`Table` / ``LabeledTable``; it is
        consumed as a stream, so corpus-scale construction never materialises
        the corpus.  Pass an existing :class:`~repro.pipeline.AnnotationPipeline`
        to share its candidate cache; otherwise one is built from ``model`` /
        ``pipeline_config``.
        """
        from repro.pipeline.pipeline import AnnotationPipeline

        if pipeline is None:
            pipeline = AnnotationPipeline(catalog, model=model, config=pipeline_config)
        index = cls(catalog=catalog)
        for table, annotation in pipeline.annotate_with_tables(tables):
            index.add_table(table, annotation)
        index.freeze()
        return index

    @classmethod
    def from_artifacts(
        cls,
        catalog: Catalog,
        tables: Iterable[Table],
        annotations: dict[str, TableAnnotation],
        header_index: InvertedIndex,
        context_index: InvertedIndex,
    ) -> "AnnotatedTableIndex":
        """Restore a frozen index from pre-serialized parts (bundle load path).

        The text indexes arrive already frozen (array-backed, see
        :meth:`repro.text.index.InvertedIndex.from_state`) and the semantic
        maps are rebuilt from the stored annotations in table order — no
        re-annotation, no re-tokenisation, no ``freeze()`` recomputation.
        The result is indistinguishable from :meth:`from_corpus` on the same
        corpus (covered by bundle round-trip tests).
        """
        index = cls(
            catalog=catalog,
            _header_index=header_index,
            _context_index=context_index,
        )
        for table in tables:
            index.tables[table.table_id] = table
            annotation = annotations.get(table.table_id)
            if annotation is not None:
                index._register_annotation(table.table_id, annotation)
        index._frozen = True
        return index

    def text_index_states(self) -> tuple[dict, dict]:
        """Frozen array states of the (header, context) text indexes."""
        self.freeze()
        return self._header_index.to_state(), self._context_index.to_state()

    def freeze(self) -> None:
        """Finalise the text indexes (idempotent)."""
        if not self._frozen:
            self._header_index.freeze()
            self._context_index.freeze()
            self._frozen = True

    def __len__(self) -> int:
        return len(self.tables)

    # ------------------------------------------------------------------
    # textual lookups (baseline)
    # ------------------------------------------------------------------
    def columns_with_header(
        self, header_text: str, top_k: int = 50
    ) -> list[tuple[str, int, float]]:
        """(table, column, score) whose header matches ``header_text``."""
        self.freeze()
        return [
            (hit.key[0], hit.key[1], hit.score)
            for hit in self._header_index.search(header_text, top_k=top_k)
        ]

    def tables_with_context(self, text: str, top_k: int = 200) -> dict[str, float]:
        """Table → context-match score."""
        self.freeze()
        return {
            hit.key: hit.score for hit in self._context_index.search(text, top_k=top_k)
        }

    # ------------------------------------------------------------------
    # semantic lookups (annotated search)
    # ------------------------------------------------------------------
    def columns_of_type(self, type_id: str) -> list[tuple[str, int]]:
        """Columns annotated with ``type_id`` or any of its subtypes."""
        results: list[tuple[str, int]] = []
        wanted = {type_id}
        if type_id in self.catalog.types:
            wanted |= self.catalog.types.descendants(type_id)
        for concrete in wanted:
            results.extend(self._columns_by_type.get(concrete, ()))
        return sorted(set(results))

    def cells_of_entity(self, entity_id: str) -> list[tuple[str, int, int]]:
        return list(self._cells_by_entity.get(entity_id, ()))

    def relation_edges(self, relation_id: str) -> list[RelationEdge]:
        return list(self._edges_by_relation.get(relation_id, ()))

    def anchor_rows(
        self, table_id: str, column: int, query_counts: Counter[str]
    ) -> list[tuple[int, float]]:
        """Rows whose cell in ``column`` has a nonzero ``cosine_tfidf`` with
        the text whose token counts are ``query_counts`` (``Counter(
        tokenize(text))``, counted once per search), ascending, each with
        that cosine.

        The cosine is computed from the column's postings with
        :func:`repro.text.similarity.cosine_tfidf`'s arithmetic.  With IDF 1
        and integer counts the dot product and both norms are exact, so the
        quotient is bit-identical.  As there, a tokenless cell against a
        tokenless text scores 1.0.
        """
        column_postings = self._column_postings(table_id, column)
        if not query_counts:
            return [(row, 1.0) for row in column_postings.tokenless_rows]
        dots: dict[int, int] = {}
        for token, query_count in query_counts.items():
            pairs = iter(column_postings.postings.get(token, ()))
            for row, count in zip(pairs, pairs):
                dots[row] = dots.get(row, 0) + count * query_count
        query_norm = math.sqrt(sum(count * count for count in query_counts.values()))
        norms = column_postings.norms
        return [(row, dots[row] / (norms[row] * query_norm)) for row in sorted(dots)]

    def _column_postings(self, table_id: str, column: int) -> ColumnPostings:
        key = (table_id, column)
        postings = self._postings.get(key)
        if postings is None:
            built = ColumnPostings.of_cells(self.tables[table_id].column(column))
            # one publish: a racing thread builds an equal value, and both
            # go on with whichever landed first
            postings = self._postings.setdefault(key, built)
        return postings

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "tables": len(self.tables),
            "annotated_tables": len(self.annotations),
            "typed_columns": sum(len(v) for v in self._columns_by_type.values()),
            "entity_cells": sum(len(v) for v in self._cells_by_entity.values()),
            "relation_edges": sum(len(v) for v in self._edges_by_relation.values()),
        }
