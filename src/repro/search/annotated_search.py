"""Annotation-aware query processors (paper Figure 4).

Two strengths, matching the paper's Figure-9 systems:

* **Type** — locate tables having a column annotated ``T1`` and a column
  annotated ``T2`` (subtype-expanded); anchor ``E2`` in the ``T2`` column by
  cell-entity annotation when ``E2`` is in the catalog, else by text
  similarity; collect the ``T1`` column's cells.
* **Type+Rel** — additionally require the column *pair* to be annotated with
  relation ``R`` in the right orientation.

Collected cells contribute entity evidence when annotated, string evidence
otherwise; evidence is aggregated in favour of known entities and ranked
(Figure 4 lines 8-10).

A query visits only the rows that can anchor ``E2``: the cells annotated
``E2`` (the index's entity map) and the cells sharing a token with its text
(the index's per-column token postings), in ascending row order.
"""

from __future__ import annotations

from collections import Counter

from repro.catalog.catalog import Catalog
from repro.search.query import RelationQuery
from repro.search.ranking import EvidenceAccumulator, SearchResponse
from repro.search.table_index import AnnotatedTableIndex
from repro.text.tokenize import tokenize

#: text similarity below which a given-column cell does not anchor ``E2``
MIN_CELL_SIMILARITY = 0.6
#: weight of an entity-annotated answer cell (vs similarity-weighted text)
ENTITY_EVIDENCE_WEIGHT = 1.0
TOP_K_ANSWERS = 50


class AnnotatedSearcher:
    """Figure-4 query processing; set ``use_relations`` for Type+Rel."""

    def __init__(
        self,
        index: AnnotatedTableIndex,
        catalog: Catalog,
        use_relations: bool = True,
        lemma_resolver: dict[str, str] | None = None,
    ) -> None:
        self.index = index
        self.catalog = catalog
        self.use_relations = use_relations
        #: optional prebuilt lemma → entity mapping shared across queries
        #: (see :func:`repro.search.ranking.build_lemma_resolver`); the
        #: serving layer passes one so queries never pay the catalog scan
        self.lemma_resolver = lemma_resolver

    # ------------------------------------------------------------------
    def search(self, query: RelationQuery) -> SearchResponse:
        accumulator = EvidenceAccumulator(
            self.catalog, lemma_resolver=self.lemma_resolver
        )
        entity_rows = self._entity_anchored_rows(query)
        given_counts = Counter(tokenize(query.given_text))
        for table_id, answer_column, given_column in self._candidate_column_pairs(
            query
        ):
            accumulator.tables_considered += 1
            table = self.index.tables[table_id]
            annotation = self.index.annotations.get(table_id)
            anchor_weights = self._anchor_weights(
                given_counts, table_id, given_column, entity_rows
            )
            for row in sorted(anchor_weights):
                anchor_weight = anchor_weights[row]
                answer_entity = (
                    annotation.entity_of(row, answer_column) if annotation else None
                )
                if answer_entity is not None:
                    accumulator.add_entity_evidence(
                        answer_entity,
                        anchor_weight * ENTITY_EVIDENCE_WEIGHT,
                        table_id,
                    )
                else:
                    answer_text = table.cell(row, answer_column)
                    if answer_text.strip():
                        accumulator.add_string_evidence(
                            answer_text, anchor_weight, table_id
                        )
        return accumulator.response(top_k=TOP_K_ANSWERS)

    # ------------------------------------------------------------------
    def _candidate_column_pairs(
        self, query: RelationQuery
    ) -> list[tuple[str, int, int]]:
        """(table, answer column, given column) pairs satisfying the query."""
        if self.use_relations:
            pairs = [
                (edge.table_id, edge.subject_column, edge.object_column)
                for edge in self.index.relation_edges(query.relation_id)
            ]
            return sorted(set(pairs))
        answer_columns = self.index.columns_of_type(query.answer_type)
        given_columns = self.index.columns_of_type(query.given_type)
        given_by_table: dict[str, list[int]] = {}
        for table_id, column in given_columns:
            given_by_table.setdefault(table_id, []).append(column)
        pairs = []
        for table_id, answer_column in answer_columns:
            for given_column in given_by_table.get(table_id, ()):
                if given_column != answer_column:
                    pairs.append((table_id, answer_column, given_column))
        return sorted(set(pairs))

    def _entity_anchored_rows(
        self, query: RelationQuery
    ) -> dict[tuple[str, int], list[int]]:
        """Rows whose cell is annotated ``E2``, grouped by (table, column)."""
        grouped: dict[tuple[str, int], list[int]] = {}
        if query.given_entity is not None:
            for table_id, row, column in self.index.cells_of_entity(
                query.given_entity
            ):
                grouped.setdefault((table_id, column), []).append(row)
        return grouped

    def _anchor_weights(
        self,
        given_counts: Counter[str],
        table_id: str,
        given_column: int,
        entity_rows: dict[tuple[str, int], list[int]],
    ) -> dict[int, float]:
        """Row → how strongly its given-column cell matches ``E2``.

        A cell annotated ``E2`` anchors with 1.0; any other cell anchors with
        its text similarity to ``E2`` (whose token counts are
        ``given_counts``) if that reaches :data:`MIN_CELL_SIMILARITY`.  Rows
        left out anchor with 0.0.
        """
        weights = {
            row: similarity
            for row, similarity in self.index.anchor_rows(
                table_id, given_column, given_counts
            )
            if similarity >= MIN_CELL_SIMILARITY
        }
        n_rows = self.index.tables[table_id].n_rows
        for row in entity_rows.get((table_id, given_column), ()):
            if 0 <= row < n_rows:
                weights[row] = 1.0
        return weights
