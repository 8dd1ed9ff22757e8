"""Row-scan reference searchers (paper Figures 3 and 4).

Production anchors ``E2`` through the index's token postings and entity
map (:meth:`repro.search.table_index.AnnotatedTableIndex.anchor_rows`),
visiting only rows that can match.  The searchers here are the loops it
replaced: every row of every candidate column, scored with
:func:`repro.text.similarity.cosine_tfidf` on the raw cell text.  They keep
production's candidate selection and thresholds, so any difference in the
answers comes from the anchoring alone.
"""

from __future__ import annotations

from repro.search import annotated_search, baseline_search
from repro.search.annotated_search import AnnotatedSearcher
from repro.search.baseline_search import BaselineSearcher
from repro.search.query import RelationQuery
from repro.search.ranking import EvidenceAccumulator, SearchResponse
from repro.text.similarity import cosine_tfidf


class ScanAnnotatedSearcher(AnnotatedSearcher):
    """Figure 4, scoring every row of every candidate column."""

    def search(self, query: RelationQuery) -> SearchResponse:
        accumulator = EvidenceAccumulator(
            self.catalog, lemma_resolver=self.lemma_resolver
        )
        for table_id, answer_column, given_column in self._candidate_column_pairs(
            query
        ):
            accumulator.tables_considered += 1
            table = self.index.tables[table_id]
            annotation = self.index.annotations.get(table_id)
            for row in range(table.n_rows):
                anchor_weight = self._scan_anchor_weight(
                    query, table, annotation, row, given_column
                )
                if anchor_weight <= 0.0:
                    continue
                answer_entity = (
                    annotation.entity_of(row, answer_column) if annotation else None
                )
                if answer_entity is not None:
                    accumulator.add_entity_evidence(
                        answer_entity,
                        anchor_weight * annotated_search.ENTITY_EVIDENCE_WEIGHT,
                        table_id,
                    )
                else:
                    answer_text = table.cell(row, answer_column)
                    if answer_text.strip():
                        accumulator.add_string_evidence(
                            answer_text, anchor_weight, table_id
                        )
        return accumulator.response(top_k=annotated_search.TOP_K_ANSWERS)

    def _scan_anchor_weight(
        self, query: RelationQuery, table, annotation, row: int, given_column: int
    ) -> float:
        """How strongly this row's given-column cell matches ``E2``."""
        if annotation is not None and query.given_entity is not None:
            if annotation.entity_of(row, given_column) == query.given_entity:
                return 1.0
        similarity = cosine_tfidf(table.cell(row, given_column), query.given_text)
        if similarity >= annotated_search.MIN_CELL_SIMILARITY:
            return similarity
        return 0.0


class ScanBaselineSearcher(BaselineSearcher):
    """Figure 3, scoring every row of every ``T2``-matched column."""

    def search(self, query: RelationQuery) -> SearchResponse:
        relation_text, t1_text, t2_text, e2_text = query.as_strings(self.catalog)
        accumulator = EvidenceAccumulator(
            self.catalog, resolve_strings_to_entities=False
        )

        t1_hits = self.index.columns_with_header(
            t1_text, top_k=baseline_search.HEADER_TOP_K
        )
        t2_hits = self.index.columns_with_header(
            t2_text, top_k=baseline_search.HEADER_TOP_K
        )
        context_scores = self.index.tables_with_context(relation_text)

        t1_by_table: dict[str, tuple[int, float]] = {}
        for table_id, column, score in t1_hits:
            current = t1_by_table.get(table_id)
            if current is None or score > current[1]:
                t1_by_table[table_id] = (column, score)
        for table_id, t2_column, t2_score in t2_hits:
            t1_entry = t1_by_table.get(table_id)
            if t1_entry is None:
                continue
            t1_column, t1_score = t1_entry
            if t1_column == t2_column:
                continue
            accumulator.tables_considered += 1
            table = self.index.tables[table_id]
            table_weight = (
                t1_score
                + t2_score
                + baseline_search.CONTEXT_BONUS * context_scores.get(table_id, 0.0)
            )
            for row in range(table.n_rows):
                cell_text = table.cell(row, t2_column)
                similarity = cosine_tfidf(cell_text, e2_text)
                if similarity < baseline_search.MIN_CELL_SIMILARITY:
                    continue
                answer_text = table.cell(row, t1_column)
                if answer_text.strip():
                    accumulator.add_string_evidence(
                        answer_text, table_weight * similarity, table_id
                    )
        return accumulator.response(top_k=baseline_search.TOP_K_ANSWERS)
