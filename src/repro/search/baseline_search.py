"""The no-annotation baseline query processor (paper Figure 3).

All inputs are interpreted as strings.  The processor:

1. finds tables whose column headers match the ``T1`` and ``T2`` strings and
   whose context matches the ``R`` string (context is a soft bonus — headers
   are the hard requirement, since without headers the baseline has nothing
   to anchor a column),
2. within each qualifying table, finds the cells of the ``T2``-matched
   column textually similar to ``E2`` (through the index's token postings,
   so only cells sharing a token with ``E2`` are visited),
3. collects the cell contents of the ``T1``-matched column in qualifying
   rows, and
4. clusters, dedups and ranks the collected strings.

Answers are raw strings — the baseline never consults the catalog.
"""

from __future__ import annotations

from collections import Counter

from repro.catalog.catalog import Catalog
from repro.search.query import RelationQuery
from repro.search.ranking import EvidenceAccumulator, SearchResponse
from repro.search.table_index import AnnotatedTableIndex
from repro.text.tokenize import tokenize

#: header matches kept per ``T1`` / ``T2`` string
HEADER_TOP_K = 60
#: text similarity below which a ``T2``-column cell does not match ``E2``
MIN_CELL_SIMILARITY = 0.6
#: weight of the context match in a table's weight, beside its two headers
CONTEXT_BONUS = 0.25
TOP_K_ANSWERS = 50


class BaselineSearcher:
    """Figure-3 query processing over the textual part of the index."""

    def __init__(self, index: AnnotatedTableIndex, catalog: Catalog) -> None:
        self.index = index
        self.catalog = catalog

    def search(self, query: RelationQuery) -> SearchResponse:
        relation_text, t1_text, t2_text, e2_text = query.as_strings(self.catalog)
        accumulator = EvidenceAccumulator(
            self.catalog, resolve_strings_to_entities=False
        )

        t1_hits = self.index.columns_with_header(t1_text, top_k=HEADER_TOP_K)
        t2_hits = self.index.columns_with_header(t2_text, top_k=HEADER_TOP_K)
        context_scores = self.index.tables_with_context(relation_text)
        e2_counts = Counter(tokenize(e2_text))

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
                t1_score + t2_score + CONTEXT_BONUS * context_scores.get(table_id, 0.0)
            )
            for row, similarity in self.index.anchor_rows(
                table_id, t2_column, e2_counts
            ):
                if similarity < MIN_CELL_SIMILARITY:
                    continue
                answer_text = table.cell(row, t1_column)
                if answer_text.strip():
                    accumulator.add_string_evidence(
                        answer_text, table_weight * similarity, table_id
                    )
        return accumulator.response(top_k=TOP_K_ANSWERS)
