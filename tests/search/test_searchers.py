"""Tests for the three query processors on a hand-built corpus."""

import sys
import threading
from collections import Counter

import pytest

from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.search.annotated_search import AnnotatedSearcher
from repro.search.baseline_search import BaselineSearcher
from repro.search.query import RelationQuery
from repro.search.table_index import AnnotatedTableIndex, ColumnPostings
from repro.tables.model import Table
from repro.text.similarity import cosine_tfidf
from repro.text.tokenize import tokenize
from tests.oracles.search import ScanAnnotatedSearcher


def counts(text: str) -> Counter[str]:
    """A text's token counts, as the searchers pass them to ``anchor_rows``."""
    return Counter(tokenize(text))


@pytest.fixture()
def corpus_index(book_catalog) -> AnnotatedTableIndex:
    """Two relevant tables (one clean, one noisy/unannotated) plus a decoy."""
    index = AnnotatedTableIndex(catalog=book_catalog)

    # Table 1: annotated, headers present.
    t1 = Table(
        table_id="t1",
        cells=[
            ["Relativity: The Special and the General Theory", "A. Einstein"],
            ["Uncle Albert and the Quantum Quest", "Russell Stannard"],
            ["The Time and Space of Uncle Albert", "R. Stannard"],
        ],
        headers=["Book", "Author"],
        context="books written by famous authors",
    )
    a1 = TableAnnotation(table_id="t1")
    a1.columns[0] = ColumnAnnotation(0, "type:book")
    a1.columns[1] = ColumnAnnotation(1, "type:author")
    a1.cells[(0, 0)] = CellAnnotation(0, 0, "ent:relativity")
    a1.cells[(0, 1)] = CellAnnotation(0, 1, "ent:einstein")
    a1.cells[(1, 0)] = CellAnnotation(1, 0, "ent:uncle_albert")
    a1.cells[(1, 1)] = CellAnnotation(1, 1, "ent:stannard")
    a1.cells[(2, 0)] = CellAnnotation(2, 0, "ent:time_space")
    a1.cells[(2, 1)] = CellAnnotation(2, 1, "ent:stannard")
    a1.relations[(0, 1)] = RelationAnnotation(0, 1, "rel:wrote")
    index.add_table(t1, a1)

    # Table 2: typed columns but the pair was (wrongly) left unrelated —
    # exploitable by Type but not Type+Rel.
    t2 = Table(
        table_id="t2",
        cells=[["Uncle Albert and the Quantum Quest", "Russell Stannard"]],
        headers=["Title", "Writer"],
        context="a reading list",
    )
    a2 = TableAnnotation(table_id="t2")
    a2.columns[0] = ColumnAnnotation(0, "type:book")
    a2.columns[1] = ColumnAnnotation(1, "type:author")
    a2.cells[(0, 0)] = CellAnnotation(0, 0, "ent:uncle_albert")
    a2.cells[(0, 1)] = CellAnnotation(0, 1, "ent:stannard")
    index.add_table(t2, a2)

    # Decoy: person column pairs a *physicist* with books he did not write
    # (e.g. a "books about Einstein" table) — trips type-only search.
    t3 = Table(
        table_id="t3",
        cells=[["The Time and Space of Uncle Albert", "A. Einstein"]],
        headers=["Book", "Author"],
        context="books and authors",
    )
    a3 = TableAnnotation(table_id="t3")
    a3.columns[0] = ColumnAnnotation(0, "type:book")
    a3.columns[1] = ColumnAnnotation(1, "type:author")
    a3.cells[(0, 0)] = CellAnnotation(0, 0, "ent:time_space")
    a3.cells[(0, 1)] = CellAnnotation(0, 1, "ent:einstein")
    index.add_table(t3, a3)
    index.freeze()
    return index


@pytest.fixture()
def stannard_query(book_catalog) -> RelationQuery:
    return RelationQuery.from_catalog(book_catalog, "rel:wrote", "ent:stannard")


class TestBaselineSearcher:
    def test_finds_answers_via_strings(self, corpus_index, book_catalog, stannard_query):
        searcher = BaselineSearcher(corpus_index, book_catalog)
        response = searcher.search(stannard_query)
        texts = [answer.text.lower() for answer in response.answers]
        assert any("uncle albert and the quantum quest" in text for text in texts)

    def test_returns_strings_not_entities(
        self, corpus_index, book_catalog, stannard_query
    ):
        searcher = BaselineSearcher(corpus_index, book_catalog)
        response = searcher.search(stannard_query)
        assert all(answer.entity_id is None for answer in response.answers)

    def test_no_headers_no_answers(self, book_catalog, stannard_query):
        index = AnnotatedTableIndex(catalog=book_catalog)
        index.add_table(
            Table(
                table_id="bare",
                cells=[["Uncle Albert and the Quantum Quest", "Russell Stannard"]],
            )
        )
        index.freeze()
        searcher = BaselineSearcher(index, book_catalog)
        assert searcher.search(stannard_query).answers == []


class TestTypeOnlySearcher:
    def test_finds_entities(self, corpus_index, book_catalog, stannard_query):
        searcher = AnnotatedSearcher(corpus_index, book_catalog, use_relations=False)
        response = searcher.search(stannard_query)
        ids = [answer.entity_id for answer in response.answers]
        assert "ent:uncle_albert" in ids
        assert "ent:time_space" in ids

    def test_decoy_pollutes_type_only(self, corpus_index, book_catalog):
        """Asking for Einstein's books, type-only search is fooled by the
        'books about Einstein' decoy table."""
        query = RelationQuery.from_catalog(book_catalog, "rel:wrote", "ent:einstein")
        searcher = AnnotatedSearcher(corpus_index, book_catalog, use_relations=False)
        ids = [a.entity_id for a in searcher.search(query).answers]
        assert "ent:time_space" in ids  # wrong answer sneaks in


class TestTypeRelSearcher:
    def test_relation_filter_removes_decoy(self, corpus_index, book_catalog):
        query = RelationQuery.from_catalog(book_catalog, "rel:wrote", "ent:einstein")
        searcher = AnnotatedSearcher(corpus_index, book_catalog, use_relations=True)
        ids = [a.entity_id for a in searcher.search(query).answers]
        assert ids == ["ent:relativity"]

    def test_finds_all_stannard_books(self, corpus_index, book_catalog, stannard_query):
        searcher = AnnotatedSearcher(corpus_index, book_catalog, use_relations=True)
        ids = {a.entity_id for a in searcher.search(stannard_query).answers}
        assert ids == {"ent:uncle_albert", "ent:time_space"}

    def test_text_anchor_fallback(self, book_catalog):
        """E2 not annotated anywhere: anchoring falls back to text match."""
        index = AnnotatedTableIndex(catalog=book_catalog)
        table = Table(
            table_id="t",
            cells=[["Uncle Albert and the Quantum Quest", "Russell Stannard"]],
        )
        annotation = TableAnnotation(table_id="t")
        annotation.columns[0] = ColumnAnnotation(0, "type:book")
        annotation.columns[1] = ColumnAnnotation(1, "type:author")
        annotation.cells[(0, 0)] = CellAnnotation(0, 0, "ent:uncle_albert")
        # note: author cell deliberately unannotated
        annotation.relations[(0, 1)] = RelationAnnotation(0, 1, "rel:wrote")
        index.add_table(table, annotation)
        index.freeze()
        query = RelationQuery.from_catalog(book_catalog, "rel:wrote", "ent:stannard")
        searcher = AnnotatedSearcher(index, book_catalog, use_relations=True)
        ids = [a.entity_id for a in searcher.search(query).answers]
        assert ids == ["ent:uncle_albert"]


class TestPostings:
    """Text anchoring reads per-column token postings."""

    def test_anchor_rows_are_the_nonzero_cosines(self, corpus_index):
        texts = ("Russell Stannard", "stannard STANNARD", "A. Einstein", "Uncle")
        for table_id, table in corpus_index.tables.items():
            for column in range(table.n_columns):
                for text in texts:
                    cosines = [
                        (row, cosine_tfidf(table.cell(row, column), text))
                        for row in range(table.n_rows)
                    ]
                    expected = [(row, cos) for row, cos in cosines if cos != 0.0]
                    assert (
                        corpus_index.anchor_rows(table_id, column, counts(text))
                        == expected
                    )

    def test_tokenless_text_anchors_tokenless_cells(self, book_catalog):
        index = AnnotatedTableIndex(catalog=book_catalog)
        index.add_table(
            Table(table_id="t", cells=[["", "x"], ["Stannard", "y"], ["—", "z"]])
        )
        index.freeze()
        for text in ("", "—", "!!"):
            assert index.anchor_rows("t", 0, counts(text)) == [(0, 1.0), (2, 1.0)]
        assert index.anchor_rows("t", 0, counts("stannard")) == [(1, 1.0)]

    def test_postings_build_once_per_touched_column(
        self, corpus_index, book_catalog, stannard_query, monkeypatch
    ):
        built = []
        of_cells = ColumnPostings.of_cells

        def counting(cells):
            built.append(tuple(cells))
            return of_cells(cells)

        monkeypatch.setattr(ColumnPostings, "of_cells", staticmethod(counting))
        searcher = AnnotatedSearcher(corpus_index, book_catalog, use_relations=True)
        searcher.search(stannard_query)
        # Type+Rel considers one column pair: t1's author column
        assert built == [tuple(corpus_index.tables["t1"].column(1))]
        searcher.search(stannard_query)
        assert len(built) == 1

    def test_threads_racing_on_cold_columns_agree(
        self, corpus_index, book_catalog, stannard_query
    ):
        """Every racing search publishes or reads one postings value per
        column and answers as the row scan does."""
        expected = ScanAnnotatedSearcher(
            corpus_index, book_catalog, use_relations=False
        ).search(stannard_query)
        searcher = AnnotatedSearcher(corpus_index, book_catalog, use_relations=False)
        n_threads = 8
        start = threading.Barrier(n_threads)
        responses = []

        def search():
            start.wait(timeout=30)
            responses.append(searcher.search(stannard_query))

        threads = [threading.Thread(target=search) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert responses == [expected] * n_threads

    def test_warm_search_tokenizes_only_the_query(
        self, corpus_index, book_catalog, stannard_query, monkeypatch
    ):
        """Once a column's postings exist, no cell text is tokenized again."""
        searchers = [
            AnnotatedSearcher(corpus_index, book_catalog, use_relations=flag)
            for flag in (True, False)
        ]
        baseline = BaselineSearcher(corpus_index, book_catalog)
        for searcher in [*searchers, baseline]:
            searcher.search(stannard_query)
        seen = []

        def counting(text, *args, **kwargs):
            seen.append(text)
            return tokenize(text, *args, **kwargs)

        # every module that imported the tokenizer by name
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and vars(module).get("tokenize") is tokenize:
                monkeypatch.setattr(module, "tokenize", counting)
        for searcher in searchers:
            seen.clear()
            assert searcher.search(stannard_query).answers
            assert seen and set(seen) == {stannard_query.given_text}
        # the baseline also matches the relation and type strings against
        # headers and context
        seen.clear()
        assert baseline.search(stannard_query).answers
        assert stannard_query.given_text in seen
        assert set(seen) <= set(stannard_query.as_strings(book_catalog))
