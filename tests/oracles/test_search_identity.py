"""Production search against the row-scan reference, answer for answer.

Generated indexes of small tables (cells drawn from texts with repeated
tokens, no tokens at all, mixed case and non-ASCII case folding; entity
annotations drawn independently of the cell text) are searched by the
production processors, which anchor ``E2`` through token postings and the
entity map, and by the reference processors in :mod:`tests.oracles.search`,
which score every row with ``cosine_tfidf``.  Answers, score bits, entity
ids, supporting tables, ``tables_considered`` and ``rows_matched`` must be
identical for Type, Type+Rel and the baseline.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.builder import CatalogBuilder
from repro.catalog.catalog import Catalog
from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.search.annotated_search import AnnotatedSearcher
from repro.search.baseline_search import BaselineSearcher
from repro.search.query import RelationQuery
from repro.search.ranking import SearchResponse
from repro.search.table_index import AnnotatedTableIndex
from repro.tables.generator import REVERSED_SUFFIX
from repro.tables.model import Table
from tests.oracles.search import ScanAnnotatedSearcher, ScanBaselineSearcher

#: person entities and their lemmas, primary first: repeated tokens, a
#: punctuation-only primary lemma (the empty-vs-empty rule) and non-ASCII
#: case folding
PEOPLE = {
    "ent:anna": ["Anna Baker", "A. Baker"],
    "ent:baker": ["Baker Baker Baker", "Baker"],
    "ent:dash": ["—", "Dash"],
    "ent:ecole": ["ÉCOLE Normale"],
    "ent:istanbul": ["İstanbul Bey"],
    "ent:strasse": ["Straße", "Strasse Mann"],
}
FILMS = {
    "ent:night": ["Night Film"],
    "ent:day": ["Day of Night", "Day"],
    "ent:baker_film": ["Baker Street"],
}


def build_catalog() -> Catalog:
    builder = (
        CatalogBuilder(name="search-identity")
        .type("type:person", "person")
        .type("type:director", "director", parents=["type:person"])
        .type("type:film", "film", "movie")
        .type("type:city", "city")
        .relation("rel:directed", "type:film", "type:director", lemmas=["directed by"])
        .relation("rel:lives_in", "type:person", "type:city", lemmas=["lives in"])
    )
    for entity_id, lemmas in PEOPLE.items():
        builder.entity(entity_id, lemmas, types=["type:director"])
    for entity_id, lemmas in FILMS.items():
        builder.entity(entity_id, lemmas, types=["type:film"])
    return builder.fact("rel:directed", "ent:night", "ent:anna").build()


CATALOG = build_catalog()

ENTITIES = sorted(PEOPLE) + sorted(FILMS)
#: (lemma, its entity) over the whole catalog
LEMMAS = [
    (lemma, entity_id)
    for entity_id, lemmas in {**PEOPLE, **FILMS}.items()
    for lemma in lemmas
]
#: tokenless cells and cells sharing no token with any lemma
JUNK = ["", "—", "  ", "!!", "1984", "zzz qqq"]
CASINGS = (str, str.lower, str.upper, str.casefold)
HEADERS = ["film", "movie", "director", "person", "city", "Film title", ""]
CONTEXTS = ["films directed by", "directed by people", "cities", ""]
TYPES = [None, "type:film", "type:person", "type:director", "type:city"]
LABELS = [
    None,
    "rel:directed",
    "rel:directed" + REVERSED_SUFFIX,
    "rel:lives_in",
]


@st.composite
def cell(draw) -> tuple[str, str | None]:
    """A cell text and the entity it names: a lemma recased, with a token
    repeated, dropped or added, or junk naming nothing."""
    if draw(st.integers(0, 4)) == 0:
        junk = st.sampled_from(JUNK) | st.text(alphabet="abÉé —!", max_size=6)
        return draw(junk), None
    lemma, entity_id = draw(st.sampled_from(LEMMAS))
    tokens = lemma.split(" ")
    edit = draw(st.sampled_from(["none", "repeat", "drop", "extra"]))
    if edit == "repeat":
        tokens = tokens + tokens[:1]
    elif edit == "drop":
        tokens = tokens[1:] or tokens
    elif edit == "extra":
        tokens = tokens + ["zzz"]
    return draw(st.sampled_from(CASINGS))(" ".join(tokens)), entity_id


@st.composite
def annotated_table(draw, table_id: str) -> tuple[Table, TableAnnotation | None]:
    n_rows = draw(st.integers(1, 5))
    n_columns = draw(st.integers(1, 3))
    drawn = [[draw(cell()) for _ in range(n_columns)] for _ in range(n_rows)]
    headers = draw(
        st.none()
        | st.lists(st.sampled_from(HEADERS), min_size=n_columns, max_size=n_columns)
    )
    table = Table(
        table_id=table_id,
        cells=[[text for text, _ in row] for row in drawn],
        headers=headers,
        context=draw(st.sampled_from(CONTEXTS)),
    )
    if not draw(st.booleans()):
        return table, None
    annotation = TableAnnotation(table_id=table_id)
    for column in range(n_columns):
        annotation.columns[column] = ColumnAnnotation(
            column, draw(st.sampled_from(TYPES))
        )
    # the entity a cell names, another one (so a cell annotated E2 may
    # share no token with it) or none; rows -1 and n_rows lie off the table
    for row in range(-1, n_rows + 1):
        for column in range(n_columns):
            named = drawn[row][column][1] if 0 <= row < n_rows else None
            entity_id = draw(st.sampled_from([None, named]) | st.sampled_from(ENTITIES))
            if entity_id is not None:
                annotation.cells[(row, column)] = CellAnnotation(row, column, entity_id)
    for left in range(n_columns):
        for right in range(left + 1, n_columns):
            label = draw(st.sampled_from(LABELS))
            annotation.relations[(left, right)] = RelationAnnotation(left, right, label)
    return table, annotation


@st.composite
def search_case(draw) -> tuple[AnnotatedTableIndex, list[RelationQuery]]:
    n_tables = draw(st.integers(1, 4))
    index = AnnotatedTableIndex(catalog=CATALOG)
    for number in range(n_tables):
        table, annotation = draw(annotated_table(f"t{number}"))
        index.add_table(table, annotation)
    index.freeze()
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            queries.append(
                RelationQuery.from_catalog(
                    CATALOG, "rel:directed", draw(st.sampled_from(sorted(PEOPLE)))
                )
            )
        else:
            # a string-only E2, or an entity id with some other text
            queries.append(
                RelationQuery(
                    relation_id="rel:directed",
                    answer_type="type:film",
                    given_type="type:director",
                    given_entity=draw(st.none() | st.sampled_from(ENTITIES)),
                    given_text=draw(cell())[0],
                )
            )
    return index, queries


def fingerprint(response: SearchResponse) -> tuple:
    """Everything a response says, scores as exact bits."""
    return (
        [
            (
                answer.text,
                answer.score.hex(),
                answer.entity_id,
                answer.supporting_tables,
            )
            for answer in response.answers
        ],
        response.tables_considered,
        response.rows_matched,
    )


@settings(max_examples=150, deadline=None)
@given(case=search_case())
def test_postings_search_matches_row_scan(case):
    index, queries = case
    pairs = [
        (
            AnnotatedSearcher(index, CATALOG, use_relations=flag),
            ScanAnnotatedSearcher(index, CATALOG, use_relations=flag),
        )
        for flag in (True, False)
    ]
    pairs.append(
        (BaselineSearcher(index, CATALOG), ScanBaselineSearcher(index, CATALOG))
    )
    # twice: the first pass builds the postings, the second reads them
    for _ in range(2):
        for query in queries:
            for production, reference in pairs:
                expected = fingerprint(reference.search(query))
                assert fingerprint(production.search(query)) == expected, query
