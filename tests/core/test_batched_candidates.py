"""Equivalence tests: the candidate engine vs the scalar oracle.

The contract of :mod:`repro.core.candidates` (and the feature computer of
:mod:`repro.core.problem`) is *identity*, not approximation: identical
``Erc`` (ids, scores, ordering), identical ``Tc`` and ``Bcc'``,
bit-identical feature blocks and byte-identical annotations — on fixture
corpora, on hypothesis-generated tables, on generated catalogs built to hit
the array stage's edge cases, and on the numeric / blank / unknown-cell
edges.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import ReproSession
from repro.catalog.builder import CatalogBuilder
from repro.catalog.errors import UnknownIdError
from repro.catalog.relations import Cardinality
from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.candidates import CandidateEngine, InternedCandidateTables
from repro.core.features import TypeEntityFeatureMode, type_entity_features
from repro.core.model import default_model
from repro.core.problem import FeatureComputer
from repro.pipeline.io import annotation_to_dict
from repro.tables.model import Table
from repro.text.index import InvertedIndex
from tests.oracles import CandidateGenerator, EngineQueries, OracleAnnotator, wire

TOP_K = 8


@pytest.fixture(scope="module")
def engines(world):
    """(scalar candidate oracle, production annotator) on the same BP."""
    batched = TableAnnotator(world.annotator_view, model=default_model())
    scalar = OracleAnnotator(
        world.annotator_view,
        model=default_model(),
        candidates="scalar",
        bp="batched",
        candidate_engine=batched.candidate_engine,
    )
    return scalar, batched


def assert_bits_equal(expected: np.ndarray, actual: np.ndarray) -> None:
    assert expected.dtype == actual.dtype
    assert expected.shape == actual.shape
    assert expected.tobytes() == actual.tobytes()


def assert_problems_identical(scalar_problem, batched_problem):
    """Same variables in the same order, same label tuples (``Erc``,
    ``Tc``, ``Bcc'``), bit-identical scores and feature arrays."""
    assert scalar_problem.variables() == batched_problem.variables()
    for scalar_space, batched_space in zip(
        scalar_problem.columns, batched_problem.columns, strict=True
    ):
        assert scalar_space.column == batched_space.column
        assert scalar_space.entities == batched_space.entities
        assert scalar_space.types == batched_space.types
        for name in ("rows", "offsets", "scores", "f1", "f2", "f3"):
            assert_bits_equal(
                getattr(scalar_space, name), getattr(batched_space, name)
            )
    for scalar_space, batched_space in zip(
        scalar_problem.pairs, batched_problem.pairs, strict=True
    ):
        assert (scalar_space.left, scalar_space.right) == (
            batched_space.left,
            batched_space.right,
        )
        assert scalar_space.labels == batched_space.labels
        for name in ("f4", "left_cells", "right_cells", "n_left", "n_right", "f5"):
            assert_bits_equal(
                getattr(scalar_space, name), getattr(batched_space, name)
            )


class TestFixtureEquivalence:
    def test_problems_identical_on_noisy_corpus(self, engines, web_tables):
        scalar, batched = engines
        for labeled in web_tables:
            assert_problems_identical(
                scalar.build_problem(labeled.table),
                batched.build_problem(labeled.table),
            )

    def test_annotations_byte_identical(self, engines, wiki_tables, web_tables):
        scalar, batched = engines
        for labeled in wiki_tables + web_tables:
            assert annotation_to_dict(
                batched.annotate(labeled.table)
            ) == annotation_to_dict(scalar.annotate(labeled.table))


class TestDirectQueries:
    """The three candidate queries compared engine-vs-engine directly."""

    @pytest.fixture(scope="class")
    def pair(self, world):
        engine = CandidateEngine(world.annotator_view, top_k_entities=TOP_K)
        return CandidateGenerator.sharing(engine), EngineQueries(engine)

    def test_cell_candidates_batch_matches_scalar(self, pair, world):
        scalar, batched = pair
        texts = []
        for entity in list(world.annotator_view.entities.all_entities())[:40]:
            texts.extend(entity.lemmas[:2])
        texts += ["", "   ", "1951", "85%", "3,000", "zzz qqq", "Baker", "baker "]
        batch = batched.cell_candidates_batch(texts)
        for text, candidates in zip(texts, batch):
            assert candidates == scalar.cell_candidates(text)

    def test_column_type_candidates_match(self, pair, world):
        scalar, batched = pair
        entities = list(world.annotator_view.entities.all_entities())
        columns = [
            [scalar.cell_candidates(entity.lemmas[0]) for entity in entities[i : i + 6]]
            for i in range(0, 60, 6)
        ]
        for column in columns:
            assert batched.column_type_candidates(
                column
            ) == scalar.column_type_candidates(column)
        # blank / empty columns
        assert batched.column_type_candidates([]) == []
        assert batched.column_type_candidates([[], []]) == []

    def test_relation_candidates_match(self, pair, world):
        scalar, batched = pair
        entities = list(world.annotator_view.entities.all_entities())
        lefts = [scalar.cell_candidates(e.lemmas[0]) for e in entities[:20]]
        rights = [scalar.cell_candidates(e.lemmas[-1]) for e in entities[20:40]]
        assert batched.relation_candidates(lefts, rights) == (
            scalar.relation_candidates(lefts, rights)
        )
        assert batched.relation_candidates([[]], [[]]) == []


def ghost_lemma_index(catalog):
    """The catalog's lemma index plus one key no catalog entity has."""
    index = InvertedIndex()
    for entity in catalog.entities.all_entities():
        for lemma in entity.lemmas:
            index.add(entity.entity_id, lemma)
    index.add("ent:ghost", "Ghost Lemma")
    index.freeze()
    return index


class TestLemmaIndexCheck:
    """Every lemma-index key is interned when the engine is built, so an
    index naming an entity outside the catalog fails there, not on the
    first request that retrieves the key."""

    def test_ghost_lemma_key_raises_at_engine_build(self, book_catalog):
        index = ghost_lemma_index(book_catalog)
        with pytest.raises(UnknownIdError, match="ent:ghost"):
            CandidateEngine(book_catalog, lemma_index=index)

    def test_ghost_lemma_key_raises_at_session_open(self, tmp_path, tiny_world):
        from repro.serve.bundle import build_bundle, load_bundle

        build_bundle(tmp_path / "bundle", tiny_world.annotator_view, [])
        bundle = load_bundle(tmp_path / "bundle")
        index = ghost_lemma_index(bundle.catalog)
        with pytest.raises(UnknownIdError, match="ent:ghost"):
            ReproSession.from_bundle(dataclasses.replace(bundle, lemma_index=index))


class TestTokenlessLemma:
    """f1/f2 weigh tokens with the lemma index's IDF, so a lemma with no
    tokens, which the index never holds as a document, counts in no IDF."""

    def test_tokenless_lemma_moves_no_index_document_and_no_block(self, book_catalog):
        cells = ("Albert Einstein", "A. Einstein", "Uncle Albert", "Relativity")
        headers = ("Author", "science book title", "writer of the book")
        entity_ids = tuple(book_catalog.entities)
        type_ids = tuple(book_catalog.types)

        def blocks():
            engine = CandidateEngine(book_catalog)
            features = FeatureComputer(
                book_catalog, TypeEntityFeatureMode.INV_SQRT_DIST, engine
            )
            entities = engine.tables.intern("entity", entity_ids)
            types = engine.tables.intern("type", type_ids)
            return engine.lemma_index.document_count, [
                *features.f1_blocks([(cell, entities) for cell in cells]),
                *features.f2_blocks([(header, types) for header in headers]),
            ]

        documents, before = blocks()
        book_catalog.entities.add_lemmas("ent:stannard", ["—"])
        assert "—" in book_catalog.entities.lemmas("ent:stannard")
        documents_after, after = blocks()
        assert documents_after == documents
        for block_before, block_after in zip(before, after, strict=True):
            assert block_after.tobytes() == block_before.tobytes()


class TestHypothesisTables:
    """Generated tables: arbitrary mixes of lemma, numeric and junk cells."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_generated_tables_identical(self, data, engines, world):
        scalar, batched = engines
        lemmas: list[str] = []
        for entity in list(world.annotator_view.entities.all_entities())[:60]:
            lemmas.extend(entity.lemmas)
        cell = st.one_of(
            st.sampled_from(lemmas),
            st.sampled_from(["", "  ", "1984", "12%", "3,000 km", "zzz qqq"]),
            st.text(
                alphabet="abz XYZ.',!0123456789", min_size=0, max_size=14
            ),
        )
        n_rows = data.draw(st.integers(min_value=1, max_value=5))
        n_columns = data.draw(st.integers(min_value=1, max_value=3))
        rows = data.draw(
            st.lists(
                st.lists(cell, min_size=n_columns, max_size=n_columns),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        headers = data.draw(
            st.lists(
                st.one_of(st.none(), cell),
                min_size=n_columns,
                max_size=n_columns,
            )
        )
        table = Table(
            table_id="hyp",
            cells=[list(row) for row in rows],
            headers=list(headers),
        )
        assert_problems_identical(
            scalar.build_problem(table), batched.build_problem(table)
        )
        assert annotation_to_dict(batched.annotate(table)) == (
            annotation_to_dict(scalar.annotate(table))
        )


#: lemma vocabulary of the edge-case catalogs: few words, so cells match
#: several entities and retrieval, type support and pair counts tie often
WORDS = ("red", "blue", "green", "gold")
JUNK_CELLS = ("", "  ", "12", "3.5%", "zzz")


@st.composite
def edge_catalogs(draw):
    """A small catalog built to hit the array stage's edge cases.

    Types form a random DAG (some without instances); one entity in four
    has no direct type, so no type ancestor at all, the others one or two;
    relations have random schemas and cardinalities (functional ones give
    violations) and up to eight tuples (the first at least two), and
    ``rel:empty`` never has one.
    """
    builder = CatalogBuilder(name="edge")
    n_types = draw(st.integers(1, 5))
    for t in range(n_types):
        parents = draw(st.sets(st.integers(0, t - 1), max_size=2)) if t else set()
        builder.type(
            f"type:t{t}",
            f"{WORDS[t % len(WORDS)]} kind",
            parents=[f"type:t{p}" for p in sorted(parents)],
        )
    n_entities = draw(st.integers(2, 9))
    for e in range(n_entities):
        types = (
            draw(st.sets(st.integers(0, n_types - 1), min_size=1, max_size=2))
            if draw(st.integers(0, 3))
            else set()
        )
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
        builder.entity(
            f"ent:e{e}", [" ".join(words)], types=[f"type:t{t}" for t in sorted(types)]
        )
    type_ids = st.sampled_from([f"type:t{t}" for t in range(n_types)])
    entities = st.integers(0, n_entities - 1)
    for r in range(draw(st.integers(1, 3))):
        builder.relation(
            f"rel:r{r}",
            draw(type_ids),
            draw(type_ids),
            cardinality=draw(st.sampled_from(list(Cardinality))),
        )
        for subject, object_ in sorted(
            draw(
                st.sets(
                    st.tuples(entities, entities),
                    min_size=0 if r else 2,
                    max_size=8,
                )
            )
        ):
            builder.fact(f"rel:r{r}", f"ent:e{subject}", f"ent:e{object_}")
    builder.relation("rel:empty", draw(type_ids), draw(type_ids))
    return builder.build()


@st.composite
def edge_tables(draw, catalog):
    """2-4 columns and 1-5 rows of lemmas, bare words and junk; a column
    is junk in every row one time in four.  Most rows put a catalog fact's subject
    and object into two of their columns, in either order, so column pairs
    have candidate relations (plain and reversed) to rank and cut."""
    lemma = st.sampled_from(
        sorted(
            {
                lemma
                for entity in catalog.entities.all_entities()
                for lemma in entity.lemmas
            }
        )
    )
    cell = st.one_of(
        lemma, lemma, st.sampled_from(WORDS), st.sampled_from(JUNK_CELLS)
    )
    facts = [
        (catalog.entities.lemmas(subject)[0], catalog.entities.lemmas(object_)[0])
        for relation_id in sorted(catalog.relations)
        for subject, object_ in sorted(catalog.relations.tuples(relation_id))
    ]
    n_rows = draw(st.integers(1, 5))
    n_columns = draw(st.integers(2, 4))
    junk_columns = {
        column for column in range(n_columns) if draw(st.integers(0, 3)) == 0
    }
    cells = []
    for _row in range(n_rows):
        row = [draw(cell) for _column in range(n_columns)]
        if draw(st.integers(0, 3)):
            left, right = draw(
                st.lists(
                    st.integers(0, n_columns - 1), min_size=2, max_size=2, unique=True
                )
            )
            row[left], row[right] = draw(st.sampled_from(facts))
        for column in junk_columns:
            row[column] = draw(st.sampled_from(JUNK_CELLS))
        cells.append(row)
    headers = [
        draw(st.one_of(st.none(), st.sampled_from(("", "red kind", "gold"))))
        for _column in range(n_columns)
    ]
    return Table(table_id="edge", cells=cells, headers=headers)


class TestArrayStageEdgeCases:
    """Generated catalogs and tables against the scalar candidate oracle:
    ``Tc``, ``Bcc'``, every block and the wire JSON, bit for bit, on
    columns where no row has candidates, rows where one side of a pair has
    none, entities with no type ancestors, relations with no tuples,
    reversed labels, functional-relation violations and ties at the
    ``max_type_candidates`` and ``max_column_pairs`` cuts (caps of 1 and 2
    against small catalogs).

    Both sides decode with the fused BP engine, so the wire check covers
    the candidate stage alone: these catalogs make exactly tied MAP
    labelings common (two entities with the same lemma and types), and on
    such a tie the per-edge scalar engine and the fused engine can sum a
    belief to 0.0 and -4.4e-16 and pick different labels.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_edge_cases_identical(self, data):
        catalog = data.draw(edge_catalogs(), label="catalog")
        table = data.draw(edge_tables(catalog), label="table")
        config = AnnotatorConfig(
            top_k_entities=data.draw(st.sampled_from((1, 3, 8))),
            max_type_candidates=data.draw(st.sampled_from((1, 2, 64))),
            max_column_pairs=data.draw(st.sampled_from((1, 2, 12))),
        )
        model = default_model(data.draw(st.sampled_from(list(TypeEntityFeatureMode))))
        production = TableAnnotator(catalog, model=model, config=config)
        oracle = OracleAnnotator(
            catalog,
            model=model,
            config=config,
            bp="batched",
            candidate_engine=production.candidate_engine,
        )
        assert_problems_identical(
            oracle.build_problem(table), production.build_problem(table)
        )
        assert wire(production.annotate(table)) == wire(oracle.annotate(table))


def assert_f3_grid_matches_oracle(catalog):
    """``tables.f3_grid`` holds ``type_entity_features`` byte for byte, for
    every (type, entity) pair in every mode."""
    tables = InternedCandidateTables.from_catalog(catalog)
    modes = list(TypeEntityFeatureMode)
    expected = np.array(
        [
            [
                [
                    type_entity_features(catalog, type_id, entity_id, mode)
                    for entity_id in tables.entity_ids
                ]
                for type_id in tables.type_ids
            ]
            for mode in modes
        ]
    )
    grid = tables.f3_grid
    assert grid.shape == (len(modes), len(tables.type_ids), len(tables.entity_ids), 3)
    assert grid.dtype == expected.dtype
    differing = np.argwhere(grid.view(np.uint64) != expected.view(np.uint64))
    assert not len(differing), [
        (modes[m].value, tables.type_ids[t], tables.entity_ids[e])
        for m, t, e, _feature in differing[:5].tolist()
    ]
    assert grid.tobytes() == expected.tobytes()
    return tables


class TestInternedTables:
    def test_state_round_trip(self, world):
        tables = InternedCandidateTables.from_catalog(world.annotator_view)
        state = tables.to_state()
        state_again = InternedCandidateTables.from_state(state).to_state()
        assert state.keys() == state_again.keys()
        for field, value in state.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == state_again[field].dtype, field
                assert value.tobytes() == state_again[field].tobytes(), field
            else:
                assert value == state_again[field], field

    def test_f3_grid_matches_oracle_with_missing_links(self, world):
        """The annotator view drops catalog links, so the repair branch
        (not contained, relatedness > 0) is exercised."""
        tables = assert_f3_grid_matches_oracle(world.annotator_view)
        repaired = (tables.f3_grid[..., 2] == 0) & (tables.f3_grid[..., 1] > 0)
        assert repaired.any()

    def test_f3_grid_matches_oracle_on_edge_cases(self, book_catalog):
        """An instance-less type and an entity with no direct type."""
        book_catalog.add_type("type:empty", ["empty"])
        book_catalog.add_subtype("type:empty", "type:book")
        book_catalog.add_entity("ent:untyped", ["Untyped"])
        tables = assert_f3_grid_matches_oracle(book_catalog)
        empty = tables.type_index["type:empty"]
        untyped = tables.entity_index["ent:untyped"]
        assert not tables.f3_grid[:, empty].any()
        assert not tables.f3_grid[:, :, untyped].any()

    def test_f3_grid_over_ceiling_raises(self, world, monkeypatch):
        """A catalog past ``MAX_DENSE_F3_CELLS`` is refused at build time,
        naming its cell count and the ceiling."""
        import repro.core.candidates as candidates_module

        catalog = world.annotator_view
        cells = len(catalog.types) * len(catalog.entities)
        monkeypatch.setattr(candidates_module, "MAX_DENSE_F3_CELLS", cells - 1)
        with pytest.raises(ValueError, match="MAX_DENSE_F3_CELLS") as raised:
            InternedCandidateTables.from_catalog(catalog)
        assert f"= {cells} f3 cells" in str(raised.value)
        assert f"MAX_DENSE_F3_CELLS = {cells - 1}" in str(raised.value)

    def test_restored_tables_drive_identical_engine(self, world, wiki_tables):
        built = CandidateEngine(world.annotator_view, top_k_entities=TOP_K)
        restored = CandidateEngine(
            world.annotator_view,
            top_k_entities=TOP_K,
            lemma_index=built.lemma_index,
            tables=InternedCandidateTables.from_state(built.tables.to_state()),
        )
        table = wiki_tables[0].table
        texts = [
            table.cell(row, column)
            for row in range(table.n_rows)
            for column in range(table.n_columns)
        ]
        built, restored = EngineQueries(built), EngineQueries(restored)
        per_cell = built.cell_candidates_batch(texts)
        assert per_cell == restored.cell_candidates_batch(texts)
        column = per_cell[: table.n_rows]
        assert built.column_type_candidates(column) == (
            restored.column_type_candidates(column)
        )


class TestEngineKnob:
    def test_unknown_candidate_engine_rejected(self):
        """The removed ``candidate_engine`` knob is rejected, not ignored."""
        with pytest.raises(ValueError, match="candidate_engine"):
            AnnotatorConfig.from_dict({"candidate_engine": "scalar"})

    def test_prebuilt_batched_engine_reused(self, world):
        engine = CandidateEngine(world.annotator_view)
        annotator = TableAnnotator(
            world.annotator_view, candidate_engine=engine
        )
        assert annotator.candidate_engine is engine
