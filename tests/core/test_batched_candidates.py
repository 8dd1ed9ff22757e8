"""Equivalence tests: the candidate engine vs the scalar oracle.

The contract of :mod:`repro.core.candidates` (and the feature computer of
:mod:`repro.core.problem`) is *identity*, not approximation: identical
``Erc`` (ids, scores, ordering), identical ``Tc`` and ``Bcc'``,
bit-identical feature blocks and byte-identical annotations — on fixture
corpora, on hypothesis-generated tables and on the numeric / blank /
unknown-cell edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.errors import UnknownIdError
from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.candidates import (
    CandidateEngine,
    CandidateEntity,
    InternedCandidateTables,
)
from repro.core.features import TypeEntityFeatureMode, type_entity_features
from repro.core.model import default_model
from repro.pipeline.io import annotation_to_dict
from repro.tables.model import Table
from tests.oracles import CandidateGenerator, OracleAnnotator

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


def assert_problems_identical(scalar_problem, batched_problem):
    assert set(scalar_problem.cells) == set(batched_problem.cells)
    for key, scalar_space in scalar_problem.cells.items():
        batched_space = batched_problem.cells[key]
        assert scalar_space.labels == batched_space.labels
        assert [
            (c.entity_id, c.retrieval_score) for c in scalar_space.candidates
        ] == [
            (c.entity_id, c.retrieval_score) for c in batched_space.candidates
        ]
        assert np.array_equal(scalar_space.f1, batched_space.f1)
    assert set(scalar_problem.columns) == set(batched_problem.columns)
    for column, scalar_space in scalar_problem.columns.items():
        batched_space = batched_problem.columns[column]
        assert scalar_space.labels == batched_space.labels
        assert np.array_equal(scalar_space.f2, batched_space.f2)
        assert set(scalar_space.f3) == set(batched_space.f3)
        for row, grid in scalar_space.f3.items():
            assert np.array_equal(grid, batched_space.f3[row])
    assert set(scalar_problem.pairs) == set(batched_problem.pairs)
    for pair, scalar_space in scalar_problem.pairs.items():
        batched_space = batched_problem.pairs[pair]
        assert scalar_space.labels == batched_space.labels
        assert np.array_equal(scalar_space.f4, batched_space.f4)
        assert set(scalar_space.f5) == set(batched_space.f5)
        for row, grid in scalar_space.f5.items():
            assert np.array_equal(grid, batched_space.f5[row])


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
        return CandidateGenerator.sharing(engine), engine

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
        # memoised second pass must answer the same
        assert batched.relation_candidates(lefts, rights) == (
            scalar.relation_candidates(lefts, rights)
        )
        assert batched.relation_candidates([[]], [[]]) == []

    def test_unknown_entity_raises(self, pair, world):
        """An id outside the catalog raises from the engine (as ``Tc`` does
        from the oracle's catalog lookups) rather than a silent answer."""
        scalar, batched = pair
        ghost = [[CandidateEntity("ent:not-in-catalog", 1.0)]]
        entity = next(iter(world.annotator_view.entities.all_entities()))
        known = [scalar.cell_candidates(entity.lemmas[0])]
        with pytest.raises(UnknownIdError):
            scalar.column_type_candidates(ghost)
        with pytest.raises(UnknownIdError):
            batched.column_type_candidates(ghost)
        with pytest.raises(UnknownIdError):
            batched.relation_candidates(ghost, known)


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
            lemma_tfidf=built.lemma_tfidf,
            tables=InternedCandidateTables.from_state(built.tables.to_state()),
        )
        table = wiki_tables[0].table
        texts = [
            table.cell(row, column)
            for row in range(table.n_rows)
            for column in range(table.n_columns)
        ]
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
