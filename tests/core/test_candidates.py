"""Tests for candidate space generation (Erc, Tc, Bcc').

Every case runs against the scalar oracle and, through the ``...OnEngine``
subclasses at the bottom, against the production candidate engine behind
the oracle's signatures: the ``make`` fixture is the implementation under
test.
"""

import pytest

from repro.core.candidates import CandidateEngine
from tests.oracles import CandidateGenerator, EngineQueries


@pytest.fixture()
def make():
    """The implementation under test (overridden to the engine below)."""
    return CandidateGenerator


@pytest.fixture()
def generator(make, book_catalog):
    return make(book_catalog, top_k_entities=5)


def erc(generator, text):
    """``Erc`` of one cell through the batch call both implementations have."""
    return generator.cell_candidates_batch([text])[0]


class TestCellCandidates:
    def test_exact_cell_retrieves_entity(self, generator):
        candidates = erc(generator, "Albert Einstein")
        assert candidates[0].entity_id == "ent:einstein"
        assert candidates[0].retrieval_score > 0

    def test_ambiguous_token_retrieves_several(self, generator):
        # 'Albert' appears in einstein lemmas and two book titles
        ids = {c.entity_id for c in erc(generator, "Albert")}
        assert "ent:einstein" in ids
        assert "ent:uncle_albert" in ids or "ent:time_space" in ids

    def test_numeric_cell_has_no_candidates(self, generator):
        assert erc(generator, "1951") == []
        assert erc(generator, "85%") == []

    def test_blank_cell_has_no_candidates(self, generator):
        assert erc(generator, "") == []
        assert erc(generator, "   ") == []

    def test_unmatched_text_empty(self, generator):
        assert erc(generator, "zzz qqq xxx") == []

    def test_top_k_respected(self, make, book_catalog):
        generator = make(book_catalog, top_k_entities=1)
        assert len(erc(generator, "Albert")) == 1

    def test_validation(self, make, book_catalog):
        with pytest.raises(ValueError):
            make(book_catalog, top_k_entities=0)
        with pytest.raises(ValueError):
            make(book_catalog, max_type_candidates=0)

    def test_paper_candidate_count_scale(self, make, world):
        """On the synthetic world, ambiguous surname cells should retrieve
        multiple candidates (the paper reports 7-8 typical)."""
        generator = make(world.annotator_view, top_k_entities=8)
        # a bare surname from the shared pool
        candidates = erc(generator, "Baker")
        assert len(candidates) >= 2


class TestTypeCandidates:
    def test_union_of_ancestors(self, generator, book_catalog):
        column = [
            erc(generator, "Relativity: The Special and the General Theory"),
            erc(generator, "Uncle Albert and the Quantum Quest"),
        ]
        types = generator.column_type_candidates(column)
        assert "type:book" in types
        assert "type:science_books" in types

    def test_ranked_by_cell_support(self, generator):
        column = [
            erc(generator, "Relativity"),
            erc(generator, "Uncle Albert and the Quantum Quest"),
            erc(generator, "The Time and Space of Uncle Albert"),
        ]
        types = generator.column_type_candidates(column)
        # book-family types supported by all cells outrank person types
        book_rank = types.index("type:book")
        person_rank = (
            types.index("type:person") if "type:person" in types else len(types)
        )
        assert book_rank < person_rank

    def test_empty_column(self, generator):
        assert generator.column_type_candidates([[], []]) == []

    def test_cap_respected(self, make, book_catalog):
        generator = make(book_catalog, max_type_candidates=2)
        column = [erc(generator, "Albert")]
        assert len(generator.column_type_candidates(column)) <= 2


class TestRelationCandidates:
    def test_forward_relation_found(self, generator):
        left = [erc(generator, "Relativity")]
        right = [erc(generator, "A. Einstein")]
        labels = generator.relation_candidates(left, right)
        assert "rel:wrote" in labels

    def test_reversed_relation_found(self, generator):
        left = [erc(generator, "A. Einstein")]
        right = [erc(generator, "Relativity")]
        labels = generator.relation_candidates(left, right)
        assert "rel:wrote^-1" in labels

    def test_no_relation_between_unrelated(self, generator):
        left = [erc(generator, "Russell Stannard")]
        right = [erc(generator, "A. Einstein")]
        assert generator.relation_candidates(left, right) == []

    def test_rowwise_pairing(self, generator):
        # candidates in different rows must not combine
        left = [erc(generator, "Relativity"), []]
        right = [[], erc(generator, "A. Einstein")]
        assert generator.relation_candidates(left, right) == []


class OnEngine:
    """Runs the inherited cases against the production candidate engine."""

    @pytest.fixture()
    def make(self):
        return lambda catalog, **caps: EngineQueries(CandidateEngine(catalog, **caps))


class TestCellCandidatesOnEngine(OnEngine, TestCellCandidates):
    pass


class TestTypeCandidatesOnEngine(OnEngine, TestTypeCandidates):
    pass


class TestRelationCandidatesOnEngine(OnEngine, TestRelationCandidates):
    pass
