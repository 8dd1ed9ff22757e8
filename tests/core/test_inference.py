"""Tests for simple (Figure 2) and collective (Figure 11) inference."""

import dataclasses
import itertools

import pytest

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.fused import annotate_problem
from repro.core.learning import map_assignment_of
from repro.core.model import default_model
from repro.core.simple_inference import annotate_simple
from repro.tables.model import Table
from tests.oracles import build_factor_graph


@pytest.fixture()
def book_table() -> Table:
    return Table(
        table_id="books",
        cells=[
            ["Relativity: The Special and the General Theory", "A. Einstein"],
            ["Uncle Albert and the Quantum Quest", "Russell Stannard"],
            ["The Time and Space of Uncle Albert", "Stannard"],
        ],
        headers=["Title", "Author"],
        context="books and authors",
    )


@pytest.fixture()
def book_problem(book_catalog, book_table):
    annotator = TableAnnotator(
        book_catalog, config=AnnotatorConfig(top_k_entities=5)
    )
    return annotator.build_problem(book_table)


def brute_force_best(problem, model, with_relations=True):
    graph = build_factor_graph(problem, model, with_relations=with_relations)
    names = list(graph.variables)
    best, best_score = None, float("-inf")
    for combo in itertools.product(*[graph.variables[n].domain for n in names]):
        assignment = dict(zip(names, combo))
        score = graph.score(assignment)
        if score > best_score:
            best, best_score = assignment, score
    return best, best_score


class TestSimpleInference:
    def test_figure1_scenario(self, book_problem):
        """The paper's Figure-1 example: titles resolve to books, authors to
        persons, despite 'Albert' appearing in book titles."""
        annotation = annotate_simple(book_problem, default_model())
        assert annotation.entity_of(0, 0) == "ent:relativity"
        assert annotation.entity_of(0, 1) == "ent:einstein"
        assert annotation.entity_of(1, 0) == "ent:uncle_albert"
        assert annotation.entity_of(1, 1) == "ent:stannard"
        assert annotation.entity_of(2, 1) == "ent:stannard"
        assert annotation.type_of(0) in ("type:book", "type:science_books")
        assert annotation.type_of(1) == "type:author"

    def test_matches_brute_force(self, book_problem):
        """Figure-2 inference is exact for the relation-free objective."""
        model = default_model()
        annotation = annotate_simple(book_problem, model)
        assignment = map_assignment_of(annotation)
        graph = build_factor_graph(book_problem, model, with_relations=False)
        _best, best_score = brute_force_best(
            book_problem, model, with_relations=False
        )
        assert graph.score(assignment) == pytest.approx(best_score, abs=1e-9)

    def test_diagnostics(self, book_problem):
        annotation = annotate_simple(book_problem, default_model())
        assert annotation.diagnostics["method"] == "simple"


class TestCollectiveInference:
    def test_matches_brute_force_on_small_problem(self, book_problem):
        """Message passing finds the exact MAP on this (loopy) problem."""
        model = default_model()
        annotation = annotate_problem(book_problem, model, AnnotatorConfig())
        assignment = map_assignment_of(annotation)
        graph = build_factor_graph(book_problem, model)
        _best, best_score = brute_force_best(book_problem, model)
        assert graph.score(assignment) == pytest.approx(best_score, abs=1e-6)

    def test_relation_recovered(self, book_problem):
        annotation = annotate_problem(book_problem, default_model(), AnnotatorConfig())
        assert annotation.relation_of(0, 1) == "rel:wrote"

    def test_converges_within_few_iterations(self, book_problem):
        annotation = annotate_problem(book_problem, default_model(), AnnotatorConfig())
        assert annotation.diagnostics["converged"]
        # the paper: "convergence was achieved within three iterations"
        assert annotation.diagnostics["iterations"] <= 5

    def test_without_relations_equals_simple(self, book_problem):
        """With no bcc' variables the schedule reduces to Figure 2."""
        model = default_model()
        no_relations = dataclasses.replace(book_problem, pairs=())
        collective = annotate_problem(no_relations, model, AnnotatorConfig())
        simple = annotate_simple(book_problem, model)
        graph = build_factor_graph(book_problem, model, with_relations=False)
        assert graph.score(map_assignment_of(collective)) == pytest.approx(
            graph.score(map_assignment_of(simple)), abs=1e-9
        )

    def test_unary_bonus_changes_decision(self, book_problem):
        """Loss augmentation must be able to flip labels."""
        model = default_model()
        plain = annotate_problem(book_problem, model, AnnotatorConfig())
        space = book_problem.cells[(0, 0)]
        bonus = {
            space.variable_name: [
                0.0 if label is None else -100.0 for label in space.labels
            ]
        }
        augmented = annotate_problem(
            book_problem, model, AnnotatorConfig(), unary_bonus=bonus
        )
        assert plain.entity_of(0, 0) == "ent:relativity"
        assert augmented.entity_of(0, 0) is None

    def test_collective_on_generated_tables_beats_chance(
        self, annotator, wiki_tables
    ):
        correct = total = 0
        for labeled in wiki_tables[:4]:
            annotation = annotator.annotate(labeled.table)
            for (row, column), truth in labeled.truth.cell_entities.items():
                total += 1
                correct += annotation.entity_of(row, column) == truth
        assert correct / total > 0.8


class TestAnnotatorFacade:
    def test_timing_recorded(self, world, wiki_tables):
        annotator = TableAnnotator(world.annotator_view)
        annotation = annotator.annotate(wiki_tables[0].table)
        timing = annotation.diagnostics["timing"]
        assert timing.total_seconds > 0
        assert timing.candidate_seconds + timing.inference_seconds == pytest.approx(
            timing.total_seconds, rel=1e-6
        )

    def test_simple_mode_config(self, world, wiki_tables):
        annotator = TableAnnotator(
            world.annotator_view, config=AnnotatorConfig(with_relations=False)
        )
        annotation = annotator.annotate(wiki_tables[0].table)
        assert annotation.relations == {}

    def test_unknown_baseline_rejected(self, world, wiki_tables):
        annotator = TableAnnotator(world.annotator_view)
        with pytest.raises(ValueError):
            annotator.annotate_with_baseline(wiki_tables[0].table, "nonsense")

    def test_every_column_annotated(self, annotator, wiki_tables):
        labeled = wiki_tables[0]
        annotation = annotator.annotate(labeled.table)
        assert set(annotation.columns) == set(range(labeled.table.n_columns))
