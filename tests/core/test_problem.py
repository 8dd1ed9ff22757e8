"""Tests for problem construction and the score/feature-map consistency.

The central invariant: for every full assignment y,
``graph.score(y) == w · Φ(y)`` — the factor graph and the joint feature map
describe the same objective.  The structured learner depends on this.
"""

import random

import numpy as np
import pytest

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.model import default_model
from repro.core.problem import NA, joint_feature_vector
from repro.tables.model import Table
from tests.oracles import build_factor_graph


@pytest.fixture()
def book_problem(book_catalog):
    annotator = TableAnnotator(
        book_catalog, config=AnnotatorConfig(top_k_entities=5)
    )
    table = Table(
        table_id="books",
        cells=[
            ["Relativity: The Special and the General Theory", "A. Einstein"],
            ["Uncle Albert and the Quantum Quest", "Russell Stannard"],
            ["The Time and Space of Uncle Albert", "Stannard"],
        ],
        headers=["Title", "Author"],
        context="books and their authors",
    )
    return annotator.build_problem(table)


class TestProblemStructure:
    def test_cells_have_candidates(self, book_problem):
        assert (0, 0) in book_problem.cells
        assert (0, 1) in book_problem.cells
        labels = book_problem.cells[(0, 0)].labels
        assert labels[0] is NA
        assert "ent:relativity" in labels

    def test_columns_have_types(self, book_problem):
        assert "type:book" in book_problem.columns[0].types
        assert "type:author" in book_problem.columns[1].types

    def test_pair_has_wrote(self, book_problem):
        pairs = {(pair.left, pair.right): pair for pair in book_problem.pairs}
        assert (0, 1) in pairs
        assert "rel:wrote" in pairs[(0, 1)].labels

    def test_f3_shapes(self, book_problem):
        column = book_problem.columns[0]
        assert column.f3.shape == (
            len(column.types) - 1,
            len(column.entities),
            3,
        )
        assert column.f1.shape == (len(column.entities), 6)
        assert column.offsets[-1] == len(column.entities)

    def test_f4_f5_shapes(self, book_problem):
        (pair,) = book_problem.pairs
        n_b = len(pair.labels) - 1
        n_tl = len(book_problem.columns[0].types) - 1
        n_tr = len(book_problem.columns[1].types) - 1
        assert pair.f4.shape == (n_b, n_tl, n_tr, 4)
        left, right = book_problem.columns[0], book_problem.columns[1]
        np.testing.assert_array_equal(pair.n_left, left.counts[pair.left_cells])
        np.testing.assert_array_equal(pair.n_right, right.counts[pair.right_cells])
        np.testing.assert_array_equal(
            left.rows[pair.left_cells], right.rows[pair.right_cells]
        )
        assert pair.f5.shape == (n_b, int(pair.n_left @ pair.n_right), 2)

    def test_stats(self, book_problem):
        stats = book_problem.stats()
        assert stats["cells_with_candidates"] == 6
        assert stats["avg_entity_candidates"] >= 1
        assert stats["avg_relation_candidates"] >= 1


class TestScoreFeatureConsistency:
    def test_graph_score_equals_weight_dot_features(self, book_problem):
        """graph.score(y) == w·Φ(y) for random assignments."""
        model = default_model()
        graph = build_factor_graph(book_problem, model)
        rng = random.Random(0)
        flat = model.as_flat()
        for _ in range(25):
            assignment = {}
            for name, variable in graph.variables.items():
                assignment[name] = rng.choice(variable.domain)
            phi = joint_feature_vector(book_problem, assignment)
            assert graph.score(assignment) == pytest.approx(
                float(flat @ phi), abs=1e-9
            )

    def test_all_na_scores_zero(self, book_problem):
        model = default_model()
        graph = build_factor_graph(book_problem, model)
        assignment = {name: NA for name in graph.variables}
        assert graph.score(assignment) == pytest.approx(0.0)
        assert np.all(joint_feature_vector(book_problem, assignment) == 0.0)

    def test_without_relations_graph_has_no_pairs(self, book_problem):
        model = default_model()
        graph = build_factor_graph(book_problem, model, with_relations=False)
        assert not any(name.startswith("b:") for name in graph.variables)
        assert not any(f.kind in ("phi4", "phi5") for f in graph.factors.values())

    def test_missing_variables_count_as_na(self, book_problem):
        phi = joint_feature_vector(book_problem, {})
        assert np.all(phi == 0.0)

    def test_unknown_label_ignored(self, book_problem):
        phi = joint_feature_vector(book_problem, {"e:0,0": "ent:never-heard-of"})
        assert np.all(phi == 0.0)


class TestProblemViaAnnotator:
    def test_numeric_column_gets_no_variables(self, world):
        annotator = TableAnnotator(world.annotator_view)
        table = Table(
            table_id="t",
            cells=[["Baker", "1999"], ["Evans", "2001"]],
            headers=["Name", "Year"],
        )
        problem = annotator.build_problem(table)
        assert not problem.columns[1].has_type
        assert not len(problem.columns[1].rows)
        assert (0, 1) not in problem.cells

    def test_max_column_pairs_cap(self, world, wiki_tables):
        annotator = TableAnnotator(world.annotator_view)
        problem = annotator.build_problem(wiki_tables[0].table)
        assert len(problem.pairs) <= annotator.config.max_column_pairs
