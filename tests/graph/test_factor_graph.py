"""Tests for the factor-graph container."""

import numpy as np
import pytest

from tests.oracles import Factor, FactorGraph, Variable


class TestVariable:
    def test_basic(self):
        variable = Variable("v", ("a", "b"), np.array([0.0, 1.0]))
        assert variable.size == 2
        assert variable.index_of("b") == 1

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Variable("v", (), np.array([]))

    def test_unary_shape_checked(self):
        with pytest.raises(ValueError):
            Variable("v", ("a", "b"), np.array([0.0]))


class TestFactor:
    def test_rank_checked(self):
        with pytest.raises(ValueError):
            Factor("f", ("a", "b"), np.zeros(3))

    def test_unary_factor_rejected(self):
        with pytest.raises(ValueError):
            Factor("f", ("a",), np.zeros(3))

    def test_axis_of(self):
        factor = Factor("f", ("a", "b"), np.zeros((2, 3)))
        assert factor.axis_of("b") == 1


class TestGraph:
    def test_build_and_score(self):
        graph = FactorGraph()
        graph.add_variable("x", ("p", "q"), [1.0, 0.0])
        graph.add_variable("y", ("p", "q"), [0.0, 0.0])
        graph.add_factor("f", ("x", "y"), np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert graph.score({"x": "p", "y": "p"}) == pytest.approx(3.0)
        assert graph.score({"x": "p", "y": "q"}) == pytest.approx(1.0)
        assert graph.factors_of("x") == ["f"]

    def test_duplicate_names_rejected(self):
        graph = FactorGraph()
        graph.add_variable("x", ("a",), [0.0])
        with pytest.raises(ValueError):
            graph.add_variable("x", ("a",), [0.0])

    def test_factor_unknown_variable_rejected(self):
        graph = FactorGraph()
        graph.add_variable("x", ("a", "b"), [0.0, 0.0])
        with pytest.raises(KeyError):
            graph.add_factor("f", ("x", "zzz"), np.zeros((2, 2)))

    def test_factor_shape_checked(self):
        graph = FactorGraph()
        graph.add_variable("x", ("a", "b"), [0.0, 0.0])
        graph.add_variable("y", ("a", "b", "c"), [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            graph.add_factor("f", ("x", "y"), np.zeros((2, 2)))

    def test_three_way_factor(self):
        graph = FactorGraph()
        graph.add_variable("x", ("a", "b"), [0.0, 0.0])
        graph.add_variable("y", ("a", "b"), [0.0, 0.0])
        graph.add_variable("z", ("a", "b"), [0.0, 0.0])
        table = np.zeros((2, 2, 2))
        table[1, 1, 1] = 5.0
        graph.add_factor("f", ("x", "y", "z"), table)
        assert graph.score({"x": "b", "y": "b", "z": "b"}) == pytest.approx(5.0)
