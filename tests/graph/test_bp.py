"""Tests for max-product BP: exactness on trees, behaviour on loopy graphs."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import FactorGraph, MaxProductBP


def brute_force_map(graph: FactorGraph):
    """Exhaustive optimum (for graphs with a handful of variables)."""
    names = list(graph.variables)
    domains = [graph.variables[name].domain for name in names]
    best_assignment = None
    best_score = float("-inf")
    for combo in itertools.product(*domains):
        assignment = dict(zip(names, combo))
        score = graph.score(assignment)
        if score > best_score:
            best_score = score
            best_assignment = assignment
    return best_assignment, best_score


def random_tree_graph(rng: random.Random, n_variables: int) -> FactorGraph:
    """A random tree-structured pairwise graph with random potentials."""
    graph = FactorGraph()
    sizes = [rng.randint(2, 4) for _ in range(n_variables)]
    for index, size in enumerate(sizes):
        unary = np.array([rng.uniform(-2, 2) for _ in range(size)])
        graph.add_variable(f"v{index}", tuple(range(size)), unary)
    for index in range(1, n_variables):
        parent = rng.randrange(index)
        table = np.array(
            [
                [rng.uniform(-2, 2) for _ in range(sizes[index])]
                for _ in range(sizes[parent])
            ]
        )
        graph.add_factor(f"f{index}", (f"v{parent}", f"v{index}"), table)
    return graph


class TestTreeExactness:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_on_random_trees(self, seed):
        rng = random.Random(seed)
        graph = random_tree_graph(rng, n_variables=rng.randint(2, 5))
        result = MaxProductBP(graph).run_flooding(max_iterations=30)
        _best, best_score = brute_force_map(graph)
        assert result.log_score == pytest.approx(best_score, abs=1e-9)

    def test_chain(self):
        graph = FactorGraph()
        graph.add_variable("a", ("x", "y"), [0.0, 0.1])
        graph.add_variable("b", ("x", "y"), [0.0, 0.0])
        graph.add_variable("c", ("x", "y"), [0.5, 0.0])
        attract = np.array([[1.0, -1.0], [-1.0, 1.0]])
        graph.add_factor("ab", ("a", "b"), attract)
        graph.add_factor("bc", ("b", "c"), attract)
        result = MaxProductBP(graph).run_flooding()
        assert result.converged
        # chain prefers all-equal; unaries tip it to all-x (0.5 beats 0.1)
        assert result.assignment == {"a": "x", "b": "x", "c": "x"}

    def test_single_factor_three_way(self):
        graph = FactorGraph()
        for name in ("a", "b", "c"):
            graph.add_variable(name, (0, 1), [0.0, 0.0])
        table = np.zeros((2, 2, 2))
        table[1, 0, 1] = 3.0
        graph.add_factor("f", ("a", "b", "c"), table)
        result = MaxProductBP(graph).run_flooding()
        assert result.assignment == {"a": 1, "b": 0, "c": 1}
        assert result.log_score == pytest.approx(3.0)


class TestLoopyBehaviour:
    def test_attractive_loop_converges(self):
        graph = FactorGraph()
        for name in ("a", "b", "c"):
            graph.add_variable(name, (0, 1), [0.0, 0.0])
        attract = np.array([[0.5, -0.5], [-0.5, 0.5]])
        graph.add_factor("ab", ("a", "b"), attract)
        graph.add_factor("bc", ("b", "c"), attract)
        graph.add_factor("ca", ("c", "a"), attract)
        # tip one variable
        graph.variables["a"].unary = np.array([0.3, 0.0])
        result = MaxProductBP(graph).run_flooding(max_iterations=50)
        assert result.assignment == {"a": 0, "b": 0, "c": 0}


class TestDiagnostics:
    def test_result_fields(self):
        graph = FactorGraph()
        graph.add_variable("a", (0, 1), [1.0, 0.0])
        graph.add_variable("b", (0, 1), [0.0, 0.0])
        graph.add_factor("f", ("a", "b"), np.zeros((2, 2)))
        result = MaxProductBP(graph).run_flooding()
        assert result.converged
        assert result.iterations >= 1
        assert set(result.max_beliefs) == {"a", "b"}
        assert result.log_score == pytest.approx(1.0)

    def test_beliefs_normalised(self):
        graph = FactorGraph()
        graph.add_variable("a", (0, 1), [5.0, 2.0])
        graph.add_variable("b", (0, 1), [0.0, 0.0])
        graph.add_factor("f", ("a", "b"), np.zeros((2, 2)))
        engine = MaxProductBP(graph)
        engine.run_flooding()
        assert engine.belief("a").max() == pytest.approx(0.0)

    def test_tie_breaks_to_first_domain_position(self):
        graph = FactorGraph()
        graph.add_variable("a", ("na", "x"), [0.0, 0.0])
        graph.add_variable("b", ("na", "x"), [0.0, 0.0])
        graph.add_factor("f", ("a", "b"), np.zeros((2, 2)))
        result = MaxProductBP(graph).run_flooding()
        assert result.assignment == {"a": "na", "b": "na"}
