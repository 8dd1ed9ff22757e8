"""Tests for the Appendix-C graph-colouring reduction."""

import pytest

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from tests.core.reductions import PI, build_coloring_instance

TRIANGLE = [("a", "b"), ("b", "c"), ("a", "c")]
PATH = [("a", "b"), ("b", "c")]


class TestConstruction:
    def test_catalog_shape(self):
        instance = build_coloring_instance(TRIANGLE, k=3)
        # |V|*K types, one entity per node, K(K-1) relations per arc
        assert len(instance.catalog.types) == 9
        assert len(instance.catalog.entities) == 3
        assert len(instance.catalog.relations) == 3 * 3 * 2
        assert instance.table.n_columns == 3
        assert instance.table.n_rows == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_coloring_instance(TRIANGLE, k=0)


class TestIffProperty:
    def test_triangle_not_2_colorable(self):
        instance = build_coloring_instance(TRIANGLE, k=2)
        assert not instance.is_colorable()
        _best, score = instance.optimum()
        assert score < PI * len(instance.arcs)

    def test_triangle_3_colorable(self):
        instance = build_coloring_instance(TRIANGLE, k=3)
        assert instance.is_colorable()
        _best, score = instance.optimum()
        assert score == PI * len(instance.arcs)

    def test_path_2_colorable(self):
        instance = build_coloring_instance(PATH, k=2)
        assert instance.is_colorable()

    def test_objective_counts_properly_colored_arcs(self):
        instance = build_coloring_instance(PATH, k=2)
        assert instance.objective({"a": 0, "b": 0, "c": 0}) == 0.0
        assert instance.objective({"a": 0, "b": 1, "c": 0}) == 2 * PI


class TestMessagePassingOnHardFamily:
    def test_bp_solves_colorable_instance(self):
        """On a 3-colorable triangle the (approximate) collective inference
        should find a proper coloring via relation+type potentials.  Weak
        header hints break the instance's colour-permutation symmetry so the
        per-variable decode is consistent."""
        instance = build_coloring_instance(
            TRIANGLE, k=3, color_hints={"a": 0, "b": 1, "c": 2}
        )
        annotator = TableAnnotator(
            instance.catalog,
            config=AnnotatorConfig(
                max_type_candidates=16, max_column_pairs=6, max_iterations=20
            ),
        )
        annotation = annotator.annotate(instance.table)
        # every column must get one of its node's colour types
        coloring = {}
        for column, node in enumerate(instance.nodes):
            type_id = annotation.type_of(column)
            assert type_id in instance.node_types(node)
            coloring[node] = instance.node_types(node).index(type_id)
        # arcs should be properly coloured (BP found the optimum here)
        for u, v in instance.arcs:
            assert coloring[u] != coloring[v]
