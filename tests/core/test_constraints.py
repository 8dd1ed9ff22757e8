"""Tests for the unique-column (primary key) constrained assignment."""

import pytest

from repro.catalog.builder import CatalogBuilder
from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.constraints import assign_unique_entities
from repro.core.model import default_model
from repro.core.simple_inference import annotate_simple
from repro.tables.model import Table


@pytest.fixture()
def twin_catalog():
    """Two persons sharing the lemma 'Baker' — per-cell argmax assigns the
    same entity to both rows; the unique constraint must split them."""
    return (
        CatalogBuilder(name="twins")
        .type("type:person", "person")
        .entity("ent:alan", ["Alan Baker", "Baker"], types=["type:person"])
        .entity("ent:zoe", ["Zoe Baker", "Baker"], types=["type:person"])
        .build()
    )


def build(catalog, cells):
    annotator = TableAnnotator(catalog, config=AnnotatorConfig(top_k_entities=4))
    table = Table(table_id="t", cells=cells, headers=["Name"])
    return annotator.build_problem(table), annotator.features


class TestUniqueAssignment:
    def test_splits_ambiguous_duplicates(self, twin_catalog):
        problem, features = build(twin_catalog, [["Baker"], ["Baker"]])
        model = default_model()
        assigned = assign_unique_entities(
            problem, model, features, column=0, type_id="type:person"
        )
        values = [assigned[0], assigned[1]]
        assert set(values) == {"ent:alan", "ent:zoe"}

    def test_unconstrained_argmax_duplicates(self, twin_catalog):
        """Sanity: without the constraint both cells pick the same winner."""
        problem, _features = build(twin_catalog, [["Baker"], ["Baker"]])
        annotation = annotate_simple(problem, default_model())
        assert annotation.entity_of(0, 0) == annotation.entity_of(1, 0)

    def test_clear_cells_keep_their_entity(self, twin_catalog):
        problem, features = build(
            twin_catalog, [["Alan Baker"], ["Zoe Baker"]]
        )
        assigned = assign_unique_entities(
            problem, default_model(), features, column=0, type_id="type:person"
        )
        assert assigned[0] == "ent:alan"
        assert assigned[1] == "ent:zoe"

    def test_more_rows_than_entities_overflows_to_na(self, twin_catalog):
        problem, features = build(
            twin_catalog, [["Baker"], ["Baker"], ["Baker"]]
        )
        assigned = assign_unique_entities(
            problem, default_model(), features, column=0, type_id="type:person"
        )
        concrete = [entity for entity in assigned.values() if entity is not None]
        assert sorted(concrete) == ["ent:alan", "ent:zoe"]
        assert list(assigned.values()).count(None) == 1

    def test_na_type_still_assigns_by_text(self, twin_catalog):
        problem, features = build(twin_catalog, [["Alan Baker"], ["Zoe Baker"]])
        assigned = assign_unique_entities(
            problem, default_model(), features, column=0, type_id=None
        )
        assert assigned[0] == "ent:alan"

    def test_empty_column(self, twin_catalog):
        problem, features = build(twin_catalog, [["123"], ["456"]])
        assert (
            assign_unique_entities(
                problem, default_model(), features, column=0, type_id=None
            )
            == {}
        )


class TestSimpleInferenceIntegration:
    def test_unique_columns_through_annotate_simple(self, twin_catalog):
        problem, features = build(twin_catalog, [["Baker"], ["Baker"]])
        annotation = annotate_simple(
            problem, default_model(), unique_columns=(0,), features=features
        )
        values = {annotation.entity_of(0, 0), annotation.entity_of(1, 0)}
        assert values == {"ent:alan", "ent:zoe"}

    def test_unique_requires_features(self, twin_catalog):
        problem, _features = build(twin_catalog, [["Baker"], ["Baker"]])
        with pytest.raises(ValueError):
            annotate_simple(problem, default_model(), unique_columns=(0,))

    def test_annotator_facade(self, world):
        from repro.core.annotator import TableAnnotator

        annotator = TableAnnotator(world.annotator_view)
        table = Table(
            table_id="t", cells=[["Baker"], ["Baker"]], headers=["Name"]
        )
        annotation = annotator.annotate_simple(table, unique_columns=(0,))
        first = annotation.entity_of(0, 0)
        second = annotation.entity_of(1, 0)
        if first is not None and second is not None:
            assert first != second
