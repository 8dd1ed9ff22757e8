"""Tests for the five feature families."""

import math

import numpy as np
import pytest

from repro.core.features import (
    F1_FEATURE_NAMES,
    F3_FEATURE_NAMES,
    F4_FEATURE_NAMES,
    F5_FEATURE_NAMES,
    TypeEntityFeatureMode,
    header_absent_features,
    participation_fraction,
    relation_entities_features,
    relation_types_features,
    type_entity_features,
)
from tests.oracles.scalar import text_lemma_features


class TestF1F2:
    def test_exact_match_fires_everything(self):
        vector = text_lemma_features(
            "Albert Einstein", ("Albert Einstein", "Einstein"), None
        )
        named = dict(zip(F1_FEATURE_NAMES, vector))
        assert named["cosine"] == pytest.approx(1.0)
        assert named["exact"] == 1.0
        assert named["bias"] == 1.0

    def test_max_over_lemmas(self):
        weak = text_lemma_features("Einstein", ("Albert Einstein",), None)
        strong = text_lemma_features(
            "Einstein", ("Albert Einstein", "Einstein"), None
        )
        assert strong[0] > weak[0]
        assert strong[4] == 1.0  # exact fires on the second lemma

    def test_no_lemmas_only_bias(self):
        vector = text_lemma_features("anything", (), None)
        assert vector[-1] == 1.0
        assert np.all(vector[:-1] == 0.0)

    def test_header_absent_is_all_zero(self):
        assert np.all(header_absent_features() == 0.0)

    def test_case_insensitive_exact(self):
        vector = text_lemma_features("einstein", ("Einstein",), None)
        assert vector[4] == 1.0


class TestF3:
    def test_contained_inv_dist(self, book_catalog):
        vector = type_entity_features(
            book_catalog, "type:person", "ent:einstein", TypeEntityFeatureMode.INV_DIST
        )
        named = dict(zip(F3_FEATURE_NAMES, vector))
        # einstein -> physicist/author -> person: dist 2
        assert named["distance_compatibility"] == pytest.approx(0.5)
        assert named["contained"] == 1.0
        assert named["idf_specificity"] > 0.0

    def test_contained_inv_sqrt_dist(self, book_catalog):
        vector = type_entity_features(
            book_catalog,
            "type:person",
            "ent:einstein",
            TypeEntityFeatureMode.INV_SQRT_DIST,
        )
        assert vector[0] == pytest.approx(1 / math.sqrt(2))

    def test_idf_mode_has_no_distance_feature(self, book_catalog):
        vector = type_entity_features(
            book_catalog, "type:person", "ent:einstein", TypeEntityFeatureMode.IDF
        )
        assert vector[0] == 0.0
        assert vector[1] > 0.0

    def test_direct_type_distance_one(self, book_catalog):
        vector = type_entity_features(
            book_catalog,
            "type:physicist",
            "ent:einstein",
            TypeEntityFeatureMode.INV_DIST,
        )
        assert vector[0] == pytest.approx(1.0)

    def test_missing_link_repair_scales_by_relatedness(self, book_catalog):
        # stannard is an author but NOT a physicist; authors and physicists
        # overlap only via einstein -> relatedness 1/2, min dist 1
        vector = type_entity_features(
            book_catalog,
            "type:physicist",
            "ent:stannard",
            TypeEntityFeatureMode.INV_DIST,
        )
        named = dict(zip(F3_FEATURE_NAMES, vector))
        assert named["contained"] == 0.0
        assert named["distance_compatibility"] == pytest.approx(0.5)

    def test_unrelated_type_all_zero_compat(self, book_catalog):
        vector = type_entity_features(
            book_catalog,
            "type:book",
            "ent:stannard",
            TypeEntityFeatureMode.INV_SQRT_DIST,
        )
        assert vector[0] == 0.0
        assert vector[2] == 0.0

    def test_specific_type_higher_idf(self, book_catalog):
        specific = type_entity_features(
            book_catalog,
            "type:physicist",
            "ent:einstein",
            TypeEntityFeatureMode.IDF,
        )[1]
        general = type_entity_features(
            book_catalog, "type:person", "ent:einstein", TypeEntityFeatureMode.IDF
        )[1]
        assert specific > general


class TestF4:
    def test_schema_match_exact(self, book_catalog):
        vector = relation_types_features(
            book_catalog, "rel:wrote", "type:book", "type:author"
        )
        named = dict(zip(F4_FEATURE_NAMES, vector))
        assert named["schema_match"] == 1.0
        assert named["bias"] == 1.0
        assert 0.0 < named["subject_participation"] <= 1.0

    def test_schema_match_via_subtype(self, book_catalog):
        vector = relation_types_features(
            book_catalog, "rel:wrote", "type:science_books", "type:author"
        )
        assert vector[0] == 1.0

    def test_schema_mismatch(self, book_catalog):
        vector = relation_types_features(
            book_catalog, "rel:wrote", "type:author", "type:book"
        )
        assert vector[0] == 0.0

    def test_reversed_label_swaps_roles(self, book_catalog):
        vector = relation_types_features(
            book_catalog, "rel:wrote^-1", "type:author", "type:book"
        )
        assert vector[0] == 1.0

    def test_participation_fraction(self, book_catalog):
        # all 3 books participate as subjects of wrote
        assert participation_fraction(
            book_catalog, "rel:wrote", "type:book", "subject"
        ) == pytest.approx(1.0)
        # both authors participate as objects; einstein does via relativity
        assert participation_fraction(
            book_catalog, "rel:wrote", "type:author", "object"
        ) == pytest.approx(1.0)
        assert participation_fraction(
            book_catalog, "rel:wrote", "type:book", "object"
        ) == 0.0

    def test_participation_unknown_role(self, book_catalog):
        with pytest.raises(ValueError):
            participation_fraction(book_catalog, "rel:wrote", "type:book", "sideways")


class TestF5:
    def test_tuple_exists(self, book_catalog):
        vector = relation_entities_features(
            book_catalog, "rel:wrote", "ent:relativity", "ent:einstein"
        )
        named = dict(zip(F5_FEATURE_NAMES, vector))
        assert named["tuple_exists"] == 1.0
        assert named["functional_violation"] == 0.0

    def test_reversed_tuple(self, book_catalog):
        vector = relation_entities_features(
            book_catalog, "rel:wrote^-1", "ent:einstein", "ent:relativity"
        )
        assert vector[0] == 1.0

    def test_functional_violation(self, book_catalog):
        # relativity was written by einstein (many_to_one): pairing it with
        # stannard contradicts the catalog
        vector = relation_entities_features(
            book_catalog, "rel:wrote", "ent:relativity", "ent:stannard"
        )
        assert vector[0] == 0.0
        assert vector[1] == 1.0

    def test_no_signal_for_unknown_pair(self, book_catalog):
        vector = relation_entities_features(
            book_catalog, "rel:wrote", "ent:uncle_albert", "ent:einstein"
        )
        # uncle_albert written by stannard -> violation fires
        assert vector[1] == 1.0
