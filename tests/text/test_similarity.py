"""Tests (incl. hypothesis properties) for the similarity measures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.index import InvertedIndex
from repro.text.similarity import (
    cosine_tfidf,
    dice,
    jaccard,
    jaro,
    jaro_winkler,
    soft_tfidf,
)

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs")),
    max_size=30,
)

ALL_MEASURES = [jaccard, dice, cosine_tfidf, soft_tfidf]


class TestExamples:
    def test_jaccard(self):
        assert jaccard("new york", "new york city") == pytest.approx(2 / 3)
        assert jaccard("a b", "c d") == 0.0

    def test_dice(self):
        assert dice("new york", "new york city") == pytest.approx(4 / 5)

    def test_cosine_plain(self):
        assert cosine_tfidf("albert einstein", "albert einstein") == pytest.approx(1.0)
        assert cosine_tfidf("albert", "einstein") == 0.0

    def test_cosine_idf_downweights_common_tokens(self):
        index = InvertedIndex()
        for key, lemma in enumerate(
            ["the clock", "the staircase", "the keys", "rare gem"]
        ):
            index.add(key, lemma)
        index.freeze()
        # 'the' is common -> matching only on 'the' scores low
        common_only = cosine_tfidf("the thing", "the other", index)
        rare_match = cosine_tfidf("rare gem", "rare gem", index)
        assert rare_match == pytest.approx(1.0)
        assert common_only < 0.5

    def test_jaro_winkler_prefix_boost(self):
        plain = jaro("einstein", "einstien")
        boosted = jaro_winkler("einstein", "einstien")
        assert boosted >= plain

    def test_jaro_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_soft_tfidf_catches_typos(self):
        hard = cosine_tfidf("albert einstien", "albert einstein")
        soft = soft_tfidf("albert einstien", "albert einstein")
        assert soft > hard
        assert soft > 0.9

    def test_soft_tfidf_threshold(self):
        # completely different tokens fall below the JW threshold
        assert soft_tfidf("zebra", "quux") == 0.0


class TestProperties:
    @given(texts, texts)
    @settings(max_examples=60)
    def test_range_and_symmetry(self, a, b):
        for measure in (jaccard, dice, cosine_tfidf):
            value_ab = measure(a, b)
            value_ba = measure(b, a)
            assert 0.0 <= value_ab <= 1.0 + 1e-9
            assert value_ab == pytest.approx(value_ba)

    @given(texts)
    @settings(max_examples=60)
    def test_identity(self, a):
        for measure in ALL_MEASURES:
            assert measure(a, a) == pytest.approx(1.0)

    @given(texts, texts)
    @settings(max_examples=60)
    def test_soft_tfidf_dominates_cosine(self, a, b):
        # fuzzy matching can only add mass relative to exact cosine
        assert soft_tfidf(a, b) >= cosine_tfidf(a, b) - 1e-9

    @given(texts, texts)
    @settings(max_examples=60)
    def test_jaro_winkler_range(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0 + 1e-9
