"""Tests for the LRU caches and the candidate engine's cached ``Erc``."""

import pytest

from repro.core.candidates import CandidateEngine
from repro.pipeline.cache import (
    CandidateCache,
    LRUCache,
    normalized_cell_key,
)
from tests.oracles import CandidateGenerator


def decoded(engine, results) -> list[list[tuple[str, float]]]:
    """``Erc`` results as (entity id, score) lists, comparable with ``==``."""
    names = engine.tables.entity_ids
    return [
        [
            (names[entity], score)
            for entity, score in zip(found.entities.tolist(), found.scores.tolist())
        ]
        for found in results
    ]


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", [1])
        assert cache.get("a") == [1]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_lru(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_size_bound_holds(self):
        cache = LRUCache(max_entries=3)
        for i in range(10):
            cache.put(i, i + 1)
        assert len(cache) == 3

    def test_none_not_storable(self):
        cache = LRUCache()
        with pytest.raises(ValueError):
            cache.put("k", None)

    def test_empty_list_is_storable(self):
        # cells with no candidates cache an empty list; must count as a hit
        cache = LRUCache()
        cache.put("k", [])
        assert cache.get("k") == []
        assert cache.stats().hits == 1

    def test_clear(self):
        cache = LRUCache()
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") is None

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)

    def test_stats_since(self):
        cache = LRUCache()
        cache.put("a", 1)
        cache.get("a")
        before = cache.stats()
        cache.get("a")
        cache.get("b")
        delta = cache.stats().since(before)
        assert (delta.hits, delta.misses) == (1, 1)
        assert delta.lookups == 2


class TestCachingCandidateGenerator:
    """The engine's batch call served through a :class:`CandidateCache`."""

    @pytest.fixture(scope="class")
    def engine(self, tiny_world):
        return CandidateEngine(tiny_world.annotator_view)

    def test_results_identical_to_wrapped(self, engine, tiny_world):
        cache = CandidateCache()
        entity = next(iter(tiny_world.annotator_view.entities.all_entities()))
        texts = [entity.lemmas[0]]
        uncached = decoded(engine, engine.cell_candidates_batch(texts))
        assert decoded(engine, engine.cell_candidates_batch(texts, cache)) == uncached
        # second lookup serves from cache, still identical
        assert decoded(engine, engine.cell_candidates_batch(texts, cache)) == uncached
        assert cache.stats().hits == 1

    def test_numeric_and_blank_bypass_cache(self, engine):
        cache = CandidateCache()
        found = engine.cell_candidates_batch(["", "  42.5 "], cache)
        assert decoded(engine, found) == [[], []]
        assert cache.stats().lookups == 0

    def test_unmatched_text_cached_as_empty(self, engine):
        cache = CandidateCache()
        for _ in range(2):
            found = engine.cell_candidates_batch(["zzz qqq xyzzy"], cache)
            assert decoded(engine, found) == [[]]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)


class TestNormalizedKeys:
    """Satellite: cache keys are normalised (stripped, case-folded) text."""

    @pytest.fixture(scope="class")
    def engine(self, tiny_world):
        return CandidateEngine(tiny_world.annotator_view)

    def test_key_collapses_case_whitespace_punctuation(self):
        assert normalized_cell_key("Einstein") == "einstein"
        assert normalized_cell_key("  EINSTEIN  ") == "einstein"
        assert normalized_cell_key("Einstein!") == "einstein"
        assert normalized_cell_key("Albert  Einstein") == "albert einstein"
        # token order is part of the key: retrieval weighs it
        assert normalized_cell_key("a b") != normalized_cell_key("b a")

    def test_variants_share_one_entry_with_identical_results(
        self, engine, tiny_world
    ):
        cache = CandidateCache()
        entity = next(iter(tiny_world.annotator_view.entities.all_entities()))
        base = entity.lemmas[0]
        variants = [base, f"  {base}  ", base.upper(), f"{base}!"]
        for variant in variants:
            # normalisation must never change what the engine would say
            assert decoded(
                engine, engine.cell_candidates_batch([variant], cache)
            ) == decoded(engine, engine.cell_candidates_batch([variant]))
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == len(variants) - 1
        # "  base  " strips back to the stored surface form (raw hit); the
        # upper-cased and punctuated variants hit via normalisation only
        assert stats.raw_hits == 1
        assert stats.normalized_hits == 2

    def test_raw_vs_normalized_hit_split(self, engine, tiny_world):
        cache = CandidateCache()
        entity = next(iter(tiny_world.annotator_view.entities.all_entities()))
        base = entity.lemmas[0]
        engine.cell_candidates_batch([base], cache)  # miss
        before = cache.stats()
        engine.cell_candidates_batch([base], cache)  # raw hit
        engine.cell_candidates_batch([base.upper()], cache)  # normalised-only hit
        stats = cache.stats()
        assert (stats.raw_hits, stats.normalized_hits) == (1, 1)
        delta = stats.since(before)  # since() threads the new counters
        assert (delta.raw_hits, delta.normalized_hits) == (1, 1)
        assert delta.hits == 2

    def test_batch_matches_per_cell_path(self, engine, tiny_world):
        cache = CandidateCache()
        entities = list(tiny_world.annotator_view.entities.all_entities())
        texts = [entity.lemmas[0] for entity in entities[:6]]
        texts += ["", "  ", "42", texts[0].upper(), "zzz qqq", texts[1]]
        batch = decoded(engine, engine.cell_candidates_batch(texts, cache))
        oracle = CandidateGenerator.sharing(engine)
        assert batch == [
            [(c.entity_id, c.retrieval_score) for c in oracle.cell_candidates(text)]
            for text in texts
        ]
        # warm batch: everything resolvable is now a hit
        again = decoded(engine, engine.cell_candidates_batch(texts, cache))
        assert again == batch

    def test_batch_probes_each_distinct_key_once(self, engine, tiny_world):
        cache = CandidateCache()
        entity = next(iter(tiny_world.annotator_view.entities.all_entities()))
        base = entity.lemmas[0]
        engine.cell_candidates_batch([base, base.upper(), f" {base} ", "17"], cache)
        stats = cache.stats()
        assert stats.misses == 1
        assert len(cache) == 1
