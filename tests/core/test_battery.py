"""The f1/f2 battery (:mod:`repro.core.battery`) against the scalar battery.

Every f1 and f2 block must equal ``text_lemma_features`` of the oracle bit
for bit, whatever else shares its battery call.  The hand-written cases
pin the edges the hypothesis draws aim at: tokenless texts and lemmas,
repeated tokens, texts of eight or more tokens (where NumPy's pairwise sum
would differ from the scalar's left-to-right one), a Jaro-Winkler tie
between two lemma tokens (the later one wins), labels without lemmas and
blank headers.  One call with a long cell and a long token checks that the
battery's memory stays linear in the call's tokens and characters.
"""

from __future__ import annotations

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.builder import CatalogBuilder
from repro.core.battery import (
    JaroWinklerMemo,
    LemmaRows,
    battery_rows,
    may_reach_floor,
    popcount,
    sketch_tokens,
)
from repro.core.candidates import CandidateEngine
from repro.core.features import TypeEntityFeatureMode
from repro.core.problem import FeatureComputer
from repro.text.similarity import jaro_winkler
from repro.text.tokenize import tokenize
from tests.oracles.scalar import text_lemma_features

#: "abcdefgh" scores 0.95 against both "abcdefgx" and "abcdefgy"; the
#: "einst…" spellings are close too; the rest tie only with themselves
WORDS = (
    "abcdefgh",
    "abcdefgx",
    "abcdefgy",
    "einstein",
    "einstien",
    "albert",
    "red",
    "blue",
    "green",
    "gold",
    "of",
    "the",
    "1984",
    "x",
)
#: texts with no token at all
TOKENLESS = ("—", "...", " ")


def battery_catalog(entities, types):
    """A catalog of ``entities`` and ``types``, each a list of lemma
    tuples (an empty tuple: a label without lemmas)."""
    builder = CatalogBuilder(name="battery").without_root()
    for t, lemmas in enumerate(types):
        builder.type(f"type:t{t}", *lemmas)
    for e, lemmas in enumerate(entities):
        builder.entity(f"ent:e{e}", lemmas, types=[f"type:t{e % len(types)}"])
    return builder.build()


def assert_f1_matches(catalog, engine, cells, blocks):
    """Each cell's f1 block against every entity is the scalar battery's."""
    index = engine.lemma_index
    for cell, block in zip(cells, blocks, strict=True):
        expected = np.stack(
            [
                text_lemma_features(cell, catalog.entities.lemmas(entity_id), index)
                for entity_id in engine.tables.entity_ids
            ]
        )
        assert block.tobytes() == expected.tobytes(), cell


def assert_blocks_match(catalog, cells, headers):
    """Every cell against every entity and every header against every type,
    in one f1 and one f2 battery call, bit for bit the scalar battery."""
    engine = CandidateEngine(catalog)
    features = FeatureComputer(catalog, TypeEntityFeatureMode.INV_SQRT_DIST, engine)
    index = engine.lemma_index
    entity_ids, type_ids = engine.tables.entity_ids, engine.tables.type_ids
    entities = np.arange(len(entity_ids))
    types = np.arange(len(type_ids))
    f1 = features.f1_blocks([(cell, entities) for cell in cells])
    f2 = features.f2_blocks([(header, types) for header in headers])
    assert_f1_matches(catalog, engine, cells, f1)
    for header, block in zip(headers, f2, strict=True):
        if header is None or not header.strip():
            expected = np.zeros((len(type_ids), 6))
        else:
            expected = np.stack(
                [
                    text_lemma_features(header, catalog.types.lemmas(type_id), index)
                    for type_id in type_ids
                ]
            )
        assert block.tobytes() == expected.tobytes(), header


class TestEdgeCases:
    def test_tokenless_texts_and_lemmas(self):
        catalog = battery_catalog(
            [("—",), ("red blue", "—"), ("...", "Gold")], [("—",), ("red",)]
        )
        assert_blocks_match(
            catalog,
            ["—", "...", "red blue", "", " ", "Gold"],
            ["—", "red", "...", "gold"],
        )

    def test_repeated_tokens(self):
        catalog = battery_catalog(
            [("red red blue", "blue"), ("red blue red blue gold",)],
            [("red red", "blue blue blue")],
        )
        assert_blocks_match(
            catalog,
            ["red red red", "blue red blue", "gold gold red"],
            ["blue blue red", "red"],
        )

    def test_long_texts_sum_left_to_right(self):
        """Nine shared tokens with uneven IDF: the scalar's left-to-right
        dot product differs from NumPy's pairwise sum of its terms."""
        words = ("red", "blue", "green", "gold", "albert", "einstein", "of", "the", "x")
        long_lemma = " ".join(words)
        catalog = battery_catalog(
            [(long_lemma,), ("red",), ("red blue",), ("red blue green",), ("x",)],
            [(long_lemma,), ("the",)],
        )
        text = " ".join(reversed(words))
        index = CandidateEngine(catalog).lemma_index
        terms = np.array([index.idf(word) ** 2 for word in tokenize(text)])
        left_to_right = 0.0
        for term in terms:
            left_to_right += term
        assert left_to_right != np.sum(terms)
        assert_blocks_match(catalog, [text, long_lemma], [text])

    def test_jaro_winkler_tie_goes_to_the_later_token(self):
        """"abcdefgh" scores the same against "abcdefgx" and "abcdefgy";
        SoftTFIDF takes the later one, here the one counted twice."""
        assert jaro_winkler("abcdefgh", "abcdefgx") == jaro_winkler(
            "abcdefgh", "abcdefgy"
        )
        assert jaro_winkler("abcdefgh", "abcdefgx") >= 0.9
        catalog = battery_catalog(
            [("abcdefgx abcdefgy abcdefgy",), ("abcdefgy abcdefgx",)],
            [("abcdefgx abcdefgy abcdefgy",)],
        )
        assert_blocks_match(
            catalog, ["abcdefgh", "abcdefgh red"], ["abcdefgh"]
        )

    def test_labels_without_lemmas(self):
        catalog = battery_catalog([(), ("red",), ()], [(), ("red",)])
        assert_blocks_match(catalog, ["red", "blue", "—"], ["red", "—"])

    def test_blank_headers_are_all_zero(self):
        catalog = battery_catalog([("red",)], [("red",), ("blue",)])
        assert_blocks_match(catalog, ["red"], [None, "", "   ", "red"])

    def test_empty_call(self):
        catalog = battery_catalog([("red",)], [("red",)])
        engine = CandidateEngine(catalog)
        features = FeatureComputer(catalog, TypeEntityFeatureMode.IDF, engine)
        assert features.f1_blocks([]) == []
        (block,) = features.f1_blocks([("red", np.zeros(0, dtype=np.int64))])
        assert block.shape == (0, 6)


class TestLinearMemory:
    def test_long_cell_and_long_token_in_one_call(self):
        """196 short cells, one cell of 1,000 distinct words and one token
        of 5,000 letters, in one f1 call against nine lemmas: every block
        is the scalar battery's, and the call's peak allocation is about
        4 MB.  An array padded to the widest text (about 1,800 pairs ×
        1,000 positions) or to the longest token (about 1,000 tokens ×
        5,000 characters) would need over 100 MB."""
        catalog = battery_catalog(
            [
                ("albert einstein", "einstein"),
                ("red", "red blue"),
                ("abcdefgx abcdefgy",),
                ("gold",),
                ("the green", "green of the gold"),
                ("x",),
            ],
            [("red",)],
        )
        words = [
            "".join(letters)
            for letters in itertools.islice(
                itertools.product("bcdfghjklmnpqrstvwz", repeat=3), 1000
            )
        ]
        # lemma tokens deep in the long cell: their terms come last
        long_cell = " ".join(words[:500] + ["einstein"] + words[500:] + ["albert", "red"])
        long_token = "abcdefghij" * 500
        cells = [f"{a} {b}" for a in WORDS for b in WORDS]
        cells += [long_cell, f"einstein {long_token} gold"]
        engine = CandidateEngine(catalog)
        features = FeatureComputer(catalog, TypeEntityFeatureMode.INV_SQRT_DIST, engine)
        entities = np.arange(len(engine.tables.entity_ids))
        tracemalloc.start()
        try:
            blocks = features.f1_blocks([(cell, entities) for cell in cells])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak
        assert_f1_matches(catalog, engine, cells, blocks)


#: more words than any lemma holds, so long lemmas share many tokens
words = st.sampled_from(
    WORDS + ("alpha", "beta", "gamma", "delta", "kappa", "sigma", "zeta", "omega")
)
texts = st.one_of(
    st.lists(words, max_size=12).map(" ".join),
    st.sampled_from(TOKENLESS + ("",)),
    st.lists(words, min_size=1, max_size=4).map(lambda w: " ".join(w).title() + "!"),
)
lemma_sets = st.lists(
    st.one_of(
        st.lists(words, min_size=1, max_size=12).map(" ".join),
        st.sampled_from(TOKENLESS),
    ),
    max_size=3,
).map(tuple)


def shuffled_lemmas(lemma_sets):
    """A catalog lemma's words in another order: a text sharing every
    token with it, so long texts give long dot products."""
    lemmas = sorted({lemma for lemmas in lemma_sets for lemma in lemmas})
    if not lemmas:
        return texts
    return (
        st.sampled_from(lemmas)
        .flatmap(lambda lemma: st.permutations(lemma.split()))
        .map(" ".join)
    )


class TestProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_match_the_scalar_battery(self, data):
        entities = data.draw(st.lists(lemma_sets, min_size=1, max_size=5))
        types = data.draw(st.lists(lemma_sets, min_size=1, max_size=3))
        text = st.one_of(texts, shuffled_lemmas(entities + types))
        cells = data.draw(st.lists(text, min_size=1, max_size=6))
        headers = data.draw(st.lists(st.one_of(st.none(), text), min_size=1, max_size=3))
        assert_blocks_match(battery_catalog(entities, types), cells, headers)


class TestFloorBound:
    """``may_reach_floor`` only skips pairs scoring under the floor."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.text(alphabet="abcdeéxyz01ΣσИ", min_size=1, max_size=9),
                st.text(alphabet="abcdeéxyz01ΣσИ", min_size=1, max_size=9),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_refused_pairs_score_under_the_floor(self, pairs):
        left, right = zip(*[(a.lower(), b.lower()) for a, b in pairs])
        possible = may_reach_floor(sketch_tokens(left), sketch_tokens(right))
        for a, b, may in zip(left, right, possible.tolist()):
            if not may:
                assert jaro_winkler(a, b) < 0.9, (a, b)

    @settings(max_examples=100, deadline=None)
    @given(tokens=st.lists(st.text(min_size=1, max_size=30), max_size=10))
    def test_sketches_read_each_token_alone(self, tokens):
        sketches = sketch_tokens(tokens)
        assert sketches.lengths.tolist() == [len(token) for token in tokens]
        assert sketches.masks.tolist() == [
            sum({1 << ord(char) % 64 for char in token}) for token in tokens
        ]
        assert sketches.bits.tolist() == [
            len({ord(char) % 64 for char in token}) for token in tokens
        ]

    @settings(max_examples=100, deadline=None)
    @given(masks=st.lists(st.integers(0, (1 << 64) - 1), max_size=20))
    def test_popcount_counts_every_bit(self, masks):
        counts = popcount(np.array(masks, dtype=np.uint64))
        assert counts.tolist() == [bin(mask).count("1") for mask in masks]

    @pytest.mark.parametrize(
        "a, b", [("einstein", "einstien"), ("abcdefgh", "abcdefgx"), ("red", "red")]
    )
    def test_close_pairs_pass(self, a, b):
        assert jaro_winkler(a, b) >= 0.9
        assert may_reach_floor(sketch_tokens([a]), sketch_tokens([b])).all()


class TestSharedState:
    def test_threads_sharing_rows_and_a_resetting_memo_agree(self):
        """Lemma rows are published with ``setdefault`` and the memo resets
        wholesale; threads racing on both (a memo of four entries, a short
        switch interval) still get the single-threaded blocks."""
        words = WORDS[:6]
        catalog = battery_catalog(
            [(f"{a} {b}", b) for a in words for b in words], [("abcdefgx",)]
        )
        engine = CandidateEngine(catalog)
        entity_ids = engine.tables.entity_ids

        def blocks(rows, memo):
            texts = [f"{a} {b}" for a in WORDS for b in WORDS[:3]]
            labels = [np.arange(len(entity_ids))] * len(texts)
            return battery_rows(texts, labels, rows, memo).tobytes()

        def fresh_rows():
            return LemmaRows(
                lambda e: catalog.entities.lemmas(entity_ids[e]),
                engine.vocabulary,
                engine.lemma_index,
            )

        expected = blocks(fresh_rows(), JaroWinklerMemo(engine.vocabulary))
        rows = fresh_rows()
        memo = JaroWinklerMemo(engine.vocabulary, max_entries=4)
        results: list[bytes] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(blocks(rows, memo)))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
