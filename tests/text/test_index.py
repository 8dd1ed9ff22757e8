"""Tests for the inverted index (Lucene substitute)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.index import InvertedIndex
from tests.oracles.retrieval import dense_search


#: the vocabulary property-drawn documents and queries are made of
WORDS = ["red", "green", "blue", "film", "club"]


@pytest.fixture()
def index() -> InvertedIndex:
    idx = InvertedIndex()
    idx.add("e1", "Albert Einstein")
    idx.add("e1", "Einstein")
    idx.add("e2", "Albert Brooks")
    idx.add("e3", "Einstein Bros Bagels")
    idx.add("e4", "Isaac Newton")
    idx.freeze()
    return idx


class TestRetrieval:
    def test_exact_match_ranks_first(self, index):
        hits = index.search("Albert Einstein")
        assert hits[0].key == "e1"

    def test_single_token_hits_all_holders(self, index):
        keys = {hit.key for hit in index.search("einstein")}
        assert keys == {"e1", "e3"}

    def test_no_match(self, index):
        assert index.search("zzz qqq") == []

    def test_empty_query(self, index):
        assert index.search("") == []

    def test_top_k_limits(self, index):
        hits = index.search("albert einstein newton", top_k=2)
        assert len(hits) == 2

    def test_key_deduplication_takes_best(self, index):
        # e1 indexed under two lemmas; must appear once
        hits = index.search("einstein")
        keys = [hit.key for hit in hits]
        assert keys.count("e1") == 1

    def test_scores_sorted_descending(self, index):
        hits = index.search("albert einstein bagels")
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_tie_break(self):
        idx = InvertedIndex()
        idx.add("b", "same text")
        idx.add("a", "same text")
        hits = idx.search("same text")
        # ties broken by string form of key, descending heapq order
        assert [hit.key for hit in hits] == ["b", "a"]

    def test_pooled_scratch_resets_between_queries(self, index):
        # back-to-back identical queries share the pooled compact
        # accumulator; a dirty reset would double every score
        first = index.search("albert einstein bagels")
        second = index.search("albert einstein bagels")
        assert first == second
        assert index.search("newton") == index.search("newton")


class TestSearchBatch:
    """``search_batch`` against the dense reference in ``tests/oracles``."""

    def test_matches_single_query_search(self, index):
        queries = [
            "Albert Einstein",
            "einstein",
            "albert einstein newton",
            "albert einstein bagels",
            "zzz qqq",
            "",
            "Einstein!",
            "newton isaac",
        ]
        batch = index.search_batch(queries, top_k=3)
        for query, hits in zip(queries, batch):
            assert hits == dense_search(index, query, top_k=3), query
            assert index.search(query, top_k=3) == hits

    def test_duplicate_queries_share_one_result(self, index):
        batch = index.search_batch(["einstein", "einstein"])
        assert batch[0] is batch[1]

    def test_tie_break_matches_scalar(self):
        idx = InvertedIndex()
        idx.add("b", "same text")
        idx.add("a", "same text")
        idx.add("c", "same text")
        for top_k in (1, 2, 3, 5):
            assert idx.search_batch(["same text"], top_k=top_k) == [
                dense_search(idx, "same text", top_k=top_k)
            ]

    def test_boundary_ties_kept_exactly(self):
        # three tied keys around the top-k cut: the partition must keep the
        # whole tie group before the (score, str(key)) sort truncates
        idx = InvertedIndex()
        for key in ("t1", "t2", "t3"):
            idx.add(key, "shared words")
        idx.add("best", "shared words unique")
        assert idx.search_batch(["shared words unique"], top_k=2) == [
            dense_search(idx, "shared words unique", top_k=2)
        ]

    def test_batch_on_state_restored_index(self, index):
        restored = InvertedIndex.from_state(index.to_state())
        queries = ["einstein", "albert", "isaac newton", "nope"]
        assert restored.search_batch(queries) == index.search_batch(queries)

    @settings(max_examples=60, deadline=None)
    @given(
        documents=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", 1, 2, ("t", 0)]),
                st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=12,
        ),
        queries=st.lists(
            st.lists(st.sampled_from(WORDS + ["zzz"]), max_size=4),
            min_size=1,
            max_size=5,
        ),
        top_k=st.integers(min_value=0, max_value=6),
    )
    def test_property_matches_dense_reference(self, documents, queries, top_k):
        """Hits, score bits and order equal the dense reference's on small
        vocabularies, where repeated documents make exact score ties."""
        idx = InvertedIndex()
        for key, words in documents:
            idx.add(key, " ".join(words))
        texts = [" ".join(words) for words in queries]
        assert idx.search_batch(texts, top_k=top_k) == [
            dense_search(idx, text, top_k=top_k) for text in texts
        ]


class TestStatistics:
    def test_idf_and_df(self, index):
        # df counts documents, not keys: e1 holds two einstein documents
        assert index.document_frequency("einstein") == 3
        assert index.document_frequency("albert") == 2
        assert index.idf("newton") > index.idf("einstein")

    def test_document_count(self, index):
        assert index.document_count == 5

    def test_keys_with_token(self, index):
        assert index.keys_with_token("Einstein") == {"e1", "e3"}
        assert index.keys_with_token("nothere") == set()

    def test_keys_with_token_normalises_like_documents(self, index):
        # regression: the raw argument used to be lower-cased only, so any
        # input tokenize() would have rewritten (punctuation, accents around
        # word boundaries) silently missed its postings
        assert index.keys_with_token("Einstein!") == {"e1", "e3"}
        assert index.keys_with_token("  EINSTEIN  ") == {"e1", "e3"}
        assert index.keys_with_token("...") == set()

    def test_keys_with_multi_token_input_intersects(self, index):
        assert index.keys_with_token("Albert Einstein") == {"e1"}
        assert index.keys_with_token("Albert nothere") == set()

    def test_idf_precomputed_at_freeze_matches_formula(self, index):
        import math

        n_docs = index.document_count
        for token in ("einstein", "albert", "newton"):
            expected = 1.0 + math.log(
                (n_docs + 1) / (index.document_frequency(token) + 1)
            )
            assert index.idf(token) == pytest.approx(expected)
        # unseen tokens still get the df=0 fallback after freezing
        assert index.idf("zzz") == pytest.approx(1.0 + math.log(n_docs + 1))


def index_of(*documents: str) -> InvertedIndex:
    """A frozen index holding each document under its own key."""
    idx = InvertedIndex()
    for key, document in enumerate(documents):
        idx.add(key, document)
    idx.freeze()
    return idx


class TestIdf:
    """The lemma index's IDF is the one IDF table: retrieval scores with it
    and f1/f2 weigh tokens with it."""

    def test_idf_decreases_with_frequency(self):
        idx = index_of("a b", "a c", "a d")
        assert idx.idf("a") < idx.idf("b")
        assert idx.document_frequency("a") == 3
        assert idx.document_count == 3

    def test_unseen_token_gets_max_idf(self):
        idx = index_of("a b", "a c")
        assert idx.idf("zzz") >= idx.idf("b")

    def test_duplicate_tokens_counted_once_per_doc(self):
        idx = index_of("a a a")
        assert idx.document_frequency("a") == 1


class TestLifecycle:
    def test_add_after_freeze_rejected(self, index):
        with pytest.raises(RuntimeError):
            index.add("e9", "late entry")

    def test_search_auto_freezes(self):
        idx = InvertedIndex()
        idx.add("k", "hello world")
        assert idx.search("hello")[0].key == "k"

    def test_empty_document_ignored(self):
        idx = InvertedIndex()
        idx.add("k", "...")
        idx.freeze()
        assert idx.document_count == 0

    def test_add_many(self):
        idx = InvertedIndex()
        idx.add_many([("a", "one"), ("b", "two")])
        assert idx.document_count == 2


class TestStateRoundTrip:
    """to_state/from_state must reproduce the frozen index exactly."""

    def test_search_results_identical(self, index):
        restored = InvertedIndex.from_state(index.to_state())
        for query in ("albert einstein", "einstein", "newton", "bagels", "zzz"):
            assert restored.search(query) == index.search(query)

    def test_statistics_identical(self, index):
        restored = InvertedIndex.from_state(index.to_state())
        assert restored.document_count == index.document_count
        for token in ("einstein", "albert", "zzz"):
            assert restored.document_frequency(token) == index.document_frequency(
                token
            )
            assert restored.idf(token) == index.idf(token)
        assert restored.keys_with_token("einstein") == index.keys_with_token(
            "einstein"
        )
        assert restored.keys_with_token("albert einstein") == index.keys_with_token(
            "albert einstein"
        )

    def test_restored_index_is_frozen(self, index):
        restored = InvertedIndex.from_state(index.to_state())
        with pytest.raises(RuntimeError):
            restored.add("e9", "late entry")

    def test_double_round_trip_is_stable(self, index):
        once = InvertedIndex.from_state(index.to_state())
        state_a = index.to_state()
        state_b = once.to_state()
        assert state_a["tokens"] == state_b["tokens"]
        assert state_a["doc_keys"] == state_b["doc_keys"]
        for field in ("offsets", "doc_ids", "weights", "idf", "doc_norm"):
            assert (state_a[field] == state_b[field]).all()

    def test_tuple_keys_survive(self):
        idx = InvertedIndex()
        idx.add(("t1", 0), "director name")
        idx.add(("t1", 1), "film title")
        restored = InvertedIndex.from_state(idx.to_state())
        assert restored.search("director")[0].key == ("t1", 0)
        assert restored.keys_with_token("title") == {("t1", 1)}

    def test_empty_index_round_trips(self):
        restored = InvertedIndex.from_state(InvertedIndex().to_state())
        assert restored.document_count == 0
        assert restored.search("anything") == []
