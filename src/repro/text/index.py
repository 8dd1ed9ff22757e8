"""Inverted index with TF-IDF scoring — the offline Lucene substitute.

Two callers:

* the **lemma index** used for candidate entity retrieval ("use a text index
  to collect candidate entities based on overlap between cell and lemma
  tokens", paper Section 4.3/Figure 2), and
* the **table index** of the search application (documents are table cells /
  contexts).

Documents are short strings; postings store raw term counts.  Scoring is the
usual ``sum_t tf_q(t) * tf_d(t) * idf(t)^2`` cosine numerator with document
length normalisation, which is all the ranking fidelity these callers need.

Retrieval is the system's hottest path (the paper's Figure 7 attributes ~80%
of annotation time to lemma-index probing), so :meth:`InvertedIndex.freeze`
precomputes everything a query needs into flat arrays: per-token IDF values
(previously recomputed per token per query), per-token posting arrays
(document ids + IDF²-weighted counts) and the document norm vector.  A search
is then one vectorised accumulate per query token.

One retrieval path reads those arrays: :meth:`search_batch`, used by the
candidate engine (:meth:`search` is one query through it).  Each query is
scored in a *compact* candidate-id space: the union of its tokens' posting
doc-ids, scattered per token, deduplicated per key with
``np.maximum.reduceat`` and cut to top-k with a partition — no dense
allocation, no Python per-document loop.  The dense reading (one score per
document, a dict pass per key) lives in ``tests/oracles/retrieval.py``, and
the equivalence tests hold the two to identical hits, scores and ordering.

The frozen arrays are also the index's *serialization*:
:meth:`InvertedIndex.to_state` exports them as flat concatenated vectors
(tokens sorted, per-token slices described by an offsets array) and
:meth:`InvertedIndex.from_state` rebuilds a frozen index directly from those
arrays — no re-tokenisation, no IDF recomputation, no norm pass.  Artifact
bundles (:mod:`repro.serve.bundle`) persist exactly this state, which is why
a served index starts warm instead of replaying ``freeze()``.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.text.tokenize import tokenize


@dataclass(frozen=True)
class IndexHit:
    """One retrieval result: a document key and its match score."""

    key: Hashable
    score: float


class InvertedIndex:
    """A tiny in-memory inverted index over short text documents.

    Keys are arbitrary hashable identifiers; one key may be indexed under
    several documents (e.g. an entity with several lemmas) — scores then take
    the max over that key's documents.
    """

    def __init__(self) -> None:
        self._postings: dict[str, dict[int, int]] = {}
        self._doc_key: list[Hashable] = []
        self._frozen = False
        # filled in freeze()
        self._idf: dict[str, float] = {}
        self._doc_norm: np.ndarray = np.zeros(0, dtype=np.float64)
        self._token_arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # pooled scratch vectors for search_batch(); one per thread so
        # concurrent callers (library threads sharing one session) never
        # share an accumulator
        self._scratch = threading.local()
        # filled lazily by _ensure_key_arrays() (search_batch dedup arrays)
        self._doc_key_id: np.ndarray | None = None
        self._key_list: list[Hashable] = []
        self._key_rank: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, key: Hashable, text: str) -> None:
        """Index one document ``text`` under ``key``."""
        if self._frozen:
            raise RuntimeError("index is frozen; create a new index to add more")
        counts = Counter(tokenize(text))
        if not counts:
            return
        doc_id = len(self._doc_key)
        self._doc_key.append(key)
        for token, count in counts.items():
            self._postings.setdefault(token, {})[doc_id] = count

    def add_many(self, items: Iterable[tuple[Hashable, str]]) -> None:
        for key, text in items:
            self.add(key, text)

    def freeze(self) -> None:
        """Precompute IDF values, posting arrays and document norms (idempotent).

        After freezing, retrieval touches only flat arrays: per token a
        ``(doc_ids, idf²·count)`` pair, plus one norm per document.
        """
        if self._frozen:
            return
        n_docs = len(self._doc_key)
        self._idf = {
            token: 1.0 + math.log((n_docs + 1) / (len(postings) + 1))
            for token, postings in self._postings.items()
        }
        norms_squared = np.zeros(n_docs, dtype=np.float64)
        for token, postings in self._postings.items():
            token_idf = self._idf[token]
            doc_ids = np.fromiter(postings.keys(), dtype=np.intp, count=len(postings))
            counts = np.fromiter(
                postings.values(), dtype=np.float64, count=len(postings)
            )
            norms_squared[doc_ids] += (counts * token_idf) ** 2
            self._token_arrays[token] = (doc_ids, counts * token_idf * token_idf)
        norms = np.sqrt(norms_squared)
        norms[norms == 0.0] = 1.0
        self._doc_norm = norms
        self._frozen = True

    # ------------------------------------------------------------------
    # frozen-state serialization (array-backed load)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Export the frozen index as flat arrays plus key/token lists.

        Freezes first if needed.  Tokens come out sorted; each token's
        postings occupy ``[offsets[i], offsets[i + 1])`` of the concatenated
        ``doc_ids`` / ``weights`` vectors (weights are the precomputed
        ``idf² · count`` values retrieval scores with).  The export is a
        pure function of the indexed documents, so build → export → import
        → export round-trips to identical arrays.
        """
        self.freeze()
        tokens = sorted(self._token_arrays)
        offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
        for i, token in enumerate(tokens):
            offsets[i + 1] = offsets[i] + len(self._token_arrays[token][0])
        doc_ids = np.zeros(int(offsets[-1]), dtype=np.int64)
        weights = np.zeros(int(offsets[-1]), dtype=np.float64)
        for i, token in enumerate(tokens):
            ids, weighted = self._token_arrays[token]
            doc_ids[offsets[i] : offsets[i + 1]] = ids
            weights[offsets[i] : offsets[i + 1]] = weighted
        return {
            "tokens": tokens,
            "doc_keys": list(self._doc_key),
            "offsets": offsets,
            "doc_ids": doc_ids,
            "weights": weights,
            "idf": np.array([self._idf[token] for token in tokens]),
            "doc_norm": self._doc_norm.astype(np.float64, copy=False),
        }

    @classmethod
    def from_state(cls, state: dict) -> "InvertedIndex":
        """Rebuild a frozen index from :meth:`to_state` output.

        Nothing is recomputed: the per-token posting arrays are zero-copy
        slices of the (possibly memory-mapped) concatenated vectors.  The
        returned index is frozen — :meth:`add` raises, exactly as after an
        in-memory :meth:`freeze`.
        """
        index = cls()
        offsets = np.asarray(state["offsets"])
        doc_ids = state["doc_ids"]
        weights = state["weights"]
        index._doc_key = list(state["doc_keys"])
        index._idf = dict(zip(state["tokens"], np.asarray(state["idf"]).tolist()))
        index._token_arrays = {
            token: (
                doc_ids[offsets[i] : offsets[i + 1]],
                weights[offsets[i] : offsets[i + 1]],
            )
            for i, token in enumerate(state["tokens"])
        }
        index._doc_norm = state["doc_norm"]
        index._frozen = True
        return index

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        return len(self._doc_key)

    def keys(self) -> list[Hashable]:
        """Every distinct document key, in first-indexed order."""
        return list(dict.fromkeys(self._doc_key))

    def document_frequency(self, token: str) -> int:
        if self._frozen:
            # array-backed source of truth: a from_state() index carries no
            # postings dicts at all
            entry = self._token_arrays.get(token)
            return len(entry[0]) if entry is not None else 0
        return len(self._postings.get(token, ()))

    def idf(self, token: str) -> float:
        cached = self._idf.get(token)
        if cached is not None:
            return cached
        return 1.0 + math.log(
            (len(self._doc_key) + 1) / (self.document_frequency(token) + 1)
        )

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def search(self, query: str, top_k: int = 10) -> list[IndexHit]:
        """Top-k documents by TF-IDF score, deduplicated by key (max score).

        Results are sorted by descending score; ties broken by the string
        form of the key so retrieval is fully deterministic.  One query
        through :meth:`search_batch`.
        """
        return self.search_batch([query], top_k)[0]

    # ------------------------------------------------------------------
    # batched retrieval (compact candidate-id space)
    # ------------------------------------------------------------------
    def _ensure_key_arrays(self) -> None:
        """Intern document keys for vectorised per-key dedup (idempotent).

        ``_doc_key_id[d]`` is the interned id of document ``d``'s key;
        ``_key_rank[k]`` is key ``k``'s position in the ``str(key)`` sort
        order, the tie-break of :meth:`search`.

        Thread-safe without a lock: concurrent first callers build identical
        arrays, and ``_doc_key_id`` — the readiness gate — is published
        *last*, so a reader that sees it non-None sees the other two fields.
        """
        if self._doc_key_id is not None:
            return
        key_ids: dict[Hashable, int] = {}
        doc_key_id = np.zeros(len(self._doc_key), dtype=np.intp)
        for doc_id, key in enumerate(self._doc_key):
            interned = key_ids.get(key)
            if interned is None:
                interned = len(key_ids)
                key_ids[key] = interned
            doc_key_id[doc_id] = interned
        key_list = list(key_ids)
        rank = np.zeros(len(key_list), dtype=np.intp)
        by_str = sorted(range(len(key_list)), key=lambda i: str(key_list[i]))
        for position, key_index in enumerate(by_str):
            rank[key_index] = position
        self._key_list = key_list
        self._key_rank = rank
        self._doc_key_id = doc_key_id

    def _compact_scratch(self, n: int) -> np.ndarray:
        """A zeroed length-``n`` view of this thread's pooled accumulator.

        The backing buffer grows geometrically and is reused across
        :meth:`_search_compact` calls, so batch scoring stops allocating a
        fresh score vector per query.  Zero-filling a view is value-identical
        to ``np.zeros(n)``, keeping batch scores bit-identical.
        """
        buffer = getattr(self._scratch, "compact", None)
        if buffer is None or len(buffer) < n:
            buffer = np.zeros(
                max(n, 2 * len(buffer) if buffer is not None else n),
                dtype=np.float64,
            )
            self._scratch.compact = buffer
        view = buffer[:n]
        view.fill(0.0)
        return view

    def _search_compact(
        self, query_counts: Counter[str], top_k: int
    ) -> list[IndexHit]:
        """One query scored over the union of its tokens' posting lists.

        Each document's score accumulates one scatter-add per query token,
        in query token order, so scores are bit-identical to a dense
        per-document accumulator.
        """
        if top_k < 1:
            return []
        entries = []
        for token, query_count in query_counts.items():
            entry = self._token_arrays.get(token)
            if entry is not None:
                entries.append((query_count, entry))
        if not entries:
            return []
        hit_ids = np.unique(np.concatenate([entry[0] for _, entry in entries]))
        scores = self._compact_scratch(len(hit_ids))
        for query_count, (doc_ids, weighted_counts) in entries:
            positions = np.searchsorted(hit_ids, doc_ids)
            scores[positions] += query_count * weighted_counts
        normalised = scores / self._doc_norm[hit_ids]
        # per-key max score, vectorised
        assert self._doc_key_id is not None and self._key_rank is not None
        key_ids = self._doc_key_id[hit_ids]
        order = np.argsort(key_ids, kind="stable")
        sorted_keys = key_ids[order]
        group_starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        unique_keys = sorted_keys[group_starts]
        best_scores = np.maximum.reduceat(normalised[order], group_starts)
        # partition down to the top-k score threshold, keeping every tie at
        # the boundary so the final (score, str(key)) sort stays exact
        n_keys = len(unique_keys)
        if n_keys > top_k:
            kth_score = np.partition(best_scores, n_keys - top_k)[n_keys - top_k]
            keep = best_scores >= kth_score
            unique_keys = unique_keys[keep]
            best_scores = best_scores[keep]
        ranks = self._key_rank[unique_keys]
        # descending score, ties broken by descending str(key) rank — the
        # ordering heapq.nlargest gives on (score, str(key))
        final = np.lexsort((-ranks, -best_scores))[:top_k]
        return [
            IndexHit(key=self._key_list[unique_keys[i]], score=float(best_scores[i]))
            for i in final
        ]

    def search_batch(
        self, queries: Sequence[str], top_k: int = 10
    ) -> list[list[IndexHit]]:
        """Top-k hits for every query.

        Distinct query strings are tokenized and scored once; duplicates
        share the (immutable) result list.  Scoring never allocates a dense
        document vector: each query works in the compact id space of its own
        matched postings.
        """
        if not self._frozen:
            self.freeze()
        self._ensure_key_arrays()
        by_query: dict[str, list[IndexHit]] = {}
        results: list[list[IndexHit]] = []
        for query in queries:
            hits = by_query.get(query)
            if hits is None:
                query_counts = Counter(tokenize(query))
                hits = (
                    self._search_compact(query_counts, top_k)
                    if query_counts
                    else []
                )
                by_query[query] = hits
            results.append(hits)
        return results

    def keys_with_token(self, token: str) -> set[Hashable]:
        """All keys whose documents contain ``token``.

        The argument is normalised with the same :func:`tokenize` used when
        documents were indexed (so ``"Einstein!"`` matches the indexed token
        ``einstein``); multi-token input returns keys containing *all* of the
        tokens.
        """
        tokens = tokenize(token)
        if not tokens:
            return set()
        keys: set[Hashable] | None = None
        for tok in tokens:
            if self._frozen:
                entry = self._token_arrays.get(tok)
                doc_ids = entry[0].tolist() if entry is not None else ()
            else:
                doc_ids = self._postings.get(tok, ())
            holders = {self._doc_key[doc_id] for doc_id in doc_ids}
            keys = holders if keys is None else keys & holders
            if not keys:
                return set()
        return keys
