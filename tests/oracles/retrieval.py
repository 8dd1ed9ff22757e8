"""The retrieval oracle: TF-IDF top-k over a dense score vector.

:meth:`repro.text.index.InvertedIndex.search_batch` scores each query in
the compact id space of its own postings and ranks keys with array passes.
:func:`dense_search` is the direct reading it replaced: one score per
document, accumulated token by token in query token order, normalised,
folded into a per-key max with a dict and ranked with ``heapq.nlargest``
on ``(score, str(key))``.  The scalar candidate oracle probes the lemma
index with it, and the equivalence tests hold production to it: same
hits, same score bits, same order.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Hashable

import numpy as np

from repro.text.index import IndexHit, InvertedIndex
from repro.text.tokenize import tokenize


def dense_search(index: InvertedIndex, query: str, top_k: int = 10) -> list[IndexHit]:
    """Top-k documents of ``index`` for ``query``, deduplicated by key."""
    index.freeze()
    query_counts = Counter(tokenize(query))
    if not query_counts:
        return []
    scores = np.zeros(index.document_count, dtype=np.float64)
    touched: list[np.ndarray] = []
    for token, query_count in query_counts.items():
        entry = index._token_arrays.get(token)
        if entry is None:
            continue
        doc_ids, weighted_counts = entry
        scores[doc_ids] += query_count * weighted_counts
        touched.append(doc_ids)
    if not touched:
        return []
    # every touched document scores > 0 (idf >= 1), so these are the
    # nonzero entries of the dense vector, ascending
    hit_ids = np.unique(np.concatenate(touched))
    normalised = scores[hit_ids] / index._doc_norm[hit_ids]
    by_key: dict[Hashable, float] = {}
    for doc_id, score in zip(hit_ids.tolist(), normalised.tolist()):
        key = index._doc_key[doc_id]
        if score > by_key.get(key, 0.0):
            by_key[key] = score
    top = heapq.nlargest(
        top_k, by_key.items(), key=lambda item: (item[1], str(item[0]))
    )
    return [IndexHit(key=key, score=score) for key, score in top]
