"""Shared caches for corpus-scale annotation.

The paper's Figure 7 attributes ~80% of annotation time to lemma-index
probing plus similarity/feature computation.  Across a corpus the same cell
strings recur constantly (country names, people appearing in many tables,
repeated headers-as-cells), yet the seed code redid all of that work for
every occurrence.  Three cache layers remove it:

* :class:`CandidateCache` memoises ``Erc`` so each distinct cell string
  probes the lemma index once per corpus (the candidate engine consults it
  inside its batch call,
  :meth:`~repro.core.candidates.CandidateEngine.cell_candidates_batch`);
  an entry is the read-only interned entity ints and scores every table
  with that text shares,
* a generic :class:`LRUCache` memoises the one *assembled feature block* of
  :class:`~repro.core.problem.FeatureComputer` that recurs across tables:
  the (read-only) f1 array of a cell text and its candidates.  f2 and f4
  blocks almost never recur and are built directly; f3 and f5 blocks are
  a gather and a ``searchsorted`` over whole columns, and
* another :class:`LRUCache` holds whole answers, so a table seen before
  is answered without candidate generation or BP
  (:meth:`~repro.pipeline.AnnotationPipeline.answer`).

Candidate-cache keys are **normalised** cell text
(:func:`normalized_cell_key`: stripped, case-folded, punctuation collapsed —
the join of the same tokens retrieval scores on), so ``"Einstein"``,
``"einstein "`` and ``"Einstein!"`` share one entry.  This is sound by
construction: retrieval depends only on the ordered token bag, so any two
texts with equal keys get identical candidates from the engine.
:class:`CacheStats` splits hits into raw (same surface form as the entry's
first writer) versus normalised-only, quantifying what normalisation buys.

All are size-bounded (LRU eviction) and thread-safe, and none changes
results: every cached value is a pure function of its key for a frozen
catalog, so cached and uncached paths produce byte-identical annotations
(covered by tests).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.core.candidates import CellCandidates, normalized_cell_key

__all__ = [
    "CacheStats",
    "CandidateCache",
    "LRUCache",
    "normalized_cell_key",
]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    hits: int
    misses: int
    evictions: int
    entries: int
    max_entries: int
    #: hits whose raw text matched the entry's first writer exactly
    raw_hits: int = 0
    #: hits earned only by key normalisation (casing/whitespace/punctuation)
    normalized_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Activity between ``earlier`` and this snapshot (counter deltas)."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            entries=self.entries,
            max_entries=self.max_entries,
            raw_hits=self.raw_hits - earlier.raw_hits,
            normalized_hits=self.normalized_hits - earlier.normalized_hits,
        )


class LRUCache:
    """Size-bounded, thread-safe LRU map with hit/miss/eviction counters.

    Values are treated as immutable by every caller (the candidate engine
    and the feature computer store read-only arrays), so the same object is
    handed out on every hit.  ``None`` is not a storable value — it is the
    miss sentinel.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable):
        """The cached value for ``key``, or None (records hit/miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        if value is None:
            raise ValueError("None is the miss sentinel and cannot be stored")
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                max_entries=self.max_entries,
            )


class CandidateCache(LRUCache):
    """LRU from *normalised* cell text to its ``Erc`` (:class:`CellCandidates`).

    Entries store ``(first_raw_text, candidates)`` so hits can be split into
    raw (identical surface form) versus normalised-only in :meth:`stats`.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        super().__init__(max_entries=max_entries)
        self._raw_hits = 0
        self._normalized_hits = 0

    def get_candidates(self, key: str, raw_text: str):
        """Candidates under ``key``, or None (attributes the hit kind)."""
        entry = self.get(key)
        if entry is None:
            return None
        stored_raw, candidates = entry
        with self._lock:
            if stored_raw == raw_text:
                self._raw_hits += 1
            else:
                self._normalized_hits += 1
        return candidates

    def put_candidates(
        self, key: str, raw_text: str, candidates: CellCandidates
    ) -> None:
        self.put(key, (raw_text, candidates))

    def stats(self) -> CacheStats:
        base = super().stats()
        with self._lock:
            return CacheStats(
                hits=base.hits,
                misses=base.misses,
                evictions=base.evictions,
                entries=base.entries,
                max_entries=base.max_entries,
                raw_hits=self._raw_hits,
                normalized_hits=self._normalized_hits,
            )
