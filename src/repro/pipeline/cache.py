"""Shared caches for corpus-scale annotation.

The paper's Figure 7 attributes ~80% of annotation time to lemma-index
probing plus similarity/feature computation.  Across a corpus the same cell
strings recur constantly (country names, people appearing in many tables,
repeated headers-as-cells), yet the seed code redid all of that work for
every occurrence.  Two cache layers remove it:

* :class:`CandidateCache` memoises
  :meth:`CandidateGenerator.cell_candidates` results so each distinct cell
  string probes the lemma index once per corpus
  (:class:`CachingCandidateGenerator` layers it transparently under any
  existing generator), and
* a generic :class:`LRUCache` memoises the *assembled feature blocks* of
  :class:`~repro.core.problem.FeatureComputer` (the f1/f2/f3/f4/f5 arrays
  stacked per candidate space), which profiling shows is where most
  candidate-stage time actually goes once retrieval is fast.

Candidate-cache keys are **normalised** cell text
(:func:`normalized_cell_key`: stripped, case-folded, punctuation collapsed —
the join of the same tokens retrieval scores on), so ``"Einstein"``,
``"einstein "`` and ``"Einstein!"`` share one entry.  This is sound by
construction: retrieval depends only on the ordered token bag, so any two
texts with equal keys get identical candidates from the generator.
:class:`CacheStats` splits hits into raw (same surface form as the entry's
first writer) versus normalised-only, quantifying what normalisation buys.

Both are size-bounded (LRU eviction) and thread-safe, and neither changes
results: every cached value is a pure function of its key for a frozen
catalog, so cached and uncached paths produce byte-identical annotations
(covered by tests).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.core.candidates import CandidateEntity, CandidateGenerator
from repro.text.normalize import is_numeric_text
from repro.text.tokenize import tokenize


def normalized_cell_key(text: str) -> str:
    """The cache key of one cell text: its tokens joined by single spaces.

    Tokenisation lower-cases and strips whitespace/punctuation, and the
    ordered token bag is exactly what retrieval scores on — so two texts with
    the same key are guaranteed the same candidates, while casing, stray
    spaces and punctuation stop fragmenting the cache.
    """
    return " ".join(tokenize(text))


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

    Values are treated as immutable by every caller (candidate lists and
    feature arrays are never mutated after construction), so the same object
    is handed out on every hit.  ``None`` is not a storable value — it is the
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

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is cached — a peek: no hit, miss or recency."""
        with self._lock:
            return key in self._entries

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
    """LRU from *normalised* cell text to candidate entities (``Erc``).

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
        self, key: str, raw_text: str, candidates: list[CandidateEntity]
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


class CachingCandidateGenerator:
    """A :class:`CandidateGenerator` front that serves ``Erc`` from a cache.

    Only :meth:`cell_candidates` / :meth:`cell_candidates_batch` — the
    lemma-index probes, the hot path — are intercepted; every other attribute
    (``column_type_candidates``, ``relation_candidates``, ``lemma_tfidf``,
    ``catalog`` …) delegates to the wrapped generator, so this object drops
    into any ``CandidateGenerator`` call site unchanged.
    """

    def __init__(
        self, generator: CandidateGenerator, cache: CandidateCache
    ) -> None:
        self._generator = generator
        self.cache = cache

    def cell_candidates(self, cell_text: str) -> list[CandidateEntity]:
        # mirror the generator's cheap guards so cache statistics count only
        # probes that would actually have hit the lemma index
        text = cell_text.strip()
        if not text or is_numeric_text(text):
            return []
        key = normalized_cell_key(text)
        cached = self.cache.get_candidates(key, text)
        if cached is not None:
            return cached
        candidates = self._generator.cell_candidates(text)
        self.cache.put_candidates(key, text, candidates)
        return candidates

    def cell_candidates_batch(
        self, cell_texts: list[str]
    ) -> list[list[CandidateEntity]]:
        """Batch ``Erc``: serve hits from the cache, probe misses in one pass.

        With a batch-capable inner generator (the batched candidate engine)
        all cache misses go through one ``search_batch`` call; a scalar inner
        generator is probed per distinct missing text.  Results are
        position-aligned with ``cell_texts``.
        """
        results: list[list[CandidateEntity] | None] = [None] * len(cell_texts)
        missing: dict[str, tuple[str, list[int]]] = {}
        for position, cell_text in enumerate(cell_texts):
            text = cell_text.strip()
            if not text or is_numeric_text(text):
                results[position] = []
                continue
            key = normalized_cell_key(text)
            pending = missing.get(key)
            if pending is not None:
                pending[1].append(position)
                continue
            cached = self.cache.get_candidates(key, text)
            if cached is not None:
                results[position] = cached
            else:
                missing[key] = (text, [position])
        if missing:
            texts = [raw for raw, _positions in missing.values()]
            inner_batch = getattr(self._generator, "cell_candidates_batch", None)
            if inner_batch is not None:
                resolved = inner_batch(texts)
            else:
                resolved = [self._generator.cell_candidates(t) for t in texts]
            for (key, (raw, positions)), candidates in zip(
                missing.items(), resolved
            ):
                self.cache.put_candidates(key, raw, candidates)
                for position in positions:
                    results[position] = candidates
        return results  # type: ignore[return-value]

    def __getattr__(self, name: str):
        return getattr(self._generator, name)
