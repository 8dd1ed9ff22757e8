"""Warm, shared serving state: one bundle, many concurrent requests.

Since the typed API layer landed, this module is deliberately thin: all
domain work lives in :class:`~repro.api.session.ReproSession` (shared with
the CLI and library callers, so the frontends cannot diverge), and
``ServeState`` adds only what an HTTP *process* needs on top — request
metrics and the payload-level handlers that decode JSON into typed requests
and encode typed responses back out.

Concurrency model (the whole locking story):

* **Bundle state is immutable.**  The catalog, the frozen lemma/header/
  context indexes and the annotated table index are never mutated after
  :func:`~repro.serve.bundle.load_bundle`, so every search request reads
  them lock-free.  The one exception is a memo: the table index builds a
  column's token postings on the first query that touches the column and
  publishes them with one ``dict.setdefault``.  A thread racing on the
  same cold column builds an equal value, and both go on with whichever
  landed first, so no lock is needed and answers do not depend on which
  thread won.
* **Annotation is a pure function with thread-safe memoisation.**  One
  :class:`~repro.pipeline.AnnotationPipeline` is shared by all requests
  (owned by the session); its candidate / feature-block / answer LRUs
  carry their own internal locks, so concurrent ``/annotate`` requests
  produce exactly the answers serial requests would (covered by the
  concurrency determinism tests).  The answer LRU hands every request a
  fresh copy of a cached answer, under the request's own table id.
* **Each response reads its own timing** from the annotation's
  diagnostics; nothing accumulates per table.
* **Everything else** (metrics registry, lazy searcher construction) sits
  behind one small mutex each, inside the session or the metrics registry.
"""

from __future__ import annotations

import os
import time

from repro.api import errors as api_errors
from repro.api.config import SessionConfig
from repro.api.errors import ApiError
from repro.api.session import ReproSession
from repro.api.types import (
    SCHEMA_VERSION,
    AnnotateRequest,
    ErrorEnvelope,
    JoinSearchRequest,
    SearchRequest,
    SearchResponse,
)
from repro.pipeline.pipeline import AnnotationPipeline
from repro.search.ranking import SearchResponse as RankedResponse
from repro.serve.bundle import LoadedBundle
from repro.serve.metrics import MetricsRegistry


def response_to_dict(response: RankedResponse, top_k: int | None = None) -> dict:
    """Deprecated shim over :meth:`repro.api.types.SearchResponse.to_json`.

    Returns the current versioned wire shape — a superset of the pre-API
    dict (same ``answers``/``tables_considered``/``rows_matched`` content,
    plus a leading ``schema_version`` key).  Callers comparing two of these
    payloads are unaffected; callers pinning the exact pre-API key set
    should move to the typed :class:`SearchResponse`.
    """
    return SearchResponse.from_ranked(response, top_k=top_k).to_json()


def _error_outcome(error: BaseException) -> dict:
    """One failed request as its :meth:`ServeState.handle_requests` outcome."""
    return {"error": ErrorEnvelope.from_error(error).to_json()}


class ServeState:
    """Everything one server process shares across requests."""

    def __init__(
        self,
        bundle: LoadedBundle,
        session_config: SessionConfig | None = None,
    ) -> None:
        self.session = ReproSession.from_bundle(bundle, config=session_config)
        self.bundle = bundle
        self.catalog = bundle.catalog
        self.model = bundle.model
        self.index = bundle.table_index
        self.metrics = MetricsRegistry()

    def pipeline(self) -> AnnotationPipeline:
        """The session's shared pipeline (kept for introspection / tests)."""
        return self.session.pipeline()

    # ------------------------------------------------------------------
    # request handlers: decode -> session -> encode
    # ------------------------------------------------------------------
    def handle(self, endpoint: str, payload: dict) -> dict:
        """Route one decoded request body by endpoint name.

        The single routing table shared by the in-process backend and the
        pool workers (:mod:`repro.serve.pool`), so the two serving modes
        cannot drift.  ``_sleep`` is a drain/test aid — it is never routed
        by the HTTP server, only reachable through a dispatcher handle.
        """
        if endpoint == "annotate":
            return self.annotate_payload(payload)
        if endpoint == "search":
            return self.search_payload(payload)
        if endpoint == "search_join":
            return self.search_join_payload(payload)
        if endpoint == "_sleep":
            time.sleep(float(payload.get("seconds", 0.0)))
            return {"slept": payload.get("seconds", 0.0), "pid": os.getpid()}
        raise ApiError(api_errors.NOT_FOUND, f"unknown endpoint: {endpoint}")

    def handle_requests(self, items: list[tuple[str, dict]]) -> list[dict]:
        """Handle one worker message's requests, each failure isolated.

        Returns one outcome per ``(endpoint, payload)`` item, in order:
        ``{"ok": <response body>}`` or ``{"error": <ErrorEnvelope>}`` —
        exactly the body or envelope :meth:`handle` gives that item alone,
        which is what keeps batching invisible in responses.  The
        annotates run as one
        :meth:`~repro.api.session.ReproSession.annotate_batch`, which
        isolates each table's failure itself; every other endpoint runs
        item by item through :meth:`handle`.
        """
        outcomes: dict[int, dict] = {}
        annotates: list[tuple[int, AnnotateRequest]] = []
        for index, (endpoint, payload) in enumerate(items):
            if endpoint != "annotate":
                outcomes[index] = self._outcome(endpoint, payload)
                continue
            try:
                annotates.append((index, AnnotateRequest.from_json(payload)))
            except Exception as error:  # noqa: BLE001 - isolate batchmates
                outcomes[index] = _error_outcome(error)
        responses = self.session.annotate_batch(
            [request for _index, request in annotates]
        )
        for (index, _request), response in zip(annotates, responses):
            outcomes[index] = (
                _error_outcome(response)
                if isinstance(response, ApiError)
                else {"ok": response.to_json()}
            )
        return [outcomes[index] for index in range(len(items))]

    def _outcome(self, endpoint: str, payload: dict) -> dict:
        """:meth:`handle` for one item as its :meth:`handle_requests`
        outcome."""
        try:
            return {"ok": self.handle(endpoint, payload)}
        except Exception as error:  # noqa: BLE001 - isolate batchmates
            return _error_outcome(error)

    def annotate_payload(self, payload: dict) -> dict:
        """Handle one ``/annotate`` body."""
        return self.session.annotate(AnnotateRequest.from_json(payload)).to_json()

    def search_payload(self, payload: dict) -> dict:
        """Handle one ``/search`` body."""
        return self.session.search(SearchRequest.from_json(payload)).to_json()

    def search_join_payload(self, payload: dict) -> dict:
        """Handle one ``/search/join`` body (two-hop join queries)."""
        return self.session.join_search(
            JoinSearchRequest.from_json(payload)
        ).to_json()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return {
            "status": "ok",
            "schema_version": SCHEMA_VERSION,
            "bundle": str(self.bundle.path),
            "tables": len(self.index),
            "catalog": self.bundle.manifest.identity.get("catalog_name"),
            "model_sha256": self.bundle.manifest.identity.get("model_sha256"),
        }

    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["schema_version"] = SCHEMA_VERSION
        snapshot["caches"] = self.cache_stats()
        snapshot["bundle"] = {
            "path": str(self.bundle.path),
            "tables": len(self.index),
            "identity": self.bundle.manifest.identity,
        }
        return snapshot

    def worker_stats(self) -> dict:
        """The per-process stats fragment a pool worker reports to the
        dispatcher's ``/metrics`` aggregation (see :mod:`repro.serve.pool`)."""
        return {"pid": os.getpid(), "caches": self.cache_stats()}

    def cache_stats(self) -> dict:
        """Cache counters and the fused-fallback count of the session's
        pipeline."""
        pipeline = self.session.pipeline()
        entry: dict[str, dict] = {}
        for cache_name, cache in (
            ("candidate_cache", pipeline.cache),
            ("block_cache", pipeline.block_cache),
            ("answer_cache", pipeline.answer_cache),
        ):
            if cache is None:
                continue
            stats = cache.stats()
            entry[cache_name] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": round(stats.hit_rate, 4),
                "entries": stats.entries,
                "evictions": stats.evictions,
            }
        entry["fusion"] = {"fallbacks": pipeline.fallbacks}
        return entry
