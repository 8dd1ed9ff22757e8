"""A serving worker's request handlers over one warm session.

All domain work lives in :class:`~repro.api.session.ReproSession` (shared
with the CLI and library callers, so the frontends cannot diverge).
``ServeState`` adds only what a serving worker needs on top: the
payload-level handlers that decode JSON into typed requests and encode
typed responses back out, with each request's failure isolated from its
batchmates (:meth:`ServeState.handle_requests`), and the per-process cache
counters the dispatcher sums across workers for ``/metrics``.

Each forked worker (:mod:`repro.serve.pool`) builds one ``ServeState`` and
answers one pipe message at a time.  Built in-process, it is also the
reference served bodies are compared against, byte for byte.  Sharing one
across threads is as safe as sharing its session (see the thread-safety
contract in :mod:`repro.api.session`).
"""

from __future__ import annotations

import os
import time

from repro.api import errors as api_errors
from repro.api.config import SessionConfig
from repro.api.errors import ApiError
from repro.api.session import ReproSession
from repro.api.types import (
    AnnotateRequest,
    ErrorEnvelope,
    JoinSearchRequest,
    SearchRequest,
)
from repro.pipeline.pipeline import AnnotationPipeline
from repro.serve.bundle import LoadedBundle


def _error_outcome(error: BaseException) -> dict:
    """One failed request as its :meth:`ServeState.handle_requests` outcome."""
    return {"error": ErrorEnvelope.from_error(error).to_json()}


class ServeState:
    """One worker's warm session and the payload handlers over it."""

    def __init__(
        self,
        bundle: LoadedBundle,
        session_config: SessionConfig | None = None,
    ) -> None:
        self.session = ReproSession.from_bundle(bundle, config=session_config)
        self.catalog = bundle.catalog
        self.index = bundle.table_index

    def pipeline(self) -> AnnotationPipeline:
        """The session's shared pipeline (kept for introspection / tests)."""
        return self.session.pipeline()

    # ------------------------------------------------------------------
    # request handlers: decode -> session -> encode
    # ------------------------------------------------------------------
    def handle(self, endpoint: str, payload: dict) -> dict:
        """Route one decoded request body by endpoint name.

        The single routing table of the pool workers
        (:mod:`repro.serve.pool`) and of in-process callers.  ``_sleep`` is
        a drain/test aid — it is never routed by the HTTP server, only
        reachable through a dispatcher handle.
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
