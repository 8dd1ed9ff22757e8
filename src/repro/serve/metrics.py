"""Request metrics for the long-lived server.

Two registries, both locked the same way (all mutation under one mutex —
the arithmetic is nanoseconds next to request work):

* :class:`MetricsRegistry` — per-endpoint counters and a bounded window of
  recent latencies, observed at the HTTP layer.  This is the **aggregate**
  view: whatever the worker topology, every request lands here once.
* :class:`DispatcherMetrics` — the multi-process tier's split of the same
  traffic: per-worker handler-latency histograms (the time inside the
  worker process, excluding queue wait), a queue-wait window, and the
  dispatcher counters (sheds, worker restarts, reloads, in-flight gauge).
* :class:`BatchingMetrics` — the request coalescer's accounting: how many
  requests rode a fused super-batch vs. ran solo, the batch-size
  histogram, and a window of coalesce waits (time a request sat in the
  batching queue before its batch executed).

``/metrics`` reports all of them: the aggregate ``endpoints`` section
keeps its shape from the single-process days, the ``workers`` /
``dispatcher`` sections carry the per-worker split, and ``batching``
appears when the coalescer is enabled (see ``docs/OPERATIONS.md`` for the
full field reference).
"""

from __future__ import annotations

import threading
import time
from collections import deque


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 for empty input)."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


class EndpointMetrics:
    """Counters plus a recent-latency window for one endpoint."""

    def __init__(self, window_size: int) -> None:
        self.requests = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.window: deque[float] = deque(maxlen=window_size)

    def observe(self, seconds: float, error: bool) -> None:
        self.requests += 1
        self.total_seconds += seconds
        if error:
            self.errors += 1
        else:
            # error latencies are short-circuit paths; keeping them out of
            # the window stops a burst of 400s from masking real latency
            self.window.append(seconds)

    def snapshot(self) -> dict:
        ordered = sorted(self.window)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "total_seconds": round(self.total_seconds, 6),
            "latency_seconds": {
                "p50": round(percentile(ordered, 0.50), 6),
                "p90": round(percentile(ordered, 0.90), 6),
                "p99": round(percentile(ordered, 0.99), 6),
                "max": round(ordered[-1], 6) if ordered else 0.0,
                "window": len(ordered),
            },
        }


class MetricsRegistry:
    """Thread-safe per-endpoint request accounting."""

    def __init__(self, window_size: int = 2048) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self._window_size = window_size
        self._endpoints: dict[str, EndpointMetrics] = {}
        self._lock = threading.Lock()
        self._started = time.time()

    def observe(self, endpoint: str, seconds: float, error: bool = False) -> None:
        with self._lock:
            metrics = self._endpoints.get(endpoint)
            if metrics is None:
                metrics = self._endpoints[endpoint] = EndpointMetrics(
                    self._window_size
                )
            metrics.observe(seconds, error)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_seconds": round(time.time() - self._started, 3),
                "endpoints": {
                    endpoint: metrics.snapshot()
                    for endpoint, metrics in sorted(self._endpoints.items())
                },
            }


class DispatcherMetrics:
    """Per-worker and dispatcher-level accounting for the pre-fork tier.

    Worker names are generation-qualified (``g1.w0``): a hot-swap starts a
    fresh histogram per new worker instead of mixing two bundles' latency
    profiles.  Every method takes the one lock; the snapshot is a deep copy
    so callers never alias live state.
    """

    def __init__(self, window_size: int = 2048) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self._window_size = window_size
        self._lock = threading.Lock()
        self._workers: dict[str, EndpointMetrics] = {}
        self._queue_window: deque[float] = deque(maxlen=window_size)
        self._shed: dict[str, int] = {}
        self._in_flight = 0
        self._worker_restarts = 0
        self._reloads = 0

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def observe_admitted(self) -> None:
        with self._lock:
            self._in_flight += 1

    def observe_done(
        self,
        worker: str,
        queue_seconds: float,
        handler_seconds: float,
        error: bool,
    ) -> None:
        """One request finished on ``worker`` (successfully or with an
        API error — transport-level worker deaths go through
        :meth:`observe_worker_restart` instead)."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            metrics = self._workers.get(worker)
            if metrics is None:
                metrics = self._workers[worker] = EndpointMetrics(
                    self._window_size
                )
            metrics.observe(handler_seconds, error)
            self._queue_window.append(queue_seconds)

    def observe_shed(self, endpoint: str) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            self._shed[endpoint] = self._shed.get(endpoint, 0) + 1

    def observe_worker_failed(self) -> None:
        """A request died with its worker: drop the in-flight slot."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            self._worker_restarts += 1

    def observe_worker_restart(self) -> None:
        """An idle worker found dead by the health sweep and replaced."""
        with self._lock:
            self._worker_restarts += 1

    def observe_reload(self) -> None:
        with self._lock:
            self._reloads += 1

    def forget_worker(self, worker: str) -> None:
        """Drop a retired generation's histogram (its counters already
        contributed to the aggregate registry)."""
        with self._lock:
            self._workers.pop(worker, None)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def worker_snapshot(self, worker: str) -> dict:
        with self._lock:
            metrics = self._workers.get(worker)
            if metrics is None:
                return EndpointMetrics(self._window_size).snapshot()
            return metrics.snapshot()

    def snapshot(self) -> dict:
        with self._lock:
            ordered = sorted(self._queue_window)
            return {
                "in_flight": self._in_flight,
                "shed_total": sum(self._shed.values()),
                "shed": dict(sorted(self._shed.items())),
                "worker_restarts": self._worker_restarts,
                "reloads": self._reloads,
                "queue_wait_seconds": {
                    "p50": round(percentile(ordered, 0.50), 6),
                    "p90": round(percentile(ordered, 0.90), 6),
                    "p99": round(percentile(ordered, 0.99), 6),
                    "max": round(ordered[-1], 6) if ordered else 0.0,
                    "window": len(ordered),
                },
            }


class BatchingMetrics:
    """The request coalescer's accounting (fused-vs-solo split).

    One instance per :class:`~repro.serve.dispatcher.BatchingBackend`.  All
    mutation under one mutex, same as the other registries; the snapshot is
    a fresh dict so callers never alias live state.
    """

    def __init__(self, window_size: int = 2048) -> None:
        if window_size < 1:
            # reprolint: ignore[exc-unclassified]: a programmer-error guard
            # at construction time, never reachable from a request
            raise ValueError("window_size must be >= 1")
        self._lock = threading.Lock()
        self._batches = 0
        self._batch_errors = 0
        self._batched_requests = 0
        self._solo_requests = 0
        self._shed = 0
        self._size_histogram: dict[int, int] = {}
        self._wait_window: deque[float] = deque(maxlen=window_size)

    def observe_batch(
        self, size: int, waits: list[float], error: bool = False
    ) -> None:
        """One coalesced super-batch executed (``waits`` holds each rider's
        time in the batching queue; ``error`` means the whole batch failed
        at the transport level, not that one table errored)."""
        with self._lock:
            self._batches += 1
            self._batched_requests += size
            if error:
                self._batch_errors += 1
            self._size_histogram[size] = self._size_histogram.get(size, 0) + 1
            self._wait_window.extend(waits)

    def observe_solo(self) -> None:
        """One request bypassed the coalescer (a non-annotate endpoint)."""
        with self._lock:
            self._solo_requests += 1

    def observe_shed(self) -> None:
        """One request shed because the batching queue was full."""
        with self._lock:
            self._shed += 1

    def snapshot(self) -> dict:
        with self._lock:
            ordered = sorted(self._wait_window)
            batches = self._batches
            return {
                "batches": batches,
                "batch_errors": self._batch_errors,
                "batched_requests": self._batched_requests,
                "solo_requests": self._solo_requests,
                "shed": self._shed,
                "mean_batch_size": (
                    round(self._batched_requests / batches, 3) if batches else 0.0
                ),
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self._size_histogram.items())
                },
                "coalesce_wait_seconds": {
                    "p50": round(percentile(ordered, 0.50), 6),
                    "p90": round(percentile(ordered, 0.90), 6),
                    "p99": round(percentile(ordered, 0.99), 6),
                    "max": round(ordered[-1], 6) if ordered else 0.0,
                    "window": len(ordered),
                },
            }
