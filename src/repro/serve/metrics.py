"""Request metrics for the long-lived server.

Two registries, both locked the same way (all mutation under one mutex —
the arithmetic is nanoseconds next to request work):

* :class:`MetricsRegistry` — per-endpoint counters and a bounded window of
  recent latencies, observed at the HTTP layer.  This is the **aggregate**
  view: whatever the worker topology, every request lands here once.
* :class:`DispatcherMetrics` — the multi-process tier's split of the same
  traffic: per-worker handler-latency histograms (the time inside the
  worker process, excluding queue wait), a queue-wait window, the
  batch-size histogram of the worker round trips, and the dispatcher
  counters (sheds, worker restarts, reloads, in-flight gauge).

``/metrics`` reports both: the aggregate ``endpoints`` section, and the
``workers`` / ``dispatcher`` sections with the per-worker split (see
``docs/OPERATIONS.md`` for the full field reference).
"""

from __future__ import annotations

import threading
import time
from collections import deque

#: recent latencies each window keeps for its percentiles
WINDOW_SIZE = 2048


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 for empty input)."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _window_snapshot(window: deque[float]) -> dict:
    """p50/p90/p99/max of one latency window, plus its fill."""
    ordered = sorted(window)
    return {
        "p50": round(percentile(ordered, 0.50), 6),
        "p90": round(percentile(ordered, 0.90), 6),
        "p99": round(percentile(ordered, 0.99), 6),
        "max": round(ordered[-1], 6) if ordered else 0.0,
        "window": len(ordered),
    }


class EndpointMetrics:
    """Counters plus a recent-latency window for one endpoint."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.window: deque[float] = deque(maxlen=WINDOW_SIZE)

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
        return {
            "requests": self.requests,
            "errors": self.errors,
            "total_seconds": round(self.total_seconds, 6),
            "latency_seconds": _window_snapshot(self.window),
        }


class MetricsRegistry:
    """Thread-safe per-endpoint request accounting."""

    def __init__(self) -> None:
        self._endpoints: dict[str, EndpointMetrics] = {}
        self._lock = threading.Lock()
        self._started = time.time()

    def observe(self, endpoint: str, seconds: float, error: bool = False) -> None:
        with self._lock:
            metrics = self._endpoints.get(endpoint)
            if metrics is None:
                metrics = self._endpoints[endpoint] = EndpointMetrics()
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

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: dict[str, EndpointMetrics] = {}
        self._queue_window: deque[float] = deque(maxlen=WINDOW_SIZE)
        self._batch_sizes: dict[int, int] = {}
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

    def observe_batch(self, size: int) -> None:
        """One worker round trip carried ``size`` queued requests."""
        with self._lock:
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1

    def observe_done(
        self,
        worker: str,
        queue_seconds: float,
        handler_seconds: float,
        error: bool,
    ) -> None:
        """One request finished on ``worker`` (successfully or with an
        API error — transport-level worker deaths go through
        :meth:`observe_worker_failed` instead)."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            metrics = self._workers.get(worker)
            if metrics is None:
                metrics = self._workers[worker] = EndpointMetrics()
            metrics.observe(handler_seconds, error)
            self._queue_window.append(queue_seconds)

    def observe_shed(self, endpoint: str) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            self._shed[endpoint] = self._shed.get(endpoint, 0) + 1

    def observe_worker_failed(self, requests: int) -> None:
        """``requests`` died with their worker: drop their in-flight slots."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - requests)

    def observe_worker_restart(self) -> None:
        """A dead or silent worker replaced (mid-request or found idle)."""
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
                return EndpointMetrics().snapshot()
            return metrics.snapshot()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "shed_total": sum(self._shed.values()),
                "shed": dict(sorted(self._shed.items())),
                "worker_restarts": self._worker_restarts,
                "reloads": self._reloads,
                "queue_wait_seconds": _window_snapshot(self._queue_window),
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self._batch_sizes.items())
                },
            }
