"""The serving parent: admission control, load balancing, worker lifecycle.

One :class:`Dispatcher` sits between the threaded HTTP front end and the
pre-fork worker pool (:mod:`repro.serve.pool`).  Its job is four loops of
bookkeeping around a very small hot path:

* **Admission + backpressure.**  A generation of ``N`` workers with queue
  depth ``Q`` admits at most ``N + Q`` requests; a request that cannot be
  admitted within ``shed_timeout_seconds`` is shed with a 503
  ``overloaded`` *before* it consumes any worker time.  Under overload the
  server degrades to a bounded queue plus fast rejections instead of an
  unbounded thread pile-up.  Admission is strictly FIFO
  (:class:`FifoSlots`): freed slots go to the longest-waiting request, so
  no request starves behind later arrivals however long the overload
  lasts.
* **Load balancing.**  Admitted requests take the first idle worker (a
  plain queue: workers that finish fastest serve the most requests, which
  is the right policy for homogeneous workers over one shared bundle).
* **Health.**  A sweep thread replaces dead workers every
  ``health_interval_seconds``; a worker that dies or wedges mid-request is
  replaced immediately and the request fails with a 503 ``worker_failed``
  (the client retries; every other in-flight request is untouched).
* **Hot swap.**  ``reload()`` builds a whole new *generation* — load the
  new bundle, fork fresh workers, ping them ready — then atomically swaps
  it in.  Requests admitted before the swap drain on the old generation;
  requests after it run on the new one.  The old generation is retired
  once drained (bounded by ``drain_timeout_seconds``).

Lock discipline (checked by ``repro lint``'s ``lock-unguarded-attr`` rule):
every access to the generation table (``_active``, ``_generation_seq``,
per-generation worker lists) happens under ``_lock``; metrics live behind
their own locks in :mod:`repro.serve.metrics`; the pipe of each worker is
serialized by its handle's lock.  The only lock-free state is each
handle's ``defunct`` flag, written exactly once under ``_lock`` and read
opportunistically (a stale ``False`` just costs one extra liveness check).
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.api import errors as api_errors
from repro.api.config import SessionConfig
from repro.api.errors import ApiError, to_api_error
from repro.api.types import SCHEMA_VERSION
from repro.serve.bundle import LoadedBundle, load_bundle
from repro.serve.metrics import (
    BatchingMetrics,
    DispatcherMetrics,
    MetricsRegistry,
)
from repro.serve.pool import WorkerHandle, WorkerTimeout, spawn_worker

if TYPE_CHECKING:
    from repro.serve.server import Backend

_PIPE_ERRORS = (WorkerTimeout, OSError, EOFError, BrokenPipeError)


class FifoSlots:
    """Admission tickets handed out strictly in arrival order.

    A drop-in for the ``threading.Semaphore`` the dispatcher used to use,
    with one behavioral difference that matters under sustained overload:
    ``Semaphore`` wakes blocked acquirers in arbitrary order, so an unlucky
    request can lose every wakeup race and wait orders of magnitude longer
    than its peers (the p99 ≈ 100× p50 signature in ``BENCH_serve.json``).
    Here a released slot is handed directly to the longest-waiting ticket,
    and a fresh ``acquire`` never jumps past parked waiters.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            # reprolint: ignore[exc-unclassified]: a programmer-error guard
            # at construction time, never reachable from a request
            raise ValueError("capacity must be >= 1")
        self._lock = threading.Lock()
        self._available = capacity
        self._waiters: deque[threading.Event] = deque()

    def acquire(self, timeout: float | None = None) -> bool:
        """Take one slot; False when none frees up within ``timeout``."""
        with self._lock:
            if self._available > 0 and not self._waiters:
                self._available -= 1
                return True
            ticket = threading.Event()
            self._waiters.append(ticket)
        if ticket.wait(timeout):
            return True
        with self._lock:
            if ticket.is_set():
                # a release handed us the slot in the instant we timed out;
                # the hand-off already consumed it, so the acquire stands
                return True
            self._waiters.remove(ticket)
        return False

    def release(self) -> None:
        """Free one slot — passed to the head waiter if anyone is parked."""
        with self._lock:
            if self._waiters:
                self._waiters.popleft().set()
            else:
                self._available += 1


class _Generation:
    """One bundle's worth of workers plus its admission bookkeeping."""

    def __init__(
        self,
        generation_id: int,
        bundle: LoadedBundle,
        workers: list[WorkerHandle],
        queue_depth: int,
    ) -> None:
        self.id = generation_id
        self.bundle = bundle
        self.workers = workers
        self.capacity = len(workers) + queue_depth
        self.slots = FifoSlots(self.capacity)
        self.idle: queue.Queue[WorkerHandle] = queue.Queue()
        for worker in workers:
            self.idle.put(worker)
        self.next_worker_index = len(workers)
        self.retired = False


class Dispatcher:
    """The multi-process serving backend (see module docs).

    Implements the same backend surface as the in-process
    :class:`~repro.serve.server.InlineBackend`: ``call`` / ``healthz`` /
    ``metrics_snapshot`` / ``reload`` / ``observe`` / ``shutdown``.
    """

    def __init__(
        self,
        bundle_path: str | Path,
        config: SessionConfig | None = None,
        verify: bool = True,
        quiet: bool = True,
        metrics_window: int = 2048,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        serve = self.config.serve
        self.workers = serve.workers
        self.queue_depth = serve.queue_depth
        self.shed_timeout = serve.shed_timeout_seconds
        self.request_timeout = serve.request_timeout_seconds
        self.drain_timeout = serve.drain_timeout_seconds
        self._verify = verify
        self._quiet = quiet
        self.registry = MetricsRegistry(window_size=metrics_window)
        self.dispatch_metrics = DispatcherMetrics(window_size=metrics_window)
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._generation_seq = 1
        bundle = load_bundle(bundle_path, verify=verify)
        self._active = self._spawn_generation(1, bundle)
        self._health_thread = threading.Thread(
            target=self._health_loop,
            name="repro-serve-health",
            daemon=True,
        )
        self._health_thread.start()

    # ------------------------------------------------------------------
    # generation construction
    # ------------------------------------------------------------------
    def _spawn_generation(
        self, generation_id: int, bundle: LoadedBundle
    ) -> _Generation:
        workers: list[WorkerHandle] = []
        try:
            for index in range(self.workers):
                workers.append(
                    spawn_worker(
                        f"g{generation_id}.w{index}",
                        generation_id,
                        bundle,
                        self.config,
                    )
                )
        except Exception:
            for worker in workers:
                worker.stop(timeout=1.0)
            raise
        self._log(
            f"generation {generation_id}: {len(workers)} worker(s) ready "
            f"on {bundle.path}"
        )
        return _Generation(generation_id, bundle, workers, self.queue_depth)

    def _log(self, message: str) -> None:
        if not self._quiet:
            sys.stderr.write(f"[dispatcher] {message}\n")
            sys.stderr.flush()

    def _current(self) -> _Generation:
        with self._lock:
            return self._active

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def call(self, endpoint: str, payload: dict) -> dict:
        """Dispatch one request to a worker; raises :class:`ApiError`."""
        result: dict = self._admit_and_call(("request", endpoint, payload))
        return result

    def call_batch(
        self,
        endpoint: str,
        payloads: list[dict],
        timeout: float | None = None,
    ) -> list[dict]:
        """Run one coalesced super-batch on a single worker.

        The whole bucket ships as one ``batch`` pipe message; the worker
        answers with one outcome per payload (failures isolated per item by
        :meth:`~repro.serve.state.ServeState.handle_batch`).  ``timeout``
        bounds the worker round trip — the coalescer passes the tightest
        member deadline so ``request_timeout`` stays per request, not per
        batch.  Raises :class:`ApiError` only on whole-batch failure
        (shed admission, dead worker).
        """
        reply = self._admit_and_call(
            ("batch", endpoint, payloads), timeout=timeout
        )
        results = reply.get("results") if isinstance(reply, dict) else None
        if not isinstance(results, list) or len(results) != len(payloads):
            raise ApiError(
                api_errors.INTERNAL_ERROR,
                "worker returned a malformed batch reply",
            )
        return results

    def _admit_and_call(
        self, message: tuple, timeout: float | None = None
    ) -> dict:
        """Admission + one worker round trip (shared by call / call_batch)."""
        endpoint = message[1]
        generation = self._current()
        admitted_at = time.perf_counter()
        self.dispatch_metrics.observe_admitted()
        if not generation.slots.acquire(timeout=self.shed_timeout):
            self.dispatch_metrics.observe_shed(endpoint)
            raise ApiError(
                api_errors.OVERLOADED,
                f"server overloaded: {generation.capacity} requests already "
                f"in flight or queued (workers={self.workers}, "
                f"queue_depth={self.queue_depth}); retry with backoff",
            )
        try:
            worker = self._take_worker(generation)
            queue_seconds = time.perf_counter() - admitted_at
            try:
                reply = worker.call(
                    message,
                    timeout=(
                        timeout if timeout is not None else self.request_timeout
                    ),
                )
            except _PIPE_ERRORS as error:
                self.dispatch_metrics.observe_worker_failed()
                self._replace_worker(generation, worker, reason=str(error))
                raise ApiError(
                    api_errors.WORKER_FAILED,
                    f"worker {worker.name} died handling the request "
                    f"({type(error).__name__}); it is being replaced — retry",
                ) from error
            self._return_worker(generation, worker)
            kind = reply[0]
            if kind == "ok":
                self.dispatch_metrics.observe_done(
                    worker.name, queue_seconds, reply[2], error=False
                )
                result: dict = reply[1]
                return result
            envelope, handler_seconds = reply[1], reply[3]
            self.dispatch_metrics.observe_done(
                worker.name, queue_seconds, handler_seconds, error=True
            )
            error_body: Mapping[str, str] = envelope.get("error", {})
            raise ApiError(
                error_body.get("code", api_errors.INTERNAL_ERROR),
                error_body.get("message", "worker error"),
            )
        finally:
            generation.slots.release()

    def _take_worker(self, generation: _Generation) -> WorkerHandle:
        """Pop the first live idle worker (defunct handles are discarded)."""
        deadline = time.monotonic() + self.request_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.dispatch_metrics.observe_shed("queue_wait")
                raise ApiError(
                    api_errors.OVERLOADED,
                    "no worker became available within "
                    f"{self.request_timeout:.0f}s",
                )
            try:
                worker = generation.idle.get(timeout=min(remaining, 1.0))
            except queue.Empty:
                continue
            if worker.defunct:
                continue  # replaced worker already re-queued by its spawner
            if not worker.process.is_alive():
                self._replace_worker(
                    generation, worker, reason="found dead in idle pool"
                )
                continue
            return worker

    def _return_worker(
        self, generation: _Generation, worker: WorkerHandle
    ) -> None:
        if not worker.defunct:
            generation.idle.put(worker)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _replace_worker(
        self, generation: _Generation, worker: WorkerHandle, reason: str
    ) -> None:
        """Retire one dead/wedged worker and fork its replacement.

        Idempotent per handle: the ``defunct`` flag flips exactly once
        under ``_lock``, so a request thread and the health sweep racing on
        the same corpse spawn exactly one replacement.
        """
        with self._lock:
            if worker.defunct or generation.retired:
                return
            worker.defunct = True
            generation.workers = [
                w for w in generation.workers if w is not worker
            ]
            name = f"g{generation.id}.w{generation.next_worker_index}"
            generation.next_worker_index += 1
        self._log(f"replacing worker {worker.name}: {reason}")
        worker.stop(timeout=1.0)
        self.dispatch_metrics.forget_worker(worker.name)
        try:
            replacement = spawn_worker(
                name, generation.id, generation.bundle, self.config
            )
        except Exception as error:  # noqa: BLE001 - degraded, not fatal
            self._log(f"failed to spawn replacement {name}: {error}")
            return
        with self._lock:
            retired = generation.retired
            if not retired:
                generation.workers.append(replacement)
        if retired:
            # stop() joins the child process — never block inside _lock
            replacement.stop(timeout=1.0)
            return
        generation.idle.put(replacement)
        self._log(f"worker {replacement.name} (pid {replacement.pid}) ready")

    def _health_loop(self) -> None:
        interval = max(self.config.serve.health_interval_seconds, 0.05)
        while not self._stop_event.wait(interval):
            generation = self._current()
            with self._lock:
                workers = list(generation.workers)
            for worker in workers:
                if not worker.defunct and not worker.process.is_alive():
                    self.dispatch_metrics.observe_worker_restart()
                    self._replace_worker(
                        generation, worker, reason="health sweep found it dead"
                    )

    # ------------------------------------------------------------------
    # hot swap + shutdown
    # ------------------------------------------------------------------
    def reload(self, payload: dict) -> dict:
        """``POST /admin/reload``: swap in a new bundle generation.

        Spawns and readies the new generation *before* the swap, so a bad
        bundle path or corrupt bundle leaves the serving generation
        untouched.  Returns once the old generation has drained (bounded by
        the drain timeout) and been stopped.
        """
        bundle_path = payload.get("bundle")
        if bundle_path is None:
            generation = self._current()
            bundle_path = str(generation.bundle.path)
        if not isinstance(bundle_path, str):
            raise ApiError(
                api_errors.VALIDATION_ERROR, "reload 'bundle' must be a path"
            )
        start = time.perf_counter()
        with self._reload_lock:
            bundle = load_bundle(bundle_path, verify=self._verify)
            with self._lock:
                generation_id = self._generation_seq + 1
            fresh = self._spawn_generation(generation_id, bundle)
            with self._lock:
                old = self._active
                self._active = fresh
                self._generation_seq = generation_id
            self.dispatch_metrics.observe_reload()
            # reprolint: ignore[lock-order-hold-wait]: _reload_lock exists
            # to serialize whole reloads end-to-end (request threads never
            # take it), so draining the old generation under it is the
            # point, not a hazard
            drained = self._retire(old)
        self._log(
            f"reloaded onto {bundle_path} as generation {fresh.id} "
            f"(old generation {'drained' if drained else 'FORCE-STOPPED'})"
        )
        return {
            "status": "ok",
            "generation": fresh.id,
            "bundle": str(bundle.path),
            "workers": len(fresh.workers),
            "previous_generation_drained": drained,
            "reload_seconds": round(time.perf_counter() - start, 3),
        }

    def _retire(self, generation: _Generation) -> bool:
        """Drain and stop one generation; True if it drained cleanly.

        Draining means re-acquiring the full admission capacity: every
        slot held by an in-flight request comes back through its
        ``finally``, so holding all of them proves the generation idle.
        """
        with self._lock:
            generation.retired = True
        deadline = time.monotonic() + self.drain_timeout
        drained = True
        for _ in range(generation.capacity):
            remaining = max(0.0, deadline - time.monotonic())
            if not generation.slots.acquire(timeout=remaining):
                drained = False
                break
        with self._lock:
            workers = list(generation.workers)
            generation.workers = []
        for worker in workers:
            worker.defunct = True
            worker.stop(timeout=5.0)
            self.dispatch_metrics.forget_worker(worker.name)
        return drained

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Stop the health loop, drain in-flight work, stop every worker."""
        if drain_timeout is not None:
            self.drain_timeout = drain_timeout
        self._stop_event.set()
        self._health_thread.join(timeout=5.0)
        return self._retire(self._current())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def observe(self, endpoint: str, seconds: float, error: bool) -> None:
        """Aggregate request accounting (called by the HTTP layer)."""
        self.registry.observe(endpoint, seconds, error=error)

    def healthz(self) -> dict:
        generation = self._current()
        with self._lock:
            alive = sum(1 for w in generation.workers if w.alive())
            total = len(generation.workers)
        bundle = generation.bundle
        return {
            "status": "ok" if alive else "error",
            "schema_version": SCHEMA_VERSION,
            "bundle": str(bundle.path),
            "tables": len(bundle.table_index),
            "catalog": bundle.manifest.identity.get("catalog_name"),
            "model_sha256": bundle.manifest.identity.get("model_sha256"),
            "generation": generation.id,
            "workers": {"configured": self.workers, "alive": alive,
                        "current": total},
        }

    def _collect_worker_stats(
        self, timeout_per_worker: float = 0.25
    ) -> dict[str, dict]:
        """Cache stats from every *idle* worker (busy ones are skipped).

        Pops whatever the idle pool holds right now, round-trips a cheap
        ``stats`` message on each, and puts them back.  Workers mid-request
        simply do not appear — ``/metrics`` marks them busy rather than
        stalling behind a long annotation.
        """
        generation = self._current()
        borrowed: list[WorkerHandle] = []
        stats: dict[str, dict] = {}
        try:
            while True:
                try:
                    worker = generation.idle.get_nowait()
                except queue.Empty:
                    break
                if worker.defunct:
                    continue
                borrowed.append(worker)
        finally:
            for worker in borrowed:
                try:
                    reply = worker.call(("stats",), timeout=timeout_per_worker)
                    if reply[0] == "ok":
                        stats[worker.name] = reply[1]
                except _PIPE_ERRORS:
                    pass  # the health sweep will deal with it
                generation.idle.put(worker)
        return stats

    @staticmethod
    def _merge_cache_stats(per_worker: list[dict]) -> dict:
        """Sum cache and fusion counters across workers (hit rates
        recomputed)."""
        merged: dict[str, dict] = {}
        for entry in per_worker:
            for cache_name, counters in entry.items():
                if cache_name == "fusion":
                    fusion = merged.setdefault(
                        "fusion",
                        {
                            "fused_batches": 0,
                            "bucket_size_histogram": {},
                            "fallbacks": 0,
                        },
                    )
                    for key in ("fused_batches", "fallbacks"):
                        fusion[key] += counters.get(key, 0)
                    continue
                cache = merged.setdefault(
                    cache_name,
                    {"hits": 0, "misses": 0, "entries": 0, "evictions": 0},
                )
                for key in ("hits", "misses", "entries", "evictions"):
                    cache[key] += counters.get(key, 0)
        for cache_name, counters in merged.items():
            if cache_name == "fusion":
                continue
            total = counters["hits"] + counters["misses"]
            counters["hit_rate"] = (
                round(counters["hits"] / total, 4) if total else 0.0
            )
        return merged

    def metrics_snapshot(self) -> dict:
        generation = self._current()
        snapshot = self.registry.snapshot()
        snapshot["schema_version"] = SCHEMA_VERSION
        worker_stats = self._collect_worker_stats()
        with self._lock:
            workers = list(generation.workers)
        workers_payload: dict[str, dict] = {}
        for worker in sorted(workers, key=lambda w: w.name):
            split = self.dispatch_metrics.worker_snapshot(worker.name)
            stats = worker_stats.get(worker.name)
            workers_payload[worker.name] = {
                "pid": worker.pid,
                "alive": worker.alive(),
                "generation": worker.generation,
                "requests": split["requests"],
                "errors": split["errors"],
                "handler_seconds": split["latency_seconds"],
                "caches": stats["caches"] if stats else None,
                "busy": stats is None,
            }
        snapshot["workers"] = workers_payload
        snapshot["dispatcher"] = {
            **self.dispatch_metrics.snapshot(),
            "generation": generation.id,
            "workers": len(workers),
            "alive_workers": sum(1 for w in workers if w.alive()),
            "queue_depth": self.queue_depth,
            "capacity": generation.capacity,
            "shed_timeout_seconds": self.shed_timeout,
            "request_timeout_seconds": self.request_timeout,
        }
        snapshot["caches"] = self._merge_cache_stats(
            [
                stats["caches"]
                for stats in worker_stats.values()
                if "caches" in stats
            ]
        )
        bundle = generation.bundle
        snapshot["bundle"] = {
            "path": str(bundle.path),
            "tables": len(bundle.table_index),
            "identity": bundle.manifest.identity,
        }
        return snapshot


class _PendingRequest:
    """One coalesced request parked between its HTTP thread and a batcher."""

    __slots__ = ("payload", "enqueued_at", "deadline", "done", "result", "error")

    def __init__(
        self, payload: dict, enqueued_at: float, deadline: float
    ) -> None:
        self.payload = payload
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.done = threading.Event()
        self.result: dict | None = None
        self.error: ApiError | None = None

    def resolve(self, result: dict) -> None:
        self.result = result
        self.done.set()

    def fail(self, error: ApiError) -> None:
        self.error = error
        self.done.set()


class BatchingBackend:
    """Serve-time dynamic micro-batching over any serving backend.

    Sits between the HTTP layer and an inner backend (the
    :class:`Dispatcher` or an :class:`~repro.serve.server.InlineBackend`)
    and coalesces concurrent ``/annotate`` requests into fused
    super-batches: a request parks in a bounded queue until either
    ``batch_wait_ms`` passes or ``max_batch_size`` tables have gathered,
    then the whole batch ships as **one** ``call_batch`` — one worker round
    trip, planned into shape buckets and executed as fused BP super-graphs
    by the session underneath.  Responses are demultiplexed back to their
    HTTP threads byte-identical to unbatched serving (property-tested in
    ``tests/serve/test_batching.py``).

    Contracts the coalescer keeps:

    * **Per-request error isolation** — a poisoned table fails only its own
      request; batchmates resolve normally (the per-item ``ok``/``error``
      outcomes of :meth:`ServeState.handle_batch` carry this across the
      pipe).
    * **``request_timeout`` is per request, not per batch** — each member's
      deadline starts at its own enqueue; a batch's worker round trip is
      bounded by the tightest member deadline, and a member already past
      its deadline is failed without riding along.
    * **Deterministic under restart/hot-swap** — the coalescer holds no
      bundle state; batches land on whatever generation the inner backend
      currently serves, and shutdown drains the queue before the inner
      backend drains its workers.

    Non-annotate endpoints bypass the queue and run solo — counted in the
    ``batching`` metrics section as ``solo_requests``.
    """

    def __init__(
        self,
        inner: "Backend",
        config: SessionConfig | None = None,
        metrics_window: int = 2048,
    ) -> None:
        self.inner = inner
        self.config = config if config is not None else SessionConfig()
        serve = self.config.serve
        self.max_batch_size = serve.max_batch_size
        self.batch_wait_seconds = serve.batch_wait_ms / 1000.0
        self.shed_timeout = serve.shed_timeout_seconds
        self.request_timeout = serve.request_timeout_seconds
        self.batch_metrics = BatchingMetrics(window_size=metrics_window)
        capacity = (serve.workers + serve.queue_depth) * serve.max_batch_size
        self._pending: queue.Queue[_PendingRequest] = queue.Queue(
            maxsize=capacity
        )
        self._stop_event = threading.Event()
        self._batchers = [
            threading.Thread(
                target=self._batch_loop,
                name=f"repro-serve-batcher-{index}",
                daemon=True,
            )
            for index in range(serve.workers)
        ]
        for thread in self._batchers:
            thread.start()

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def call(self, endpoint: str, payload: dict) -> dict:
        """Coalesce an ``/annotate`` request; run anything else solo."""
        if endpoint != "annotate":
            self.batch_metrics.observe_solo()
            return self.inner.call(endpoint, payload)
        now = time.perf_counter()
        pending = _PendingRequest(payload, now, now + self.request_timeout)
        try:
            self._pending.put(pending, timeout=self.shed_timeout)
        except queue.Full:
            self.batch_metrics.observe_shed()
            raise ApiError(
                api_errors.OVERLOADED,
                "server overloaded: the batching queue is full; retry "
                "with backoff",
            ) from None
        # generous ceiling: the batcher enforces the real per-request
        # deadline; this wait only guards against a lost wakeup
        if not pending.done.wait(
            self.request_timeout + self.batch_wait_seconds + 60.0
        ):  # pragma: no cover - requires a wedged batcher thread
            raise ApiError(
                api_errors.INTERNAL_ERROR,
                "batched request was never resolved; the coalescer is wedged",
            )
        if pending.error is not None:
            # re-raise per caller: one shared whole-batch failure must not
            # mutate a single exception object across N threads
            raise ApiError(pending.error.code, str(pending.error))
        result: dict = pending.result if pending.result is not None else {}
        return result

    # ------------------------------------------------------------------
    # batcher threads
    # ------------------------------------------------------------------
    def _batch_loop(self) -> None:
        """Collect one batch, execute it, repeat until drained + stopped."""
        while True:
            try:
                first = self._pending.get(timeout=0.1)
            except queue.Empty:
                if self._stop_event.is_set():
                    return
                continue
            batch = [first]
            hold_until = time.perf_counter() + self.batch_wait_seconds
            while len(batch) < self.max_batch_size:
                remaining = hold_until - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    batch.append(self._pending.get(timeout=remaining))
                except queue.Empty:
                    break
            try:
                self._execute(batch)
            except Exception as error:  # noqa: BLE001 - a batcher thread
                # must survive anything; fail the riders, keep looping
                converted = to_api_error(error)
                for pending in batch:
                    pending.fail(ApiError(converted.code, str(converted)))

    def _execute(self, batch: list[_PendingRequest]) -> None:
        """One coalesced batch: enforce deadlines, ship, demultiplex."""
        now = time.perf_counter()
        live: list[_PendingRequest] = []
        for pending in batch:
            if pending.deadline <= now:
                pending.fail(
                    ApiError(
                        api_errors.OVERLOADED,
                        "request timed out in the batching queue; retry "
                        "with backoff",
                    )
                )
            else:
                live.append(pending)
        if not live:
            return
        waits = [now - pending.enqueued_at for pending in live]
        timeout = max(0.05, min(p.deadline for p in live) - now)
        try:
            outcomes = self.inner.call_batch(
                "annotate", [p.payload for p in live], timeout=timeout
            )
        except ApiError as error:
            self.batch_metrics.observe_batch(len(live), waits, error=True)
            for pending in live:
                pending.fail(ApiError(error.code, str(error)))
            return
        self.batch_metrics.observe_batch(len(live), waits)
        for pending, outcome in zip(live, outcomes):
            error_payload = (
                outcome.get("error") if isinstance(outcome, dict) else None
            )
            if error_payload is not None:
                body: Mapping[str, str] = error_payload.get("error", {})
                pending.fail(
                    ApiError(
                        body.get("code", api_errors.INTERNAL_ERROR),
                        body.get("message", "worker error"),
                    )
                )
            elif isinstance(outcome, dict) and "ok" in outcome:
                pending.resolve(outcome["ok"])
            else:
                pending.fail(
                    ApiError(
                        api_errors.INTERNAL_ERROR,
                        "batch backend returned a malformed outcome",
                    )
                )

    # ------------------------------------------------------------------
    # delegation
    # ------------------------------------------------------------------
    def call_batch(
        self,
        endpoint: str,
        payloads: list[dict],
        timeout: float | None = None,
    ) -> list[dict]:
        return self.inner.call_batch(endpoint, payloads, timeout=timeout)

    def observe(self, endpoint: str, seconds: float, error: bool) -> None:
        self.inner.observe(endpoint, seconds, error)

    def healthz(self) -> dict:
        return self.inner.healthz()

    def metrics_snapshot(self) -> dict:
        snapshot = self.inner.metrics_snapshot()
        snapshot["batching"] = {
            "enabled": True,
            "max_batch_size": self.max_batch_size,
            "batch_wait_ms": round(self.batch_wait_seconds * 1000.0, 3),
            **self.batch_metrics.snapshot(),
        }
        return snapshot

    def reload(self, payload: dict) -> dict:
        return self.inner.reload(payload)

    def drain_batchers(self, timeout: float = 30.0) -> bool:
        """Drain the batching queue and stop the coalescer threads without
        touching the inner backend — for callers that own the inner
        backend's lifecycle separately (benchmarks, layered serving)."""
        self._stop_event.set()
        deadline = time.monotonic() + max(timeout, 0.2)
        drained = True
        for thread in self._batchers:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
            if thread.is_alive():
                drained = False
        return drained

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Drain the batching queue, stop the batchers, then the inner
        backend (which drains its own in-flight work)."""
        drained = self.drain_batchers(
            drain_timeout if drain_timeout is not None else 30.0
        )
        return self.inner.shutdown(drain_timeout) and drained
