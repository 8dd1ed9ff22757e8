"""The serving parent: admission control, one request queue, worker lifecycle.

One :class:`Dispatcher` sits between the threaded HTTP front end and the
pre-fork worker pool (:mod:`repro.serve.pool`); it is the only serving
backend, and ``repro serve`` always runs one, with a single worker by
default.  Its job is four loops of bookkeeping around a very small hot
path:

* **Admission + backpressure.**  A generation of ``N`` workers with queue
  depth ``Q`` admits at most ``N + Q`` requests; a request that cannot be
  admitted within ``shed_timeout_seconds`` is shed with a 503
  ``overloaded`` *before* it consumes any worker time.  Under overload the
  server degrades to a bounded queue plus fast rejections instead of an
  unbounded thread pile-up.  Admission is strictly FIFO
  (:class:`FifoSlots`): freed slots go to the longest-waiting request, so
  no request starves behind later arrivals however long the overload
  lasts.
* **One request path.**  Every admitted request, whatever its endpoint,
  joins its generation's pending queue, and the thread that brought it
  ships it: while its request is queued, a request's thread borrows an
  idle worker and sends it the oldest request plus — only while no other
  worker of the generation is idle — everything else queued, up to
  ``batch_size``, as one ``requests`` pipe message.  (With another worker
  still idle, it ships its own request alone; the threads of the other
  queued requests take the other idle workers.)  A lone request therefore
  reaches the pipe on the thread that accepted it, with no hand-off; under
  load, requests queue while every worker is busy and the next borrower
  takes them together, so batches grow by themselves.  The worker runs the
  annotates as one fused batch, and each request resolves from its own
  outcome, so a failing request never fails its batchmates.  A request
  still queued ``request_timeout_seconds`` after admission fails
  ``overloaded`` without being shipped.
* **Health.**  One sweeper thread per generation checks the idle
  workers' liveness every ``health_interval_seconds`` and replaces the
  dead ones; a borrower checks its worker once more before shipping.  A
  worker that dies or goes silent (past ``request_timeout_seconds``)
  mid-message is replaced by its borrower, and the requests it carried
  fail with a 503 ``worker_failed`` (the client retries; every other
  request is untouched).
* **Hot swap.**  ``reload()`` builds a whole new *generation* — load the
  new bundle, fork fresh workers, ping them ready — then atomically swaps
  it in.  Requests admitted before the swap drain on the old generation;
  requests after it run on the new one.  The old generation is retired
  once drained (bounded by ``drain_timeout_seconds``).

Lock discipline (checked by ``repro lint``'s ``lock-unguarded-attr`` rule):
every access to the generation table (``_active``, ``_generation_seq``,
per-generation worker lists) happens under ``_lock``; each generation's
pending queue, idle workers and request outcomes sit behind its own
``ready`` condition, never taken together with ``_lock``; metrics live
behind their own locks in :mod:`repro.serve.metrics`; the pipe of each
worker is serialized by its handle's lock.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Mapping

from repro.api import errors as api_errors
from repro.api.config import SessionConfig
from repro.api.errors import ApiError
from repro.api.types import SCHEMA_VERSION
from repro.serve.bundle import LoadedBundle, load_bundle
from repro.serve.metrics import DispatcherMetrics, MetricsRegistry
from repro.serve.pool import WorkerHandle, WorkerTimeout, spawn_worker

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
        #: one held lock per parked acquirer; a release hands the slot
        #: over by unlocking the head ticket
        self._waiters: deque[threading.Lock] = deque()

    def acquire(self, timeout: float | None = None) -> bool:
        """Take one slot; False when none frees up within ``timeout``."""
        with self._lock:
            if self._available > 0 and not self._waiters:
                self._available -= 1
                return True
            ticket = threading.Lock()
            ticket.acquire()
            self._waiters.append(ticket)
        if ticket.acquire(timeout=-1 if timeout is None else timeout):
            return True
        with self._lock:
            if not ticket.locked():
                # a release handed us the slot in the instant we timed out;
                # the hand-off already consumed it, so the acquire stands
                return True
            self._waiters.remove(ticket)
        return False

    def release(self) -> None:
        """Free one slot — passed to the head waiter if anyone is parked."""
        with self._lock:
            if self._waiters:
                self._waiters.popleft().release()
            else:
                self._available += 1


class _Request:
    """One admitted request: queued, then shipped, then resolved once.

    Its state changes only under its generation's ``ready`` condition,
    which is also what its thread waits on.
    """

    __slots__ = (
        "endpoint",
        "payload",
        "admitted_at",
        "deadline",
        "shipped",
        "done",
        "result",
        "error",
    )

    def __init__(
        self, endpoint: str, payload: dict, admitted_at: float, deadline: float
    ) -> None:
        self.endpoint = endpoint
        self.payload = payload
        self.admitted_at = admitted_at
        self.deadline = deadline
        self.shipped = False
        self.done = False
        self.result: dict = {}
        self.error: ApiError | None = None

    def resolve(self, result: dict) -> None:
        self.result = result
        self.done = True

    def fail(self, error: ApiError) -> None:
        self.error = error
        self.done = True


#: what a borrowed worker's round trip settles each request with
_Outcome = dict | ApiError


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
        #: guards ``pending``, ``idle``, ``stopping`` and the requests'
        #: state; request threads wait on it for a worker or an outcome
        self.ready = threading.Condition()
        self.pending: deque[_Request] = deque()
        #: workers no request thread has borrowed, longest idle first
        self.idle: deque[WorkerHandle] = deque(workers)
        self.stopping = False
        #: set when the generation stops; ends its sweeper's wait
        self.stopped = threading.Event()
        self.sweeper: threading.Thread | None = None
        self.next_worker_index = len(workers)
        self.retired = False

    def settle(
        self,
        requests: list[_Request],
        outcomes: list[_Outcome],
        worker: WorkerHandle | None,
    ) -> None:
        """Resolve each request from its outcome, hand ``worker`` (None: no
        worker to return) back to the idle list and wake every waiting
        thread."""
        with self.ready:
            for request, outcome in zip(requests, outcomes):
                if isinstance(outcome, ApiError):
                    request.fail(outcome)
                else:
                    request.resolve(outcome)
            if worker is not None and not self.stopping:
                self.idle.append(worker)
            self.ready.notify_all()


class Dispatcher:
    """What ``repro serve`` runs behind its HTTP front end (see module docs).

    The HTTP layer (:mod:`repro.serve.server`) calls ``call`` / ``healthz``
    / ``metrics_snapshot`` / ``reload`` / ``observe``; the CLI calls
    ``shutdown`` after the socket closes.
    """

    def __init__(
        self,
        bundle_path: str | Path,
        config: SessionConfig | None = None,
        verify: bool = True,
        quiet: bool = True,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        serve = self.config.serve
        self.workers = serve.workers
        self.queue_depth = serve.queue_depth
        self.batch_size = self.config.batch_size
        self.shed_timeout = serve.shed_timeout_seconds
        self.request_timeout = serve.request_timeout_seconds
        self.drain_timeout = serve.drain_timeout_seconds
        self._verify = verify
        self._quiet = quiet
        self.registry = MetricsRegistry()
        self.dispatch_metrics = DispatcherMetrics()
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._generation_seq = 1
        bundle = load_bundle(bundle_path, verify=verify)
        self._active = self._spawn_generation(1, bundle)

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
        generation = _Generation(
            generation_id, bundle, list(workers), self.queue_depth
        )
        generation.sweeper = threading.Thread(
            target=self._sweep,
            args=(generation,),
            name=f"repro-serve-sweeper-g{generation_id}",
            daemon=True,
        )
        generation.sweeper.start()
        return generation

    def _log(self, message: str) -> None:
        if not self._quiet:
            sys.stderr.write(f"[dispatcher] {message}\n")
            sys.stderr.flush()

    def _current(self) -> _Generation:
        with self._lock:
            return self._active

    # ------------------------------------------------------------------
    # the hot path: each request ships on its own thread
    # ------------------------------------------------------------------
    def call(self, endpoint: str, payload: dict) -> dict:
        """Admit one request, ship it on the calling thread and return its
        own outcome; raises :class:`ApiError`."""
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
            request = _Request(
                endpoint,
                payload,
                admitted_at,
                time.perf_counter() + self.request_timeout,
            )
            ready = generation.ready
            with ready:
                generation.pending.append(request)
                trip = self._next_trip(generation, request)
            while trip is not None:
                self._trip(generation, *trip)
                with ready:
                    trip = self._next_trip(generation, request)
            if request.error is not None:
                raise request.error
            return request.result
        finally:
            generation.slots.release()

    def _next_trip(
        self, generation: _Generation, request: _Request
    ) -> tuple[WorkerHandle, list[_Request]] | None:
        """The worker ``request``'s thread borrows and what it ships on it
        next; None once ``request`` has resolved.  Runs under ``ready``.

        While its request is queued the thread borrows the longest-idle
        worker.  With another worker still idle it ships its own request
        alone; otherwise the oldest queued requests, up to ``batch_size``,
        its own among them or not (it then comes back for its own).
        Requests past their deadline are failed, not taken.  With no
        worker idle it waits for one; once its request has shipped, it
        waits for whoever shipped it to resolve it.
        """
        ready = generation.ready
        pending = generation.pending
        while not request.done:
            if request.shipped:
                # resolves within the round trip carrying it
                ready.wait()
                continue
            now = time.perf_counter()
            if generation.stopping or request.deadline <= now:
                pending.remove(request)
                self._shed_queued(request, stopped=generation.stopping)
                break
            if not generation.idle:
                ready.wait(request.deadline - now)
                continue
            worker = generation.idle.popleft()
            if generation.idle:
                pending.remove(request)
                taken = [request]
            else:
                taken = []
                while pending and len(taken) < self.batch_size:
                    queued = pending.popleft()
                    if queued.deadline <= now:
                        self._shed_queued(queued, stopped=False)
                    else:
                        taken.append(queued)
            if not taken:
                generation.idle.appendleft(worker)
                continue
            for queued in taken:
                queued.shipped = True
            return worker, taken
        return None

    def _shed_queued(self, request: _Request, stopped: bool) -> None:
        """Fail one request that never shipped: its deadline passed, or its
        generation stopped first.  Runs under ``ready``."""
        if stopped:
            self.dispatch_metrics.observe_shed("drain")
            message = (
                "the server stopped this bundle generation before a worker "
                "took the request; retry"
            )
        else:
            self.dispatch_metrics.observe_shed("queue_wait")
            message = (
                "no worker became available within "
                f"{self.request_timeout:g}s; retry with backoff"
            )
        request.fail(ApiError(api_errors.OVERLOADED, message))

    def _trip(
        self,
        generation: _Generation,
        worker: WorkerHandle,
        requests: list[_Request],
    ) -> None:
        """Ship ``requests`` on a borrowed worker and settle each from its
        own outcome, then hand the worker back to the idle list.

        A worker found dead before the round trip is replaced first; one
        that dies during it fails the requests it carried, and its
        replacement is handed back instead.
        """
        if not worker.process.is_alive():
            replacement = self._replace_worker(
                generation, worker, reason="found dead"
            )
            if replacement is None:
                failures = self._failures(
                    requests,
                    f"worker {worker.name} died and no replacement started "
                    "— retry",
                )
                generation.settle(requests, failures, None)
                return
            worker = replacement
        outcomes, fault = self._ship(worker, requests)
        if fault is None:
            generation.settle(requests, outcomes, worker)
            return
        generation.settle(requests, outcomes, None)
        replacement = self._replace_worker(generation, worker, reason=fault)
        generation.settle([], [], replacement)

    def _ship(
        self, worker: WorkerHandle, requests: list[_Request]
    ) -> tuple[list[_Outcome], str | None]:
        """One worker round trip: each request's outcome, and what went
        wrong with the worker (None when it answered)."""
        self.dispatch_metrics.observe_batch(len(requests))
        shipped_at = time.perf_counter()
        message = ("requests", [(r.endpoint, r.payload) for r in requests])
        try:
            reply = worker.call(message, timeout=self.request_timeout)
            outcomes = reply[1] if reply[0] == "ok" else None
            fault = (
                None
                if isinstance(outcomes, list) and len(outcomes) == len(requests)
                else "malformed reply"
            )
        except _PIPE_ERRORS as error:
            fault = type(error).__name__
        if fault is not None:
            failures = self._failures(
                requests,
                f"worker {worker.name} died handling the request ({fault}); "
                "it is being replaced — retry",
            )
            return failures, fault
        # the round trip's worker time, split equally across its requests
        handler_seconds = reply[2] / len(requests)
        settled: list[_Outcome] = []
        for request, outcome in zip(requests, reply[1]):
            failure = outcome.get("error")
            self.dispatch_metrics.observe_done(
                worker.name,
                shipped_at - request.admitted_at,
                handler_seconds,
                error=failure is not None,
            )
            if failure is None:
                settled.append(outcome["ok"])
            else:
                body: Mapping[str, str] = failure.get("error", {})
                settled.append(
                    ApiError(
                        body.get("code", api_errors.INTERNAL_ERROR),
                        body.get("message", "worker error"),
                    )
                )
        return settled, None

    def _failures(
        self, requests: list[_Request], message: str
    ) -> list[_Outcome]:
        """Outcomes for requests that went down with their worker."""
        self.dispatch_metrics.observe_worker_failed(len(requests))
        return [ApiError(api_errors.WORKER_FAILED, message) for _ in requests]

    def _sweep(self, generation: _Generation) -> None:
        """Replace the generation's dead idle workers once per health
        interval until it stops (a borrowed worker is its borrower's to
        check)."""
        interval = max(self.config.serve.health_interval_seconds, 0.05)
        while not generation.stopped.wait(interval):
            with generation.ready:
                dead = [w for w in generation.idle if not w.process.is_alive()]
                for worker in dead:
                    generation.idle.remove(worker)
            for worker in dead:
                replacement = self._replace_worker(
                    generation, worker, reason="found dead"
                )
                generation.settle([], [], replacement)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _replace_worker(
        self, generation: _Generation, worker: WorkerHandle, reason: str
    ) -> WorkerHandle | None:
        """Retire one dead/wedged worker and fork its replacement.

        Only the thread holding the worker calls this — the request thread
        that borrowed it, or the sweeper that took it off the idle list —
        so each corpse is replaced exactly once.  None when the generation
        is retired or the replacement fails to start (the generation runs
        one worker short).
        """
        with self._lock:
            if generation.retired:
                return None
            generation.workers = [
                w for w in generation.workers if w is not worker
            ]
            name = f"g{generation.id}.w{generation.next_worker_index}"
            generation.next_worker_index += 1
        self.dispatch_metrics.observe_worker_restart()
        self._log(f"replacing worker {worker.name}: {reason}")
        worker.stop(timeout=1.0)
        self.dispatch_metrics.forget_worker(worker.name)
        try:
            replacement = spawn_worker(
                name, generation.id, generation.bundle, self.config
            )
        except Exception as error:  # noqa: BLE001 - degraded, not fatal
            self._log(f"failed to spawn replacement {name}: {error}")
            return None
        with self._lock:
            retired = generation.retired
            if not retired:
                generation.workers.append(replacement)
        if retired:
            # stop() joins the child process — never block inside _lock
            replacement.stop(timeout=1.0)
            return None
        self._log(f"worker {replacement.name} (pid {replacement.pid}) ready")
        return replacement

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
        slot held by an admitted request comes back once it resolves, so
        holding all of them proves the generation idle.  Past the drain
        timeout, still-queued requests fail ``overloaded`` and the workers
        are stopped under the ones in flight.
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
        with generation.ready:
            generation.stopping = True
            for request in generation.pending:
                self._shed_queued(request, stopped=True)
            generation.pending.clear()
            generation.idle.clear()
            generation.ready.notify_all()
        generation.stopped.set()
        with self._lock:
            workers = list(generation.workers)
            generation.workers = []
        for worker in workers:
            worker.stop(timeout=5.0)
            self.dispatch_metrics.forget_worker(worker.name)
        if generation.sweeper is not None:
            generation.sweeper.join(timeout=5.0)
        return drained

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Drain in-flight work, stop every worker and the sweeper."""
        if drain_timeout is not None:
            self.drain_timeout = drain_timeout
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

        Round-trips a cheap ``stats`` message on each worker whose pipe is
        free right now.  Workers mid-request simply do not appear —
        ``/metrics`` marks them busy rather than stalling behind a long
        annotation.
        """
        generation = self._current()
        with self._lock:
            workers = list(generation.workers)
        stats: dict[str, dict] = {}
        for worker in workers:
            try:
                reply = worker.call_if_idle(("stats",), timeout=timeout_per_worker)
            except _PIPE_ERRORS:
                continue  # the sweeper or its next borrower replaces it
            if reply is not None and reply[0] == "ok":
                stats[worker.name] = reply[1]
        return stats

    @staticmethod
    def _merge_cache_stats(per_worker: list[dict]) -> dict:
        """Sum cache and fusion counters across workers (hit rates
        recomputed)."""
        merged: dict[str, dict] = {}
        for entry in per_worker:
            for cache_name, counters in entry.items():
                if cache_name == "fusion":
                    fusion = merged.setdefault("fusion", {"fallbacks": 0})
                    fusion["fallbacks"] += counters.get("fallbacks", 0)
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
