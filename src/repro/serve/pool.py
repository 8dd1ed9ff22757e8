"""Pre-fork worker processes: one warm pipeline each, one shared bundle.

The multi-process serving tier's bottom layer.  Each worker is a forked
child of the serving parent running a plain request loop over one duplex
pipe:

* **Fork, not spawn.**  The parent loads the bundle once
  (:func:`~repro.serve.bundle.load_bundle` with ``mmap=True``); forking
  shares every flat ``.npy`` array as file-backed read-only pages and the
  already-parsed Python state (catalog, table index, interned candidate
  tables) as copy-on-write memory.  Worker startup therefore costs one
  :class:`~repro.serve.state.ServeState` construction — milliseconds — not
  a bundle load.
* **One message at a time per worker.**  Concurrency comes from the number
  of workers, not from threads inside one; annotation is CPU-bound Python/
  NumPy, so a worker past its GIL does not help.  The pipe is strictly
  request/response, serialized by the handle's lock on the parent side;
  one ``requests`` message carries whatever the dispatcher had queued
  (see :mod:`repro.serve.dispatcher`).
* **Crash isolation.**  A worker segfaulting or being OOM-killed takes its
  in-flight message with it, not the server; the dispatcher replaces it.

Wire protocol (parent -> worker, worker -> parent), all plain tuples over a
``multiprocessing`` pipe:

====================================  ====================================
parent sends                          worker replies
====================================  ====================================
``("requests", items)`` — a list     ``("ok", outcomes,
of ``(endpoint, payload)`` pairs      handler_seconds)`` — one
                                      ``{"ok": body}`` / ``{"error":
                                      envelope}`` per item, in order
``("ping",)``                         ``("pong", pid)``
``("stats",)``                        ``("ok", stats, 0.0)``
``("shutdown",)``                     ``("bye",)`` then exit 0
====================================  ====================================

Messages are pickled at :data:`pickle.HIGHEST_PROTOCOL` with PEP-574
out-of-band buffer extraction (:func:`send_message` / :func:`recv_message`)
rather than the default ``Connection.send`` pickler: NumPy payloads cross
the pipe as raw buffer frames instead of being copied through the pickle
stream, and the in-band pickle stays small however large the arrays get
(regression-tested in ``tests/serve/test_pool.py``).

Errors cross the pipe as :class:`~repro.api.types.ErrorEnvelope`
payloads, one per failed request: the envelope of the error
:meth:`ServeState.handle` raises for that request alone, so served error
responses are byte-identical to in-process ones and a failing request
never fails the others in its message.  An exception that still escapes
request handling becomes an error outcome for every request in the
message; it never takes the worker down.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any

from repro.api.config import SessionConfig
from repro.serve.errors import WorkerSpawnError, WorkerTimeout

if TYPE_CHECKING:
    from repro.serve.bundle import LoadedBundle

__all__ = [
    "DEFAULT_CALL_TIMEOUT",
    "WorkerHandle",
    "WorkerSpawnError",
    "WorkerTimeout",
    "fork_context",
    "recv_message",
    "send_message",
    "spawn_worker",
]

#: default ceiling on one pipe round trip (overridden per dispatcher config)
DEFAULT_CALL_TIMEOUT = 120.0

#: frame header: little-endian u32 count of out-of-band buffer frames
_HEADER = struct.Struct("<I")


def send_message(conn: Connection, message: Any) -> None:
    """Send one message as framed protocol-5 pickle bytes.

    Frames: ``[u32 buffer count][pickle payload][raw buffer]*``.  NumPy
    arrays (and anything else advertising :class:`pickle.PickleBuffer`)
    travel as raw buffer frames after the payload, so the pickle stream
    itself stays a few hundred bytes regardless of array sizes.  Falls back
    to one in-band frame for the rare non-contiguous buffer.
    """
    buffers: list[pickle.PickleBuffer] = []
    try:
        payload = pickle.dumps(
            message,
            protocol=pickle.HIGHEST_PROTOCOL,
            buffer_callback=buffers.append,
        )
        raw_frames = [buffer.raw() for buffer in buffers]
    except BufferError:  # pragma: no cover - non-contiguous exotic payload
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        raw_frames = []
    conn.send_bytes(_HEADER.pack(len(raw_frames)))
    conn.send_bytes(payload)
    for frame in raw_frames:
        conn.send_bytes(frame)


def recv_message(conn: Connection) -> Any:
    """Receive one :func:`send_message` frame sequence."""
    (n_buffers,) = _HEADER.unpack(conn.recv_bytes())
    payload = conn.recv_bytes()
    buffers = [conn.recv_bytes() for _ in range(n_buffers)]
    return pickle.loads(payload, buffers=buffers)


def fork_context() -> multiprocessing.context.BaseContext:
    """The fork start method, or a clear error where it does not exist.

    Page-shared workers require ``fork`` (spawn would re-import and reload
    the bundle per worker, forfeiting the shared warm state this tier is
    built on).  Every Linux and macOS CPython supports it.  Without it
    ``repro serve`` stops at start with this error; ``ReproSession`` and
    ``ServeState`` still work in-process.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError as error:
        raise WorkerSpawnError(
            "repro serve needs the 'fork' start method, which this "
            "platform does not provide"
        ) from error


def _worker_main(
    conn: Connection,
    bundle: "LoadedBundle",
    config: SessionConfig,
    name: str,
) -> None:
    """The child process: build one warm state, answer the pipe forever.

    Runs until a ``shutdown`` message or EOF (parent died).  SIGINT is
    ignored — a Ctrl-C in the parent's terminal reaches the whole process
    group, and workers must keep draining until the parent tells them to
    stop; SIGTERM keeps its default (the dispatcher escalates to it only
    after a graceful shutdown call times out).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # deferred import: this module is imported by the dispatcher before any
    # forking, and state imports the whole session stack
    from repro.api.types import ErrorEnvelope
    from repro.serve.state import ServeState

    state = ServeState(bundle, session_config=config)
    while True:
        try:
            message = recv_message(conn)
        except (EOFError, OSError):  # parent is gone: nothing to serve
            break
        kind = message[0]
        if kind == "requests":
            start = time.perf_counter()
            try:
                outcomes = state.handle_requests(message[1])
            except Exception as error:  # noqa: BLE001 - the process boundary
                # handle_requests isolates each request itself; anything
                # escaping it fails this message's requests, not the worker
                failure = {"error": ErrorEnvelope.from_error(error).to_json()}
                outcomes = [failure] * len(message[1])
            send_message(conn, ("ok", outcomes, time.perf_counter() - start))
        elif kind == "ping":
            send_message(conn, ("pong", os.getpid()))
        elif kind == "stats":
            send_message(conn, ("ok", state.worker_stats(), 0.0))
        elif kind == "shutdown":
            send_message(conn, ("bye",))
            break
        else:  # unknown control message: fail loudly, do not wedge the pipe
            send_message(
                conn, ("error", {"unknown_message": repr(kind)}, 500, 0.0)
            )
    conn.close()


class WorkerHandle:
    """The parent's view of one worker process.

    The handle serializes pipe access with one lock (`call` is a strict
    request/response round trip), tracks liveness, and owns teardown.
    """

    def __init__(
        self,
        name: str,
        generation: int,
        bundle: "LoadedBundle",
        config: SessionConfig,
    ) -> None:
        self.name = name
        self.generation = generation
        ctx = fork_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._conn_lock = threading.Lock()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, bundle, config, name),
            name=f"repro-serve-{name}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the parent's copy; the child keeps its own

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(
        self, message: tuple, timeout: float = DEFAULT_CALL_TIMEOUT
    ) -> tuple[Any, ...]:
        """One request/response round trip; raises on death or timeout."""
        with self._conn_lock:
            # reprolint: ignore[lock-order-hold-wait]: _conn_lock exists
            # precisely to serialize this round trip; the child replies
            # regardless of parent lock state, and poll() is the bounded
            # wait that turns a wedged worker into WorkerTimeout
            return self._round_trip(message, timeout)

    def call_if_idle(
        self, message: tuple, timeout: float = DEFAULT_CALL_TIMEOUT
    ) -> tuple[Any, ...] | None:
        """:meth:`call`, or None at once when another call holds the pipe."""
        if not self._conn_lock.acquire(blocking=False):
            return None
        try:
            return self._round_trip(message, timeout)
        finally:
            self._conn_lock.release()

    def _round_trip(self, message: tuple, timeout: float) -> tuple[Any, ...]:
        send_message(self._conn, message)
        if not self._conn.poll(timeout):
            raise WorkerTimeout(f"worker {self.name} silent for {timeout:.0f}s")
        reply = recv_message(self._conn)
        if not isinstance(reply, tuple) or not reply:
            # reprolint: ignore[exc-unclassified]: deliberately a pipe-level
            # error — the dispatcher's _PIPE_ERRORS handling turns it into
            # the stable worker_failed code and replaces the worker
            raise OSError(f"worker {self.name} sent a malformed reply")
        return reply

    def ping(self, timeout: float = 5.0) -> bool:
        """Liveness probe; False on any failure (never raises)."""
        try:
            return self.call(("ping",), timeout=timeout)[0] == "pong"
        except (WorkerTimeout, OSError, EOFError, BrokenPipeError):
            return False

    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: ask nicely, then escalate, always reap.

        The graceful ask is skipped when the pipe lock is held — a worker
        mid-request is by definition not reading control messages, and a
        force-stop (retire past the drain timeout) must not wait behind a
        request that may be the reason for the force-stop.
        """
        if self._conn_lock.acquire(timeout=0.1):
            try:
                send_message(self._conn, ("shutdown",))
                if self._conn.poll(timeout):
                    recv_message(self._conn)
            except (OSError, EOFError, BrokenPipeError):
                pass
            finally:
                self._conn_lock.release()
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=timeout)
        self.close()

    def close(self) -> None:
        """Release the pipe and the process table entry (idempotent)."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.pid is not None and not self.process.is_alive():
            self.process.join(timeout=0)


def spawn_worker(
    name: str,
    generation: int,
    bundle: "LoadedBundle",
    config: SessionConfig,
    ready_timeout: float = 60.0,
) -> WorkerHandle:
    """Fork one worker and wait until it answers a ping.

    The ping bounds how broken a worker can be when it starts taking
    requests: a child that failed during :class:`ServeState` construction dies
    before ponging, and the dispatcher surfaces that at spawn time instead
    of on the first unlucky request.
    """
    handle = WorkerHandle(name, generation, bundle, config)
    if not handle.ping(timeout=ready_timeout):
        handle.process.join(timeout=1.0)  # reap a child that died
        exitcode = handle.process.exitcode
        handle.stop(timeout=1.0)
        raise WorkerSpawnError(
            f"worker {name} died during warm-up (exit code {exitcode})"
            if exitcode is not None
            else f"worker {name} failed to become ready within "
            f"{ready_timeout:.0f}s"
        )
    return handle
