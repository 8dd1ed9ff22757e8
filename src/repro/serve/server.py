"""Threaded stdlib-HTTP front end over a pluggable serving backend.

No third-party dependencies: :class:`http.server.ThreadingHTTPServer` gives
one OS thread per in-flight request.  What those threads do with a request
depends on the **backend** behind the server:

* :class:`InlineBackend` — the single-process shape: requests run directly
  on the HTTP threads against one shared
  :class:`~repro.serve.state.ServeState` (read-mostly NumPy work that
  releases the GIL in the hot spots; see the locking story in
  :mod:`repro.serve.state`).
* :class:`~repro.serve.dispatcher.Dispatcher` — the pre-fork shape
  (``repro serve --workers N``): HTTP threads hand the decoded body to the
  dispatcher, which queues it for the next idle one of N forked worker
  processes sharing the bundle's pages; concurrent requests ride one
  worker round trip together.  Backpressure, load shedding, worker
  restarts and bundle hot-swap all live there.

Endpoints::

    GET  /healthz       liveness + bundle identity + schema_version
    POST /annotate      AnnotateRequest    -> AnnotateResponse
    POST /search        SearchRequest      -> SearchResponse
    POST /search/join   JoinSearchRequest  -> SearchResponse
    GET  /metrics       request counts, latency percentiles, cache hit rates
    POST /admin/reload  hot-swap the bundle ({"bundle": path}, body optional)

Request and response bodies are the versioned wire schema of
:mod:`repro.api.types`, serialized with :func:`repro.api.types.encode_json`
— the same encoder the CLI's ``--wire``/``--json`` modes use, which is what
makes the frontends (and the two serving backends) byte-identical for
identical requests.  Failures of any kind are an
:class:`~repro.api.types.ErrorEnvelope`::

    {"schema_version": 1, "error": {"code": "<stable code>", "message": …}}

with the HTTP status derived from the code by the taxonomy in
:mod:`repro.api.errors` (400 family for bad payloads / unknown catalog ids,
404 unknown path, 405 wrong method, 503 overloaded / worker_failed, 500
unexpected).
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Protocol

from repro.api import errors as api_errors
from repro.api.errors import ApiError
from repro.api.types import ErrorEnvelope, encode_json
from repro.serve.errors import BadRequestError
from repro.serve.state import ServeState

#: reject request bodies larger than this (64 MiB) outright
MAX_BODY_BYTES = 64 << 20

#: endpoint names the HTTP layer routes to ``backend.call``
_POST_ROUTES = {
    "/annotate": "annotate",
    "/search": "search",
    "/search/join": "search_join",
}


class Backend(Protocol):
    """What the HTTP layer needs from a serving implementation."""

    def call(self, endpoint: str, payload: dict) -> dict:
        """Handle one decoded request body; raises on failure."""

    def observe(self, endpoint: str, seconds: float, error: bool) -> None:
        """Record one finished request in the aggregate registry."""

    def healthz(self) -> dict: ...

    def metrics_snapshot(self) -> dict: ...

    def reload(self, payload: dict) -> dict:
        """Swap the serving bundle (``POST /admin/reload``)."""

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Stop serving resources; True if in-flight work drained."""


class InlineBackend:
    """Single-process backend: requests run on the HTTP threads.

    ``reload`` builds a whole new :class:`ServeState` (bundle, session,
    pipelines, metrics) and swaps it in; requests already executing finish
    on the old state, which the garbage collector then retires.  Metrics
    restart with the new state — the process-level aggregate continuity of
    the dispatcher backend needs the dispatcher.
    """

    def __init__(self, state: ServeState) -> None:
        self._lock = threading.Lock()
        self._state = state

    @property
    def state(self) -> ServeState:
        with self._lock:
            return self._state

    def call(self, endpoint: str, payload: dict) -> dict:
        return self.state.handle(endpoint, payload)

    def observe(self, endpoint: str, seconds: float, error: bool) -> None:
        self.state.metrics.observe(endpoint, seconds, error=error)

    def healthz(self) -> dict:
        return self.state.healthz()

    def metrics_snapshot(self) -> dict:
        return self.state.metrics_snapshot()

    def reload(self, payload: dict) -> dict:
        from repro.serve.bundle import load_bundle

        old = self.state
        bundle_path = payload.get("bundle")
        if bundle_path is None:
            bundle_path = str(old.bundle.path)
        if not isinstance(bundle_path, str):
            raise ApiError(
                api_errors.VALIDATION_ERROR, "reload 'bundle' must be a path"
            )
        start = time.perf_counter()
        bundle = load_bundle(bundle_path)
        fresh = ServeState(bundle, session_config=old.session.config)
        with self._lock:
            self._state = fresh
        return {
            "status": "ok",
            "bundle": str(bundle.path),
            "workers": 0,
            "reload_seconds": round(time.perf_counter() - start, 3),
        }

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        return True  # HTTP threads are joined by TableServer.server_close


class TableServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer carrying the serving backend."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        backend: Backend | ServeState,
        quiet: bool = True,
    ):
        super().__init__(address, _Handler)
        if isinstance(backend, ServeState):
            backend = InlineBackend(backend)
        self.backend = backend
        self.quiet = quiet

    @property
    def state(self) -> ServeState:
        """The inline backend's state (kept for tests / library callers);
        raises on a dispatcher backend, which has no in-process state."""
        backend = self.backend
        if isinstance(backend, InlineBackend):
            return backend.state
        # reprolint: ignore[exc-unclassified]: library-misuse guard on a
        # test/debug accessor — it is never reachable from a request
        # handler, so it cannot cross the wire
        raise AttributeError(
            "TableServer.state only exists on the inline backend"
        )


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/2.1"
    protocol_version = "HTTP/1.1"
    server: TableServer

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        backend = self.server.backend
        if self.path == "/healthz":
            self._handle("healthz", backend.healthz)
        elif self.path == "/metrics":
            self._handle("metrics", backend.metrics_snapshot)
        elif self.path in _POST_ROUTES or self.path == "/admin/reload":
            self._send_error(
                BadRequestError(
                    f"{self.path} requires POST", code="method_not_allowed"
                )
            )
        else:
            self._send_error(
                BadRequestError(f"unknown path: {self.path}", code="not_found")
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        backend = self.server.backend
        if self.path == "/admin/reload":
            # body optional: an empty body re-loads the current bundle path
            self._handle(
                "admin_reload",
                lambda: backend.reload(self._read_json_body(required=False)),
            )
            return
        endpoint = _POST_ROUTES.get(self.path)
        if endpoint is None:
            if self.path in ("/healthz", "/metrics"):
                self._send_error(
                    BadRequestError(
                        f"{self.path} requires GET", code="method_not_allowed"
                    )
                )
            else:
                self._send_error(
                    BadRequestError(
                        f"unknown path: {self.path}", code="not_found"
                    )
                )
            return
        self._handle(
            endpoint, lambda: backend.call(endpoint, self._read_json_body())
        )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _read_json_body(self, required: bool = True) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise BadRequestError("invalid Content-Length header") from None
        if length <= 0:
            if required:
                raise BadRequestError("request body required (JSON)")
            return {}
        if length > MAX_BODY_BYTES:
            raise BadRequestError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise BadRequestError(f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise BadRequestError("JSON body must be an object")
        return payload

    def _handle(self, endpoint: str, run: Callable[[], dict]) -> None:
        """Run one handler, recording metrics and mapping every failure to
        the structured :class:`ErrorEnvelope`."""
        backend = self.server.backend
        start = time.perf_counter()
        try:
            result = run()
        except Exception as error:  # noqa: BLE001 - the API boundary
            backend.observe(endpoint, time.perf_counter() - start, error=True)
            self._send_error(error)
            return
        backend.observe(endpoint, time.perf_counter() - start, error=False)
        self._send_json(200, result)

    def _send_error(self, error: BaseException) -> None:
        envelope = ErrorEnvelope.from_error(error)
        self._send_json(envelope.http_status, envelope.to_json())

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = encode_json(payload).encode("utf-8")
        if status >= 400:
            # error paths may not have drained the request body; under
            # HTTP/1.1 keep-alive the unread bytes would be parsed as the
            # next request line, so drop the connection instead
            self.close_connection = True
        # stage the status line and headers, then send them with the body
        # in one write: as two writes on the unbuffered socket, a keep-alive
        # client's next request waits out its delayed ACK (~40 ms)
        socket_writer = self.wfile
        self.wfile = staged = io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
        finally:
            self.wfile = socket_writer
        socket_writer.write(staged.getvalue() + body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )


def create_server(
    backend: Backend | ServeState,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
) -> TableServer:
    """Bind a :class:`TableServer` (``port=0`` picks a free port).

    Accepts either a bare :class:`ServeState` (wrapped in an
    :class:`InlineBackend`, the historical single-process shape) or any
    :class:`Backend` — in particular the multi-process
    :class:`~repro.serve.dispatcher.Dispatcher`.
    """
    return TableServer((host, port), backend, quiet=quiet)


def run_server(server: TableServer) -> None:
    """Serve until interrupted; always releases the socket."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
