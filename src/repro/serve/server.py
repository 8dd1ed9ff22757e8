"""Threaded stdlib-HTTP front end over the pre-fork dispatcher.

No third-party dependencies: :class:`http.server.ThreadingHTTPServer` gives
one OS thread per in-flight request.  Each thread decodes its request body
and hands it to the :class:`~repro.serve.dispatcher.Dispatcher`, which
queues it for the next idle one of the forked worker processes sharing the
bundle's pages; concurrent requests ride one worker round trip together.
Backpressure, load shedding, worker restarts and bundle hot-swap all live
there.

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
makes the frontends byte-identical for identical requests.  Failures of
any kind are an :class:`~repro.api.types.ErrorEnvelope`::

    {"schema_version": 2, "error": {"code": "<stable code>", "message": …}}

with the HTTP status derived from the code by the taxonomy in
:mod:`repro.api.errors` (400 family for bad payloads / unknown catalog ids,
404 unknown path, 405 wrong method, 503 overloaded / worker_failed, 500
unexpected).
"""

from __future__ import annotations

import io
import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.api.errors import BadRequestError
from repro.api.types import ErrorEnvelope, encode_json
from repro.serve.dispatcher import Dispatcher

#: reject request bodies larger than this (64 MiB) outright
MAX_BODY_BYTES = 64 << 20

#: endpoint names the HTTP layer routes to ``Dispatcher.call``
_POST_ROUTES = {
    "/annotate": "annotate",
    "/search": "search",
    "/search/join": "search_join",
}


class TableServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer carrying the dispatcher it fronts."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        dispatcher: Dispatcher,
        quiet: bool = True,
    ):
        super().__init__(address, _Handler)
        self.dispatcher = dispatcher
        self.quiet = quiet


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/2.1"
    protocol_version = "HTTP/1.1"
    server: TableServer

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        dispatcher = self.server.dispatcher
        if self.path == "/healthz":
            self._handle("healthz", dispatcher.healthz)
        elif self.path == "/metrics":
            self._handle("metrics", dispatcher.metrics_snapshot)
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
        dispatcher = self.server.dispatcher
        if self.path == "/admin/reload":
            # body optional: an empty body re-loads the current bundle path
            self._handle(
                "admin_reload",
                lambda: dispatcher.reload(self._read_json_body(required=False)),
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
            endpoint, lambda: dispatcher.call(endpoint, self._read_json_body())
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
        dispatcher = self.server.dispatcher
        start = time.perf_counter()
        try:
            result = run()
        except Exception as error:  # noqa: BLE001 - the API boundary
            dispatcher.observe(endpoint, time.perf_counter() - start, error=True)
            self._send_error(error)
            return
        dispatcher.observe(endpoint, time.perf_counter() - start, error=False)
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
    dispatcher: Dispatcher,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
) -> TableServer:
    """Bind a :class:`TableServer` over ``dispatcher`` (``port=0`` picks a
    free port)."""
    return TableServer((host, port), dispatcher, quiet=quiet)


def run_server(server: TableServer) -> None:
    """Serve until interrupted; always releases the socket."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
