"""Threaded stdlib-HTTP front end over the pre-fork dispatcher.

No third-party dependencies: :class:`TableServer` is a stdlib
:class:`http.server.HTTPServer` that serves each request on one thread, end
to end.  The thread that takes a connection reads each request head with a
small reader of its own, decodes the body and calls the
:class:`~repro.serve.dispatcher.Dispatcher`, which ships the request to an
idle one of the forked worker processes sharing the bundle's pages from
that same thread (concurrent requests ride one worker round trip
together); it then writes the response head and body in one write.  A
handler thread whose connection has closed parks and takes the next one; a
connection that finds no parked thread starts a new one, so concurrency is
not capped here.  Backpressure, load shedding, worker restarts and bundle
hot-swap all live in the dispatcher.

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

import json
import queue
import re
import socket
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Callable

from repro.api.errors import BadRequestError
from repro.api.types import ErrorEnvelope, encode_json
from repro.serve.dispatcher import Dispatcher

#: reject request bodies larger than this (64 MiB) outright
MAX_BODY_BYTES = 64 << 20

#: handler threads kept parked for the next connection; a thread whose
#: connection closes while this many are parked ends instead
MAX_PARKED_THREADS = 16

#: the request-head bounds of :func:`http.client.parse_headers`: bytes per
#: line, and lines per head counting the blank line that ends it
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100

#: a header line as :mod:`email.parser` recognises one: a (possibly
#: empty) field name of printable ASCII other than ``:``, then ``:``
_FIELD_NAME = re.compile(rb"[\x21-\x39\x3b-\x7e]*:")

#: a blank line ends the head; so does the end of the stream
_HEAD_END = (b"\r\n", b"\n", b"")

#: endpoint names the HTTP layer routes to ``Dispatcher.call``
_POST_ROUTES = {
    "/annotate": "annotate",
    "/search": "search",
    "/search/join": "search_join",
}


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as two ints, as the stdlib reads it; None
    when malformed."""
    parts = version[5:].split(".") if version.startswith("HTTP/") else []
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


class TableServer(HTTPServer):
    """An HTTP server carrying the dispatcher it fronts.

    Each connection is served on one thread.  A thread whose connection
    has closed parks (up to :data:`MAX_PARKED_THREADS` of them) and takes
    the next connection; one that finds no parked thread starts a new one.
    """

    #: the listen backlog (the kernel caps it at its own limit).
    #: ``socketserver``'s 5 drops the SYNs of a burst of clients, and each
    #: dropped one waits out a retransmit, about a second on Linux
    request_queue_size = socket.SOMAXCONN

    def __init__(
        self,
        address: tuple[str, int],
        dispatcher: Dispatcher,
        quiet: bool = True,
    ):
        self.dispatcher = dispatcher
        self.quiet = quiet
        #: guards ``_parked``, ``_closing``, ``_threads`` and ``_connections``
        self._lock = threading.Lock()
        #: connections handed to parked threads; None ends a parked thread
        self._handoff: queue.SimpleQueue[
            tuple[socket.socket, Any] | None
        ] = queue.SimpleQueue()
        self._parked = 0
        self._closing = False
        self._threads: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()
        # last: a failed bind calls server_close, which reads the above
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        """Hand a new connection to a parked thread, or start one."""
        thread: threading.Thread | None
        with self._lock:
            if self._parked:
                self._parked -= 1
                thread = None
            else:
                thread = threading.Thread(
                    target=self._run,
                    args=(request, client_address),
                    name="repro-serve-http",
                    daemon=True,
                )
                self._threads.add(thread)
        if thread is None:
            self._handoff.put((request, client_address))
        else:
            thread.start()

    def _run(self, request: socket.socket, client_address: Any) -> None:
        """One handler thread: serve a connection, park, take the next."""
        connection: tuple[socket.socket, Any] | None = (request, client_address)
        try:
            while connection is not None:
                self._serve_connection(*connection)
                with self._lock:
                    if self._closing or self._parked >= MAX_PARKED_THREADS:
                        return
                    self._parked += 1
                connection = self._handoff.get()
        finally:
            with self._lock:
                self._threads.discard(threading.current_thread())

    def _serve_connection(
        self, request: socket.socket, client_address: Any
    ) -> None:
        """Serve one connection (closed unserved once the server closes)."""
        with self._lock:
            closing = self._closing
            if not closing:
                self._connections.add(request)
        try:
            if not closing:
                self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - socketserver's per-connection boundary
            self.handle_error(request, client_address)
        finally:
            with self._lock:
                self._connections.discard(request)
            self.shutdown_request(request)

    def server_close(self) -> None:
        """Stop taking connections; return once every response in flight
        has been written.

        Parked threads end.  Each open connection's read side is shut, so a
        thread waiting for a keep-alive client's next request sees the end
        of the stream, while one mid-request still writes its response.
        """
        super().server_close()
        with self._lock:
            self._closing = True
            parked, self._parked = self._parked, 0
            connections = list(self._connections)
            threads = list(self._threads)
        for _ in range(parked):
            self._handoff.put(None)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # closed by its own thread meanwhile
                pass
        for thread in threads:
            thread.join()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/2.1"
    protocol_version = "HTTP/1.1"
    server: TableServer
    #: the request's header fields by lower-cased name, first one wins
    fields: dict[str, str]

    # ------------------------------------------------------------------
    # the request head
    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """Parse the request line and head as :class:`BaseHTTPRequestHandler`
        does, with the same error statuses, without :mod:`email.parser`.

        Header lines end at the first line that is not one (the stdlib parser
        reads the rest as a body); continuation lines extend the field above
        them, and a repeated field keeps its first value.
        """
        self.command = ""
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})"
                )
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({command!r})",
                )
                return False
        self.command, self.path = command, path
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")
        if not self._read_fields():
            return False
        connection = self.fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        expect = self.fields.get("expect", "")
        if (
            expect.lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _read_fields(self) -> bool:
        """Read the header lines into ``fields``; False (431 sent) past the
        line or size bound."""
        raw: dict[str, str] = {}
        name: str | None = None  # the field a continuation line extends
        in_head = True
        for count in range(1, _MAX_HEAD_LINES + 2):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading header line",
                )
                return False
            if count > _MAX_HEAD_LINES:
                break
            if line in _HEAD_END:
                self.fields = {
                    key: value.rstrip("\r\n") for key, value in raw.items()
                }
                return True
            if not in_head:
                continue
            text = line.decode("iso-8859-1")
            if text[0] in " \t":
                if name is not None:
                    raw[name] += text
            elif (match := _FIELD_NAME.match(line)) is None:
                in_head = False
            else:
                key = text[: match.end() - 1].lower()
                name = key if key and key not in raw else None
                if name is not None:
                    raw[name] = text[match.end() :].lstrip(" \t")
        self.send_error(
            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
            "Too many headers",
            f"got more than {_MAX_HEAD_LINES} headers",
        )
        return False

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
            length = int(self.fields.get("content-length") or 0)
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
        if not self.server.quiet:
            self.log_request(status)
        if self.request_version != "HTTP/0.9":
            # the head goes out with the body in one write: as two writes on
            # the unbuffered socket, a keep-alive client's next request
            # waits out its delayed ACK (~40 ms)
            reason = self.responses[status][0] if status in self.responses else ""
            close = "Connection: close\r\n" if self.close_connection else ""
            head = (
                f"{self.protocol_version} {status} {reason}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                "Content-Type: application/json; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n{close}\r\n"
            )
            body = head.encode("latin-1") + body
        self.wfile.write(body)

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


def run_server(server: TableServer) -> bool:
    """Serve until shut down or interrupted, then stop in order.

    The dispatcher drains first: requests in flight finish, or fail once its
    drain timeout has passed.  ``server_close`` then returns when each of
    their responses is written, and releases the socket.  True when the
    dispatcher drained cleanly.
    """
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    try:
        return server.dispatcher.shutdown()
    finally:
        server.server_close()
