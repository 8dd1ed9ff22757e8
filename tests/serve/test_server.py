"""Live-server tests: endpoint behaviour and concurrent determinism.

The server fronts a one-worker dispatcher, as `repro serve` does by
default; served bodies are compared with in-process answers.
"""

from __future__ import annotations

import contextlib
import errno
import json
import socket
import sys
import threading
import time
from http.client import HTTPConnection

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.io import annotation_to_dict
from repro.pipeline.pipeline import AnnotationPipeline
from repro.serve.server import MAX_PARKED_THREADS, create_server, run_server
from tests.serve.conftest import find_productive_query


def exchange(host, port, raw: bytes, timeout: float = 30.0) -> bytes:
    """Send raw bytes on a fresh connection, half-close it and read
    everything the server writes until it closes.

    The server may answer and close before it has read all of ``raw`` (an
    error on the first line, say); sending the rest then fails, which is
    not the server's failure.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            sock.sendall(raw)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError as error:
            if error.errno != errno.ENOTCONN:
                raise
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture
def own_server(serve_dispatcher):
    """A fresh server over the session dispatcher, closed after the test;
    yields the server (its handler class may be swapped before use)."""
    server = create_server(serve_dispatcher, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def request(host, port, method, path, body=None, timeout=60):
    """One HTTP round trip; returns (status, parsed JSON)."""
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers=headers,
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHealthAndMetrics:
    def test_healthz(self, running_server, serve_corpus):
        status, payload = request(*running_server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema_version"] == 2
        assert payload["tables"] == len(serve_corpus)
        assert "default_engine" not in payload

    def test_metrics_shape(self, running_server):
        host, port = running_server
        request(host, port, "GET", "/healthz")
        status, payload = request(host, port, "GET", "/metrics")
        assert status == 200
        assert payload["schema_version"] == 2
        assert payload["uptime_seconds"] >= 0
        healthz = payload["endpoints"]["healthz"]
        assert healthz["requests"] >= 1
        assert set(healthz["latency_seconds"]) == {"p50", "p90", "p99", "max", "window"}
        assert "candidate_cache" in payload["caches"]
        assert set(payload["caches"]["fusion"]) == {"fallbacks"}
        assert payload["bundle"]["identity"]["model_sha256"]

    def test_metrics_count_errors(self, running_server):
        host, port = running_server
        before = request(host, port, "GET", "/metrics")[1]
        request(host, port, "POST", "/search", {"relation": "rel:none"})
        after = request(host, port, "GET", "/metrics")[1]
        errors_before = before["endpoints"].get("search", {}).get("errors", 0)
        assert after["endpoints"]["search"]["errors"] == errors_before + 1


class TestAnnotateEndpoint:
    def test_matches_oneshot_pipeline(
        self, running_server, tiny_world, serve_corpus
    ):
        """/annotate from the bundle ≡ the one-shot CLI annotation path."""
        reference_pipeline = AnnotationPipeline(tiny_world.annotator_view)
        for labeled in serve_corpus[:3]:
            expected = annotation_to_dict(reference_pipeline.annotate(labeled.table))
            status, payload = request(
                *running_server,
                "POST",
                "/annotate",
                {"table": labeled.table.to_dict()},
            )
            assert status == 200
            assert payload["annotation"] == expected
            assert "engine" not in payload
            assert payload["timing_seconds"]["total"] > 0

    def test_engine_selectable_per_request(self, running_server, serve_corpus):
        """Engines are no longer selectable per request: schema 1 bodies
        (which could carry an override) are refused with a stable code."""
        table = serve_corpus[0].table.to_dict()
        status, payload = request(
            *running_server,
            "POST",
            "/annotate",
            {"schema_version": 1, "table": table},
        )
        assert status == 400
        assert payload["error"]["code"] == "schema_version_unsupported"
        status, _payload = request(
            *running_server,
            "POST",
            "/annotate",
            {"schema_version": 2, "table": table},
        )
        assert status == 200

    def test_invalid_table_payload(self, running_server):
        status, payload = request(
            *running_server, "POST", "/annotate", {"table": {"cells": [["x"]]}}
        )
        assert status == 400
        assert payload["schema_version"] == 2
        assert payload["error"]["code"] == "invalid_table"
        assert "invalid table payload" in payload["error"]["message"]

    def test_non_string_cell_is_400(self, running_server):
        """A null cell is refused at decode, not answered as a 500."""
        status, payload = request(
            *running_server,
            "POST",
            "/annotate",
            {"table": {"table_id": "t", "cells": [[None, "x"]]}},
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_table"

    def test_unknown_engine(self, running_server, serve_corpus):
        status, payload = request(
            *running_server,
            "POST",
            "/annotate",
            {"table": serve_corpus[0].table.to_dict(), "engine": "quantum"},
        )
        assert status == 400
        assert payload["error"]["code"] == "validation_error"
        assert "engine" in payload["error"]["message"]


class TestSearchEndpoints:
    def test_search_matches_direct_searcher(
        self, running_server, tiny_world, serve_state
    ):
        relation_id, entity_id = find_productive_query(
            tiny_world, serve_state.index
        )
        expected = serve_state.search_payload(
            {"relation": relation_id, "entity": entity_id}
        )
        status, payload = request(
            *running_server,
            "POST",
            "/search",
            {"relation": relation_id, "entity": entity_id},
        )
        assert status == 200
        assert payload == expected
        assert payload["answers"]

    def test_top_k_trims_answers(self, running_server, tiny_world, serve_state):
        relation_id, entity_id = find_productive_query(
            tiny_world, serve_state.index
        )
        payload = request(
            *running_server,
            "POST",
            "/search",
            {"relation": relation_id, "entity": entity_id, "top_k": 1},
        )[1]
        assert len(payload["answers"]) <= 1

    def test_unknown_relation_is_400(self, running_server):
        status, payload = request(
            *running_server,
            "POST",
            "/search",
            {"relation": "rel:nope", "entity": "ent:nope"},
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown_id"
        assert "unknown" in payload["error"]["message"]

    def test_missing_field_is_400(self, running_server):
        status, payload = request(*running_server, "POST", "/search", {})
        assert status == 400
        assert payload["error"]["code"] == "validation_error"
        assert "missing required field" in payload["error"]["message"]

    def test_join_endpoint_answers(self, running_server, serve_state):
        # derive a valid join query from the catalog's relation schemas
        catalog = serve_state.catalog
        for first in catalog.relations.all_relations():
            for second in catalog.relations.all_relations():
                compatible = catalog.types.is_subtype(
                    second.subject_type, first.object_type
                ) or catalog.types.is_subtype(
                    first.object_type, second.subject_type
                )
                if not compatible:
                    continue
                objects = sorted(
                    catalog.relations.participating_objects(second.relation_id)
                )
                if not objects:
                    continue
                status, payload = request(
                    *running_server,
                    "POST",
                    "/search/join",
                    {
                        "first_relation": first.relation_id,
                        "second_relation": second.relation_id,
                        "entity": objects[0],
                    },
                )
                assert status == 200
                assert set(payload) == {
                    "schema_version",
                    "answers",
                    "tables_considered",
                    "rows_matched",
                }
                return
        pytest.skip("no join-compatible relation pair in the tiny world")


class TestRouting:
    def test_unknown_path_404(self, running_server):
        assert request(*running_server, "GET", "/nope")[0] == 404

    def test_post_only_routes_reject_get(self, running_server):
        assert request(*running_server, "GET", "/annotate")[0] == 405

    def test_get_only_routes_reject_post(self, running_server):
        assert request(*running_server, "POST", "/healthz", {})[0] == 405

    def test_invalid_json_body(self, running_server):
        host, port = running_server
        conn = HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                "POST",
                "/search",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "invalid JSON" in payload["error"]["message"]

    def test_empty_body_rejected(self, running_server):
        status, payload = request(*running_server, "POST", "/search")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "body required" in payload["error"]["message"]

    def test_invalid_content_length_is_400(self, running_server):
        host, port = running_server
        conn = HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/search")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "Content-Length" in payload["error"]["message"]

    def test_error_with_unread_body_does_not_desync_keepalive(
        self, running_server
    ):
        """A 404 that skips the POST body must not poison the connection.

        The server replies Connection: close on error paths, so the unread
        body bytes can never be misparsed as the next request line.
        """
        host, port = running_server
        conn = HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps({"x": 1})
            conn.request(
                "POST",
                "/nope",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            conn.close()
        # a fresh request afterwards works normally
        status, payload = request(host, port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"


class TestServeStateConfig:
    def test_session_config_engine_respected(self, loaded_bundle):
        """An explicit SessionConfig reaches the serving pipeline."""
        from repro.api import SessionConfig
        from repro.core.annotator import AnnotatorConfig
        from repro.serve.state import ServeState

        config = SessionConfig(
            batch_size=4, annotator=AnnotatorConfig(max_iterations=7)
        )
        state = ServeState(loaded_bundle, session_config=config)
        assert state.session.config is config
        pipeline = state.pipeline()
        assert pipeline.config.batch_size == 4
        assert pipeline.annotator.config.max_iterations == 7

    def test_legacy_pipeline_config_keeps_candidate_engine(
        self, loaded_bundle, monkeypatch
    ):
        """The serving candidate engine runs on the bundle's interned tables
        (restored from disk, never rebuilt from the catalog)."""
        from repro.core.candidates import InternedCandidateTables
        from repro.serve.state import ServeState

        def rebuild(*args, **kwargs):
            raise AssertionError("interned tables rebuilt from the catalog")

        monkeypatch.setattr(InternedCandidateTables, "from_catalog", rebuild)
        state = ServeState(loaded_bundle)
        engine = state.pipeline().annotator.candidate_engine
        restored = engine.tables.to_state()
        assert restored["entity_ids"] == loaded_bundle.candidate_state["entity_ids"]


class TestConcurrentDeterminism:
    """N threads hammering the warm server ≡ serial answers."""

    def test_concurrent_annotate_matches_serial(
        self, running_server, serve_corpus
    ):
        tables = [labeled.table.to_dict() for labeled in serve_corpus]
        serial = {
            table["table_id"]: request(
                *running_server, "POST", "/annotate", {"table": table}
            )[1]["annotation"]
            for table in tables
        }

        results: dict[tuple[int, str], dict] = {}
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                # each worker annotates every table, in a different order
                ordered = tables[worker:] + tables[:worker]
                for table in ordered:
                    status, payload = request(
                        *running_server, "POST", "/annotate", {"table": table}
                    )
                    assert status == 200
                    results[(worker, table["table_id"])] = payload["annotation"]
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        workers = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(6)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=300)
        assert not errors, errors
        assert len(results) == 6 * len(tables)
        for (_worker, table_id), annotation in results.items():
            assert annotation == serial[table_id]

    def test_concurrent_mixed_traffic(
        self, running_server, tiny_world, serve_state, serve_corpus
    ):
        relation_id, entity_id = find_productive_query(
            tiny_world, serve_state.index
        )
        search_body = {"relation": relation_id, "entity": entity_id}
        expected_search = request(
            *running_server, "POST", "/search", search_body
        )[1]
        table = serve_corpus[0].table.to_dict()
        expected_annotation = request(
            *running_server, "POST", "/annotate", {"table": table}
        )[1]["annotation"]

        errors: list[BaseException] = []

        def mixed(worker: int) -> None:
            try:
                for round_ in range(4):
                    if (worker + round_) % 2:
                        payload = request(
                            *running_server, "POST", "/search", search_body
                        )[1]
                        assert payload == expected_search
                    else:
                        payload = request(
                            *running_server, "POST", "/annotate", {"table": table}
                        )[1]
                        assert payload["annotation"] == expected_annotation
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        workers = [
            threading.Thread(target=mixed, args=(worker,)) for worker in range(8)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=300)
        assert not errors, errors


class TestKeepAlive:
    def test_one_write_per_response(self, serve_dispatcher, serve_corpus):
        """Headers and body leave in one write, so a keep-alive client is
        never left waiting on delayed ACK between the two."""
        from repro.serve.server import create_server

        server = create_server(serve_dispatcher, port=0)
        writes: list[int] = []

        class CountingWriter:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                writes.append(len(data))
                return self.raw.write(data)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        class CountingHandler(server.RequestHandlerClass):
            def setup(self):
                super().setup()
                self.wfile = CountingWriter(self.wfile)

        server.RequestHandlerClass = CountingHandler
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = HTTPConnection(host, port, timeout=60)
        try:
            exchanges = [
                ("GET", "/healthz", None),
                ("POST", "/annotate", {"table": serve_corpus[0].table.to_dict()}),
                ("GET", "/metrics", None),
            ]
            for method, path, body in exchanges:
                conn.request(
                    method,
                    path,
                    body=json.dumps(body) if body is not None else None,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200
                assert writes[-1] >= len(payload)
            # one connection, three responses, three writes
            assert len(writes) == len(exchanges)
        finally:
            conn.close()
            server.shutdown()
            server.server_close()


class TestRequestHead:
    """The request line and head are read as the stdlib parser reads them."""

    def test_malformed_request_line_is_400(self, running_server):
        response = exchange(*running_server, b"GET / x HTTP/1.1\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 ")
        # too few words to name a version: the stdlib answers HTTP/0.9-style,
        # with an error page and no status line
        response = exchange(*running_server, b"GARBAGE\r\n\r\n")
        assert b"Error code: 400" in response

    def test_http2_is_505(self, running_server):
        response = exchange(*running_server, b"GET /healthz HTTP/2.0\r\n\r\n")
        assert b"Error code: 505" in response

    def test_long_header_line_is_431(self, running_server):
        head = b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n"
        assert exchange(*running_server, head).startswith(
            b"HTTP/1.1 431 Line too long"
        )

    def test_header_count_is_bounded_like_the_stdlib(self, running_server):
        """At most 100 head lines, counting the blank line that ends it."""

        def head(fields: int) -> bytes:
            lines = b"".join(b"X-%d: y\r\n" % i for i in range(fields))
            return b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"

        assert exchange(*running_server, head(99)).startswith(b"HTTP/1.1 200 ")
        for fields in (100, 101, 150):
            assert exchange(*running_server, head(fields)).startswith(
                b"HTTP/1.1 431 Too many headers"
            )

    def test_expect_100_continue_before_the_body(self, running_server):
        host, port = running_server
        body = json.dumps({"relation": "rel:nope", "entity": "ent:nope"}).encode()
        head = (
            b"POST /search HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(head)
            interim = sock.recv(65536)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b'"unknown_id"' in response

    def test_http10_closes_the_connection(self, running_server):
        host, port = running_server
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            response = b""
            # the server closes: recv returns b"" without a half-close here
            while chunk := sock.recv(65536):
                response += chunk
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close\r\n" in response

    def test_repeated_header_keeps_the_first_value(self, running_server):
        """``Content-Length: 2`` then ``Content-Length: 999``: the body is
        the first value's two bytes (a last-wins reader would wait for
        999)."""
        head = (
            b"POST /search HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 999\r\n\r\n{}"
        )
        host, port = running_server
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(head)  # no half-close: the server must not wait
            response = sock.recv(65536)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"missing required field" in response

    def test_head_fields_are_case_insensitive(self, running_server):
        response = exchange(
            *running_server,
            b"POST /search HTTP/1.1\r\ncontent-LENGTH:   2\r\n\r\n{}",
        )
        assert b"missing required field" in response


#: request-head pieces the fuzzer combines: known methods, paths and
#: versions, real and odd field names, and raw bytes in between
_HEAD_LINES = st.one_of(
    st.sampled_from(
        [
            b"Content-Length: 2",
            b"Content-Length: -5",
            b"Content-Length: 99999999999999999999",
            b"content-length:abc",
            b"Connection: keep-alive",
            b"Connection: close",
            b"Expect: 100-continue",
            b"Transfer-Encoding: chunked",
            b" folded continuation",
            b"\tfolded continuation",
            b"From somebody",
            b": no name",
            b"No colon here",
            b"X-\xff: \xfe",
        ]
    ),
    st.binary(max_size=40).filter(lambda line: b"\n" not in line),
)
_REQUEST_LINES = st.one_of(
    st.builds(
        lambda method, path, version: b" ".join(
            part for part in (method, path, version) if part
        ),
        st.sampled_from([b"GET", b"POST", b"PUT", b"", b"G\x00T"]),
        st.sampled_from([b"/healthz", b"/search", b"//x", b"/annotate", b""]),
        st.sampled_from(
            [
                b"HTTP/1.1",
                b"HTTP/1.0",
                b"HTTP/2.0",
                b"HTTP/1",
                b"HTTP/x.y",
                b"HTTP/\xb2.1",  # a Latin-1 digit int() refuses
                b"",
            ]
        ),
    ),
    st.binary(max_size=60).filter(lambda line: b"\n" not in line),
)
_HEADS = st.one_of(
    st.builds(
        lambda first, lines, end, body: b"\r\n".join([first, *lines])
        + end
        + body,
        _REQUEST_LINES,
        st.lists(_HEAD_LINES, max_size=6),
        st.sampled_from([b"\r\n\r\n", b"\n\n", b"\r\n", b""]),
        st.sampled_from([b"", b"{}", b"[1]", b"{not json"]),
    ),
    st.binary(max_size=200),
)


class TestRequestHeadFuzz:
    @pytest.fixture(scope="class")
    def fuzz_server(self, serve_dispatcher):
        """A server whose per-connection error hook records instead of
        printing; yields (host, port, recorded errors)."""
        server = create_server(serve_dispatcher, port=0)
        errors: list = []

        def record(request, client_address):
            errors.append(sys.exc_info()[1])

        server.handle_error = record  # type: ignore[method-assign]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield host, port, errors
        server.shutdown()
        server.server_close()

    @settings(max_examples=60, deadline=None)
    @given(raw=_HEADS)
    def test_any_head_is_answered_or_closed(self, fuzz_server, raw):
        """Arbitrary head bytes get a response or a close, never an
        unhandled exception, and the next request is served."""
        host, port, errors = fuzz_server
        response = exchange(host, port, raw)
        assert not errors, errors
        assert response == b"" or response.startswith(
            (b"HTTP/1.1 ", b"<!DOCTYPE HTML>", b"{")
        ), response[:80]
        assert exchange(
            host, port, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        ).startswith(b"HTTP/1.1 200 OK\r\n")


class _SlowDispatcher:
    """Stands in for the dispatcher: each call takes ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.entered = threading.Event()

    def call(self, endpoint: str, payload: dict) -> dict:
        self.entered.set()
        time.sleep(self.seconds)
        return {"endpoint": endpoint}

    def healthz(self) -> dict:
        return {"status": "ok"}

    def shutdown(self) -> bool:
        return True

    def observe(self, endpoint: str, seconds: float, error: bool) -> None:
        pass


class TestHandlerThreads:
    def test_sequential_connections_reuse_handler_threads(self, own_server):
        """A handler thread parks after its connection and takes the next:
        50 requests on fresh connections, one after another (each asking
        the server to close it, as perfbench's client does), need at most
        two threads."""
        threads: list[threading.Thread] = []

        class Recording(own_server.RequestHandlerClass):
            def handle(self):
                threads.append(threading.current_thread())
                super().handle()

        def parked() -> int:
            with own_server._lock:
                return own_server._parked

        own_server.RequestHandlerClass = Recording
        host, port = own_server.server_address[:2]
        for _ in range(50):
            conn = HTTPConnection(host, port, timeout=30)
            try:
                conn.request("GET", "/healthz", headers={"Connection": "close"})
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            assert response.status == 200
            # the client may outrun the thread's few steps from its last
            # write to parking; wait for them, so scheduling cannot add a
            # thread
            deadline = time.monotonic() + 10.0
            while not parked() and time.monotonic() < deadline:
                time.sleep(0.001)
        assert len(threads) == 50
        assert len(set(threads)) <= 2

    def test_parked_threads_are_bounded(self, own_server):
        """Threads beyond the parked bound end once their connection does."""
        host, port = own_server.server_address[:2]
        clients = MAX_PARKED_THREADS + 4
        opened = [
            socket.create_connection((host, port), timeout=30)
            for _ in range(clients)
        ]
        for sock in opened:  # each connection holds its own thread
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
        with own_server._lock:
            assert len(own_server._threads) >= clients
        for sock in opened:
            sock.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with own_server._lock:
                live = len(own_server._threads)
                parked = own_server._parked
            if live <= MAX_PARKED_THREADS:
                break
            time.sleep(0.01)
        assert live <= MAX_PARKED_THREADS
        assert parked <= MAX_PARKED_THREADS

    def test_a_burst_of_connections_waits_out_no_syn_retransmit(self, own_server):
        """64 clients connecting at once are all taken into the listen
        backlog: none waits out a dropped SYN's retransmit (about a second
        on Linux), and each gets its /healthz answer."""
        host, port = own_server.server_address[:2]
        clients = 64
        start = threading.Barrier(clients, timeout=30)
        connect_seconds: list[float] = []
        statuses: list[bytes] = []

        def client() -> None:
            start.wait()
            began = time.perf_counter()
            with socket.create_connection((host, port), timeout=30) as sock:
                connect_seconds.append(time.perf_counter() - began)
                sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                response = b""
                while chunk := sock.recv(65536):
                    response += chunk
            statuses.append(response.split(b"\r\n", 1)[0])

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(connect_seconds) == clients
        assert max(connect_seconds) < 0.9, sorted(connect_seconds)[-5:]
        assert statuses == [b"HTTP/1.1 200 OK"] * clients

    def test_server_close_waits_for_the_response_in_flight(self):
        """``server_close`` returns only after a handler mid-request has
        written its response, which is what ``repro serve``'s SIGTERM drain
        relies on; an idle keep-alive connection does not hold it up."""
        # slower than serve_forever's 0.5 s poll, so shutdown() returns
        # while the request is still in the dispatcher
        dispatcher = _SlowDispatcher(1.5)
        server = create_server(dispatcher, port=0)  # type: ignore[arg-type]
        written: list[int] = []

        class Recording(server.RequestHandlerClass):
            def _send_json(self, status, payload):
                super()._send_json(status, payload)
                written.append(status)

        server.RequestHandlerClass = Recording
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        keep_alive = socket.create_connection((host, port), timeout=30)
        busy = socket.create_connection((host, port), timeout=30)
        try:
            keep_alive.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert keep_alive.recv(65536).startswith(b"HTTP/1.1 200 OK\r\n")
            busy.sendall(
                b"POST /search HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
            )
            assert dispatcher.entered.wait(10.0)
            server.shutdown()
            server.server_close()
            assert written == [200, 200]
            response = busy.recv(65536)
            assert response.startswith(b"HTTP/1.1 200 OK\r\n")
            assert response.endswith(b'{"endpoint": "search"}')
            assert keep_alive.recv(65536) == b""  # closed while idle
        finally:
            busy.close()
            keep_alive.close()

    def test_run_server_drains_then_writes_every_response(self):
        """``run_server`` drains the dispatcher, and returns its verdict only
        once the response in flight has been written."""
        dispatcher = _SlowDispatcher(1.5)
        server = create_server(dispatcher, port=0)  # type: ignore[arg-type]
        drained: list[bool] = []
        runner = threading.Thread(
            target=lambda: drained.append(run_server(server)), daemon=True
        )
        runner.start()
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as busy:
            busy.sendall(
                b"POST /search HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
            )
            assert dispatcher.entered.wait(10.0)
            server.shutdown()
            runner.join(timeout=30.0)
            assert drained == [True]
            busy.setblocking(False)  # written before run_server returned
            response = busy.recv(65536)
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")
