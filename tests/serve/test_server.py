"""Live-server tests: endpoint behaviour and concurrent determinism.

The server fronts a one-worker dispatcher, as `repro serve` does by
default; served bodies are compared with in-process answers.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.pipeline.io import annotation_to_dict
from repro.pipeline.pipeline import AnnotationPipeline
from tests.serve.conftest import find_productive_query


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
