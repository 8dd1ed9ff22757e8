"""Programmatic client for the `repro serve` HTTP service.

Boots a server over a freshly built bundle (so the example is
self-contained), then exercises every endpoint the way an application
would: health check, single-table annotation (repeated), relational
search, a two-hop join, and the metrics snapshot.  Point ``--url`` at an
already-running server to skip the in-process boot.

Run:

    PYTHONPATH=src python examples/serve_client.py
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlparse

#: REPRO_SMOKE=1 shrinks the corpus so CI's examples job stays fast
SMOKE = bool(os.environ.get("REPRO_SMOKE"))


class ServeClient:
    """Minimal stdlib client: one method per endpoint."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, method: str, path: str, body: dict | None = None):
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers=(
                    {"Content-Type": "application/json"} if body is not None else {}
                ),
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                raise RuntimeError(f"{path}: HTTP {response.status}: {payload}")
            return payload
        finally:
            connection.close()

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def annotate(self, table: dict) -> dict:
        return self._request("POST", "/annotate", {"table": table})

    def search(
        self,
        relation: str,
        entity: str,
        top_k: int | None = None,
        use_relations: bool = True,
    ) -> dict:
        body: dict = {
            "relation": relation,
            "entity": entity,
            "use_relations": use_relations,
        }
        if top_k is not None:
            body["top_k"] = top_k
        return self._request("POST", "/search", body)

    def search_join(
        self, first_relation: str, second_relation: str, entity: str
    ) -> dict:
        return self._request(
            "POST",
            "/search/join",
            {
                "first_relation": first_relation,
                "second_relation": second_relation,
                "entity": entity,
            },
        )


def boot_local_server():
    """Build a bundle from a synthetic world and serve it in-process."""
    from repro.catalog.synthetic import SyntheticCatalogConfig, generate_world
    from repro.serve.bundle import build_bundle, load_bundle
    from repro.serve.server import create_server
    from repro.serve.state import ServeState
    from repro.tables.generator import (
        NoiseProfile,
        TableGeneratorConfig,
        WebTableGenerator,
    )

    world = generate_world(SyntheticCatalogConfig(seed=7))
    n_tables = 5 if SMOKE else 20
    tables = WebTableGenerator(
        world.full,
        TableGeneratorConfig(seed=11, n_tables=n_tables, noise=NoiseProfile.WIKI),
    ).generate()
    bundle_dir = Path(tempfile.mkdtemp(prefix="repro-bundle-")) / "bundle"
    print(f"building bundle under {bundle_dir} (annotating {n_tables} tables) ...")
    build_bundle(bundle_dir, world.annotator_view, tables)
    state = ServeState(load_bundle(bundle_dir))
    server = create_server(state, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}")

    # a productive demo query: anchor E2 at an entity-annotated cell of an
    # annotated relation edge, so the search is guaranteed to match rows
    catalog = world.annotator_view
    relation = entity = None
    index = state.index
    relation_ids = sorted(
        relation.relation_id for relation in catalog.relations.all_relations()
    )
    for relation_id in relation_ids:
        for edge in index.relation_edges(relation_id):
            annotation = index.annotations.get(edge.table_id)
            table = index.tables[edge.table_id]
            for row in range(table.n_rows):
                anchor = annotation.entity_of(row, edge.object_column)
                if anchor is not None and anchor in catalog.entities:
                    relation, entity = relation_id, anchor
                    break
            if relation:
                break
        if relation:
            break
    return server, host, port, tables[0].table.to_dict(), relation, entity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--url",
        default=None,
        help="base URL of a running server (default: boot one in-process)",
    )
    args = parser.parse_args()

    server = None
    if args.url:
        parsed = urlparse(args.url)
        client = ServeClient(parsed.hostname, parsed.port or 80)
        demo_table = {"table_id": "demo", "cells": [["example", "row"]]}
        relation = entity = None
    else:
        server, host, port, demo_table, relation, entity = boot_local_server()
        client = ServeClient(host, port)

    health = client.healthz()
    print(f"\n/healthz -> {health['status']}, {health['tables']} tables indexed")

    annotated = client.annotate(demo_table)
    columns = annotated["annotation"]["columns"]
    print(f"/annotate -> column types {columns}")
    again = client.annotate(demo_table)
    print("/annotate (repeat) -> identical:", again["annotation"] == annotated["annotation"])

    if relation is not None:
        result = client.search(relation, entity, top_k=5)
        print(f"/search {relation}({entity}) -> {len(result['answers'])} answers")
        for answer in result["answers"]:
            print(f"    {answer['score']:8.3f}  {answer['text']}")

    metrics = client.metrics()
    for endpoint, stats in metrics["endpoints"].items():
        latency = stats["latency_seconds"]
        print(
            f"/metrics: {endpoint:10} {stats['requests']:3} requests, "
            f"p50 {latency['p50'] * 1000:.1f} ms, p99 {latency['p99'] * 1000:.1f} ms"
        )

    if server is not None:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
