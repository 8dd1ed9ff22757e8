"""Fixtures for the serving subsystem: one bundle, one running server."""

from __future__ import annotations

import os
import threading

import pytest

from repro.serve.bundle import build_bundle, load_bundle
from repro.serve.dispatcher import Dispatcher
from repro.serve.server import create_server
from repro.serve.state import ServeState
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)


@pytest.fixture(scope="session")
def serve_corpus(tiny_world):
    """A small labeled corpus over the tiny world."""
    generator = WebTableGenerator(
        tiny_world.full,
        TableGeneratorConfig(seed=31, n_tables=8, noise=NoiseProfile.WIKI),
    )
    return generator.generate()


@pytest.fixture(scope="session")
def bundle_dir(tiny_world, serve_corpus, tmp_path_factory):
    """A bundle built once for the whole serve test session."""
    path = tmp_path_factory.mktemp("bundle") / "bundle"
    build_bundle(path, tiny_world.annotator_view, serve_corpus)
    return path


@pytest.fixture(scope="session")
def loaded_bundle(bundle_dir):
    return load_bundle(bundle_dir)


@pytest.fixture(scope="session")
def serve_state(loaded_bundle):
    """The in-process reference served bodies are compared against."""
    return ServeState(loaded_bundle)


@pytest.fixture(scope="session")
def serve_dispatcher(bundle_dir):
    """A one-worker dispatcher, the shape `repro serve` runs by default."""
    if not hasattr(os, "fork"):
        pytest.skip("the pre-fork tier requires fork")
    dispatcher = Dispatcher(bundle_dir)
    yield dispatcher
    dispatcher.shutdown(drain_timeout=5.0)


@pytest.fixture(scope="session")
def running_server(serve_dispatcher):
    """A live threaded server on an ephemeral port; yields (host, port)."""
    server = create_server(serve_dispatcher, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield host, port
    server.shutdown()
    server.server_close()


def find_productive_query(world, index) -> tuple[str, str]:
    """A (relation, entity) pair whose Type+Rel search returns answers.

    Walks the index's annotated relation edges and anchors E2 at an
    entity-annotated cell of the object column, so the query is guaranteed
    to match at least one row.
    """
    for relation_id, edges in sorted(index._edges_by_relation.items()):
        if relation_id not in world.annotator_view.relations:
            continue
        for edge in edges:
            annotation = index.annotations.get(edge.table_id)
            if annotation is None:
                continue
            table = index.tables[edge.table_id]
            for row in range(table.n_rows):
                entity_id = annotation.entity_of(row, edge.object_column)
                if entity_id is not None and entity_id in (
                    world.annotator_view.entities
                ):
                    return relation_id, entity_id
    raise AssertionError("no productive (relation, entity) query in the corpus")
