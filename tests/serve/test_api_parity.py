"""CLI ↔ HTTP parity: identical typed requests yield byte-identical payloads.

The acceptance bar of the unified API layer: for the same
:class:`AnnotateRequest` / :class:`SearchRequest`, ``repro annotate --wire``
/ ``repro search --json`` and ``POST /annotate`` / ``POST /search`` against
a bundle of the same world emit **the same bytes** — both frontends decode
into the same request type, run the same :class:`ReproSession` code and
encode through the same :func:`repro.api.encode_json`.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection

import pytest

from repro.api.types import AnnotateRequest, SearchRequest, encode_json
from repro.catalog.io import save_catalog_json
from repro.cli import main
from repro.tables.corpus import TableCorpus, save_corpus_jsonl
from tests.serve.conftest import find_productive_query


def raw_post(host, port, path, body: str, timeout=60) -> tuple[int, str]:
    """One POST round trip; returns (status, raw response text)."""
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST",
            path,
            body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


@pytest.fixture(scope="module")
def world_files(tiny_world, serve_corpus, tmp_path_factory):
    """The serving world written to disk for the CLI side of the parity."""
    directory = tmp_path_factory.mktemp("parity-world")
    catalog_path = directory / "catalog_view.json"
    corpus_path = directory / "corpus.jsonl"
    save_catalog_json(tiny_world.annotator_view, catalog_path)
    save_corpus_jsonl(TableCorpus(list(serve_corpus)), corpus_path)
    return catalog_path, corpus_path


class TestAnnotateParity:
    def test_wire_mode_matches_http_bytes(
        self, running_server, world_files, serve_corpus, tmp_path
    ):
        """`repro annotate --wire` == POST /annotate, byte for byte."""
        catalog_path, corpus_path = world_files
        output = tmp_path / "wire.jsonl"
        assert (
            main(
                [
                    "annotate",
                    "--catalog",
                    str(catalog_path),
                    "--corpus",
                    str(corpus_path),
                    "--wire",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        cli_lines = output.read_text(encoding="utf-8").splitlines()
        assert len(cli_lines) == len(serve_corpus)

        host, port = running_server
        for labeled, cli_line in zip(serve_corpus, cli_lines):
            request = AnnotateRequest(
                table=labeled.table, include_timing=False
            )
            status, http_body = raw_post(
                host, port, "/annotate", encode_json(request.to_json())
            )
            assert status == 200
            assert http_body == cli_line

    def test_wire_payload_is_the_typed_response(
        self, world_files, serve_corpus, tmp_path
    ):
        """Every --wire line decodes as a valid AnnotateResponse."""
        from repro.api.types import AnnotateResponse

        catalog_path, corpus_path = world_files
        output = tmp_path / "wire.jsonl"
        assert (
            main(
                [
                    "annotate",
                    "--catalog",
                    str(catalog_path),
                    "--corpus",
                    str(corpus_path),
                    "--wire",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        for line, labeled in zip(
            output.read_text(encoding="utf-8").splitlines(), serve_corpus
        ):
            response = AnnotateResponse.from_json(json.loads(line))
            assert response.table_id == labeled.table_id
            assert response.timing_seconds is None


class TestSearchParity:
    def test_json_mode_matches_http_bytes(
        self, running_server, world_files, tiny_world, serve_state, capsys
    ):
        """`repro search --json` == POST /search, byte for byte."""
        catalog_path, corpus_path = world_files
        relation_id, entity_id = find_productive_query(
            tiny_world, serve_state.index
        )
        request = SearchRequest(relation=relation_id, entity=entity_id, top_k=5)

        assert (
            main(
                [
                    "search",
                    "--catalog",
                    str(catalog_path),
                    "--corpus",
                    str(corpus_path),
                    "--relation",
                    relation_id,
                    "--entity",
                    entity_id,
                    "--top-k",
                    "5",
                    "--json",
                ]
            )
            == 0
        )
        cli_line = capsys.readouterr().out.strip()

        host, port = running_server
        status, http_body = raw_post(
            host, port, "/search", encode_json(request.to_json())
        )
        assert status == 200
        assert json.loads(cli_line)["answers"]  # the query is productive
        assert http_body == cli_line
