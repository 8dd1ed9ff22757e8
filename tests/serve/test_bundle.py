"""Bundle round-trip and integrity tests.

The contract under test: building a bundle and loading it back yields
byte-identical query behaviour to the freshly built in-memory state, and
any tampering (version, content, missing files) is rejected with a clear
error before the bundle is used.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.types import SearchResponse
from repro.pipeline.io import (
    annotation_from_payload,
    annotation_to_dict,
    annotation_to_payload,
)
from repro.pipeline.pipeline import AnnotationPipeline
from repro.search.annotated_search import AnnotatedSearcher
from repro.search.query import RelationQuery
from repro.search.table_index import AnnotatedTableIndex
from repro.serve.bundle import (
    FORMAT_VERSION,
    load_bundle,
    read_manifest,
)
from repro.serve.errors import (
    BundleError,
    BundleIntegrityError,
    BundleVersionError,
)
from repro.text.index import InvertedIndex
from tests.serve.conftest import find_productive_query


@pytest.fixture(scope="module")
def fresh_state(tiny_world, serve_corpus):
    """The reference: pipeline + index built directly from the corpus."""
    pipeline = AnnotationPipeline(tiny_world.annotator_view)
    index = AnnotatedTableIndex.from_corpus(
        tiny_world.annotator_view, serve_corpus, pipeline=pipeline
    )
    return pipeline, index


class TestManifest:
    def test_manifest_shape(self, bundle_dir):
        manifest = read_manifest(bundle_dir)
        assert manifest.format_version == FORMAT_VERSION
        assert manifest.stats["n_tables"] == 8
        assert manifest.identity["model_sha256"]
        assert manifest.identity["catalog_sha256"]
        # every non-manifest bundle file is hash-tracked
        tracked = set(manifest.files)
        on_disk = {
            path.relative_to(bundle_dir).as_posix()
            for path in bundle_dir.rglob("*")
            if path.is_file() and path.name != "manifest.json"
        }
        assert tracked == on_disk

    def test_model_fingerprint_matches(self, bundle_dir, loaded_bundle):
        manifest = read_manifest(bundle_dir)
        assert manifest.identity["model_sha256"] == loaded_bundle.model.fingerprint()


class TestCandidateTables:
    def test_candidate_state_restores_built_tables(
        self, loaded_bundle, tiny_world
    ):
        import numpy as np

        from repro.core.candidates import InternedCandidateTables

        assert loaded_bundle.candidate_state is not None
        restored = InternedCandidateTables.from_state(
            loaded_bundle.candidate_state
        )
        built = InternedCandidateTables.from_catalog(tiny_world.annotator_view)
        assert restored.entity_ids == built.entity_ids
        assert restored.type_ids == built.type_ids
        assert restored.relation_ids == built.relation_ids
        restored_state = restored.to_state()
        for field, value in built.to_state().items():
            if isinstance(value, np.ndarray):
                assert value.dtype == restored_state[field].dtype, field
                assert value.tobytes() == restored_state[field].tobytes(), field

    def test_bundle_session_reuses_candidate_state(self, bundle_dir):
        from repro.api.session import ReproSession
        from repro.core.candidates import CandidateEngine

        session = ReproSession.from_bundle(bundle_dir)
        pipeline = session.pipeline()
        engine = pipeline.annotator.candidate_engine
        assert isinstance(engine, CandidateEngine)
        assert list(engine.tables.entity_ids) == list(
            session.bundle.candidate_state["entity_ids"]
        )


class TestRoundTrip:
    def test_annotations_identical(self, loaded_bundle, fresh_state):
        _pipeline, fresh_index = fresh_state
        assert set(loaded_bundle.table_index.annotations) == set(
            fresh_index.annotations
        )
        for table_id, fresh in fresh_index.annotations.items():
            restored = loaded_bundle.table_index.annotations[table_id]
            assert annotation_to_dict(restored) == annotation_to_dict(fresh)
            # scores survive too (full-fidelity payloads)
            assert annotation_to_payload(restored) == annotation_to_payload(fresh)

    def test_search_results_byte_identical(
        self, tiny_world, loaded_bundle, fresh_state
    ):
        _pipeline, fresh_index = fresh_state
        catalog = tiny_world.annotator_view
        relation_id, entity_id = find_productive_query(tiny_world, fresh_index)
        query = RelationQuery.from_catalog(catalog, relation_id, entity_id)
        for use_relations in (True, False):
            fresh_response = AnnotatedSearcher(
                fresh_index, catalog, use_relations=use_relations
            ).search(query)
            loaded_response = AnnotatedSearcher(
                loaded_bundle.table_index, catalog, use_relations=use_relations
            ).search(query)
            loaded_json = SearchResponse.from_ranked(loaded_response).to_json()
            fresh_json = SearchResponse.from_ranked(fresh_response).to_json()
            assert json.dumps(loaded_json) == json.dumps(fresh_json)
        assert fresh_response.answers  # the query is productive, not vacuous

    def test_header_and_context_lookups_identical(
        self, loaded_bundle, fresh_state
    ):
        _pipeline, fresh_index = fresh_state
        for table in fresh_index.tables.values():
            if table.headers:
                header = next((h for h in table.headers if h), None)
                if header:
                    assert loaded_bundle.table_index.columns_with_header(
                        header
                    ) == fresh_index.columns_with_header(header)
            if table.context:
                assert loaded_bundle.table_index.tables_with_context(
                    table.context
                ) == fresh_index.tables_with_context(table.context)

    def test_lemma_index_identical(self, loaded_bundle, fresh_state):
        pipeline, _fresh_index = fresh_state
        fresh_lemma = pipeline.annotator.candidate_engine.lemma_index
        for probe in ("a", "the", "john", "film", "club"):
            assert loaded_bundle.lemma_index.search(probe) == fresh_lemma.search(
                probe
            )

    def test_stats_identical(self, loaded_bundle, fresh_state):
        _pipeline, fresh_index = fresh_state
        assert loaded_bundle.table_index.stats() == fresh_index.stats()


class TestRejection:
    """Tampered bundles fail fast with precise errors."""

    @pytest.fixture()
    def copied_bundle(self, bundle_dir, tmp_path):
        import shutil

        target = tmp_path / "bundle"
        shutil.copytree(bundle_dir, target)
        return target

    def test_version_mismatch_rejected(self, copied_bundle):
        """A newer bundle, and one from before the f3 grid, get the rebuild
        hint."""
        manifest_path = copied_bundle / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        for version in (FORMAT_VERSION + 1, FORMAT_VERSION - 1):
            payload["format_version"] = version
            manifest_path.write_text(json.dumps(payload))
            with pytest.raises(BundleVersionError, match="format version") as raised:
                load_bundle(copied_bundle)
            assert "rebuild the bundle" in str(raised.value)

    def test_corrupted_file_rejected(self, copied_bundle):
        def replace_one_e(data: bytes) -> bytes:
            return data.replace(b"e", b"E", 1)

        def flip_last_byte(data: bytes) -> bytes:
            return data[:-1] + bytes([data[-1] ^ 0xFF])

        for relative, corrupt in (
            ("annotations.jsonl", replace_one_e),
            ("candidates/interned.f3_grid.npy", flip_last_byte),
        ):
            path = copied_bundle / relative
            original = path.read_bytes()
            path.write_bytes(corrupt(original))
            with pytest.raises(BundleIntegrityError, match=relative):
                load_bundle(copied_bundle)
            path.write_bytes(original)

    def test_missing_file_rejected(self, copied_bundle):
        (copied_bundle / "tfidf.json").unlink()
        with pytest.raises(BundleIntegrityError, match="missing"):
            load_bundle(copied_bundle)

    def test_not_a_bundle_rejected(self, tmp_path):
        with pytest.raises(BundleError, match="manifest"):
            load_bundle(tmp_path)

    def test_verify_can_be_skipped(self, copied_bundle):
        # tampering an un-tracked byte region is out of scope; verify=False
        # must still load a *valid* bundle
        assert load_bundle(copied_bundle, verify=False).table_index.stats()


class TestAnnotationPayloadRoundTrip:
    def test_scores_and_labels_survive(self, fresh_state):
        _pipeline, fresh_index = fresh_state
        for annotation in fresh_index.annotations.values():
            payload = annotation_to_payload(annotation)
            restored = annotation_from_payload(
                json.loads(json.dumps(payload))
            )
            assert annotation_to_payload(restored) == payload


@settings(max_examples=25, deadline=None)
@given(
    documents=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.text(
                alphabet=st.sampled_from("abc xyz"),
                min_size=0,
                max_size=12,
            ),
        ),
        min_size=0,
        max_size=12,
    ),
    query=st.text(alphabet=st.sampled_from("abc xyz"), min_size=0, max_size=8),
)
def test_index_state_round_trip_property(documents, query):
    """Any built index serializes and restores to identical behaviour."""
    index = InvertedIndex()
    for key, text in documents:
        index.add(f"k{key}", text)
    restored = InvertedIndex.from_state(index.to_state())
    assert restored.search(query) == index.search(query)
    assert restored.document_count == index.document_count
    for token in ("abc", "xyz", "a"):
        assert restored.keys_with_token(token) == index.keys_with_token(token)
