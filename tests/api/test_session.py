"""Behaviour of the :class:`ReproSession` facade and its error taxonomy."""

from __future__ import annotations

import json

import pytest

from repro.api.config import SessionConfig
from repro.api.errors import ApiError
from repro.api.session import ReproSession
from repro.api.types import (
    AnnotateRequest,
    BundleBuildRequest,
    JoinSearchRequest,
    SearchRequest,
    TrainRequest,
    encode_json,
)
from repro.catalog.io import save_catalog_json
from repro.core.annotator import AnnotatorConfig
from repro.core.model import AnnotationModel
from repro.pipeline.io import annotation_to_dict
from repro.pipeline.pipeline import AnnotationPipeline
from repro.tables.corpus import TableCorpus, save_corpus_jsonl
from tests.api.conftest import find_productive_query
from tests.oracles import OracleAnnotator

#: the engine, executor, thread-pool, damping, tolerance and search knobs
#: this API no longer has
REMOVED_KNOBS = (
    "engine",
    "candidate_engine",
    "fusion",
    "executor",
    "workers",
    "search",
    "damping",
    "tolerance",
)


class TestSessionConfig:
    def test_roundtrip_json(self):
        config = SessionConfig(batch_size=2, cache_size=10)
        assert SessionConfig.from_json(config.to_json()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError) as excinfo:
            SessionConfig.from_json({"no_such_knob": 1})
        assert excinfo.value.code == "validation_error"

    def test_bad_engine_rejected_everywhere(self):
        """Configs still naming the removed engine knobs fail loudly —
        top level and inside the annotator section — instead of being
        silently ignored."""
        for knob in REMOVED_KNOBS:
            for payload in ({knob: "batched"}, {"annotator": {knob: "batched"}}):
                with pytest.raises(ApiError) as excinfo:
                    SessionConfig.from_json(payload)
                assert excinfo.value.code == "validation_error"
                assert knob in excinfo.value.message
            with pytest.raises(TypeError):
                SessionConfig(**{knob: "batched"})

    def test_pipeline_config_carries_engine(self):
        """The one pipeline config carries every session-level setting."""
        config = SessionConfig(
            batch_size=4, cache_size=9, answer_cache_size=7
        ).pipeline_config()
        assert (config.batch_size, config.cache_size) == (4, 9)
        assert config.answer_cache_size == 7

    def test_roundtrip_json_with_candidate_engine(self):
        config = SessionConfig(annotator=AnnotatorConfig(max_iterations=25))
        assert SessionConfig.from_json(config.to_json()) == config
        assert not set(REMOVED_KNOBS) & set(config.to_json())
        assert not set(REMOVED_KNOBS) & set(config.to_json()["annotator"])

    def test_bad_candidate_engine_rejected_everywhere(self):
        """Out-of-range values raise ``validation_error`` straight from the
        validators, whichever way the config is built."""
        for build in (
            lambda: SessionConfig(batch_size=0),
            lambda: SessionConfig.from_json({"serve": {"queue_depth": -1}}),
            # each would reach the pipeline unchecked: a negative slice cap
            # drops every table's last-ranked column pair, a string fails
            # the first annotate, and a zero top-k fails session open
            lambda: SessionConfig.from_json({"annotator": {"max_column_pairs": -1}}),
            lambda: SessionConfig.from_json({"annotator": {"max_iterations": "10"}}),
            lambda: SessionConfig.from_json({"annotator": {"top_k_entities": 0}}),
            # counts must be ints, not floats or bools: a float batch size
            # fails every later annotate call in the batching range()
            lambda: SessionConfig.from_json({"batch_size": 2.5}),
            lambda: SessionConfig.from_json({"batch_size": True}),
            lambda: SessionConfig.from_json({"cache_size": 1.5}),
            lambda: SessionConfig.from_json({"answer_cache_size": 0.5}),
            lambda: SessionConfig.from_json({"serve": {"workers": 1.5}}),
            lambda: SessionConfig.from_json({"serve": {"queue_depth": 2.5}}),
        ):
            with pytest.raises(ApiError) as excinfo:
                build()
            assert excinfo.value.code == "validation_error"

    def test_serve_seconds_refuse_bools_and_non_finite(self):
        """``true`` would be a silent one-second timeout and NaN passes
        every range comparison; both, and infinities, are refused."""
        from repro.api.config import ServeConfig

        for name in (
            "shed_timeout_seconds",
            "request_timeout_seconds",
            "health_interval_seconds",
            "drain_timeout_seconds",
        ):
            for value in (True, False, float("nan"), float("inf"), "1", -1):
                with pytest.raises(ApiError) as excinfo:
                    ServeConfig(**{name: value})
                assert excinfo.value.code == "validation_error"
                assert name in excinfo.value.message
        # the JSON path: Python's json reads NaN and true
        for raw in (
            '{"serve": {"drain_timeout_seconds": NaN}}',
            '{"serve": {"request_timeout_seconds": true}}',
        ):
            with pytest.raises(ApiError) as excinfo:
                SessionConfig.from_json(json.loads(raw))
            assert excinfo.value.code == "validation_error"
        accepted = ServeConfig(shed_timeout_seconds=0, drain_timeout_seconds=0.5)
        assert accepted.shed_timeout_seconds == 0
        assert accepted.drain_timeout_seconds == 0.5

    def test_pipeline_config_carries_candidate_engine(self):
        annotator = AnnotatorConfig(top_k_entities=3, max_iterations=5)
        config = SessionConfig(annotator=annotator).pipeline_config()
        assert config.annotator == annotator


class TestCandidateEngines:
    def test_scalar_candidate_engine_session(self, tiny_world):
        """The session's pipeline runs the one candidate engine, unwrapped,
        with the shared candidate cache consulted inside its batch call."""
        from repro.core.candidates import CandidateEngine

        session = ReproSession.from_world(tiny_world.annotator_view)
        annotator = session.pipeline().annotator
        assert type(annotator.candidate_engine) is CandidateEngine
        assert annotator.features.engine is annotator.candidate_engine
        assert annotator.candidate_cache is session.pipeline().cache

    def test_candidate_engines_share_generator_and_agree(
        self, tiny_world, api_corpus
    ):
        """The scalar candidate oracle, sharing the session's lemma index,
        agrees with the session byte for byte."""
        session = ReproSession.from_world(tiny_world.annotator_view)
        pipeline = session.pipeline()
        assert session.pipeline() is pipeline
        oracle = OracleAnnotator(
            tiny_world.annotator_view,
            candidates="scalar",
            bp="batched",
            candidate_engine=pipeline.annotator.candidate_engine,
        )
        assert (
            oracle.generator.lemma_index
            is pipeline.annotator.candidate_engine.lemma_index
        )
        for labeled in api_corpus[:3]:
            assert annotation_to_dict(
                pipeline.annotate(labeled.table)
            ) == annotation_to_dict(oracle.annotate(labeled.table))

    def test_batched_engine_built_once_under_race(
        self, tiny_world, api_corpus, monkeypatch
    ):
        """One candidate engine per session, built at open and shared by
        the serving pipeline, concurrent callers and training."""
        import threading

        import repro.api.session as session_module

        real_engine = session_module.CandidateEngine
        built = []

        class CountingEngine(real_engine):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            session_module, "CandidateEngine", CountingEngine
        )
        session = ReproSession.from_world(tiny_world.annotator_view)
        results = []
        barrier = threading.Barrier(8)

        def use():
            barrier.wait()
            pipeline = session.pipeline()
            pipeline.annotate(api_corpus[0].table)
            results.append(pipeline)

        threads = [threading.Thread(target=use) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(built) == 1
        assert all(result is results[0] for result in results)


class TestAnnotate:
    def test_matches_direct_pipeline(self, tiny_world, api_session, api_corpus):
        reference = AnnotationPipeline(tiny_world.annotator_view)
        for labeled in api_corpus[:3]:
            response = api_session.annotate(AnnotateRequest(table=labeled.table))
            expected = annotation_to_dict(reference.annotate(labeled.table))
            assert response.annotation == expected
            assert response.table_id == labeled.table_id
            assert response.timing_seconds["total"] > 0

    def test_engine_override_and_timing_opt_out(self, api_session, api_corpus):
        """Timing is opt-out; the removed per-request engine override is
        not a field of the wire request any more."""
        table = api_corpus[0].table
        timed = api_session.annotate(AnnotateRequest(table=table))
        untimed = api_session.annotate(
            AnnotateRequest(table=table, include_timing=False)
        )
        assert untimed.timing_seconds is None
        assert timed.timing_seconds is not None
        assert untimed.annotation == timed.annotation
        assert "engine" not in untimed.to_json()
        with pytest.raises(TypeError):
            AnnotateRequest(table=table, engine="scalar")  # type: ignore[call-arg]

    def test_unknown_engine_code(self, api_session, api_corpus):
        """A request still carrying ``engine`` is a 400 validation error
        (unknown key), not a silently ignored field."""
        payload = AnnotateRequest(table=api_corpus[0].table).to_json()
        payload["engine"] = "scalar"
        with pytest.raises(ApiError) as excinfo:
            AnnotateRequest.from_json(payload)
        assert excinfo.value.code == "validation_error"
        assert excinfo.value.http_status == 400
        assert "engine" in excinfo.value.message


class TestSearch:
    def test_search_matches_direct_searcher(
        self, tiny_world, api_session
    ):
        relation_id, entity_id = find_productive_query(
            tiny_world, api_session.index
        )
        response = api_session.search(
            SearchRequest(relation=relation_id, entity=entity_id)
        )
        assert response.answers
        assert response.tables_considered > 0

    def test_top_k_trims(self, tiny_world, api_session):
        relation_id, entity_id = find_productive_query(
            tiny_world, api_session.index
        )
        trimmed = api_session.search(
            SearchRequest(relation=relation_id, entity=entity_id, top_k=1)
        )
        assert len(trimmed.answers) <= 1

    def test_unknown_relation_code(self, api_session):
        with pytest.raises(ApiError) as excinfo:
            api_session.search(
                SearchRequest(relation="rel:nope", entity="ent:nope")
            )
        assert excinfo.value.code == "unknown_id"

    def test_no_index_code(self, tiny_world):
        session = ReproSession.from_world(tiny_world.annotator_view)
        with pytest.raises(ApiError) as excinfo:
            session.search(SearchRequest(relation="rel:x", entity="ent:x"))
        assert excinfo.value.code == "no_index"
        assert excinfo.value.http_status == 409

    def test_join_incompatible_types_code(self, tiny_world, api_session):
        catalog = tiny_world.annotator_view
        relations = list(catalog.relations.all_relations())
        incompatible = None
        for first in relations:
            for second in relations:
                compatible = catalog.types.is_subtype(
                    second.subject_type, first.object_type
                ) or catalog.types.is_subtype(
                    first.object_type, second.subject_type
                )
                if not compatible:
                    incompatible = (first, second)
                    break
            if incompatible:
                break
        if incompatible is None:
            pytest.skip("all relation pairs joinable in the tiny world")
        entity = sorted(
            catalog.relations.participating_objects(
                incompatible[1].relation_id
            )
        )
        if not entity:
            pytest.skip("no participating object for the second relation")
        with pytest.raises(ApiError) as excinfo:
            api_session.join_search(
                JoinSearchRequest(
                    first_relation=incompatible[0].relation_id,
                    second_relation=incompatible[1].relation_id,
                    entity=entity[0],
                )
            )
        assert excinfo.value.code == "invalid_query"


class TestWorldLoading:
    def test_from_world_directory(self, tiny_world, tmp_path):
        world_dir = tmp_path / "world"
        world_dir.mkdir()
        save_catalog_json(tiny_world.annotator_view, world_dir / "catalog_view.json")
        session = ReproSession.from_world(world_dir)
        assert session.catalog.name == tiny_world.annotator_view.name

    def test_from_world_missing_paths(self, tmp_path):
        with pytest.raises(ApiError) as excinfo:
            ReproSession.from_world(tmp_path / "nope.json")
        assert excinfo.value.code == "io_error"
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ApiError) as excinfo:
            ReproSession.from_world(empty)
        assert excinfo.value.code == "io_error"


class TestTrainAndBundle:
    @pytest.fixture()
    def world_files(self, tiny_world, api_corpus, tmp_path):
        catalog_path = tmp_path / "catalog_view.json"
        corpus_path = tmp_path / "corpus.jsonl"
        save_catalog_json(tiny_world.annotator_view, catalog_path)
        save_corpus_jsonl(TableCorpus(list(api_corpus)), corpus_path)
        return catalog_path, corpus_path

    def test_train_writes_model(self, world_files, tmp_path):
        catalog_path, corpus_path = world_files
        session = ReproSession.from_world(catalog_path)
        model_path = tmp_path / "model.json"
        response = session.train(
            TrainRequest(
                corpus_path=str(corpus_path),
                epochs=1,
                output_path=str(model_path),
            )
        )
        assert response.n_tables == 6
        assert response.epochs == 1
        assert model_path.exists()
        assert AnnotationModel.load(model_path).fingerprint() == (
            response.model_fingerprint
        )
        # the session's own model is untouched by training
        assert session.model.fingerprint() != response.model_fingerprint

    def test_train_missing_corpus_code(self, world_files):
        catalog_path, _corpus_path = world_files
        session = ReproSession.from_world(catalog_path)
        with pytest.raises(ApiError) as excinfo:
            session.train(TrainRequest(corpus_path="/does/not/exist.jsonl"))
        assert excinfo.value.code == "io_error"

    def test_bundle_roundtrip_matches_world_session(
        self, tiny_world, api_corpus, world_files, tmp_path
    ):
        catalog_path, corpus_path = world_files
        world_session = ReproSession.from_world(catalog_path)
        response = world_session.build_bundle(
            BundleBuildRequest(
                corpus_path=str(corpus_path), output_path=str(tmp_path / "bundle")
            )
        )
        assert response.n_tables == len(api_corpus)
        assert response.n_files > 0

        bundle_session = ReproSession.from_bundle(tmp_path / "bundle")
        assert bundle_session.index is not None
        assert len(bundle_session.index) == len(api_corpus)
        for labeled in api_corpus[:2]:
            request = AnnotateRequest(table=labeled.table, include_timing=False)
            assert encode_json(
                bundle_session.annotate(request).to_json()
            ) == encode_json(world_session.annotate(request).to_json())

        relation_id, entity_id = find_productive_query(
            tiny_world, bundle_session.index
        )
        search = SearchRequest(relation=relation_id, entity=entity_id)
        world_session.index_corpus(str(corpus_path))
        assert json.loads(
            encode_json(bundle_session.search(search).to_json())
        ) == json.loads(encode_json(world_session.search(search).to_json()))

    def test_describe_reports_identity(self, api_session):
        info = api_session.describe()
        assert info["schema_version"] == 2
        assert info["tables"] == 6
        assert not {"default_engine", "engines"} & set(info)
