"""Property tests of the wire schema: every type round-trips exactly.

For each public request/response type ``T`` and every hypothesis-generated
instance ``x``: ``T.from_json(json.loads(encode_json(x.to_json()))) == x`` —
i.e. the round trip goes through real JSON text, not just dicts.  Plus the
strictness contract: unknown ``schema_version``, unknown fields and
mistyped fields are rejected with stable error codes, arbitrary JSON never
escapes as ``internal_error`` (fuzzed), and one fully populated instance
per type encodes to pinned golden bytes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import errors as api_errors
from repro.api.errors import ApiError
from repro.api.types import (
    SCHEMA_VERSION,
    WIRE_TYPES,
    AnnotateRequest,
    AnnotateResponse,
    BundleBuildRequest,
    BundleBuildResponse,
    ErrorEnvelope,
    JoinSearchRequest,
    SearchRequest,
    SearchResponse,
    TrainRequest,
    TrainResponse,
    encode_json,
)
from repro.search.ranking import SearchAnswer
from repro.tables.model import Table

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
texts = st.text(max_size=12)
ids = st.text(min_size=1, max_size=12)
scores = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**9)
top_ks = st.one_of(st.none(), st.integers(min_value=1, max_value=100))


@st.composite
def tables(draw) -> Table:
    n_rows = draw(st.integers(min_value=1, max_value=3))
    n_cols = draw(st.integers(min_value=1, max_value=3))
    cells = [[draw(texts) for _ in range(n_cols)] for _ in range(n_rows)]
    headers = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.one_of(st.none(), texts), min_size=n_cols, max_size=n_cols
            ),
        )
    )
    return Table(
        table_id=draw(ids),
        cells=cells,
        headers=headers,
        context=draw(texts),
        source=draw(st.one_of(st.none(), texts)),
    )


annotations = st.fixed_dictionaries(
    {
        "table_id": ids,
        "cells": st.dictionaries(texts, st.one_of(st.none(), texts), max_size=4),
        "columns": st.dictionaries(texts, st.one_of(st.none(), texts), max_size=3),
        "relations": st.dictionaries(texts, st.one_of(st.none(), texts), max_size=3),
    }
)

diagnostics = st.fixed_dictionaries(
    {
        "iterations": st.one_of(st.none(), counts),
        "converged": st.one_of(st.none(), st.booleans()),
        "n_variables": st.one_of(st.none(), counts),
        "n_factors": st.one_of(st.none(), counts),
    }
)

timings = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {"total": scores, "candidates": scores, "inference": scores}
    ),
)

answers = st.builds(
    SearchAnswer,
    text=texts,
    score=scores,
    entity_id=st.one_of(st.none(), ids),
    supporting_tables=st.tuples(ids).map(tuple)
    | st.just(())
    | st.lists(ids, max_size=3).map(tuple),
)

annotate_requests = st.builds(
    AnnotateRequest, table=tables(), include_timing=st.booleans()
)
annotate_responses = st.builds(
    AnnotateResponse,
    table_id=ids,
    annotation=annotations,
    diagnostics=diagnostics,
    timing_seconds=timings,
)
search_requests = st.builds(
    SearchRequest,
    relation=ids,
    entity=ids,
    use_relations=st.booleans(),
    top_k=top_ks,
)
join_requests = st.builds(
    JoinSearchRequest,
    first_relation=ids,
    second_relation=ids,
    entity=ids,
    top_k=top_ks,
)
search_responses = st.builds(
    SearchResponse,
    answers=st.lists(answers, max_size=4).map(tuple),
    tables_considered=counts,
    rows_matched=counts,
)
train_requests = st.builds(
    TrainRequest,
    corpus_path=ids,
    epochs=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=-(2**31), max_value=2**31),
    method=st.sampled_from(["perceptron", "ssvm"]),
    output_path=st.one_of(st.none(), ids),
)
train_responses = st.builds(
    TrainResponse,
    n_tables=counts,
    epochs=st.integers(min_value=1, max_value=50),
    final_hamming_loss=scores,
    model_fingerprint=ids,
    model_path=st.one_of(st.none(), ids),
)
bundle_requests = st.builds(
    BundleBuildRequest, corpus_path=ids, output_path=ids
)
bundle_responses = st.builds(
    BundleBuildResponse,
    output_path=ids,
    n_tables=counts,
    n_files=counts,
    annotate_seconds=scores,
)
envelopes = st.builds(
    ErrorEnvelope, code=st.sampled_from(api_errors.ERROR_CODES), message=texts
)


def roundtrip(value):
    """to_json -> real JSON text -> from_json."""
    payload = json.loads(encode_json(value.to_json()))
    return type(value).from_json(payload)


# ----------------------------------------------------------------------
# round-trip properties (one per wire type)
# ----------------------------------------------------------------------
@settings(max_examples=50)
@given(annotate_requests)
def test_annotate_request_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=50)
@given(annotate_responses)
def test_annotate_response_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=50)
@given(search_requests)
def test_search_request_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=50)
@given(join_requests)
def test_join_search_request_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=50)
@given(search_responses)
def test_search_response_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=50)
@given(train_requests)
def test_train_request_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=50)
@given(train_responses)
def test_train_response_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=25)
@given(bundle_requests)
def test_bundle_build_request_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=25)
@given(bundle_responses)
def test_bundle_build_response_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=25)
@given(envelopes)
def test_error_envelope_roundtrip(value):
    assert roundtrip(value) == value


# ----------------------------------------------------------------------
# strictness: versioning, unknown fields, stable codes
# ----------------------------------------------------------------------
EXAMPLES = {
    AnnotateRequest: AnnotateRequest(table=Table("t1", [["x"]])),
    AnnotateResponse: AnnotateResponse(
        table_id="t1", annotation={"table_id": "t1"}
    ),
    SearchRequest: SearchRequest(relation="rel:r", entity="ent:e"),
    JoinSearchRequest: JoinSearchRequest(
        first_relation="rel:a", second_relation="rel:b", entity="ent:e"
    ),
    SearchResponse: SearchResponse(),
    TrainRequest: TrainRequest(corpus_path="corpus.jsonl"),
    TrainResponse: TrainResponse(
        n_tables=1, epochs=1, final_hamming_loss=0.0, model_fingerprint="abc"
    ),
    BundleBuildRequest: BundleBuildRequest(
        corpus_path="corpus.jsonl", output_path="bundle"
    ),
    BundleBuildResponse: BundleBuildResponse(
        output_path="bundle", n_tables=1, n_files=1, annotate_seconds=0.0
    ),
    ErrorEnvelope: ErrorEnvelope(code="internal_error", message="boom"),
}


def test_examples_cover_every_wire_type():
    assert set(EXAMPLES) == set(WIRE_TYPES)


@pytest.mark.parametrize("wire_type", WIRE_TYPES, ids=lambda t: t.__name__)
def test_unknown_schema_version_rejected(wire_type):
    payload = EXAMPLES[wire_type].to_json()
    assert payload["schema_version"] == SCHEMA_VERSION
    # a float equal to the version is foreign too, like any integer field's
    for version in (SCHEMA_VERSION + 99, float(SCHEMA_VERSION)):
        payload["schema_version"] = version
        with pytest.raises(ApiError) as excinfo:
            wire_type.from_json(payload)
        assert excinfo.value.code == "schema_version_unsupported"
        assert excinfo.value.http_status == 400


@pytest.mark.parametrize("wire_type", WIRE_TYPES, ids=lambda t: t.__name__)
def test_missing_schema_version_means_current(wire_type):
    example = EXAMPLES[wire_type]
    payload = example.to_json()
    del payload["schema_version"]
    assert wire_type.from_json(payload) == example


@pytest.mark.parametrize("wire_type", WIRE_TYPES, ids=lambda t: t.__name__)
def test_unknown_field_rejected(wire_type):
    payload = EXAMPLES[wire_type].to_json()
    payload["definitely_not_a_field"] = 1
    with pytest.raises(ApiError) as excinfo:
        wire_type.from_json(payload)
    assert excinfo.value.code == "validation_error"


@pytest.mark.parametrize("wire_type", WIRE_TYPES, ids=lambda t: t.__name__)
def test_non_object_payload_rejected(wire_type):
    with pytest.raises(ApiError) as excinfo:
        wire_type.from_json(["not", "an", "object"])
    assert excinfo.value.code == "validation_error"


def test_missing_required_field_code_is_stable():
    with pytest.raises(ApiError) as excinfo:
        SearchRequest.from_json({"relation": "rel:r"})
    assert excinfo.value.code == "validation_error"
    assert "missing required field: 'entity'" in excinfo.value.message


def test_invalid_table_payload_code():
    malformed = [
        {"cells": [["x"]]},
        {"table_id": "t", "cells": [[None, "x"]]},
        {"table_id": "t", "cells": [[3, "x"]]},
        {"table_id": "t", "cells": [["x"]], "headers": [5]},
        {"table_id": "t", "cells": "abc"},
        {"table_id": 7, "cells": [["x"]]},
    ]
    for table in malformed:
        with pytest.raises(ApiError) as excinfo:
            AnnotateRequest.from_json({"table": table})
        assert excinfo.value.code == "invalid_table", table


def test_bad_top_k_rejected():
    for bad in (0, -3, "five", 1.5, True):
        with pytest.raises(ApiError) as excinfo:
            SearchRequest.from_json(
                {"relation": "r", "entity": "e", "top_k": bad}
            )
        assert excinfo.value.code == "validation_error"


def test_malformed_response_fields_map_to_validation_error():
    """Response decoders classify bad field types, never leak TypeError."""
    with pytest.raises(ApiError) as excinfo:
        AnnotateResponse.from_json(
            {
                "table_id": "t",
                "annotation": {},
                "timing_seconds": 3.5,
            }
        )
    assert excinfo.value.code == "validation_error"
    with pytest.raises(ApiError) as excinfo:
        AnnotateResponse.from_json(
            {"table_id": "t", "annotation": {}, "diagnostics": "oops"}
        )
    assert excinfo.value.code == "validation_error"
    with pytest.raises(ApiError) as excinfo:
        SearchResponse.from_json({"answers": [], "tables_considered": None})
    assert excinfo.value.code == "validation_error"


# ----------------------------------------------------------------------
# strictness: every JSON kind is checked, nothing is coerced
# ----------------------------------------------------------------------
MISTYPED = [
    (TrainResponse, "n_tables", 1.9),
    (TrainResponse, "n_tables", "3"),
    (TrainResponse, "n_tables", True),
    (TrainResponse, "final_hamming_loss", "nan"),
    (TrainResponse, "final_hamming_loss", False),
    (TrainResponse, "model_path", 5),
    (SearchResponse, "tables_considered", 2.7),
    (SearchResponse, "answers", [{"text": 1, "score": "x"}]),
    (SearchResponse, "answers", [{"text": "a", "score": 1.0, "rank": 1}]),
    (SearchResponse, "answers", [{"text": "a", "score": 1, "supporting_tables": [3]}]),
    (SearchResponse, "answers", ["a"]),
    (AnnotateResponse, "diagnostics", 0),
    (AnnotateResponse, "diagnostics", []),
    (AnnotateResponse, "diagnostics", None),
    (AnnotateResponse, "timing_seconds", {"a": "x"}),
    (AnnotateResponse, "timing_seconds", {"a": True}),
    (BundleBuildResponse, "annotate_seconds", "1.5"),
    (TrainRequest, "seed", 1.0),
]


@pytest.mark.parametrize(
    "wire_type, key, value",
    MISTYPED,
    ids=[f"{t.__name__}.{key}={value!r}" for t, key, value in MISTYPED],
)
def test_mistyped_field_rejected(wire_type, key, value):
    payload = EXAMPLES[wire_type].to_json()
    payload[key] = value
    with pytest.raises(ApiError) as excinfo:
        wire_type.from_json(payload)
    assert excinfo.value.code == "validation_error"


# ----------------------------------------------------------------------
# fuzz: arbitrary JSON never escapes as anything but a classified ApiError
# ----------------------------------------------------------------------
def _field_names(wire_type) -> list[str]:
    return [entry.name for entry in dataclasses.fields(wire_type)]


#: every key a wire payload can carry, nested ones included, so drawn
#: objects reach the nested decoders (answers, tables, the error body)
WIRE_KEYS = sorted(
    {"schema_version", "error", "cells", "headers", "context", "source"}.union(
        *(_field_names(t) for t in (*WIRE_TYPES, SearchAnswer))
    )
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(WIRE_KEYS) | st.text(max_size=4), children, max_size=4
    ),
    max_leaves=10,
)


@pytest.mark.parametrize("wire_type", WIRE_TYPES, ids=lambda t: t.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arbitrary_json_raises_only_classified_errors(wire_type, data):
    own_keys = ["schema_version", *_field_names(wire_type)]
    if wire_type is ErrorEnvelope:
        own_keys.append("error")
    payload = data.draw(
        json_values
        | st.dictionaries(st.sampled_from(own_keys), json_values, max_size=6)
    )
    try:
        decoded = wire_type.from_json(payload)
    except ApiError as error:
        assert error.code != "internal_error"
    else:
        assert isinstance(decoded, wire_type)


# ----------------------------------------------------------------------
# golden bytes: one fully populated instance per wire type
# ----------------------------------------------------------------------
GOLDEN_TABLE = Table(
    table_id="t1",
    cells=[["Ran", "1985"], ["Ikiru", "1952"]],
    headers=["Film", None],
    context="films by 黒澤明",
    source="wiki",
)
GOLDEN = [
    (
        AnnotateRequest(table=GOLDEN_TABLE, include_timing=False),
        '{"schema_version": 2, "table": {"table_id": "t1", "cells": '
        '[["Ran", "1985"], ["Ikiru", "1952"]], "headers": ["Film", null], '
        '"context": "films by 黒澤明", "source": "wiki"}, '
        '"include_timing": false}',
    ),
    (
        AnnotateResponse(
            table_id="t1",
            annotation={
                "table_id": "t1",
                "cells": {"0,0": "ent:movie:3"},
                "columns": {"0": "type:movie"},
                "relations": {},
            },
            diagnostics={"iterations": 3, "converged": True},
            timing_seconds={"total": 0.5, "inference": 0.25},
        ),
        '{"schema_version": 2, "table_id": "t1", "annotation": '
        '{"table_id": "t1", "cells": {"0,0": "ent:movie:3"}, "columns": '
        '{"0": "type:movie"}, "relations": {}}, "diagnostics": '
        '{"iterations": 3, "converged": true}, "timing_seconds": '
        '{"total": 0.5, "inference": 0.25}}',
    ),
    (
        SearchRequest(
            relation="rel:directed",
            entity="ent:person:7",
            use_relations=False,
            top_k=5,
        ),
        '{"schema_version": 2, "relation": "rel:directed", "entity": '
        '"ent:person:7", "use_relations": false, "top_k": 5}',
    ),
    (
        JoinSearchRequest(
            first_relation="rel:acted_in",
            second_relation="rel:born_in",
            entity="ent:city:2",
            top_k=3,
        ),
        '{"schema_version": 2, "first_relation": "rel:acted_in", '
        '"second_relation": "rel:born_in", "entity": "ent:city:2", '
        '"top_k": 3}',
    ),
    (
        SearchResponse(
            answers=(
                SearchAnswer(
                    text="Akira Kurosawa",
                    score=2.5,
                    entity_id="ent:person:7",
                    supporting_tables=("t1", "t2"),
                ),
                SearchAnswer(text="Ran", score=1.0),
            ),
            tables_considered=4,
            rows_matched=6,
        ),
        '{"schema_version": 2, "answers": [{"text": "Akira Kurosawa", '
        '"score": 2.5, "entity_id": "ent:person:7", "supporting_tables": '
        '["t1", "t2"]}, {"text": "Ran", "score": 1.0, "entity_id": null, '
        '"supporting_tables": []}], "tables_considered": 4, '
        '"rows_matched": 6}',
    ),
    (
        TrainRequest(
            corpus_path="corpus.jsonl",
            epochs=2,
            seed=9,
            method="ssvm",
            output_path="model.json",
        ),
        '{"schema_version": 2, "corpus_path": "corpus.jsonl", "epochs": 2, '
        '"seed": 9, "method": "ssvm", "output_path": "model.json"}',
    ),
    (
        TrainResponse(
            n_tables=12,
            epochs=2,
            final_hamming_loss=3.0,
            model_fingerprint="abc123",
            model_path="model.json",
        ),
        '{"schema_version": 2, "n_tables": 12, "epochs": 2, '
        '"final_hamming_loss": 3.0, "model_fingerprint": "abc123", '
        '"model_path": "model.json"}',
    ),
    (
        BundleBuildRequest(corpus_path="corpus.jsonl", output_path="bundle"),
        '{"schema_version": 2, "corpus_path": "corpus.jsonl", '
        '"output_path": "bundle"}',
    ),
    (
        BundleBuildResponse(
            output_path="bundle", n_tables=12, n_files=9, annotate_seconds=1.25
        ),
        '{"schema_version": 2, "output_path": "bundle", "n_tables": 12, '
        '"n_files": 9, "annotate_seconds": 1.25}',
    ),
    (
        ErrorEnvelope(code="not_found", message="unknown path: /x"),
        '{"schema_version": 2, "error": {"code": "not_found", "message": '
        '"unknown path: /x"}}',
    ),
]


def test_golden_covers_every_wire_type():
    assert [type(value) for value, _ in GOLDEN] == list(WIRE_TYPES)


@pytest.mark.parametrize(
    "value, expected", GOLDEN, ids=[type(value).__name__ for value, _ in GOLDEN]
)
def test_golden_bytes(value, expected):
    assert encode_json(value.to_json()) == expected
    assert type(value).from_json(json.loads(expected)) == value


def test_every_error_code_has_a_status():
    for code in api_errors.ERROR_CODES:
        assert api_errors.http_status_for(code) in (400, 404, 405, 409, 500, 503)
    assert api_errors.http_status_for("never_registered") == 500


def test_envelope_status_derived_from_code():
    assert ErrorEnvelope(code="not_found", message="x").http_status == 404
    assert ErrorEnvelope(code="internal_error", message="x").http_status == 500


def test_to_api_error_classifies_internal_exceptions():
    from repro.catalog.errors import UnknownIdError
    from repro.serve.errors import BundleIntegrityError, BundleVersionError

    assert api_errors.to_api_error(UnknownIdError("entity", "e")).code == (
        "unknown_id"
    )
    assert api_errors.to_api_error(BundleVersionError("v")).code == (
        "bundle_version_unsupported"
    )
    assert api_errors.to_api_error(BundleIntegrityError("h")).code == (
        "bundle_integrity"
    )
    assert api_errors.to_api_error(FileNotFoundError("f")).code == "io_error"
    assert api_errors.to_api_error(RuntimeError("boom")).code == "internal_error"
    # already-classified errors pass through untouched
    original = ApiError("unknown_id", "nope")
    assert api_errors.to_api_error(original) is original


def test_to_api_error_classifies_worker_failures():
    # regression: WorkerTimeout and WorkerSpawnError fell through to the
    # opaque internal_error even though both mean "retry against another
    # worker" — they must classify as the retryable worker_failed
    from repro.serve.errors import WorkerSpawnError, WorkerTimeout
    from repro.serve.pool import WorkerTimeout as pool_timeout

    timeout = api_errors.to_api_error(WorkerTimeout("w0 silent for 120s"))
    assert timeout.code == "worker_failed"
    assert timeout.http_status == 503

    spawn = api_errors.to_api_error(WorkerSpawnError("fork failed"))
    assert spawn.code == "worker_failed"
    # the old spelling subclassed RuntimeError; keep old handlers working
    assert isinstance(WorkerSpawnError("x"), RuntimeError)
    assert pool_timeout is WorkerTimeout  # pool re-exports the moved class
