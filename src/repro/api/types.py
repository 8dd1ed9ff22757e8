"""Versioned, typed wire schema of the public API.

Every request/response that crosses the API boundary is a dataclass here
with a strict ``to_json`` / ``from_json`` pair:

* ``to_json`` returns a plain JSON-ready dict whose first key is always
  ``schema_version`` (currently |SCHEMA_VERSION|) and whose key order is
  stable — encoding the same object twice yields the same bytes,
* ``from_json`` validates types, rejects unknown keys, rejects payloads
  declaring a ``schema_version`` this build does not speak (stable code
  ``schema_version_unsupported``) and round-trips exactly:
  ``T.from_json(T.to_json(x)) == x`` for every ``x`` (property-tested under
  hypothesis in ``tests/api``).

A payload *without* ``schema_version`` is accepted as the current version,
so hand-written ``curl`` bodies keep working.

:func:`encode_json` is the canonical serialisation used by both the CLI
(``--wire`` / ``--json`` modes) and the HTTP server, which is what makes the
two frontends byte-identical for identical requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api import errors
from repro.api.errors import ApiError
from repro.search.ranking import SearchAnswer
from repro.search.ranking import SearchResponse as RankedResponse
from repro.tables.model import Table

#: version of the wire schema spoken by this build
SCHEMA_VERSION = 2


def encode_json(payload: Mapping[str, Any]) -> str:
    """The one canonical JSON encoding (CLI and HTTP share it verbatim)."""
    return json.dumps(payload, ensure_ascii=False)


# ----------------------------------------------------------------------
# strict decoding helpers
# ----------------------------------------------------------------------
def _ensure_mapping(payload: object, type_name: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ApiError(
            errors.VALIDATION_ERROR,
            f"{type_name} payload must be a JSON object, "
            f"got {type(payload).__name__}",
        )
    return payload


def check_schema_version(payload: Mapping[str, Any], type_name: str) -> None:
    """Reject payloads from a schema this build does not speak."""
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ApiError(
            errors.SCHEMA_VERSION_UNSUPPORTED,
            f"{type_name} declares schema_version {version!r}; this build "
            f"speaks schema_version {SCHEMA_VERSION}",
        )


def _reject_unknown_keys(
    payload: Mapping[str, Any], allowed: tuple[str, ...], type_name: str
) -> None:
    unknown = sorted(set(payload) - set(allowed) - {"schema_version"})
    if unknown:
        raise ApiError(
            errors.VALIDATION_ERROR,
            f"{type_name} has unknown field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(allowed)})",
        )


def _require(payload: Mapping[str, Any], key: str, type_name: str) -> Any:
    if key not in payload:
        raise ApiError(
            errors.VALIDATION_ERROR, f"missing required field: {key!r}"
        )
    return payload[key]


def _require_str(payload: Mapping[str, Any], key: str, type_name: str) -> str:
    value = _require(payload, key, type_name)
    if not isinstance(value, str):
        raise ApiError(
            errors.VALIDATION_ERROR,
            f"{type_name}.{key} must be a string, got {type(value).__name__}",
        )
    return value


def _optional_top_k(payload: Mapping[str, Any], type_name: str) -> int | None:
    top_k = payload.get("top_k")
    if top_k is None:
        return None
    if isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1:
        raise ApiError(
            errors.VALIDATION_ERROR, "top_k must be a positive integer"
        )
    return top_k


def _coerce(kind, value, type_name: str, key: str):
    """Coerce one decoded field, mapping failures into the taxonomy."""
    try:
        return kind(value)
    except (TypeError, ValueError) as error:
        raise ApiError(
            errors.VALIDATION_ERROR,
            f"{type_name}.{key} must be a {kind.__name__}: {error}",
        ) from error


def _decode_table(payload: object) -> Table:
    try:
        return Table.from_dict(_ensure_mapping(payload, "table"))
    except ApiError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ApiError(
            errors.INVALID_TABLE, f"invalid table payload: {error}"
        ) from error


# ----------------------------------------------------------------------
# annotate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AnnotateRequest:
    """Annotate one table.

    Timing numbers are wall-clock and therefore non-deterministic;
    ``include_timing=False`` yields a fully deterministic response — the
    CLI↔HTTP parity guarantee is stated over requests with timing excluded.
    """

    table: Table
    include_timing: bool = True

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "table": self.table.to_dict(),
            "include_timing": self.include_timing,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "AnnotateRequest":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(payload, ("table", "include_timing"), name)
        include_timing = payload.get("include_timing", True)
        if not isinstance(include_timing, bool):
            raise ApiError(
                errors.VALIDATION_ERROR, f"{name}.include_timing must be a boolean"
            )
        return cls(
            table=_decode_table(_require(payload, "table", name)),
            include_timing=include_timing,
        )


@dataclass(frozen=True)
class AnnotateResponse:
    """One annotated table.

    ``annotation`` is the compact label map produced by
    :func:`repro.pipeline.io.annotation_to_dict` (the shape ``repro
    annotate`` has always written); ``diagnostics`` carries the inference
    counters and ``timing_seconds`` the per-stage wall clock (``None`` when
    the request opted out).
    """

    table_id: str
    annotation: dict[str, Any]
    diagnostics: dict[str, Any] = field(default_factory=dict)
    timing_seconds: dict[str, float] | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "table_id": self.table_id,
            "annotation": self.annotation,
            "diagnostics": self.diagnostics,
            "timing_seconds": self.timing_seconds,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "AnnotateResponse":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(
            payload,
            ("table_id", "annotation", "diagnostics", "timing_seconds"),
            name,
        )
        annotation = _require(payload, "annotation", name)
        timing = payload.get("timing_seconds")
        return cls(
            table_id=_require_str(payload, "table_id", name),
            annotation=dict(_ensure_mapping(annotation, f"{name}.annotation")),
            diagnostics=dict(
                _ensure_mapping(
                    payload.get("diagnostics") or {}, f"{name}.diagnostics"
                )
            ),
            timing_seconds=(
                None
                if timing is None
                else dict(
                    _ensure_mapping(timing, f"{name}.timing_seconds")
                )
            ),
        )


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest:
    """One relational query ``R(?, entity)`` (paper Section 5).

    ``use_relations=False`` runs the type-only processor (Figure 4 without
    relation filtering); ``top_k`` trims the ranked answers.
    """

    relation: str
    entity: str
    use_relations: bool = True
    top_k: int | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "relation": self.relation,
            "entity": self.entity,
            "use_relations": self.use_relations,
            "top_k": self.top_k,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SearchRequest":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(
            payload, ("relation", "entity", "use_relations", "top_k"), name
        )
        use_relations = payload.get("use_relations", True)
        if not isinstance(use_relations, bool):
            raise ApiError(
                errors.VALIDATION_ERROR, f"{name}.use_relations must be a boolean"
            )
        return cls(
            relation=_require_str(payload, "relation", name),
            entity=_require_str(payload, "entity", name),
            use_relations=use_relations,
            top_k=_optional_top_k(payload, name),
        )


@dataclass(frozen=True)
class JoinSearchRequest:
    """Two-hop join ``R1(?, e2) ∧ R2(e2, entity)`` with ``entity`` given."""

    first_relation: str
    second_relation: str
    entity: str
    top_k: int | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "first_relation": self.first_relation,
            "second_relation": self.second_relation,
            "entity": self.entity,
            "top_k": self.top_k,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JoinSearchRequest":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(
            payload,
            ("first_relation", "second_relation", "entity", "top_k"),
            name,
        )
        return cls(
            first_relation=_require_str(payload, "first_relation", name),
            second_relation=_require_str(payload, "second_relation", name),
            entity=_require_str(payload, "entity", name),
            top_k=_optional_top_k(payload, name),
        )


@dataclass(frozen=True)
class SearchResponse:
    """Ranked answers plus bookkeeping (shared by /search and /search/join)."""

    answers: tuple[SearchAnswer, ...] = ()
    tables_considered: int = 0
    rows_matched: int = 0

    @classmethod
    def from_ranked(
        cls, response: RankedResponse, top_k: int | None = None
    ) -> "SearchResponse":
        """Freeze one internal :class:`~repro.search.ranking.SearchResponse`."""
        answers = response.answers if top_k is None else response.answers[:top_k]
        return cls(
            answers=tuple(answers),
            tables_considered=response.tables_considered,
            rows_matched=response.rows_matched,
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "answers": [answer.to_payload() for answer in self.answers],
            "tables_considered": self.tables_considered,
            "rows_matched": self.rows_matched,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SearchResponse":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(
            payload, ("answers", "tables_considered", "rows_matched"), name
        )
        answers = _require(payload, "answers", name)
        if not isinstance(answers, list):
            raise ApiError(
                errors.VALIDATION_ERROR, f"{name}.answers must be an array"
            )
        try:
            decoded = tuple(
                SearchAnswer.from_payload(answer) for answer in answers
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise ApiError(
                errors.VALIDATION_ERROR, f"invalid answer payload: {error}"
            ) from error
        return cls(
            answers=decoded,
            tables_considered=_coerce(
                int, payload.get("tables_considered", 0), name, "tables_considered"
            ),
            rows_matched=_coerce(
                int, payload.get("rows_matched", 0), name, "rows_matched"
            ),
        )


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainRequest:
    """Train model weights on a labeled JSONL corpus.

    ``output_path=None`` trains without persisting (the response still
    carries the model fingerprint so callers can tell runs apart).
    """

    corpus_path: str
    epochs: int = 3
    seed: int = 0
    method: str = "perceptron"
    output_path: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "corpus_path": self.corpus_path,
            "epochs": self.epochs,
            "seed": self.seed,
            "method": self.method,
            "output_path": self.output_path,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "TrainRequest":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(
            payload,
            ("corpus_path", "epochs", "seed", "method", "output_path"),
            name,
        )
        epochs = payload.get("epochs", 3)
        if isinstance(epochs, bool) or not isinstance(epochs, int) or epochs < 1:
            raise ApiError(
                errors.VALIDATION_ERROR, f"{name}.epochs must be a positive integer"
            )
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ApiError(
                errors.VALIDATION_ERROR, f"{name}.seed must be an integer"
            )
        method = payload.get("method", "perceptron")
        if not isinstance(method, str):
            raise ApiError(
                errors.VALIDATION_ERROR, f"{name}.method must be a string"
            )
        output_path = payload.get("output_path")
        if output_path is not None and not isinstance(output_path, str):
            raise ApiError(
                errors.VALIDATION_ERROR,
                f"{name}.output_path must be a string or null",
            )
        return cls(
            corpus_path=_require_str(payload, "corpus_path", name),
            epochs=epochs,
            seed=seed,
            method=method,
            output_path=output_path,
        )


@dataclass(frozen=True)
class TrainResponse:
    """Outcome of one training run."""

    n_tables: int
    epochs: int
    final_hamming_loss: float
    model_fingerprint: str
    model_path: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_tables": self.n_tables,
            "epochs": self.epochs,
            "final_hamming_loss": self.final_hamming_loss,
            "model_fingerprint": self.model_fingerprint,
            "model_path": self.model_path,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "TrainResponse":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(
            payload,
            (
                "n_tables",
                "epochs",
                "final_hamming_loss",
                "model_fingerprint",
                "model_path",
            ),
            name,
        )
        return cls(
            n_tables=_coerce(
                int, _require(payload, "n_tables", name), name, "n_tables"
            ),
            epochs=_coerce(int, _require(payload, "epochs", name), name, "epochs"),
            final_hamming_loss=_coerce(
                float,
                _require(payload, "final_hamming_loss", name),
                name,
                "final_hamming_loss",
            ),
            model_fingerprint=_require_str(payload, "model_fingerprint", name),
            model_path=payload.get("model_path"),
        )


# ----------------------------------------------------------------------
# bundles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BundleBuildRequest:
    """Annotate a JSONL corpus and write a versioned artifact bundle."""

    corpus_path: str
    output_path: str

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "corpus_path": self.corpus_path,
            "output_path": self.output_path,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "BundleBuildRequest":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(payload, ("corpus_path", "output_path"), name)
        return cls(
            corpus_path=_require_str(payload, "corpus_path", name),
            output_path=_require_str(payload, "output_path", name),
        )


@dataclass(frozen=True)
class BundleBuildResponse:
    """What one bundle build produced."""

    output_path: str
    n_tables: int
    n_files: int
    annotate_seconds: float

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "output_path": self.output_path,
            "n_tables": self.n_tables,
            "n_files": self.n_files,
            "annotate_seconds": self.annotate_seconds,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "BundleBuildResponse":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(
            payload,
            ("output_path", "n_tables", "n_files", "annotate_seconds"),
            name,
        )
        return cls(
            output_path=_require_str(payload, "output_path", name),
            n_tables=_coerce(
                int, _require(payload, "n_tables", name), name, "n_tables"
            ),
            n_files=_coerce(int, _require(payload, "n_files", name), name, "n_files"),
            annotate_seconds=_coerce(
                float,
                _require(payload, "annotate_seconds", name),
                name,
                "annotate_seconds",
            ),
        )


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorEnvelope:
    """The one error shape every frontend emits.

    ``code`` is stable (see :mod:`repro.api.errors`); ``message`` is for
    humans.  The HTTP status is derived from the code, never stored, so the
    envelope cannot disagree with the taxonomy.
    """

    code: str
    message: str

    @property
    def http_status(self) -> int:
        return errors.http_status_for(self.code)

    @classmethod
    def from_error(cls, error: BaseException) -> "ErrorEnvelope":
        api_error = errors.to_api_error(error)
        return cls(code=api_error.code, message=api_error.message)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": self.code, "message": self.message},
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ErrorEnvelope":
        name = cls.__name__
        payload = _ensure_mapping(payload, name)
        check_schema_version(payload, name)
        _reject_unknown_keys(payload, ("error",), name)
        body = _ensure_mapping(_require(payload, "error", name), f"{name}.error")
        _reject_unknown_keys(body, ("code", "message"), f"{name}.error")
        return cls(
            code=_require_str(body, "code", name),
            message=_require_str(body, "message", name),
        )


#: request type -> response type, in wire-schema order (drives the README
#: table and the round-trip test inventory)
WIRE_TYPES: tuple[type, ...] = (
    AnnotateRequest,
    AnnotateResponse,
    SearchRequest,
    JoinSearchRequest,
    SearchResponse,
    TrainRequest,
    TrainResponse,
    BundleBuildRequest,
    BundleBuildResponse,
    ErrorEnvelope,
)
