"""Versioned, typed wire schema of the public API.

Every request/response that crosses the API boundary is a dataclass here,
and one codec encodes and decodes them all from their field lists:

* ``to_json`` returns a plain JSON-ready dict whose first key is always
  ``schema_version`` (currently |SCHEMA_VERSION|), followed by the fields
  in declaration order — encoding the same object twice yields the same
  bytes,
* ``from_json`` rejects payloads declaring a ``schema_version`` this build
  does not speak (stable code ``schema_version_unsupported``), rejects
  unknown keys and checks every field's JSON kind without coercing it
  (``validation_error``; a table that does not decode is
  ``invalid_table``).  It round-trips exactly:
  ``T.from_json(T.to_json(x)) == x`` for every ``x`` (property-tested under
  hypothesis in ``tests/api``).

A field is declared once: its annotation, plus at most a
``field(metadata={"minimum": n})`` bound.  The codec reads each class's
field list once and maps ``str``, ``bool``, ``int`` and ``float`` to a JSON
string, boolean, integer (never a boolean) and number (an integer or a
float, never a boolean); ``X | None`` to X or null; ``dict[str, V]`` to an
object; ``Table`` to an object read by :meth:`Table.from_dict`; and
``tuple[X, ...]`` to an array, whose nested dataclasses (search answers)
decode by the same rules.

A payload *without* ``schema_version`` is accepted as the current version,
so hand-written ``curl`` bodies keep working.

:func:`encode_json` is the canonical serialisation used by both the CLI
(``--wire`` / ``--json`` modes) and the HTTP server, which is what makes the
two frontends byte-identical for identical requests.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Any, NamedTuple, TypeVar, get_args, get_origin, get_type_hints

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
# the codec
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
    """Reject payloads from a schema this build does not speak: the version
    must be the JSON integer :data:`SCHEMA_VERSION` (``2.0`` is refused, as
    every integer field refuses a float)."""
    version = payload.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
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


def _missing(key: str) -> ApiError:
    return ApiError(errors.VALIDATION_ERROR, f"missing required field: {key!r}")


def _decode_table(payload: dict[str, Any]) -> Table:
    try:
        return Table.from_dict(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ApiError(
            errors.INVALID_TABLE, f"invalid table payload: {error}"
        ) from error


_NONE = type(None)
_Step = Callable[[Any], Any]

#: scalar annotation -> (the exact value types it accepts, their name)
_SCALARS: dict[Any, tuple[frozenset[type], str]] = {
    str: (frozenset({str}), "a string"),
    bool: (frozenset({bool}), "a boolean"),
    int: (frozenset({int}), "an integer"),
    float: (frozenset({int, float}), "a number"),
}


class _Kind(NamedTuple):
    """How the values of one field, or of its items, cross the wire."""

    #: the exact value types accepted, so a boolean is never an integer
    accepts: frozenset[type]
    #: what a value must be and where it sits, for the error message
    expected: str
    where: str
    #: checks or converts an accepted non-null value; None keeps it as is
    decode: _Step | None = None
    #: turns a non-null attribute into JSON; None when it already is JSON
    encode: _Step | None = None


def _check(kind: _Kind, value: Any) -> Any:
    """``value`` decoded as ``kind``, or a ``validation_error``."""
    accepts, expected, where, decode, _ = kind
    if type(value) not in accepts:
        raise ApiError(
            errors.VALIDATION_ERROR,
            f"{where} must be {expected}, got {type(value).__name__}",
        )
    return value if decode is None or value is None else decode(value)


def _kind(hint: Any, where: str, minimum: int | None = None) -> _Kind:
    """The JSON kind of the values annotated ``hint``."""
    args, origin = get_args(hint), get_origin(hint)
    if _NONE in args:
        (inner,) = [arg for arg in args if arg is not _NONE]
        kind = _kind(inner, where, minimum)
        return kind._replace(
            accepts=kind.accepts | {_NONE}, expected=f"{kind.expected} or null"
        )
    if hint in _SCALARS:
        accepts, expected = _SCALARS[hint]
        if minimum is None:
            return _Kind(accepts, expected, where)
        lowest = minimum

        def at_least(value: int) -> int:
            if value < lowest:
                raise ApiError(
                    errors.VALIDATION_ERROR, f"{where} must be >= {lowest}, got {value}"
                )
            return value

        return _Kind(accepts, f"{expected} >= {lowest}", where, at_least)
    if hint is Table:
        return _Kind(
            frozenset({dict}), "an object", where, _decode_table, Table.to_dict
        )
    if isinstance(hint, type) and is_dataclass(hint):
        codec = _codec(hint)
        return _Kind(
            frozenset({dict}),
            "an object",
            where,
            lambda value: hint(**codec.decode(value)),
            codec.encode,
        )
    if origin is dict and args[1] is Any:
        return _Kind(frozenset({dict}), "an object", where, dict)
    if origin is dict:
        values = _kind(args[1], f"{where} values")
        return _Kind(
            frozenset({dict}),
            "an object",
            where,
            lambda value: {key: _check(values, item) for key, item in value.items()},
        )
    if origin is tuple:
        items = _kind(args[0], f"{where} items")
        encode_item = items.encode
        return _Kind(
            frozenset({list}),
            "an array",
            where,
            lambda value: tuple([_check(items, item) for item in value]),
            list
            if encode_item is None
            else lambda value: [encode_item(item) for item in value],
        )
    raise NotImplementedError(f"{where}: no wire kind for {hint!r}")


class _Codec:
    """One field-shaped dataclass's encode and decode steps, per field."""

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        self.name = cls.__name__
        self.fields = tuple(entry.name for entry in fields(cls))
        self.known = frozenset(self.fields) | {"schema_version"}
        #: (name, required, kind) per field, in declaration order
        self.kinds: list[tuple[str, bool, _Kind]] = []
        for entry in fields(cls):
            where = f"{self.name}.{entry.name}"
            kind = _kind(hints[entry.name], where, entry.metadata.get("minimum"))
            required = entry.default is MISSING and entry.default_factory is MISSING
            self.kinds.append((entry.name, required, kind))
        self.encode = self._compile_encoder()

    def _compile_encoder(self) -> Callable[[Any], dict[str, Any]]:
        """One function building a value's JSON fields in declaration order.

        It is compiled into a single dict display, the way ``dataclasses``
        builds ``__init__``: a loop over the fields doubled the time a search
        answer takes to encode.
        """
        steps: dict[str, Any] = {}
        entries = []
        for index, (name, _, kind) in enumerate(self.kinds):
            read = f"value.{name}"
            if kind.encode is not None:
                steps[f"encode_{index}"] = kind.encode
                read = f"encode_{index}({read})"
                if _NONE in kind.accepts:
                    read = f"None if value.{name} is None else {read}"
            entries.append(f"{name!r}: {read}")
        exec(f"def encode(value):\n    return {{{', '.join(entries)}}}", steps)
        return steps["encode"]

    def decode(self, payload: object) -> dict[str, Any]:
        """The checked constructor arguments of one payload."""
        mapping = _ensure_mapping(payload, self.name)
        check_schema_version(mapping, self.name)
        if not self.known.issuperset(mapping):
            _reject_unknown_keys(mapping, self.fields, self.name)
        values: dict[str, Any] = {}
        for name, required, kind in self.kinds:
            if name in mapping:
                values[name] = _check(kind, mapping[name])
            elif required:
                raise _missing(name)
        return values


@functools.cache
def _codec(cls: type) -> _Codec:
    """The codec of one field-shaped dataclass, built on first use."""
    return _Codec(cls)


_W = TypeVar("_W", bound="WireType")


class WireType:
    """Base of the field-shaped wire dataclasses: both directions come from
    the one codec, driven by the subclass's field list."""

    def to_json(self) -> dict[str, Any]:
        return {"schema_version": SCHEMA_VERSION, **_codec(type(self)).encode(self)}

    @classmethod
    def from_json(cls: type[_W], payload: Mapping[str, Any]) -> _W:
        return cls(**_codec(cls).decode(payload))


# ----------------------------------------------------------------------
# annotate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AnnotateRequest(WireType):
    """Annotate one table.

    Timing numbers are wall-clock and therefore non-deterministic;
    ``include_timing=False`` yields a fully deterministic response — the
    CLI↔HTTP parity guarantee is stated over requests with timing excluded.
    """

    table: Table
    include_timing: bool = True


@dataclass(frozen=True)
class AnnotateResponse(WireType):
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


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest(WireType):
    """One relational query ``R(?, entity)`` (paper Section 5).

    ``use_relations=False`` runs the type-only processor (Figure 4 without
    relation filtering); ``top_k`` trims the ranked answers.
    """

    relation: str
    entity: str
    use_relations: bool = True
    top_k: int | None = field(default=None, metadata={"minimum": 1})


@dataclass(frozen=True)
class JoinSearchRequest(WireType):
    """Two-hop join ``R1(?, e2) ∧ R2(e2, entity)`` with ``entity`` given."""

    first_relation: str
    second_relation: str
    entity: str
    top_k: int | None = field(default=None, metadata={"minimum": 1})


@dataclass(frozen=True)
class SearchResponse(WireType):
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


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainRequest(WireType):
    """Train model weights on a labeled JSONL corpus.

    ``output_path=None`` trains without persisting (the response still
    carries the model fingerprint so callers can tell runs apart).
    """

    corpus_path: str
    epochs: int = field(default=3, metadata={"minimum": 1})
    seed: int = 0
    method: str = "perceptron"
    output_path: str | None = None


@dataclass(frozen=True)
class TrainResponse(WireType):
    """Outcome of one training run."""

    n_tables: int
    epochs: int
    final_hamming_loss: float
    model_fingerprint: str
    model_path: str | None = None


# ----------------------------------------------------------------------
# bundles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BundleBuildRequest(WireType):
    """Annotate a JSONL corpus and write a versioned artifact bundle."""

    corpus_path: str
    output_path: str


@dataclass(frozen=True)
class BundleBuildResponse(WireType):
    """What one bundle build produced."""

    output_path: str
    n_tables: int
    n_files: int
    annotate_seconds: float


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorEnvelope:
    """The one error shape every frontend emits.

    ``code`` is stable (see :mod:`repro.api.errors`); ``message`` is for
    humans.  The HTTP status is derived from the code, never stored, so the
    envelope cannot disagree with the taxonomy.  The fields travel nested
    under ``error``; the body decodes through the same field codec.
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
        if "error" not in payload:
            raise _missing("error")
        return cls(**_codec(cls).decode(payload["error"]))


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
