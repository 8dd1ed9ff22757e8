"""Public typed API: one session facade, one versioned wire schema.

Everything the CLI (:mod:`repro.cli`), the HTTP server (:mod:`repro.serve`)
and library callers do goes through this package:

* :class:`ReproSession` — the facade (open from a world or a bundle; offers
  ``annotate`` / ``annotate_stream`` / ``search`` / ``join_search`` /
  ``train`` / ``build_bundle``),
* :mod:`repro.api.types` — versioned request/response dataclasses; one
  field-driven codec gives each its strict ``to_json``/``from_json``
  round trip,
* :mod:`repro.api.errors` — the stable error-code taxonomy every frontend
  maps failures through,
* :class:`SessionConfig` — the one composed configuration object.

Quickstart::

    from repro.api import AnnotateRequest, ReproSession, SearchRequest

    session = ReproSession.from_world("world/catalog_view.json")
    response = session.annotate(AnnotateRequest(table=table))
    session.index_corpus("world/corpus.jsonl")
    answers = session.search(SearchRequest(relation="rel:directed",
                                           entity="ent:kurosawa"))
"""

from repro.api.errors import ApiError, BadRequestError, to_api_error
from repro.api.config import ServeConfig, SessionConfig
from repro.api.session import ReproSession
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

__all__ = [
    "SCHEMA_VERSION",
    "WIRE_TYPES",
    "AnnotateRequest",
    "AnnotateResponse",
    "ApiError",
    "BadRequestError",
    "BundleBuildRequest",
    "BundleBuildResponse",
    "ErrorEnvelope",
    "JoinSearchRequest",
    "ReproSession",
    "ServeConfig",
    "SearchRequest",
    "SearchResponse",
    "SessionConfig",
    "TrainRequest",
    "TrainResponse",
    "encode_json",
    "to_api_error",
]
