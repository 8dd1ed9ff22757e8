"""Error taxonomy of the public API surface.

Every failure that crosses the API boundary — CLI, HTTP or library — is an
:class:`ApiError` carrying a **stable error code** from the table below.
Codes are part of the wire contract (clients branch on them; messages are
for humans and may change), and each code maps to exactly one HTTP status.

======================================  ======  =============================
code                                    status  raised when
======================================  ======  =============================
``bad_request``                         400     transport-level problems: bad
                                                JSON, bad Content-Length,
                                                non-object body
``validation_error``                    400     a request field is missing or
                                                has the wrong type/value
``schema_version_unsupported``          400     the payload declares a
                                                ``schema_version`` this build
                                                does not speak
``invalid_table``                       400     a table payload cannot be
                                                decoded into a ``Table``
``unknown_id``                          400     a catalog type/entity/relation
                                                id does not exist
``invalid_query``                       400     a query is structurally
                                                invalid (e.g. join types
                                                incompatible)
``io_error``                            400     a referenced corpus/catalog/
                                                model path cannot be read, or
                                                ``repro serve`` cannot listen
                                                on its address
``not_found``                           404     unknown HTTP route
``method_not_allowed``                  405     wrong HTTP method for a route
``no_index``                            409     search on a session with no
                                                table index (build one or
                                                open a bundle)
``overloaded``                          503     every worker busy and the
                                                dispatch queue full — the
                                                request was shed, retry with
                                                backoff
``worker_failed``                       503     the worker process handling
                                                the request died mid-flight
                                                (it is restarted; retry)
``bundle_invalid``                      500     a bundle is missing/unreadable
``bundle_version_unsupported``          500     a bundle's format version is
                                                not supported
``bundle_integrity``                    500     a bundle file hash mismatches
                                                its manifest
``internal_error``                      500     anything unexpected
======================================  ======  =============================

The mapping from internal exceptions (catalog, bundle, inference,
validation) lives in :func:`to_api_error`, so the CLI and the HTTP server
cannot drift apart in how they classify failures.
"""

from __future__ import annotations

BAD_REQUEST = "bad_request"
VALIDATION_ERROR = "validation_error"
SCHEMA_VERSION_UNSUPPORTED = "schema_version_unsupported"
INVALID_TABLE = "invalid_table"
UNKNOWN_ID = "unknown_id"
INVALID_QUERY = "invalid_query"
IO_ERROR = "io_error"
NOT_FOUND = "not_found"
METHOD_NOT_ALLOWED = "method_not_allowed"
NO_INDEX = "no_index"
OVERLOADED = "overloaded"
WORKER_FAILED = "worker_failed"
BUNDLE_INVALID = "bundle_invalid"
BUNDLE_VERSION_UNSUPPORTED = "bundle_version_unsupported"
BUNDLE_INTEGRITY = "bundle_integrity"
INTERNAL_ERROR = "internal_error"

#: stable code -> HTTP status (the single source of the mapping)
HTTP_STATUS: dict[str, int] = {
    BAD_REQUEST: 400,
    VALIDATION_ERROR: 400,
    SCHEMA_VERSION_UNSUPPORTED: 400,
    INVALID_TABLE: 400,
    UNKNOWN_ID: 400,
    INVALID_QUERY: 400,
    IO_ERROR: 400,
    NOT_FOUND: 404,
    METHOD_NOT_ALLOWED: 405,
    NO_INDEX: 409,
    OVERLOADED: 503,
    WORKER_FAILED: 503,
    BUNDLE_INVALID: 500,
    BUNDLE_VERSION_UNSUPPORTED: 500,
    BUNDLE_INTEGRITY: 500,
    INTERNAL_ERROR: 500,
}

ERROR_CODES = tuple(HTTP_STATUS)


def http_status_for(code: str) -> int:
    """HTTP status of a stable error code (500 for codes we do not know)."""
    return HTTP_STATUS.get(code, 500)


class ApiError(Exception):
    """One API-surface failure: a stable ``code`` plus a human ``message``."""

    def __init__(self, code: str, message: str) -> None:
        if code not in HTTP_STATUS:
            # reprolint: ignore[exc-unclassified]: a programmer-error guard
            # at construction time — it can never reach a client, because
            # the ApiError carrying it was never built
            raise ValueError(f"unregistered error code: {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def http_status(self) -> int:
        return http_status_for(self.code)


class BadRequestError(ApiError):
    """Transport-level 400 (bad JSON, bad headers, non-object body).

    Kept as a named class because the HTTP layer raises it directly while
    reading bodies; everything schema-shaped uses plain :class:`ApiError`
    with a more specific code.
    """

    def __init__(self, message: str, code: str = BAD_REQUEST) -> None:
        super().__init__(code, message)


def to_api_error(error: BaseException) -> ApiError:
    """Classify any exception into the taxonomy (the one mapping).

    Known internal exception families map to their stable codes; anything
    unrecognised becomes ``internal_error`` — deliberately without leaking
    repr details beyond the exception type and message.
    """
    if isinstance(error, ApiError):
        return error

    # local imports: this module sits below every subsystem it classifies
    from repro.catalog.errors import CatalogError, UnknownIdError

    # reprolint: ignore[arch-layering]: deliberate lazy upward import — the
    # taxonomy must classify serve-layer exceptions without making the api
    # layer depend on serve at load time
    from repro.serve.errors import (
        BundleError,
        BundleIntegrityError,
        BundleVersionError,
        WorkerSpawnError,
        WorkerTimeout,
    )

    if isinstance(error, UnknownIdError):
        return ApiError(UNKNOWN_ID, str(error))
    if isinstance(error, CatalogError):
        return ApiError(INVALID_QUERY, str(error))
    if isinstance(error, (WorkerTimeout, WorkerSpawnError)):
        return ApiError(WORKER_FAILED, str(error))
    if isinstance(error, BundleVersionError):
        return ApiError(BUNDLE_VERSION_UNSUPPORTED, str(error))
    if isinstance(error, BundleIntegrityError):
        return ApiError(BUNDLE_INTEGRITY, str(error))
    if isinstance(error, BundleError):
        return ApiError(BUNDLE_INVALID, str(error))
    if isinstance(error, (FileNotFoundError, IsADirectoryError, PermissionError)):
        return ApiError(IO_ERROR, str(error))
    return ApiError(INTERNAL_ERROR, f"{type(error).__name__}: {error}")
