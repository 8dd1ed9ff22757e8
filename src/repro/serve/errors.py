"""Exception hierarchy of the serving subsystem.

The bundle errors live here (they belong to the artifact format);
request-payload failures moved to the shared API taxonomy in
:mod:`repro.api.errors` and are :class:`~repro.api.errors.ApiError`
instances — new code should catch ``ApiError``.  ``BadRequestError`` below
is a deprecation shim keeping both the old import path *and* the old
hierarchy: it subclasses the API taxonomy and ``ServeError``, and the HTTP
transport still raises it for body-level problems.  Schema-level
validation errors raised by :mod:`repro.api.types` are plain ``ApiError``
and are **not** ``ServeError`` — that part of the old hierarchy moved.
All of these classify to stable wire codes through
:func:`repro.api.errors.to_api_error`.
"""

from __future__ import annotations

from repro.api.errors import BAD_REQUEST, ApiError
from repro.api.errors import BadRequestError as _ApiBadRequestError

__all__ = [
    "ApiError",
    "BadRequestError",
    "BundleError",
    "BundleIntegrityError",
    "BundleVersionError",
    "ServeError",
    "WorkerSpawnError",
    "WorkerTimeout",
]


class ServeError(Exception):
    """Base class for all serving-layer errors."""


class WorkerTimeout(Exception):
    """A worker did not reply within the per-request ceiling.

    Deliberately *not* a :class:`ServeError`: the dispatcher's pipe-error
    handling treats it alongside ``OSError``/``EOFError``, and a blanket
    ``except ServeError`` must not swallow it.  Classifies to the stable
    ``worker_failed`` wire code.
    """


class WorkerSpawnError(ServeError, RuntimeError):
    """A worker could not be started: it died during warm-up, stayed
    silent past the ready timeout, or this platform cannot fork.

    Subclasses ``RuntimeError`` too: callers that treated the old
    ``RuntimeError`` raise from ``spawn_worker`` as fatal keep working,
    while :func:`repro.api.errors.to_api_error` now classifies it to the
    stable ``worker_failed`` wire code instead of ``internal_error``.
    """


class BadRequestError(_ApiBadRequestError, ServeError):
    """A request body is malformed at the transport level.

    Deprecated alias kept for compatibility: carries the API taxonomy
    (stable ``code``, HTTP status) *and* remains a :class:`ServeError` so
    pre-existing ``except ServeError`` handlers still catch it.
    """

    def __init__(self, message: str, code: str = BAD_REQUEST) -> None:
        super().__init__(message, code)


class BundleError(ServeError):
    """An artifact bundle could not be built or loaded."""


class BundleVersionError(BundleError):
    """The bundle's format version is not supported by this code."""


class BundleIntegrityError(BundleError):
    """A bundle file is missing or its content hash does not match."""
