"""Exception hierarchy of the serving subsystem.

The bundle and worker errors live here (they belong to the artifact
format and the pre-fork tier).  Request-payload failures belong to the
shared API taxonomy in :mod:`repro.api.errors`: the HTTP transport raises
:class:`~repro.api.errors.BadRequestError` for body-level problems, and
schema-level validation errors raised by :mod:`repro.api.types` are plain
``ApiError``.  All of these classify to stable wire codes through
:func:`repro.api.errors.to_api_error`.
"""

from __future__ import annotations

__all__ = [
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


class BundleError(ServeError):
    """An artifact bundle could not be built or loaded."""


class BundleVersionError(BundleError):
    """The bundle's format version is not supported by this code."""


class BundleIntegrityError(BundleError):
    """A bundle file is missing or its content hash does not match."""
