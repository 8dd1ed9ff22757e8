"""Serving subsystem: prebuilt artifact bundles + a long-lived HTTP service.

The offline/online split of the paper's deployment story:

* :mod:`repro.serve.bundle` — ``build_bundle`` / ``load_bundle``: a
  versioned on-disk format holding the catalog, trained model, frozen
  (array-backed) text indexes and pre-computed corpus annotations, under a
  hash-verified manifest.
* :mod:`repro.serve.server` — the threaded stdlib-HTTP front end
  (``repro serve``): ``/annotate``, ``/search``, ``/search/join``,
  ``/healthz``, ``/metrics``, ``/admin/reload``, all answered through one
  dispatcher.
* :mod:`repro.serve.pool` / :mod:`repro.serve.dispatcher` — the pre-fork
  tier behind it (``repro serve --workers N``, one worker by default):
  forked workers sharing one mmapped bundle, admission control with 503
  load shedding, automatic worker restart, and generational bundle
  hot-swap.
* :mod:`repro.serve.state` — :class:`ServeState`: a worker's request
  handlers (decode JSON → typed request → shared
  :class:`~repro.api.ReproSession` → typed response → JSON); in-process,
  the reference served bodies are compared against.
* :mod:`repro.serve.metrics` — request counters and latency percentiles,
  aggregate and per-worker.

Quickstart (see ``docs/OPERATIONS.md`` for the full runbook)::

    repro bundle build --catalog view.json --corpus corpus.jsonl --output b/
    repro serve --bundle b/ --port 8080 --workers 4
    curl -s localhost:8080/healthz
"""

from repro.serve.bundle import (
    FORMAT_VERSION,
    BundleManifest,
    LoadedBundle,
    build_bundle,
    load_bundle,
    read_manifest,
    verify_bundle,
)
from repro.serve.errors import (
    BadRequestError,
    BundleError,
    BundleIntegrityError,
    BundleVersionError,
    ServeError,
)
from repro.serve.dispatcher import Dispatcher
from repro.serve.metrics import DispatcherMetrics, MetricsRegistry
from repro.serve.pool import WorkerHandle, WorkerTimeout, spawn_worker
from repro.serve.server import TableServer, create_server, run_server
from repro.serve.state import ServeState

__all__ = [
    "FORMAT_VERSION",
    "BadRequestError",
    "BundleError",
    "BundleIntegrityError",
    "BundleManifest",
    "BundleVersionError",
    "Dispatcher",
    "DispatcherMetrics",
    "LoadedBundle",
    "MetricsRegistry",
    "ServeError",
    "ServeState",
    "TableServer",
    "WorkerHandle",
    "WorkerTimeout",
    "build_bundle",
    "create_server",
    "load_bundle",
    "read_manifest",
    "run_server",
    "spawn_worker",
    "verify_bundle",
]
