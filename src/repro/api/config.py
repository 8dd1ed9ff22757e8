"""One composed configuration for the whole API surface.

Before this module existed every frontend wired its own stack of
``AnnotatorConfig`` / ``PipelineConfig`` objects.
:class:`SessionConfig` replaces that: one object, loadable from JSON or CLI
flags, that every :class:`~repro.api.session.ReproSession` (and therefore
every frontend) is built from.  Every validator here raises
:class:`~repro.api.errors.ApiError` with the ``validation_error`` code, so
a bad value surfaces the same way from JSON, the CLI and library callers.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api import errors
from repro.api.errors import ApiError
from repro.core.annotator import AnnotatorConfig, check_count
from repro.pipeline.pipeline import PipelineConfig


def _invalid(message: str) -> ApiError:
    """A ``validation_error`` for one out-of-range config value."""
    return ApiError(errors.VALIDATION_ERROR, message)


def _check_count(name: str, value: Any, least: int) -> None:
    """:func:`~repro.core.annotator.check_count`, as a ``validation_error``."""
    try:
        check_count(name, value, least)
    except ValueError as error:
        raise _invalid(str(error)) from None


def _check_seconds(name: str, value: Any) -> None:
    """Refuse a duration that is not a finite number >= 0 (bools included:
    ``true`` would be a one-second timeout)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 <= value < math.inf  # NaN fails both comparisons
    ):
        raise _invalid(f"serve {name} must be a finite number >= 0: {value!r}")


@dataclass
class ServeConfig:
    """Knobs of the multi-process serving tier (``repro serve``).

    ``workers`` is the pre-fork worker-process count (each worker runs one
    warm :class:`~repro.pipeline.AnnotationPipeline` over the shared
    read-only bundle).  ``queue_depth`` bounds how many requests may wait
    for a worker beyond the ``workers`` already in flight; a request that
    cannot be admitted within ``shed_timeout_seconds`` is shed with a 503
    ``overloaded``.  Queued requests ride an idle worker's next round trip
    together, up to the session's ``batch_size``.  See
    ``docs/OPERATIONS.md`` for tuning guidance.
    """

    #: pre-fork worker processes (1 still forks one worker)
    workers: int = 1
    #: requests allowed to queue for a worker beyond the in-flight ones
    queue_depth: int = 16
    #: how long a request may wait for admission before a 503 shed
    shed_timeout_seconds: float = 2.0
    #: hard per-request ceiling: a request still queued past it fails
    #: ``overloaded``; a worker silent past it is presumed wedged, killed
    #: and replaced
    request_timeout_seconds: float = 120.0
    #: seconds between the liveness checks of idle workers
    health_interval_seconds: float = 1.0
    #: how long shutdown / hot-swap waits for in-flight requests to finish
    drain_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        _check_count("serve workers", self.workers, 1)
        _check_count("serve queue_depth", self.queue_depth, 0)
        for name in (
            "shed_timeout_seconds",
            "request_timeout_seconds",
            "health_interval_seconds",
            "drain_timeout_seconds",
        ):
            _check_seconds(name, getattr(self, name))


@dataclass
class SessionConfig:
    """Everything a :class:`~repro.api.session.ReproSession` is built from.

    Composes the per-subsystem configs (annotator + pipeline + serve) that
    the CLI used to thread by hand, plus the session-level pipeline
    settings (batching, how much caching).
    """

    #: tables per pipeline batch, and requests per served worker round trip
    batch_size: int = 16
    cache_size: int = 100_000
    answer_cache_size: int = 2048
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        _check_count("batch_size", self.batch_size, 1)
        _check_count("cache_size", self.cache_size, 0)
        _check_count("answer_cache_size", self.answer_cache_size, 0)

    # ------------------------------------------------------------------
    # derived configs
    # ------------------------------------------------------------------
    def pipeline_config(self) -> PipelineConfig:
        """The :class:`PipelineConfig` of the session's pipeline."""
        return PipelineConfig(
            batch_size=self.batch_size,
            cache_size=self.cache_size,
            answer_cache_size=self.answer_cache_size,
            annotator=self.annotator,
        )

    # ------------------------------------------------------------------
    # JSON / CLI loading
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "batch_size": self.batch_size,
            "cache_size": self.cache_size,
            "answer_cache_size": self.answer_cache_size,
            "annotator": self.annotator.to_dict(),
            "serve": dataclasses.asdict(self.serve),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SessionConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ApiError(
                errors.VALIDATION_ERROR,
                f"unknown SessionConfig field(s): {', '.join(unknown)}",
            )
        kwargs: dict[str, Any] = dict(payload)
        # the session and serve validators raise ApiError themselves; what
        # is left to classify is a payload of the wrong shape: unknown nested
        # fields (TypeError from the dataclass constructors, ValueError from
        # AnnotatorConfig.from_dict) or bad annotator values (ValueError from
        # its validators)
        try:
            if "annotator" in kwargs:
                kwargs["annotator"] = AnnotatorConfig.from_dict(
                    dict(kwargs["annotator"])
                )
            if "serve" in kwargs:
                kwargs["serve"] = ServeConfig(**dict(kwargs["serve"]))
            return cls(**kwargs)
        except (TypeError, ValueError) as error:
            raise _invalid(f"invalid SessionConfig: {error}") from error

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "SessionConfig":
        """Build from the CLI's shared pipeline flags (missing flags keep
        their defaults, so every command reuses this)."""
        kwargs: dict[str, Any] = {}
        for flag in ("batch_size", "cache_size", "answer_cache_size"):
            value = getattr(args, flag, None)
            if value is not None:
                kwargs[flag] = value
        return cls(**kwargs)
