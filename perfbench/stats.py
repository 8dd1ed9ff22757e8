"""Latency statistics for the open-loop generator.

Percentiles use the nearest-rank rule over every attempted request, with a
failed or refused request counted as +inf, and refuse to report a percentile
that fewer than ``MIN_BEYOND`` samples lie beyond (its value would rest on a
handful of requests).
"""

from __future__ import annotations

import math

#: samples that must lie strictly beyond a reported percentile's rank
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    ``math.inf`` entries (failed requests) sort last, so enough failures
    make the percentile itself infinite.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {min_beyond}"
        )
    return sorted(values)[rank - 1]


def due_latencies(
    due: list[float], done: list[float | None]
) -> list[float]:
    """Open-loop latency of each request, timed from when it was due.

    ``done[i] is None`` marks a failed request (+inf).  Timing from the due
    time rather than the send time charges a stalled generator or server
    to every request that queued behind the stall.
    """
    return [
        math.inf if finished is None else finished - scheduled
        for scheduled, finished in zip(due, done)
    ]

