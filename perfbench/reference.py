"""Machine-speed reference: a fixed probe timed next to the program's work.

On a shared host the speed of identical work drifts by up to 2x, within
seconds and between runs, as other tenants load the same physical cores.
CPU time drifts with it (a fixed pure-Python loop took 13-38 ms of CPU time
per call on a 2-core x86-64 VM), so neither the wall time nor the CPU time
of the program alone is comparable from run to run.

The benchmark therefore pins itself, and every process it starts, to one
CPU, runs this probe on that CPU next to each timed stretch (before every
request, or around every slice of a pass), and reports times scaled to the
probe: ``seconds * REFERENCE_SECONDS / probe``, the time the stretch would
have taken at the speed at which one probe takes ``REFERENCE_SECONDS``.
The probe is benchmark code, fixed across commits, so a change to the
program moves the scaled times and the machine's drift mostly cancels.
It mixes interpreter work (dicts, strings) with small numpy kernels, as
the program does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: one probe's median wall time on an idle 2-core x86-64 VM (Python 3.11,
#: numpy 2.4); scaled times read in seconds at that machine's speed
REFERENCE_SECONDS = 0.0033

_MATRIX = np.random.default_rng(0).random((120, 120))


def _work() -> float:
    counts: dict[int, int] = {}
    for index in range(12000):
        key = index % 977
        counts[key] = counts.get(key, 0) + len(str(index))
    matrix = _MATRIX
    for _ in range(8):
        matrix = (matrix @ _MATRIX) / 120.0
    return float(matrix[0, 0]) + len(counts)


def probe(repeats: int = 1) -> float:
    """Mean wall seconds of ``repeats`` back-to-back probes."""
    start = time.perf_counter()
    for _ in range(repeats):
        _work()
    return (time.perf_counter() - start) / repeats


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` of work timed among ``probes``, at the reference speed."""
    return seconds * REFERENCE_SECONDS / statistics.fmean(probes)
