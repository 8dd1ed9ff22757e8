"""Reference implementations the production annotation path is tested against.

Production annotation runs one path: array-backed candidates
(:mod:`repro.core.candidates_batched`) feeding fused max-product BP
(:mod:`repro.graph.fused`, driven by :mod:`repro.core.fused`).  The scalar
paths kept here define what that path must compute, and the byte-identity
tests compare the two:

* :func:`run_scalar_paper_schedule` drives the per-edge scalar engine
  (:class:`repro.graph.bp.MaxProductBP`) through the Figure-11 schedule,
* :func:`scalar_decode` turns its beliefs into a ``TableAnnotation``,
* :func:`scalar_annotate_problem` is the two together (or generic flooding,
  the design ablation's schedule),
* :class:`OracleAnnotator` builds problems through the scalar
  ``CandidateGenerator`` / ``FeatureComputer`` path and annotates them with
  the scalar engine — either half can be swapped for its production
  counterpart to check one layer at a time.
"""

from tests.oracles.scalar import (
    SCHEDULES,
    OracleAnnotator,
    run_scalar_paper_schedule,
    scalar_annotate_problem,
    scalar_decode,
)

__all__ = [
    "SCHEDULES",
    "OracleAnnotator",
    "run_scalar_paper_schedule",
    "scalar_annotate_problem",
    "scalar_decode",
]
