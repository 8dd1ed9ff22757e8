"""Evaluation harness: metrics, dataset analogues and experiment runners.

Maps one-to-one onto the paper's Section 6 (``benchmarks/`` holds one
``bench_fig<N>_*.py`` per figure, each driving the runners below):

* :mod:`repro.eval.metrics` — 0/1 entity accuracy, set-F1 for types and
  relations, average precision / MAP,
* :mod:`repro.eval.datasets` — generated analogues of Wiki Manual,
  Web Manual, Web Relations and Wiki Link (Figure 5),
* :mod:`repro.eval.workload` — the search query workload and corpus
  (Appendix G / Figure 9),
* :mod:`repro.eval.experiments` — one runner per figure,
* :mod:`repro.eval.reporting` — plain-text table formatting used by the
  benchmark harness.
"""

from repro.eval.datasets import EvalDataset, build_standard_datasets
from repro.eval.metrics import (
    average_precision,
    entity_accuracy,
    mean_average_precision,
    set_f1,
)
from repro.eval.reporting import format_table

__all__ = [
    "EvalDataset",
    "average_precision",
    "build_standard_datasets",
    "entity_accuracy",
    "format_table",
    "mean_average_precision",
    "set_f1",
]
