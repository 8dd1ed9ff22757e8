"""Generic factor-graph representation and max-product belief propagation.

The paper's collective inference (Section 4.4, Appendix D) is message passing
on a factor graph whose variable nodes are the type (``tc``), entity
(``erc``) and relation (``bcc'``) variables, and whose factor nodes are the
coupling potentials φ3, φ4, φ5 (φ1 and φ2 are unary and folded into the
variables).  This package provides the graph container
(:mod:`repro.graph.factor_graph`), a log-space scalar engine with a generic
flooding schedule and the sum-product variant behind annotation marginals
(:mod:`repro.graph.bp`), and the fused engine every annotation runs on: the
paper's Figure-11 schedule as vectorised block updates over stacked factor
tensors spanning a bucket of tables (:mod:`repro.graph.fused`).
"""

from repro.graph.bp import BPResult, MaxProductBP, SumProductBP
from repro.graph.factor_graph import Factor, FactorGraph, Variable

__all__ = [
    "BPResult",
    "Factor",
    "FactorGraph",
    "MaxProductBP",
    "SumProductBP",
    "Variable",
]
