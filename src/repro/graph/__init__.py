"""Fused max-product belief propagation.

The paper's collective inference (Section 4.4, Appendix D) is message passing
on a factor graph whose variable nodes are the type (``tc``), entity
(``erc``) and relation (``bcc'``) variables, and whose factor nodes are the
coupling potentials φ3, φ4, φ5 (φ1 and φ2 are unary and folded into the
variables).  :mod:`repro.graph.fused` is the engine every annotation runs
on: the paper's Figure-11 schedule as vectorised block updates over stacked
factor tensors spanning a bucket of tables.  The per-edge reference engine
it is tested against lives in ``tests/oracles``.
"""
