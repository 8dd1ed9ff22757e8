"""Reference implementations the production annotation path is tested against.

Production annotation runs one path: the array-backed candidate engine
(:mod:`repro.core.candidates`) and feature computer
(:mod:`repro.core.problem`) feeding fused max-product BP
(:mod:`repro.graph.fused`, driven by :mod:`repro.core.fused`).  The scalar
paths kept here define what that path must compute, and the equivalence and
byte-identity tests compare the two:

* :func:`dense_search` (:mod:`tests.oracles.retrieval`) ranks an inverted
  index's documents for one query over a dense score vector,
* :class:`CandidateGenerator` answers ``Erc`` / ``Tc`` / ``Bcc'`` per cell
  straight from the catalog (``Erc`` through :func:`dense_search`), as
  :class:`CandidateEntity` lists and label lists (:class:`EngineQueries`
  puts the production engine behind the same signatures),
* :class:`ScalarFeatureComputer` assembles f1 to f5 blocks one element at
  a time,
* :func:`scalar_build_problem` builds a table's problem from the two, row
  by row,
* :func:`build_factor_graph` materialises a problem under a model as a
  per-table :class:`FactorGraph` (:mod:`tests.oracles.bp`),
* :func:`run_scalar_paper_schedule` drives the per-edge scalar engine
  (:class:`MaxProductBP`, same module) through the Figure-11 schedule,
* :func:`scalar_decode` turns its beliefs into a ``TableAnnotation``,
* :func:`scalar_annotate_problem` is the two together (or generic flooding,
  the design ablation's schedule),
* :class:`OracleAnnotator` builds problems through the two classes above
  and annotates them with the scalar engine — either half can be swapped
  for its production counterpart to check one layer at a time,
* :func:`wire` is the ``/annotate`` body the identity tests compare.

:mod:`tests.oracles.search` does the same for search: its searchers score
every row of every candidate column with ``cosine_tfidf``, the loops the
production searchers' token postings replaced.
"""

from tests.oracles.bp import Factor, FactorGraph, MaxProductBP, Variable
from tests.oracles.retrieval import dense_search
from tests.oracles.scalar import (
    SCHEDULES,
    CandidateEntity,
    CandidateGenerator,
    EngineQueries,
    OracleAnnotator,
    ScalarFeatureComputer,
    build_factor_graph,
    run_scalar_paper_schedule,
    scalar_annotate_problem,
    scalar_build_problem,
    scalar_decode,
    wire,
)

__all__ = [
    "SCHEDULES",
    "CandidateEntity",
    "CandidateGenerator",
    "EngineQueries",
    "Factor",
    "FactorGraph",
    "MaxProductBP",
    "OracleAnnotator",
    "ScalarFeatureComputer",
    "Variable",
    "build_factor_graph",
    "dense_search",
    "run_scalar_paper_schedule",
    "scalar_annotate_problem",
    "scalar_build_problem",
    "scalar_decode",
    "wire",
]
