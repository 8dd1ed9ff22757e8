"""The per-edge reference engine: a log-space factor graph and scalar
max-product BP over it.

Variables have finite domains; potentials are stored as **log**-potentials
throughout, so products of the paper's equation (1) become sums.  A
factor's table is a dense :mod:`numpy` array with one axis per attached
variable, in the order given at construction.

:class:`MaxProductBP` implements the message equations of the paper's
Appendix B/D in log space:

* variable → factor:  ``M(i→f) = unary_i + Σ_{g≠f} M(g→i)``
* factor → variable:  ``M(f→i) = max_{x_{-i}} [ table + Σ_{j≠i} M(j→f) ]``

one message per Python call, stored in dictionaries keyed by (variable,
factor) edges.  Messages are normalised (max subtracted) after every
update so repeated iterations cannot drift.  The update primitives let
:func:`~tests.oracles.scalar.run_scalar_paper_schedule` drive the paper's
Figure-11 schedule; :meth:`MaxProductBP.run_flooding` is a generic
synchronous schedule with convergence detection (the design ablation's
alternative).  Production runs the same schedule fused
(:mod:`repro.graph.fused`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np


@dataclass
class Variable:
    """A discrete variable node.

    Attributes:
        name: Graph-unique identifier (e.g. ``"t:2"`` or ``"e:3,1"``).
        domain: The label values; position in this sequence is the index used
            in all arrays.  Must be non-empty.
        unary: Log-potential per domain value (φ1/φ2 of the paper live here).
        kind: Free-form tag ("type" / "entity" / "relation") used by custom
            schedules to group nodes.
    """

    name: str
    domain: tuple[Hashable, ...]
    unary: np.ndarray
    kind: str = ""

    def __post_init__(self) -> None:
        self.domain = tuple(self.domain)
        if not self.domain:
            raise ValueError(f"variable {self.name!r} has an empty domain")
        self.unary = np.asarray(self.unary, dtype=float)
        if self.unary.shape != (len(self.domain),):
            raise ValueError(
                f"variable {self.name!r}: unary shape {self.unary.shape} does "
                f"not match domain size {len(self.domain)}"
            )

    @property
    def size(self) -> int:
        return len(self.domain)

    def index_of(self, label: Hashable) -> int:
        return self.domain.index(label)


@dataclass
class Factor:
    """A factor node coupling two or more variables.

    Attributes:
        name: Graph-unique identifier (e.g. ``"phi3:c2"``).
        variables: Names of attached variables; axis order of ``table``.
        table: Dense log-potential array, shape = variable domain sizes.
        kind: Tag used by custom schedules ("phi3" / "phi4" / "phi5").
    """

    name: str
    variables: tuple[str, ...]
    table: np.ndarray
    kind: str = ""

    def __post_init__(self) -> None:
        self.variables = tuple(self.variables)
        if len(self.variables) < 2:
            raise ValueError(
                f"factor {self.name!r} must couple at least two variables; "
                "fold unary terms into Variable.unary instead"
            )
        self.table = np.asarray(self.table, dtype=float)
        if self.table.ndim != len(self.variables):
            raise ValueError(
                f"factor {self.name!r}: table rank {self.table.ndim} does not "
                f"match {len(self.variables)} variables"
            )

    def axis_of(self, variable_name: str) -> int:
        return self.variables.index(variable_name)


@dataclass
class FactorGraph:
    """A bipartite graph of :class:`Variable` and :class:`Factor` nodes."""

    variables: dict[str, Variable] = field(default_factory=dict)
    factors: dict[str, Factor] = field(default_factory=dict)
    _var_factors: dict[str, list[str]] = field(default_factory=dict)

    def add_variable(
        self,
        name: str,
        domain: Sequence[Hashable],
        unary: np.ndarray | Sequence[float],
        kind: str = "",
    ) -> Variable:
        if name in self.variables:
            raise ValueError(f"duplicate variable name: {name!r}")
        variable = Variable(name=name, domain=tuple(domain), unary=np.asarray(unary), kind=kind)
        self.variables[name] = variable
        self._var_factors[name] = []
        return variable

    def add_factor(
        self,
        name: str,
        variables: Sequence[str],
        table: np.ndarray,
        kind: str = "",
    ) -> Factor:
        if name in self.factors:
            raise ValueError(f"duplicate factor name: {name!r}")
        for variable_name in variables:
            if variable_name not in self.variables:
                raise KeyError(f"factor {name!r} references unknown variable {variable_name!r}")
        factor = Factor(name=name, variables=tuple(variables), table=np.asarray(table), kind=kind)
        expected_shape = tuple(self.variables[v].size for v in factor.variables)
        if factor.table.shape != expected_shape:
            raise ValueError(
                f"factor {name!r}: table shape {factor.table.shape} does not "
                f"match variable domains {expected_shape}"
            )
        self.factors[name] = factor
        for variable_name in variables:
            self._var_factors[variable_name].append(name)
        return factor

    def factors_of(self, variable_name: str) -> list[str]:
        """Names of factors attached to a variable (insertion order)."""
        return list(self._var_factors[variable_name])

    def score(self, assignment: dict[str, Hashable]) -> float:
        """Total log-score of a full assignment (the log of objective (1))."""
        total = 0.0
        for name, variable in self.variables.items():
            total += float(variable.unary[variable.index_of(assignment[name])])
        for factor in self.factors.values():
            indices = tuple(
                self.variables[v].index_of(assignment[v]) for v in factor.variables
            )
            total += float(factor.table[indices])
        return total


@dataclass
class BPResult:
    """Outcome of an inference run."""

    assignment: dict[str, Hashable]
    iterations: int
    converged: bool
    log_score: float
    max_beliefs: dict[str, float] = field(default_factory=dict)


class MaxProductBP:
    """Max-product BP over a :class:`FactorGraph`."""

    def __init__(self, graph: FactorGraph) -> None:
        self.graph = graph
        # messages keyed by (variable, factor) pairs, stored as log arrays
        self._var_to_factor: dict[tuple[str, str], np.ndarray] = {}
        self._factor_to_var: dict[tuple[str, str], np.ndarray] = {}
        for factor in graph.factors.values():
            for variable_name in factor.variables:
                size = graph.variables[variable_name].size
                self._var_to_factor[(variable_name, factor.name)] = np.zeros(
                    size, dtype=np.float64
                )
                self._factor_to_var[(factor.name, variable_name)] = np.zeros(
                    size, dtype=np.float64
                )

    # ------------------------------------------------------------------
    # message primitives
    # ------------------------------------------------------------------
    def update_var_to_factor(self, variable_name: str, factor_name: str) -> float:
        """Recompute ``M(variable → factor)``; returns the max abs change."""
        variable = self.graph.variables[variable_name]
        message = variable.unary.copy()
        for other_factor in self.graph.factors_of(variable_name):
            if other_factor == factor_name:
                continue
            message = message + self._factor_to_var[(other_factor, variable_name)]
        message = message - message.max()
        key = (variable_name, factor_name)
        return self._store(self._var_to_factor, key, message)

    def update_factor_to_var(self, factor_name: str, variable_name: str) -> float:
        """Recompute ``M(factor → variable)``; returns the max abs change."""
        factor = self.graph.factors[factor_name]
        work = factor.table
        target_axis = factor.axis_of(variable_name)
        for axis, other_name in enumerate(factor.variables):
            if other_name == variable_name:
                continue
            incoming = self._var_to_factor[(other_name, factor.name)]
            shape = [1] * work.ndim
            shape[axis] = incoming.shape[0]
            work = work + incoming.reshape(shape)
        reduce_axes = tuple(
            axis for axis in range(work.ndim) if axis != target_axis
        )
        message = work.max(axis=reduce_axes) if reduce_axes else work
        message = message - message.max()
        key = (factor_name, variable_name)
        return self._store(self._factor_to_var, key, message)

    def _store(
        self,
        table: dict[tuple[str, str], np.ndarray],
        key: tuple[str, str],
        message: np.ndarray,
    ) -> float:
        """Store a freshly computed message; returns its max abs change."""
        old = table[key]
        delta = float(np.max(np.abs(message - old))) if old.size else 0.0
        table[key] = message
        return delta

    # ------------------------------------------------------------------
    # beliefs and decoding
    # ------------------------------------------------------------------
    def belief(self, variable_name: str) -> np.ndarray:
        """Max-marginal log-belief of a variable (normalised to max 0)."""
        variable = self.graph.variables[variable_name]
        belief = variable.unary.copy()
        for factor_name in self.graph.factors_of(variable_name):
            belief = belief + self._factor_to_var[(factor_name, variable_name)]
        return belief - belief.max()

    def map_assignment(self) -> dict[str, Hashable]:
        """Per-variable argmax decoding with deterministic tie-breaking.

        Ties are broken toward the *earlier* domain position, which callers
        arrange to be the higher-prior label (the annotator puts ``na`` at
        position 0, so zero-evidence ties resolve to na).
        """
        assignment: dict[str, Hashable] = {}
        for name, variable in self.graph.variables.items():
            belief = self.belief(name)
            assignment[name] = variable.domain[int(np.argmax(belief))]
        return assignment

    # ------------------------------------------------------------------
    # generic schedule
    # ------------------------------------------------------------------
    def run_flooding(
        self, max_iterations: int = 20, tolerance: float = 1e-6
    ) -> BPResult:
        """Synchronous flooding schedule until message convergence."""
        iterations = 0
        converged = False
        for iterations in range(1, max_iterations + 1):  # noqa: B007 - read after loop
            delta = 0.0
            for factor in self.graph.factors.values():
                for variable_name in factor.variables:
                    delta = max(
                        delta, self.update_var_to_factor(variable_name, factor.name)
                    )
            for factor in self.graph.factors.values():
                for variable_name in factor.variables:
                    delta = max(
                        delta, self.update_factor_to_var(factor.name, variable_name)
                    )
            if delta < tolerance:
                converged = True
                break
        assignment = self.map_assignment()
        return BPResult(
            assignment=assignment,
            iterations=iterations,
            converged=converged,
            log_score=self.graph.score(assignment),
            max_beliefs={
                name: float(self.belief(name).max())
                for name in self.graph.variables
            },
        )
