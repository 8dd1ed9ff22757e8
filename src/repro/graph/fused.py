"""Fused belief propagation: one super-graph per bucket of tables.

Every table is annotated through this engine; a lone table is a bucket of
one.  The factor graphs of a bucket are merged into one :class:`FusedGraph`
whose blocks span tables: factors are grouped by kind and per-table bucket
rank into stacked ``(n_factors, *shape)`` tensors, ragged domains padded
with ``-inf``.  Every Figure-11 half-step then becomes a gather, a broadcast
add and a max-reduction over a few large tensors for the *entire bucket*,
instead of a Python loop over edges or tables.

Fusing is sound because per-table factor graphs are disconnected components:
no factor ever connects variables of two tables, so messages never flow
between tables and each table's trajectory is the one it would follow
alone.  Three details make it *bit*-exact, so a table's annotation does not
depend on its batchmates:

* **Row ordering.**  Within a fused block, each table's factors keep their
  graph insertion order, and fused blocks of one kind are indexed by the
  per-table bucket *rank* (a table's first ``(arity, head size)`` group of
  that kind feeds fused block 0, its second feeds block 1, …).  Scatter-adds
  into the running belief totals therefore replay each table's
  float-summation order exactly, whatever else shares the bucket.
* **Padding.**  Every axis may be padded (tables with different domain
  sizes share a block).  Padded slots hold ``-inf`` log-potentials and
  ``-inf`` unaries; max-reductions ignore them, factor→variable messages are
  zeroed there before scattering, and the validity masks exclude them from
  convergence deltas — so padded slots never perturb a real slot's value.
* **Per-table freezing.**  Convergence is tracked per table: once a table's
  iteration delta drops below :data:`TOLERANCE` its rows stop updating (stored
  messages are kept, scatter contributions become exact ``+0.0``), which
  reproduces a lone run's early stopping — including the reported iteration
  counts — inside one fused run.

Variable→factor messages use the exclusive-sum trick (``running total −
incoming``), with the running totals maintained incrementally through
precompiled :class:`ScatterPlan` scatters; the trick assumes **finite**
log-potentials.  The scalar per-edge engine in ``tests/oracles`` is the
reference; it runs through the same schedule there, and the byte-identity
tests compare the two.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass
class ScatterPlan:
    """Precompiled row-scatter: add per-factor message rows into variables.

    Buckets the ``(n_factors,)`` variable ids of one block position at
    compile time so every runtime scatter is a pure NumPy call even when the
    same variable receives several rows (e.g. one relation variable fed by
    every φ5 row factor of its column pair).
    """

    #: distinct destination variable ids, one per group
    unique_ids: np.ndarray
    #: factor slots reordered so equal destinations are contiguous; None
    #: when they already are
    order: np.ndarray | None
    #: group starts into the (reordered) slots, one per unique id
    starts: np.ndarray
    #: True when every destination is distinct (plain fancy-index add works)
    all_unique: bool

    @classmethod
    def of_runs(
        cls, run_ids: np.ndarray, starts: np.ndarray, n_rows: int
    ) -> "ScatterPlan":
        """Rows already grouped: the run from ``starts[i]`` to the next
        start goes to ``run_ids[i]``, and no two runs share an id."""
        return cls(
            unique_ids=run_ids,
            order=None,
            starts=starts,
            all_unique=len(run_ids) == n_rows,
        )

    @classmethod
    def for_ids(cls, ids: np.ndarray) -> "ScatterPlan":
        order = np.argsort(ids, kind="stable")
        ordered = ids[order]
        boundaries = np.ones(len(ordered), dtype=bool)
        boundaries[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(boundaries)
        unique_ids = ordered[starts]
        return cls(
            unique_ids=unique_ids,
            order=order,
            starts=starts,
            all_unique=len(unique_ids) == len(ids),
        )

    def add(self, destination: np.ndarray, rows: np.ndarray, ids: np.ndarray) -> None:
        """``destination[ids] += rows`` with correct duplicate handling."""
        if self.all_unique:
            destination[ids] += rows
        else:
            grouped = rows if self.order is None else rows[self.order]
            destination[self.unique_ids] += np.add.reduceat(
                grouped, self.starts, axis=0
            )


#: the Figure-11 block schedule as (factor kind, var→factor positions,
#: factor→var positions) half-steps — position 0 is the type/relation head,
#: positions 1+ are the tail variables (see build_fused_bundle)
PAPER_SCHEDULE: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("phi3", (1,), (0,)),
    ("phi3", (0,), (1,)),
    ("phi5", (1, 2), (0,)),
    ("phi5", (0,), (1, 2)),
    ("phi4", (1, 2), (0,)),
    ("phi4", (0,), (1, 2)),
)

#: the convergence threshold of every annotation BP run: a table stops once
#: no message of one iteration moved by this much
TOLERANCE = 1e-5


#: reusable per-thread work tensors: the factor→variable update's summed
#: potentials are the largest arrays the engine touches, and allocating
#: them fresh every call costs page faults that rival the arithmetic
_SCRATCH = threading.local()


def _borrow(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """A per-thread scratch array of ``shape``, reused across calls.

    Each role owns one growing buffer; callers must finish with a borrowed
    view before borrowing the same role again.  Every element is written by
    the ufunc ``out=`` before being read, so stale contents are harmless.
    """
    buffers = _SCRATCH.__dict__.setdefault("buffers", {})
    count = math.prod(shape)
    buffer = buffers.get(role)
    if buffer is None or buffer.size < count:
        buffers[role] = buffer = np.empty(count, dtype=np.float64)
    return buffer[:count].reshape(shape)


@dataclass
class FusedBlock:
    """All factors of one (kind, per-table bucket rank), across tables."""

    kind: str
    #: padded domain sizes per argument position (every axis may be padded)
    shape: tuple[int, ...]
    #: stacked log-potentials, shape ``(n_factors, *shape)``; padded slots
    #: hold ``-inf`` so they can never win a max-marginalisation
    tables: np.ndarray
    #: global variable ids per position, shape ``(n_positions, n_factors)``
    var_ids: np.ndarray
    #: owning table index per factor row, shape ``(n_factors,)``
    table_ids: np.ndarray
    #: per position: boolean (n_factors, shape[p]) mask of real domain slots
    valid: tuple[np.ndarray, ...]
    #: per position: True when every slot is real (no padding on that axis),
    #: letting updates skip the masked-subtract and zeroing passes
    uniform: tuple[bool, ...]
    #: first factor-row index of each table's contiguous run of rows
    group_starts: np.ndarray
    #: owning table index per run, aligned with ``group_starts``
    group_tables: np.ndarray
    #: per position: precompiled scatter of message rows into variable totals
    scatter: tuple[ScatterPlan, ...]

    @property
    def n_factors(self) -> int:
        return len(self.table_ids)

    @property
    def n_positions(self) -> int:
        return len(self.shape)


class FusedGraph:
    """The disconnected union of a bucket's factor graphs, block-stacked.

    Purely structural — construction (from per-table annotation problems)
    lives in :mod:`repro.core.fused`; this class only carries the arrays the
    fused engine runs on.  Instances are immutable and shareable across
    engines and threads (each engine owns its message state).
    """

    def __init__(
        self,
        sizes: np.ndarray,
        unaries: np.ndarray,
        var_table_ids: np.ndarray,
        blocks: list[FusedBlock],
        kind_blocks: dict[str, list[int]],
        n_tables: int,
    ) -> None:
        self.sizes = sizes
        self.unaries = unaries
        self.var_table_ids = var_table_ids
        self.blocks = blocks
        self.kind_blocks = kind_blocks
        self.n_tables = n_tables

    @property
    def n_variables(self) -> int:
        return len(self.sizes)

    @property
    def n_factors(self) -> int:
        return sum(block.n_factors for block in self.blocks)


class FusedMaxProductBP:
    """Max-product BP over a :class:`FusedGraph` with per-table freezing.

    The update rules are the per-edge reference engine's (``tests/oracles``)
    applied a block at a time —
    gather / exclusive-sum / max-reduce / normalise, messages normalised to
    max 0 after every update, convergence measured on the largest message
    change.  The per-table ``active`` mask (frozen tables keep their stored
    messages and contribute exact ``+0.0`` to the totals) and per-table
    delta accounting give every table the early stopping of a lone run.

    Message state per (block, position) is an ``(n_factors, size)`` array;
    variable→factor messages hold ``-inf`` at padded slots, factor→variable
    messages hold ``0`` there so the running belief totals stay finite
    arithmetic away from the padding.
    """

    def __init__(self, fused: FusedGraph) -> None:
        self.fused = fused
        self._var_to_factor: list[list[np.ndarray]] = [
            [
                np.where(block.valid[position], 0.0, -np.inf)
                for position in range(block.n_positions)
            ]
            for block in fused.blocks
        ]
        self._factor_to_var: list[list[np.ndarray]] = [
            [
                np.zeros((block.n_factors, size), dtype=np.float64)
                for size in block.shape
            ]
            for block in fused.blocks
        ]
        self._totals = fused.unaries.copy()
        self._active = np.ones(fused.n_tables, dtype=bool)
        self._deltas = np.zeros(fused.n_tables, dtype=np.float64)
        self._belief_matrix: np.ndarray | None = None
        # per-block row selections are pure functions of the frozen set, so
        # they are cached between freezes
        self._selection_cache: dict[
            int, tuple[slice | np.ndarray, int, tuple[np.ndarray, np.ndarray]] | None
        ] = {}

    # ------------------------------------------------------------------
    # block primitives
    # ------------------------------------------------------------------
    def _accumulate_delta(
        self,
        groups: tuple[np.ndarray, np.ndarray],
        message: np.ndarray,
        old: np.ndarray,
        valid: np.ndarray | None,
    ) -> None:
        """Fold one update's per-row deltas into the per-table maxima.

        ``groups`` is ``(group_starts, group_tables)`` — each table's
        contiguous run of rows — so one flat ``maximum.reduceat`` yields all
        per-table maxima at once (each table appears once, making the plain
        fancy assignment safe).  ``valid`` masks the subtraction where
        messages carry ``-inf`` at padded slots (``-inf - -inf`` would be
        NaN); pass ``None`` when both operands are finite everywhere
        (uniform blocks) — the plain subtraction yields the identical delta.
        """
        if not message.size:
            return
        difference = _borrow("delta", message.shape)
        if valid is None:
            np.subtract(message, old, out=difference)
        else:
            difference.fill(0.0)
            np.subtract(message, old, out=difference, where=valid)
        np.abs(difference, out=difference)
        starts, tables = groups
        group_delta = np.maximum.reduceat(
            difference.reshape(-1), starts * message.shape[1]
        )
        self._deltas[tables] = np.maximum(self._deltas[tables], group_delta)

    def _accumulate_abs_delta(
        self,
        groups: tuple[np.ndarray, np.ndarray],
        difference: np.ndarray,
    ) -> None:
        """`_accumulate_delta` for a caller that already holds the diff.

        ``difference`` is left untouched (the caller reuses it for the
        totals scatter), so the absolute values land in separate scratch.
        """
        if not difference.size:
            return
        magnitude = _borrow("delta", difference.shape)
        np.abs(difference, out=magnitude)
        starts, tables = groups
        group_delta = np.maximum.reduceat(
            magnitude.reshape(-1), starts * difference.shape[1]
        )
        self._deltas[tables] = np.maximum(self._deltas[tables], group_delta)

    def _active_block_rows(
        self, block_id: int, block: FusedBlock
    ) -> tuple[slice | np.ndarray, int, tuple[np.ndarray, np.ndarray]] | None:
        """Row selector and delta groups for a block's still-active tables.

        Returns ``None`` when every owning table froze (the whole update is
        a no-op: a lone run performs no updates after it converges).  Otherwise returns ``(rows, n_rows, groups)`` where ``rows``
        is ``slice(None)`` when all rows are active and an index array when
        frozen rows must be compacted out, and ``groups`` are the per-table
        row runs for delta accounting.  Skipping frozen rows entirely is
        exact: a frozen table's variables receive messages only from its own
        factors, so every value the skipped work would touch stays bitwise
        untouched — precisely a lone run's early stopping.

        The selection only depends on the frozen set, so it is computed once
        per block per freeze epoch (six half-steps reuse it each iteration).
        """
        if block_id in self._selection_cache:
            return self._selection_cache[block_id]
        active_rows = self._active[block.table_ids]
        selection: (
            tuple[slice | np.ndarray, int, tuple[np.ndarray, np.ndarray]] | None
        )
        if active_rows.all():
            selection = (
                slice(None),
                len(block.table_ids),
                (block.group_starts, block.group_tables),
            )
        elif not active_rows.any():
            selection = None
        else:
            rows = np.flatnonzero(active_rows)
            table_ids = block.table_ids[rows]
            # compacted rows keep each surviving table's run contiguous, so
            # the group boundaries are just the remaining table-id changes
            boundaries = np.flatnonzero(table_ids[1:] != table_ids[:-1]) + 1
            starts = np.concatenate(([0], boundaries))
            selection = rows, len(rows), (starts, table_ids[starts])
        self._selection_cache[block_id] = selection
        return selection

    def update_block_vars_to_factor(
        self, block_id: int, positions: Iterable[int]
    ) -> None:
        """Batched ``M(variable → factor)``, frozen tables compacted out."""
        block = self.fused.blocks[block_id]
        selection = self._active_block_rows(block_id, block)
        if selection is None:
            return
        rows, _n_rows, groups = selection
        all_active = isinstance(rows, slice)
        store = self._var_to_factor[block_id]
        for position in positions:
            size = block.shape[position]
            var_ids = block.var_ids[position][rows]
            # the gather is a fresh copy, so the arithmetic can run in place
            message = self._totals[var_ids, :size]
            np.subtract(
                message,
                self._factor_to_var[block_id][position][rows],
                out=message,
            )
            np.subtract(
                message, message.max(axis=1, keepdims=True), out=message
            )
            old = store[position] if all_active else store[position][rows]
            self._accumulate_delta(
                groups,
                message,
                old,
                None if block.uniform[position] else block.valid[position][rows],
            )
            if all_active:
                store[position] = message
            else:
                store[position][rows] = message
        self._belief_matrix = None

    def update_block_factor_to_vars(
        self, block_id: int, positions: Iterable[int]
    ) -> None:
        """Batched ``M(factor → variable)``, frozen tables compacted out."""
        block = self.fused.blocks[block_id]
        selection = self._active_block_rows(block_id, block)
        if selection is None:
            return
        rows, n_rows, groups = selection
        all_active = isinstance(rows, slice)
        store = self._factor_to_var[block_id]
        targets = list(positions)
        reshaped: list[np.ndarray] = []
        for position in range(block.n_positions):
            incoming = self._var_to_factor[block_id][position]
            shape = [n_rows] + [1] * block.n_positions
            shape[position + 1] = block.shape[position]
            reshaped.append(incoming[rows].reshape(shape))
        # the non-target incomings are common to every target's work tensor:
        # fold them into one shared base instead of re-adding per target
        base = block.tables[rows]
        for position in range(block.n_positions):
            if position not in targets:
                out = _borrow("f2v-base", base.shape)
                np.add(base, reshaped[position], out=out)
                base = out
        for target in targets:
            work = base
            for position in targets:
                if position != target:
                    out = _borrow("f2v-work", work.shape)
                    np.add(work, reshaped[position], out=out)
                    work = out
            reduce_axes = tuple(
                axis + 1 for axis in range(block.n_positions) if axis != target
            )
            # the reduction materialises a fresh array (work may be scratch,
            # so the no-reduction case must copy before the in-place steps)
            message = (
                work.max(axis=reduce_axes) if reduce_axes else work.copy()
            )
            np.subtract(
                message, message.max(axis=1, keepdims=True), out=message
            )
            if not block.uniform[target]:
                message = np.where(block.valid[target][rows], message, 0.0)
            old = store[target] if all_active else store[target][rows]
            # the delta diff and the scatter diff coincide: compute it once
            # and fold |diff| into the per-table maxima (both operands are
            # exactly 0.0 at invalid slots, so no mask is needed)
            difference = _borrow("f2v-diff", message.shape)
            np.subtract(message, old, out=difference)
            self._accumulate_abs_delta(groups, difference)
            var_ids = block.var_ids[target][rows]
            plan = block.scatter[target] if all_active else ScatterPlan.for_ids(var_ids)
            # a variable's factor rows all live in one table, so compaction
            # drops whole scatter groups (whose deltas would be exact +0.0)
            # and keeps the surviving groups' float-summation order intact
            plan.add(
                self._totals[:, : block.shape[target]], difference, var_ids
            )
            if all_active:
                store[target] = message
            else:
                store[target][rows] = message
        self._belief_matrix = None

    # ------------------------------------------------------------------
    # schedule
    # ------------------------------------------------------------------
    def run_paper_schedule(
        self, max_iterations: int = 10, tolerance: float = TOLERANCE
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Figure-11 block schedule with per-table early stopping.

        Returns ``(iterations, converged)`` arrays indexed by table: each
        table reports the iteration count and convergence flag it would
        have reported in a bucket of its own.
        """
        n_tables = self.fused.n_tables
        iterations = np.zeros(n_tables, dtype=np.intp)
        converged = np.zeros(n_tables, dtype=bool)
        for iteration in range(1, max_iterations + 1):
            self._deltas.fill(0.0)
            for kind, var_positions, factor_positions in PAPER_SCHEDULE:
                for block_id in self.fused.kind_blocks.get(kind, ()):
                    self.update_block_vars_to_factor(block_id, var_positions)
                for block_id in self.fused.kind_blocks.get(kind, ()):
                    self.update_block_factor_to_vars(block_id, factor_positions)
            iterations[self._active] = iteration
            newly_frozen = self._active & (self._deltas < tolerance)
            if newly_frozen.any():
                converged |= newly_frozen
                self._active &= ~newly_frozen
                self._selection_cache.clear()
                if not self._active.any():
                    break
        return iterations, converged

    # ------------------------------------------------------------------
    # beliefs
    # ------------------------------------------------------------------
    def belief_matrix(self) -> np.ndarray:
        """All variable beliefs, shape ``(n_variables, max_size)``.

        Rows are normalised to max 0; slots beyond a variable's domain are
        ``-inf``.  Cached until the next message update.
        """
        if self._belief_matrix is None:
            self._belief_matrix = self._totals - self._totals.max(
                axis=1, keepdims=True
            )
        return self._belief_matrix

    def belief(self, variable_id: int) -> np.ndarray:
        """Max-marginal log-belief of one variable (normalised to max 0)."""
        return self.belief_matrix()[variable_id, : self.fused.sizes[variable_id]]
