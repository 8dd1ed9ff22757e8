"""Fused annotation: a bucket of tables as one BP run.

Every annotation goes through here — a lone table is a bucket of one, and
the answer-cache misses of a corpus batch or of a served worker round trip
are cut, in arrival order, into fused runs under one cell budget
(:func:`fused_runs`) first.  For one bucket this module

1. **resolves candidates** for every distinct cell text of the bucket in
   one candidate-engine call
   (:meth:`~repro.core.annotator.TableAnnotator.resolve_candidates`) and
   builds every table's :class:`~repro.core.problem.AnnotationProblem`
   from them in one :func:`~repro.core.problem.build_problems` call (one
   f1 and one f2 battery pass for the whole bucket),
2. **compiles one fused graph** for the whole bucket directly from the
   per-table :class:`~repro.core.problem.AnnotationProblem` arrays — one
   matrix product per column (φ3), per column pair (φ4, φ5) and per bucket
   (f1 unaries), with the na rows and columns left at zero, written
   through index arrays into the cross-table block tensors of
   :class:`~repro.graph.fused.FusedGraph`, and
3. **runs one** :class:`~repro.graph.fused.FusedMaxProductBP` schedule with
   per-table freezing, then decodes every table's annotation with vectorised
   argmax / margin computation.

Nothing here is cached.  A table's labels, scores, iteration count and
convergence flag do not depend on its batchmates (see the ordering and
padding analysis in :mod:`repro.graph.fused`), so the pipeline caches
whole answers per table (:meth:`~repro.pipeline.AnnotationPipeline.answer`)
and sends only the tables it has not seen through here.  The scalar
reference in ``tests/oracles`` pins the wire output byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.annotation import (
    AnnotationTiming,
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.core.model import AnnotationModel
from repro.core.problem import (
    NA,
    AnnotationProblem,
    build_problems,
    candidate_products,
)
from repro.core.simple_inference import annotate_simple
from repro.graph.fused import (
    TOLERANCE,
    FusedBlock,
    FusedGraph,
    FusedMaxProductBP,
    ScatterPlan,
)
from repro.tables.model import Table

if TYPE_CHECKING:  # the annotator module imports this one
    from repro.core.annotator import AnnotatorConfig, TableAnnotator


# ----------------------------------------------------------------------
# fused compilation
# ----------------------------------------------------------------------
@dataclass
class TableDecodeSpec:
    """Where one table's variables sit in the fused graph.

    A table's variables are numbered in its problem's variable order from
    ``first_var``: each column's cells, then the type variables, then the
    relation variables.
    """

    table_index: int
    problem: AnnotationProblem
    first_var: int
    #: variable id of each column's first cell (its cells follow in order)
    cell_starts: list[int]
    #: each column's type variable id, -1 for a column without one
    type_vars: list[int]
    #: variable id of ``problem.pairs[0]`` (the rest follow in order)
    first_pair: int
    n_variables: int
    n_factors: int

    def variable_ids(self) -> dict[str, int]:
        """Variable name -> fused variable id."""
        return {
            name: self.first_var + offset
            for offset, (name, _domain) in enumerate(self.problem.variables())
        }


@dataclass
class FusedBundle:
    """A compiled fused graph plus everything needed to decode it."""

    graph: FusedGraph
    specs: list[TableDecodeSpec]


#: factor kinds in block order
KINDS = ("phi3", "phi4", "phi5")


class _Segment(NamedTuple):
    """A run of one kind's factors that share their head variable.

    φ3: a column's cells under its type variable; φ4: a pair's one factor
    over the two type variables; φ5: a pair's rows over their two cells.
    """

    head: int
    head_size: int
    #: per tail position: each factor's variable id
    tails: tuple[np.ndarray, ...]
    #: per tail position: each factor's concrete domain size
    counts: tuple[np.ndarray, ...]
    #: per tail position: the column the tail variables belong to
    owners: tuple[int, ...]
    #: concrete potentials, shape (head_size - 1, Σ Π counts): factor after
    #: factor, each factor's tail block flattened row-major
    values: np.ndarray
    n_factors: int
    #: per tail position: the largest and the smallest domain size
    widest: tuple[int, ...]
    narrowest: tuple[int, ...]


def _segment(
    head: int,
    head_size: int,
    tails: tuple[np.ndarray, ...],
    counts: tuple[np.ndarray, ...],
    owners: tuple[int, ...],
    values: np.ndarray,
) -> _Segment:
    sizes = [count.tolist() for count in counts]
    return _Segment(
        head=head,
        head_size=head_size,
        tails=tails,
        counts=counts,
        owners=owners,
        values=values,
        n_factors=len(tails[0]),
        widest=tuple(max(size) + 1 for size in sizes),
        narrowest=tuple(min(size) + 1 for size in sizes),
    )


def _shape(segments: list[_Segment]) -> tuple[int, ...]:
    """The padded factor shape that holds every one of ``segments``."""
    return (max(segment.head_size for segment in segments),) + tuple(
        map(max, zip(*(segment.widest for segment in segments)))
    )


def _stage(
    staged: list[list[tuple[int, list[_Segment]]]],
    ranks: dict[int, int],
    table_index: int,
    segment: _Segment,
) -> None:
    """File one segment under its table's bucket rank for its kind.

    ``ranks`` is per table and kind: a table's first head size gets rank 0,
    its second rank 1, … in first-seen order.  Fusing by rank (not by head
    size) preserves each table's scatter-add sequence whatever its
    batchmates, which is what makes the fused totals independent of the
    bucket.  One table's head sizes are never merged into one block:
    merging its φ3 blocks across head sizes was measured to move belief
    bits, so ranks stay keyed by head size.
    """
    rank = ranks.setdefault(segment.head_size, len(ranks))
    while len(staged) <= rank:
        staged.append([])
    group = staged[rank]
    if not group or group[-1][0] != table_index:
        group.append((table_index, []))
    group[-1][1].append(segment)


def build_fused_bundle(
    problems: list[AnnotationProblem],
    model: AnnotationModel,
    unary_bonuses: list[dict[str, np.ndarray] | None] | None = None,
) -> FusedBundle:
    """Compile one fused graph for a bucket of annotation problems.

    Potentials are the matrix products of equation (1), zero wherever na is
    involved, bit-identical to the per-table factor graph the oracle in
    ``tests/oracles`` builds.  Each column's φ3, each pair's φ4 and φ5 and
    the bucket's f1 unaries are one product each
    (:func:`~repro.core.problem.candidate_products`), written into the
    cross-table block tensors through index arrays.

    ``unary_bonuses`` (one dict per problem, aligned with ``problems``) adds
    per-label terms to named variables before message passing — the
    structured learner's loss-augmented (Hamming cost) decoding.
    """
    specs: list[TableDecodeSpec] = []
    staged: dict[str, list[list[tuple[int, list[_Segment]]]]] = {
        kind: [] for kind in KINDS
    }
    sizes: list[np.ndarray] = []
    var_counts: list[int] = []
    cell_vars: list[np.ndarray] = []
    type_unaries: list[tuple[int, np.ndarray]] = []
    n_vars = 0
    for table_index, problem in enumerate(problems):
        ranks: dict[str, dict[int, int]] = {kind: {} for kind in KINDS}
        first_var = n_vars
        counts = [space.counts for space in problem.columns]
        cell_starts = list(accumulate([first_var] + [len(c) for c in counts]))
        n_vars = cell_starts.pop()
        type_vars: list[int] = []
        for space, start, column_counts in zip(problem.columns, cell_starts, counts):
            cells = np.arange(start, start + len(column_counts))
            cell_vars.append(cells)
            if not space.has_type:
                type_vars.append(-1)
                continue
            type_vars.append(n_vars)
            type_unaries.append((n_vars, space.f2 @ model.w2))
            _stage(
                staged["phi3"],
                ranks["phi3"],
                table_index,
                _segment(
                    head=n_vars,
                    head_size=len(space.types),
                    tails=(cells,),
                    counts=(column_counts,),
                    owners=(space.column,),
                    values=candidate_products(space.f3, space.offsets, model.w3),
                ),
            )
            n_vars += 1
        first_pair = n_vars
        n_factors = sum(len(c) for c, v in zip(counts, type_vars) if v >= 0)
        for space in problem.pairs:
            left = problem.columns[space.left]
            right = problem.columns[space.right]
            head_size = len(space.labels)
            _stage(
                staged["phi4"],
                ranks["phi4"],
                table_index,
                _segment(
                    head=n_vars,
                    head_size=head_size,
                    tails=tuple(
                        np.array([[type_vars[space.left]], [type_vars[space.right]]])
                    ),
                    counts=tuple(
                        np.array([[len(left.types) - 1], [len(right.types) - 1]])
                    ),
                    owners=(space.left, space.right),
                    values=(space.f4 @ model.w4).reshape(head_size - 1, -1),
                ),
            )
            _stage(
                staged["phi5"],
                ranks["phi5"],
                table_index,
                _segment(
                    head=n_vars,
                    head_size=head_size,
                    tails=(
                        cell_starts[space.left] + space.left_cells,
                        cell_starts[space.right] + space.right_cells,
                    ),
                    counts=(space.n_left, space.n_right),
                    owners=(space.left, space.right),
                    values=space.f5 @ model.w5,
                ),
            )
            n_vars += 1
            n_factors += 1 + len(space.left_cells)
        sizes += [c + 1 for c in counts]
        sizes.append(
            np.array(
                [len(space.types) for space in problem.columns if space.has_type]
                + [len(space.labels) for space in problem.pairs],
                dtype=np.intp,
            )
        )
        var_counts.append(n_vars - first_var)
        specs.append(
            TableDecodeSpec(
                table_index=table_index,
                problem=problem,
                first_var=first_var,
                cell_starts=cell_starts,
                type_vars=type_vars,
                first_pair=first_pair,
                n_variables=n_vars - first_var,
                n_factors=n_factors,
            )
        )

    sizes_array = np.concatenate(sizes or [np.zeros(0, dtype=np.intp)]).astype(
        np.intp, copy=False
    )
    unaries = _unaries(problems, model, sizes_array, cell_vars, type_unaries)
    for spec, bonus in zip(specs, unary_bonuses or ()):
        if not bonus:
            continue
        ids = spec.variable_ids()
        for name in sorted(bonus):
            var_id = ids.get(name)
            if var_id is not None:
                unaries[var_id, : sizes_array[var_id]] += np.asarray(
                    bonus[name], dtype=float
                )

    blocks: list[FusedBlock] = []
    kind_blocks: dict[str, list[int]] = {}
    for kind in KINDS:
        for group in staged[kind]:
            for partition in _partition_rank_group(group):
                kind_blocks.setdefault(kind, []).append(len(blocks))
                blocks.append(_fused_block(kind, partition))

    graph = FusedGraph(
        sizes=sizes_array,
        unaries=unaries,
        var_table_ids=np.repeat(np.arange(len(problems)), var_counts),
        blocks=blocks,
        kind_blocks=kind_blocks,
        n_tables=len(problems),
    )
    return FusedBundle(graph=graph, specs=specs)


def _unaries(
    problems: list[AnnotationProblem],
    model: AnnotationModel,
    sizes: np.ndarray,
    cell_vars: list[np.ndarray],
    type_unaries: list[tuple[int, np.ndarray]],
) -> np.ndarray:
    """The ``(n_variables, max_size)`` unary matrix: 0.0 at na and on
    relation variables, f1/f2 products on concrete labels, ``-inf`` past
    each domain.  Every cell's f1 comes from one product over the bucket."""
    width = int(sizes.max()) if sizes.size else 1
    unaries = np.where(np.arange(width) < sizes[:, None], 0.0, -np.inf)
    columns = [space for problem in problems for space in problem.columns]
    if any(len(space.rows) for space in columns):
        counts = np.concatenate([space.counts for space in columns])
        offsets = np.concatenate(([0], np.cumsum(counts)))
        values = candidate_products(
            np.concatenate([space.f1 for space in columns]), offsets, model.w1
        )
        cells = np.concatenate(cell_vars)
        index = np.repeat(cells * width + 1 - offsets[:-1], counts) + np.arange(
            len(values)
        )
        unaries.reshape(-1)[index] = values
    for var_id, values in type_unaries:
        unaries[var_id, 1 : len(values) + 1] = values
    return unaries


#: cells (rows × columns) one fused run may hold: fusing spreads BP's fixed
#: cost per block over more tables, and this bounds the run's tensor memory.
#: 256 is from a sweep over perfbench's corpus crawl, whose peak memory it
#: raises 4% over nearly unfused runs (384: 7%, 512: 11%).
FUSED_RUN_CELLS = 256


def fused_runs(tables: Sequence[Table], limit: int) -> Iterator[list[Table]]:
    """Cut ``tables``, in arrival order, into fused runs.

    A run closes when it holds ``limit`` tables or when the next table's
    cells would push it past :data:`FUSED_RUN_CELLS`, so a table larger than
    the budget runs alone.  Any table may share a run: padding between
    unequal shapes is bounded per block by :func:`_partition_rank_group`.
    """
    run: list[Table] = []
    cells = 0
    for table in tables:
        size = table.n_rows * table.n_columns
        if run and (len(run) >= limit or cells + size > FUSED_RUN_CELLS):
            yield run
            run, cells = [], 0
        run.append(table)
        cells += size
    if run:
        yield run


#: cross-table padding budget: a block may be at most this factor larger
#: than the sum of its tables' own padded volumes before it is split
_PADDING_WASTE_LIMIT = 1.75

#: never split unless it saves at least this many tensor elements — each
#: extra block costs a fixed handful of NumPy calls per half-step, which
#: dwarfs any padding saved on small blocks
_PADDING_SPLIT_ELEMENTS = 24576


def _partition_rank_group(
    group: list[tuple[int, list[_Segment]]],
) -> list[list[tuple[int, list[_Segment]]]]:
    """Split one rank group into blocks with bounded cross-table padding.

    Stacking every table's factors of a rank into one tensor pads each axis
    to the bucket-wide maximum; with content-dependent domain sizes (phi4's
    per-column type candidates especially) that can triple the arithmetic.
    Tables are sorted by their factor shape and greedily packed until the
    padded volume would exceed ``_PADDING_WASTE_LIMIT`` times the tables'
    own volumes.

    Regrouping *between* tables is bit-exact: messages are row-local, and a
    variable's scatter group consists of one table's rows only, so keeping
    each table's rows together (in order) preserves every per-variable
    float-summation sequence of a lone run.  Only splitting a single table's
    rows across blocks could change bits — never done here.
    """
    if len(group) == 1:
        return [group]
    per_table: list[tuple[tuple[int, ...], int, int, list[_Segment]]] = []
    for table_index, segments in group:
        n_rows = sum(segment.n_factors for segment in segments)
        per_table.append((_shape(segments), table_index, n_rows, segments))
    per_table.sort(key=lambda item: (item[0], item[1]))

    partitions: list[list[tuple[int, list[_Segment]]]] = []
    current: list[tuple[int, list[_Segment]]] = []
    current_shape: tuple[int, ...] = ()
    current_rows = 0
    own_volume = 0
    for shape, table_index, n_rows, segments in per_table:
        if current:
            merged = tuple(max(a, b) for a, b in zip(current_shape, shape))
            padded = (current_rows + n_rows) * math.prod(merged)
            own = own_volume + n_rows * math.prod(shape)
            if (
                padded <= _PADDING_WASTE_LIMIT * own
                or padded - own < _PADDING_SPLIT_ELEMENTS
            ):
                current.append((table_index, segments))
                current_shape = merged
                current_rows += n_rows
                own_volume = own
                continue
            partitions.append(current)
        current = [(table_index, segments)]
        current_shape = shape
        current_rows = n_rows
        own_volume = n_rows * math.prod(shape)
    if current:
        partitions.append(current)
    return partitions


def _write_values(
    tables: np.ndarray, segment: _Segment, first_row: int
) -> None:
    """Write ``segment.values`` into a block's stacked potentials, the
    segment's factors starting at block row ``first_row``.

    Value column ``j`` is concrete tail slot ``k`` of its factor ``r``:
    ``k`` itself with one tail, ``divmod(k, n_right)`` with two; every
    coordinate sits one past the na slot.
    """
    counts = segment.counts
    head = slice(1, segment.head_size)
    if len(counts[0]) == 1:
        # one factor: its concrete block is one slice
        extents = [int(count[0]) for count in counts]
        tables[(first_row, head) + tuple(slice(1, 1 + n) for n in extents)] = (
            segment.values.reshape(-1, *extents)
        )
        return
    per_factor = counts[0] if len(counts) == 1 else counts[0] * counts[1]
    starts = np.cumsum(per_factor) - per_factor
    factors = np.repeat(
        np.arange(first_row, first_row + segment.n_factors), per_factor
    )
    # k: the value's slot in its factor's concrete block, row-major
    k = np.arange(len(factors)) - np.repeat(starts, per_factor)
    if len(counts) == 1:
        tables[factors, head, k + 1] = segment.values.T
        return
    # k = a·n_right + b sits at (1 + a, 1 + b) of the flattened tail plane
    width = tables.shape[3]
    left, right = np.divmod(k, np.repeat(counts[1], per_factor))
    left *= width
    left += right + width + 1
    plane = tables.reshape(tables.shape[0], tables.shape[1], -1)
    plane[factors, head, left] = segment.values.T


def _fused_block(
    kind: str, partition: list[tuple[int, list[_Segment]]]
) -> FusedBlock:
    """Stack one partition's segments into a :class:`FusedBlock`."""
    segments = [
        segment for _table, table_segments in partition for segment in table_segments
    ]
    n_tails = len(segments[0].tails)
    lengths = [segment.n_factors for segment in segments]
    first_rows = list(accumulate([0] + lengths[:-1]))
    n_factors = sum(lengths)
    heads = [segment.head for segment in segments]
    head_sizes = [segment.head_size for segment in segments]
    shape = _shape(segments)
    uniform = (min(head_sizes) == shape[0],) + tuple(
        low == extent
        for low, extent in zip(
            map(min, zip(*(segment.narrowest for segment in segments))), shape[1:]
        )
    )
    var_ids = np.empty((n_tails + 1, n_factors), dtype=np.intp)
    tail_counts = np.empty((n_tails, n_factors), dtype=np.intp)
    for segment, start, length in zip(segments, first_rows, lengths):
        var_ids[0, start : start + length] = segment.head
        var_ids[1:, start : start + length] = segment.tails
        tail_counts[:, start : start + length] = segment.counts
    valid = (
        np.ones((n_factors, shape[0]), dtype=bool)
        if uniform[0]
        else np.arange(shape[0]) < np.repeat(head_sizes, lengths)[:, None],
    ) + tuple(
        # slot 0 is na, so a tail's real slots are 0..count
        np.arange(extent) <= count[:, None]
        for extent, count in zip(shape[1:], tail_counts)
    )
    # 0.0 wherever a label is na, the values below on concrete labels, and
    # -inf on every padded slot of every axis
    tables = np.zeros((n_factors,) + shape, dtype=np.float64)
    axes = list(range(1, len(shape) + 1))
    for position, mask in enumerate(valid):
        if not uniform[position]:
            moved = axes[:position] + axes[position + 1 :]
            tables.transpose(0, position + 1, *moved)[~mask] = -np.inf
    for segment, start in zip(segments, first_rows):
        _write_values(tables, segment, start)

    # each table's rows form one contiguous run (stacking order); the runs
    # drive the engine's per-table convergence-delta reduction
    table_rows = [
        sum(segment.n_factors for segment in table_segments)
        for _table, table_segments in partition
    ]
    group_tables = np.array([table for table, _ in partition], dtype=np.intp)
    # a head variable owns one segment, so its rows are one run; a tail
    # variable repeats only when two of a table's segments share the tail's
    # column, and only then is it grouped by sorting
    owners = [
        (table, segment.owners)
        for table, table_segments in partition
        for segment in table_segments
    ]
    scatter = [
        ScatterPlan.of_runs(
            np.array(heads, dtype=np.intp), np.array(first_rows), n_factors
        )
    ]
    for position in range(n_tails):
        sides = [(table, columns[position]) for table, columns in owners]
        ids = var_ids[position + 1]
        scatter.append(
            ScatterPlan.of_runs(ids, np.arange(n_factors), n_factors)
            if len(set(sides)) == len(sides)
            else ScatterPlan.for_ids(ids)
        )
    return FusedBlock(
        kind=kind,
        shape=shape,
        tables=tables,
        var_ids=var_ids,
        table_ids=np.repeat(group_tables, table_rows),
        valid=valid,
        uniform=uniform,
        group_starts=np.array(list(accumulate([0] + table_rows[:-1]))),
        group_tables=group_tables,
        scatter=tuple(scatter),
    )


# ----------------------------------------------------------------------
# fused decode
# ----------------------------------------------------------------------
def _decode_bundle(
    bundle: FusedBundle,
    engine: FusedMaxProductBP,
    iterations: np.ndarray,
    converged: np.ndarray,
    tables: list[Table],
) -> list[TableAnnotation]:
    """Vectorised decoding of every table's annotation at once.

    Chosen labels are the per-row argmax (ties to the earlier position,
    where na sits); scores are the belief margin ``b[chosen] −
    max(b[others])`` (``b[chosen]`` after normalisation is exactly ``0.0``,
    so the margin is ``0.0 − second_max``; single-label variables score
    ``0.0``).
    """
    graph = bundle.graph
    n_vars = graph.n_variables
    if n_vars:
        beliefs = engine.belief_matrix()
        choices = np.argmax(beliefs, axis=1)
        scratch = beliefs.copy()
        scratch[np.arange(n_vars), choices] = -np.inf
        other_max = scratch.max(axis=1)
        margins = np.where(graph.sizes < 2, 0.0, 0.0 - other_max)
        unary_gather = graph.unaries[np.arange(n_vars), choices]
        scores = np.bincount(
            graph.var_table_ids, weights=unary_gather, minlength=graph.n_tables
        )
        for block in graph.blocks:
            index = (np.arange(block.n_factors),) + tuple(
                choices[block.var_ids[position]]
                for position in range(block.n_positions)
            )
            scores += np.bincount(
                block.table_ids, weights=block.tables[index],
                minlength=graph.n_tables,
            )
    else:
        choices = np.zeros(0, dtype=np.intp)
        margins = np.zeros(0, dtype=np.float64)
        scores = np.zeros(graph.n_tables, dtype=np.float64)

    picks = choices.tolist()
    margin_list = margins.tolist()
    annotations: list[TableAnnotation] = []
    for spec, table in zip(bundle.specs, tables):
        problem = spec.problem
        annotation = TableAnnotation(table_id=table.table_id)
        for space, var_id in zip(problem.columns, spec.cell_starts):
            for row, start in zip(space.rows.tolist(), space.offsets.tolist()):
                pick = picks[var_id]
                annotation.cells[(row, space.column)] = CellAnnotation(
                    row=row,
                    column=space.column,
                    entity_id=space.entities[start + pick - 1] if pick else NA,
                    score=margin_list[var_id],
                )
                var_id += 1
        for space, var_id in zip(problem.columns, spec.type_vars):
            if var_id >= 0:
                annotation.columns[space.column] = ColumnAnnotation(
                    column=space.column,
                    type_id=space.types[picks[var_id]],
                    score=margin_list[var_id],
                )
        for column in range(problem.table.n_columns):
            if column not in annotation.columns:
                annotation.columns[column] = ColumnAnnotation(
                    column=column, type_id=NA, score=0.0
                )
        for var_id, space in enumerate(problem.pairs, start=spec.first_pair):
            annotation.relations[(space.left, space.right)] = RelationAnnotation(
                left_column=space.left,
                right_column=space.right,
                label=space.labels[picks[var_id]],
                score=margin_list[var_id],
            )
        annotation.diagnostics.update(
            {
                "method": "collective",
                "iterations": int(iterations[spec.table_index]),
                "converged": bool(converged[spec.table_index]),
                "log_score": float(scores[spec.table_index]),
                "n_variables": spec.n_variables,
                "n_factors": spec.n_factors,
            }
        )
        annotations.append(annotation)
    return annotations


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_fused_bundle(
    bundle: FusedBundle, config: AnnotatorConfig, tables: list[Table]
) -> list[TableAnnotation]:
    """One Figure-11 BP run over a compiled bundle, decoded per table."""
    engine = FusedMaxProductBP(bundle.graph)
    iterations, converged = engine.run_paper_schedule(
        max_iterations=config.max_iterations, tolerance=TOLERANCE
    )
    return _decode_bundle(bundle, engine, iterations, converged, tables)


def annotate_problem(
    problem: AnnotationProblem,
    model: AnnotationModel,
    config: AnnotatorConfig,
    unary_bonus: dict[str, np.ndarray] | None = None,
) -> TableAnnotation:
    """Collective inference on one pre-built problem (a bucket of one).

    The learner's path: it re-scores the same problems under changing
    weights, optionally with a loss-augmentation ``unary_bonus``, so
    nothing here is cached.
    """
    bundle = build_fused_bundle(
        [problem], model, [unary_bonus] if unary_bonus else None
    )
    return run_fused_bundle(bundle, config, [problem.table])[0]


def annotate_fused_chunk(
    annotator: TableAnnotator, tables: list[Table]
) -> list[TableAnnotation]:
    """Annotate one bucket of tables.

    One candidate resolution for the bucket, one problem per table, then
    one fused BP run and the vectorised decode — or, without relation
    variables, the exact Figure-2 special case table by table.  Per-table
    timings apportion the chunk's wall time equally (individual tables are
    not separable inside a fused run).
    """
    config = annotator.config
    start = time.perf_counter()
    problems = build_problems(
        tables,
        annotator.candidate_engine,
        annotator.features,
        annotator.resolve_candidates(tables),
        max_column_pairs=config.max_column_pairs,
    )
    after_candidates = time.perf_counter()
    if config.with_relations:
        bundle = build_fused_bundle(problems, annotator.model)
        annotations = run_fused_bundle(bundle, config, tables)
    else:
        annotations = [
            annotate_simple(problem, annotator.model) for problem in problems
        ]
    end = time.perf_counter()

    share = len(tables) or 1
    for table, annotation in zip(tables, annotations):
        annotation.diagnostics["timing"] = AnnotationTiming(
            table_id=table.table_id,
            total_seconds=(end - start) / share,
            candidate_seconds=(after_candidates - start) / share,
            inference_seconds=(end - after_candidates) / share,
            n_rows=table.n_rows,
            n_columns=table.n_columns,
        )
    return annotations
