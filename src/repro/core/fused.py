"""Fused annotation: a bucket of tables as one BP run.

Every annotation goes through here — a lone table is a bucket of one, and
the answer-cache misses of a corpus batch or of a served worker round trip
are planned into shape buckets (:mod:`repro.pipeline.planner`) first.  For
one bucket this module

1. **resolves candidates** for every distinct cell text of the bucket in
   one candidate-engine call
   (:meth:`~repro.core.annotator.TableAnnotator.resolve_candidates`) and
   builds each table's :class:`~repro.core.problem.AnnotationProblem` from
   them,
2. **compiles one fused graph** for the whole bucket directly from the
   per-table :class:`~repro.core.problem.AnnotationProblem` spaces — each
   potential is one per-space matrix product (``f @ w`` with the na row and
   column left at zero), written straight into the cross-table block
   tensors of :class:`~repro.graph.fused.FusedGraph`, and
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

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.annotation import (
    AnnotationTiming,
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.core.model import AnnotationModel
from repro.core.problem import NA, AnnotationProblem, build_problem
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
    """Per-table decode metadata: variable ids, positions and label domains."""

    table_index: int
    n_columns: int
    n_variables: int
    n_factors: int
    #: (row, column, var_id, labels) per cell variable
    cells: list[tuple[int, int, int, tuple]]
    #: (column, var_id, labels) per type variable
    columns: list[tuple[int, int, tuple]]
    #: (left, right, var_id, labels) per relation variable
    pairs: list[tuple[int, int, int, tuple]]


@dataclass
class FusedBundle:
    """A compiled fused graph plus everything needed to decode it."""

    graph: FusedGraph
    specs: list[TableDecodeSpec]


def _stage_factor(
    staged: dict[str, list[list[tuple[int, np.ndarray, tuple[int, ...]]]]],
    rank_map: dict[str, dict[tuple[int, int], int]],
    kind: str,
    table_index: int,
    potential: np.ndarray,
    var_ids: tuple[int, ...],
) -> None:
    """File one factor under its per-table bucket rank.

    ``rank_map`` is per table: a table's first (ndim, head-size) group of a
    kind gets rank 0, its second rank 1, … in first-seen order.  Fusing by
    rank (not by head size) preserves each table's scatter-add sequence
    whatever its batchmates, which is what makes the fused totals
    independent of the bucket.
    """
    key = (potential.ndim, potential.shape[0])
    ranks = rank_map[kind]
    rank = ranks.get(key)
    if rank is None:
        rank = len(ranks)
        ranks[key] = rank
    rows_by_rank = staged.setdefault(kind, [])
    while len(rows_by_rank) <= rank:
        rows_by_rank.append([])
    rows_by_rank[rank].append((table_index, potential, var_ids))


def build_fused_bundle(
    problems: list[AnnotationProblem],
    model: AnnotationModel,
    unary_bonuses: list[dict[str, np.ndarray] | None] | None = None,
) -> FusedBundle:
    """Compile one fused graph for a bucket of annotation problems.

    Potentials are the per-space matrix products of equation (1), zero
    wherever na is involved, bit-identical to the per-table factor graph the
    oracle in ``tests/oracles`` builds; they are written straight into
    cross-table block tensors.

    ``unary_bonuses`` (one dict per problem, aligned with ``problems``) adds
    per-label terms to named variables before message passing — the
    structured learner's loss-augmented (Hamming cost) decoding.
    """
    sizes: list[int] = []
    unary_rows: list[np.ndarray] = []
    var_table_ids: list[int] = []
    specs: list[TableDecodeSpec] = []
    staged: dict[str, list[list[tuple[int, np.ndarray, tuple[int, ...]]]]] = {}

    for table_index, problem in enumerate(problems):
        local_ids: dict[str, int] = {}
        cells_meta: list[tuple[int, int, int, tuple]] = []
        columns_meta: list[tuple[int, int, tuple]] = []
        pairs_meta: list[tuple[int, int, int, tuple]] = []
        n_factors = 0
        rank_map: dict[str, dict[tuple[int, int], int]] = {
            "phi3": {},
            "phi4": {},
            "phi5": {},
        }

        for space in problem.cells.values():
            var_id = len(sizes)
            local_ids[space.variable_name] = var_id
            sizes.append(len(space.labels))
            unary_rows.append(np.concatenate(([0.0], space.f1 @ model.w1)))
            var_table_ids.append(table_index)
            cells_meta.append((space.row, space.column, var_id, space.labels))

        for space in problem.columns.values():
            var_id = len(sizes)
            local_ids[space.variable_name] = var_id
            sizes.append(len(space.labels))
            unary_rows.append(np.concatenate(([0.0], space.f2 @ model.w2)))
            var_table_ids.append(table_index)
            columns_meta.append((space.column, var_id, space.labels))
            for row, f3 in space.f3.items():
                potential = np.zeros(
                    (len(space.labels), f3.shape[1] + 1), dtype=np.float64
                )
                potential[1:, 1:] = f3 @ model.w3
                _stage_factor(
                    staged,
                    rank_map,
                    "phi3",
                    table_index,
                    potential,
                    (var_id, local_ids[f"e:{row},{space.column}"]),
                )
                n_factors += 1

        for space in problem.pairs.values():
            var_id = len(sizes)
            local_ids[space.variable_name] = var_id
            sizes.append(len(space.labels))
            unary_rows.append(np.zeros(len(space.labels), dtype=np.float64))
            var_table_ids.append(table_index)
            pairs_meta.append((space.left, space.right, var_id, space.labels))
            n_left = len(problem.columns[space.left].labels)
            n_right = len(problem.columns[space.right].labels)
            phi4 = np.zeros(
                (len(space.labels), n_left, n_right), dtype=np.float64
            )
            phi4[1:, 1:, 1:] = space.f4 @ model.w4
            _stage_factor(
                staged,
                rank_map,
                "phi4",
                table_index,
                phi4,
                (
                    var_id,
                    local_ids[f"t:{space.left}"],
                    local_ids[f"t:{space.right}"],
                ),
            )
            n_factors += 1
            for row, f5 in space.f5.items():
                phi5 = np.zeros(
                    (len(space.labels), f5.shape[1] + 1, f5.shape[2] + 1),
                    dtype=np.float64,
                )
                phi5[1:, 1:, 1:] = f5 @ model.w5
                _stage_factor(
                    staged,
                    rank_map,
                    "phi5",
                    table_index,
                    phi5,
                    (
                        var_id,
                        local_ids[f"e:{row},{space.left}"],
                        local_ids[f"e:{row},{space.right}"],
                    ),
                )
                n_factors += 1

        bonus = (unary_bonuses[table_index] if unary_bonuses else None) or {}
        for name in sorted(bonus):
            var_id = local_ids.get(name)
            if var_id is not None:
                unary_rows[var_id] = unary_rows[var_id] + np.asarray(
                    bonus[name], dtype=float
                )

        specs.append(
            TableDecodeSpec(
                table_index=table_index,
                n_columns=problem.table.n_columns,
                n_variables=len(local_ids),
                n_factors=n_factors,
                cells=cells_meta,
                columns=columns_meta,
                pairs=pairs_meta,
            )
        )

    sizes_array = np.array(sizes, dtype=np.intp)
    max_size = int(sizes_array.max()) if sizes_array.size else 1
    unaries = np.full((len(sizes), max_size), -np.inf, dtype=np.float64)
    for index, row in enumerate(unary_rows):
        unaries[index, : len(row)] = row

    blocks: list[FusedBlock] = []
    kind_blocks: dict[str, list[int]] = {}
    for kind in ("phi3", "phi4", "phi5"):
        for rows in staged.get(kind, ()):
            for group in _partition_rank_rows(rows):
                _append_fused_block(
                    blocks, kind_blocks, kind, group, sizes_array
                )

    graph = FusedGraph(
        sizes=sizes_array,
        unaries=unaries,
        var_table_ids=np.array(var_table_ids, dtype=np.intp),
        blocks=blocks,
        kind_blocks=kind_blocks,
        n_tables=len(problems),
    )
    return FusedBundle(graph=graph, specs=specs)


#: cross-table padding budget: a block may be at most this factor larger
#: than the sum of its tables' own padded volumes before it is split
_PADDING_WASTE_LIMIT = 1.75

#: never split unless it saves at least this many tensor elements — each
#: extra block costs a fixed handful of NumPy calls per half-step, which
#: dwarfs any padding saved on small blocks
_PADDING_SPLIT_ELEMENTS = 24576


def _partition_rank_rows(
    rows: list[tuple[int, np.ndarray, tuple[int, ...]]],
) -> list[list[tuple[int, np.ndarray, tuple[int, ...]]]]:
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
    per_table: list[tuple[tuple[int, ...], int, list]] = []
    start = 0
    for end in range(1, len(rows) + 1):
        if end == len(rows) or rows[end][0] != rows[start][0]:
            group = rows[start:end]
            ndim = group[0][1].ndim
            shape = tuple(
                max(row[1].shape[axis] for row in group)
                for axis in range(ndim)
            )
            per_table.append((shape, group[0][0], group))
            start = end
    per_table.sort(key=lambda item: (item[0], item[1]))

    partitions: list[list] = []
    current: list = []
    current_shape: tuple[int, ...] = ()
    own_volume = 0
    for shape, _table_index, group in per_table:
        if current:
            merged = tuple(max(a, b) for a, b in zip(current_shape, shape))
            padded = (len(current) + len(group)) * int(np.prod(merged))
            own = own_volume + len(group) * int(np.prod(shape))
            if (
                padded <= _PADDING_WASTE_LIMIT * own
                or padded - own < _PADDING_SPLIT_ELEMENTS
            ):
                current += group
                current_shape = merged
                own_volume = own
                continue
            partitions.append(current)
        current = list(group)
        current_shape = shape
        own_volume = len(group) * int(np.prod(shape))
    if current:
        partitions.append(current)
    return partitions


def _append_fused_block(
    blocks: list[FusedBlock],
    kind_blocks: dict[str, list[int]],
    kind: str,
    rows: list[tuple[int, np.ndarray, tuple[int, ...]]],
    sizes_array: np.ndarray,
) -> None:
    """Stack one group of staged factors into a :class:`FusedBlock`."""
    ndim = rows[0][1].ndim
    shape = tuple(
        max(row[1].shape[axis] for row in rows) for axis in range(ndim)
    )
    tables = np.full((len(rows), *shape), -np.inf, dtype=np.float64)
    for slot, (_, potential, _) in enumerate(rows):
        region = (slot,) + tuple(slice(0, n) for n in potential.shape)
        tables[region] = potential
    var_ids = (
        np.array([row[2] for row in rows], dtype=np.intp)
        .T.reshape(ndim, len(rows))
    )
    table_ids = np.array([row[0] for row in rows], dtype=np.intp)
    valid = tuple(
        np.arange(shape[position])[None, :]
        < sizes_array[var_ids[position]][:, None]
        for position in range(ndim)
    )
    uniform = tuple(bool(mask.all()) for mask in valid)
    scatter = tuple(
        ScatterPlan.for_ids(var_ids[position]) for position in range(ndim)
    )
    # each table's rows form one contiguous run (stacking order); the runs
    # drive the engine's per-table convergence-delta reduction
    boundaries = np.flatnonzero(table_ids[1:] != table_ids[:-1]) + 1
    group_starts = np.concatenate(([0], boundaries))
    kind_blocks.setdefault(kind, []).append(len(blocks))
    blocks.append(
        FusedBlock(
            kind=kind,
            shape=shape,
            tables=tables,
            var_ids=var_ids,
            table_ids=table_ids,
            valid=valid,
            uniform=uniform,
            group_starts=group_starts,
            group_tables=table_ids[group_starts],
            scatter=scatter,
        )
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

    annotations: list[TableAnnotation] = []
    for spec, table in zip(bundle.specs, tables):
        annotation = TableAnnotation(table_id=table.table_id)
        for row, column, var_id, labels in spec.cells:
            annotation.cells[(row, column)] = CellAnnotation(
                row=row,
                column=column,
                entity_id=labels[int(choices[var_id])],
                score=float(margins[var_id]),
            )
        for column, var_id, labels in spec.columns:
            annotation.columns[column] = ColumnAnnotation(
                column=column,
                type_id=labels[int(choices[var_id])],
                score=float(margins[var_id]),
            )
        for column in range(spec.n_columns):
            if column not in annotation.columns:
                annotation.columns[column] = ColumnAnnotation(
                    column=column, type_id=NA, score=0.0
                )
        for left, right, var_id, labels in spec.pairs:
            annotation.relations[(left, right)] = RelationAnnotation(
                left_column=left,
                right_column=right,
                label=labels[int(choices[var_id])],
                score=float(margins[var_id]),
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
    erc = annotator.resolve_candidates(tables)
    problems = [
        build_problem(
            table,
            annotator.candidate_engine,
            annotator.features,
            erc,
            max_column_pairs=config.max_column_pairs,
        )
        for table in tables
    ]
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
