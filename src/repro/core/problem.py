"""Per-table annotation problems: candidate spaces and feature caches.

An :class:`AnnotationProblem` is everything about one table that does *not*
depend on the model weights: the candidate label spaces (``Erc``, ``Tc``,
``Bcc'`` — each with ``na`` at domain position 0) and the raw feature arrays
for every concrete label combination.  Given a weight vector the problem is
compiled into fused factor tensors (potentials are dot products) by
:func:`~repro.core.fused.build_fused_bundle`, and — for the structured
learner — any full assignment is turned into its joint feature vector in
:func:`joint_feature_vector`.

Separating the two matters twice: feature extraction dominates runtime (the
paper's Figure 7: ~80% lemma probing + similarities, <1% inference), and the
learner re-scores the same problem under many weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.catalog.catalog import Catalog
from repro.core.battery import JaroWinklerMemo, LemmaRows, battery_rows
from repro.core.candidates import (
    CandidateEngine,
    NO_CANDIDATES,
    CellCandidates,
    ColumnCandidates,
    PairCandidates,
)
from repro.core.features import (
    F1_FEATURE_NAMES,
    F2_FEATURE_NAMES,
    F3_FEATURE_NAMES,
    F4_FEATURE_NAMES,
    F5_FEATURE_NAMES,
    TypeEntityFeatureMode,
    header_absent_features,
)
from repro.tables.generator import base_relation
from repro.tables.model import Table

#: The "no annotation" label; always domain position 0.
NA = None


class FeatureComputer:
    """Feature assembly against one catalog, with cross-table memoisation.

    Blocks are assembled with array programs over the candidate engine's
    interned tables: f1 and f2 run the similarity battery
    (:mod:`repro.core.battery`) over many blocks per call, a column's f3
    block is one gather from the interned (type × entity) grid and a
    column pair's f5 block one ``searchsorted`` per label of every row's
    packed pair keys, each over all rows at once.  The element-loop
    reading of every family lives in ``tests/oracles``; the equivalence
    tests pin the blocks bit for bit against it.

    f3 and f5 need no memo: the grid and the tuple keys hold every value,
    built once with the tables.  The per-(relation, type) f4 sides are
    memoised per element, and so are the battery's lemma rows (one per
    entity and per type, over the engine's token vocabulary) and its
    Jaro-Winkler scores.

    ``block_cache``, when attached (the annotation pipeline does this),
    memoises the f1 block of a cell text and its candidate list, the one
    block that recurs across tables; cached blocks are read-only, since
    every table that hits shares them.  f2 and f4 blocks almost never recur
    (a column's header with its exact type list, a pair's relation and
    type lists), so they are built directly.
    """

    def __init__(
        self,
        catalog: Catalog,
        mode: TypeEntityFeatureMode,
        engine: CandidateEngine,
    ) -> None:
        self.catalog = catalog
        self.mode = mode
        self.engine = engine
        #: optional shared LRU for assembled blocks (set by the pipeline);
        #: anything with get(key)/put(key, value) semantics works
        self.block_cache = None
        #: this mode's slice of the interned f3 grid: a view, so a bundle's
        #: memory-mapped grid stays unread until a block gathers from it
        self._f3_grid = engine.tables.f3_grid[
            list(TypeEntityFeatureMode).index(mode)
        ]
        #: the same slice with one row per (type, entity) pair, for np.take
        self._f3_rows = self._f3_grid.reshape(-1, self._f3_grid.shape[-1])
        self._f4_side_cache: dict[tuple[str, str], tuple[float, float, float, float]] = {}
        tables, vocabulary = engine.tables, engine.vocabulary
        self._entity_rows = LemmaRows(
            lambda entity: catalog.entities.lemmas(tables.entity_ids[entity]),
            vocabulary,
            engine.lemma_index,
        )
        self._type_rows = LemmaRows(
            lambda type_int: catalog.types.lemmas(tables.type_ids[type_int]),
            vocabulary,
            engine.lemma_index,
        )
        self._jaro_winkler = JaroWinklerMemo(vocabulary)

    # -- f1 / f2 ----------------------------------------------------------
    def f1_blocks(
        self, cells: Sequence[tuple[str, np.ndarray]]
    ) -> list[np.ndarray]:
        """f1 of each (cell text, candidate entity ints), shape
        (n_candidates, |f1|) each, read-only.

        Each block is looked up in ``block_cache`` when one is attached;
        cells sharing a pending miss share its block, and every miss is
        computed in one battery pass and stored.
        """
        cache = self.block_cache
        blocks: list[np.ndarray | None] = [None] * len(cells)
        missing: dict[tuple, list[int]] = {}
        for position, (text, entities) in enumerate(cells):
            key = ("f1", text, entities.tobytes())
            pending = missing.get(key)
            if pending is not None:
                pending.append(position)
                continue
            block = cache.get(key) if cache is not None else None
            if block is None:
                missing[key] = [position]
            else:
                blocks[position] = block
        if missing:
            firsts = [positions[0] for positions in missing.values()]
            computed = battery_rows(
                [cells[first][0] for first in firsts],
                [cells[first][1] for first in firsts],
                self._entity_rows,
                self._jaro_winkler,
            )
            stop = 0
            for key, positions in missing.items():
                start, stop = stop, stop + len(cells[positions[0]][1])
                # a copy: a cached view would keep the whole call's array
                block = computed[start:stop].copy()
                block.flags.writeable = False
                if cache is not None:
                    cache.put(key, block)
                for position in positions:
                    blocks[position] = block
        return blocks

    def f2_blocks(
        self, columns: Sequence[tuple[str | None, np.ndarray]]
    ) -> list[np.ndarray]:
        """f2 of each (header, candidate type ints), shape (n_types,
        |f2|) each: one battery pass over every column with a header, and
        all-zero rows for a missing or blank one."""
        headed = [
            position
            for position, (header, _types) in enumerate(columns)
            if header is not None and header.strip()
        ]
        computed = battery_rows(
            [columns[position][0] for position in headed],
            [columns[position][1] for position in headed],
            self._type_rows,
            self._jaro_winkler,
        )
        blocks = [
            np.tile(header_absent_features(), (len(types), 1))
            for _header, types in columns
        ]
        stop = 0
        for position in headed:
            start, stop = stop, stop + len(columns[position][1])
            blocks[position] = computed[start:stop]
        return blocks

    # -- f3 ---------------------------------------------------------------
    def f3(self, type_id: str, entity_id: str) -> np.ndarray:
        """One f3 element (the baselines and constraints score with it).

        Raises:
            UnknownIdError: for an id outside the interned catalog.
        """
        tables = self.engine.tables
        (type_int,) = tables.intern("type", (type_id,))
        (entity_int,) = tables.intern("entity", (entity_id,))
        return self._f3_grid[type_int, entity_int]

    def f3_block(
        self, type_ints: np.ndarray, column: ColumnCandidates
    ) -> np.ndarray:
        """f3 of a column's candidate types against every row's candidate
        entities, shape (n_types, n_candidates, |f3|): one gather, rows in
        order along the candidate axis."""
        pairs = type_ints[:, None] * self._f3_grid.shape[1] + column.entities
        return np.take(self._f3_rows, pairs, axis=0)

    # -- f4 ---------------------------------------------------------------
    def f4_sides(
        self, relation_id: str, type_id: str
    ) -> tuple[float, float, float, float]:
        """Cached per-(relation, type) pieces of f4.

        Returns ``(is_sub_of_subject_schema, is_sub_of_object_schema,
        subject_participation, object_participation)``; f4 for a pair of
        types is composed from two of these tuples in
        :meth:`f4_block`.
        """
        key = (relation_id, type_id)
        cached = self._f4_side_cache.get(key)
        if cached is None:
            relation = self.catalog.relations.get(relation_id)
            members = self.catalog.entities_of_type(type_id)
            subjects = self.catalog.relations.participating_subjects(relation_id)
            objects = self.catalog.relations.participating_objects(relation_id)
            denominator = max(len(members), 1)
            cached = (
                float(self.catalog.types.is_subtype(type_id, relation.subject_type)),
                float(self.catalog.types.is_subtype(type_id, relation.object_type)),
                len(members & subjects) / denominator,
                len(members & objects) / denominator,
            )
            self._f4_side_cache[key] = cached
        return cached

    def f4_block(
        self,
        relation_labels: tuple[str, ...],
        left_types: tuple[str, ...],
        right_types: tuple[str, ...],
    ) -> np.ndarray:
        """Dense f4 array, shape (n_labels, n_left, n_right, 4)."""
        table = np.zeros((len(relation_labels), len(left_types), len(right_types), 4))
        for b_index, label in enumerate(relation_labels):
            relation_id, reverse = base_relation(label)
            left_sides = [self.f4_sides(relation_id, t) for t in left_types]
            right_sides = [self.f4_sides(relation_id, t) for t in right_types]
            if reverse:
                # subject role lives on the right column
                subj_ind = np.array([s[0] for s in right_sides])
                obj_ind = np.array([s[1] for s in left_sides])
                subj_part = np.array([s[2] for s in right_sides])
                obj_part = np.array([s[3] for s in left_sides])
                table[b_index, :, :, 0] = np.outer(obj_ind, subj_ind)
                table[b_index, :, :, 1] = np.broadcast_to(
                    subj_part[None, :], (len(left_types), len(right_types))
                )
                table[b_index, :, :, 2] = np.broadcast_to(
                    obj_part[:, None], (len(left_types), len(right_types))
                )
            else:
                subj_ind = np.array([s[0] for s in left_sides])
                obj_ind = np.array([s[1] for s in right_sides])
                subj_part = np.array([s[2] for s in left_sides])
                obj_part = np.array([s[3] for s in right_sides])
                table[b_index, :, :, 0] = np.outer(subj_ind, obj_ind)
                table[b_index, :, :, 1] = np.broadcast_to(
                    subj_part[:, None], (len(left_types), len(right_types))
                )
                table[b_index, :, :, 2] = np.broadcast_to(
                    obj_part[None, :], (len(left_types), len(right_types))
                )
            table[b_index, :, :, 3] = 1.0
        return table

    # -- f5 ---------------------------------------------------------------
    def f5_block(
        self, relations: list[tuple[str, int, bool]], pairs: PairCandidates
    ) -> np.ndarray:
        """f5 of a column pair's candidate relations (``Bcc'`` as
        :meth:`~repro.core.candidates.CandidateEngine.relation_candidates`
        returns it) against every row's candidate pairs, shape (n_labels,
        n_pairs, |f5|), the pairs in the order of ``pairs``.

        One ``searchsorted`` per label of the pair keys into the relation's
        tuple keys; a reversed label reads the backward keys, with the
        subject role on the right, exactly as in
        :func:`~repro.core.features.relation_entities_features`.
        """
        tables = self.engine.tables
        n_entities = len(tables.entity_ids)
        flat = np.zeros((len(relations), len(pairs.forward), 2), dtype=np.float64)
        for b_index, (_label, relation_int, reverse) in enumerate(relations):
            start = tables.tuple_offsets[relation_int]
            stop = tables.tuple_offsets[relation_int + 1]
            relation_keys = tables.tuple_keys_by_relation[start:stop]
            keys = pairs.backward if reverse else pairs.forward
            if len(relation_keys):
                positions = np.minimum(
                    np.searchsorted(relation_keys, keys), len(relation_keys) - 1
                )
                exists = relation_keys[positions] == keys
            else:
                exists = np.zeros(len(keys), dtype=bool)
            subjects, objects = (
                (pairs.right, pairs.left) if reverse else (pairs.left, pairs.right)
            )
            cardinality = self.catalog.relations.get(
                tables.relation_ids[relation_int]
            ).cardinality
            violation = np.zeros(len(keys), dtype=bool)
            # an entity with any catalog tuple in a functional role
            # contradicts a non-tuple pairing (the & ~exists below)
            if cardinality.subject_functional:
                violation |= np.isin(subjects, relation_keys // n_entities)
            if cardinality.object_functional:
                violation |= np.isin(objects, relation_keys % n_entities)
            flat[b_index, :, 0] = exists
            flat[b_index, :, 1] = violation & ~exists
        return flat


@dataclass(frozen=True, eq=False)
class ColumnSpace:
    """One table column's variables as arrays in a fixed order.

    A cell variable for every row with candidates, held as a CSR over
    those rows (the layout of
    :class:`~repro.core.candidates.ColumnCandidates`), and a type variable
    when ``Tc`` is not empty.  A column without candidates has no cells and
    no type variable.
    """

    column: int
    header: str | None
    #: rows with candidates, ascending: cell ``i`` is row ``rows[i]``
    rows: np.ndarray
    #: cell ``i``'s candidates are ``[offsets[i], offsets[i + 1])`` of
    #: ``entities``, ``scores`` and ``f1``, best retrieval score first
    offsets: np.ndarray
    #: candidate entity ids of every cell, cell after cell
    entities: tuple[str, ...]
    #: retrieval scores of the candidates
    scores: np.ndarray
    #: f1 of every candidate, shape (n_candidates, |f1|)
    f1: np.ndarray
    #: type domain = (NA,) + ``Tc``; ``(NA,)`` alone when there is no type
    #: variable
    types: tuple[str | None, ...]
    #: f2 of the concrete types, shape (n_types, |f2|)
    f2: np.ndarray
    #: f3 of every concrete type against every candidate, shape
    #: (n_types, n_candidates, |f3|)
    f3: np.ndarray

    @cached_property
    def counts(self) -> np.ndarray:
        """Concrete candidates per cell."""
        return np.diff(self.offsets)

    @property
    def has_type(self) -> bool:
        return len(self.types) > 1

    @property
    def variable_name(self) -> str:
        return f"t:{self.column}"

    def labels(self, cell: int) -> tuple[str | None, ...]:
        """Cell ``cell``'s domain: (NA,) + its candidate entity ids."""
        return (NA,) + self.entities[self.offsets[cell] : self.offsets[cell + 1]]


@dataclass(frozen=True, eq=False)
class PairSpace:
    """An ordered column pair's relation variable and its f4/f5 arrays."""

    left: int
    right: int
    #: domain = (NA,) + concrete relation labels (possibly ``^-1``-suffixed)
    labels: tuple[str | None, ...]
    #: f4 array, shape (n_concrete, n_left_types, n_right_types, |f4|)
    f4: np.ndarray
    #: for every row where both cells have candidates, ascending: the
    #: cell's index in the left and in the right :class:`ColumnSpace`
    left_cells: np.ndarray
    right_cells: np.ndarray
    #: the candidate counts of those cells
    n_left: np.ndarray
    n_right: np.ndarray
    #: f5 of every such row's candidate pairs, rows in order and each row
    #: left-major, shape (n_concrete, Σ n_left·n_right, |f5|)
    f5: np.ndarray

    @property
    def variable_name(self) -> str:
        return f"b:{self.left},{self.right}"


@dataclass(frozen=True, eq=False)
class CellSpace:
    """One cell variable, read through its column's arrays (views)."""

    row: int
    column: int
    #: domain = (NA,) + concrete entity ids, best retrieval score first
    labels: tuple[str | None, ...]
    #: retrieval scores of the concrete labels
    scores: np.ndarray
    #: f1 features of concrete labels, shape (n_concrete, |f1|)
    f1: np.ndarray

    @property
    def variable_name(self) -> str:
        return f"e:{self.row},{self.column}"


@dataclass(frozen=True, eq=False)
class AnnotationProblem:
    """Everything weight-independent about annotating one table.

    Variables are numbered in one fixed order, the order compile and decode
    lay them out: every cell column by column (rows ascending), then every
    type variable by column, then the relation variables in ``pairs``
    order.
    """

    table: Table
    #: one space per table column, in column order
    columns: tuple[ColumnSpace, ...]
    #: relation variables, the widest candidate support first
    pairs: tuple[PairSpace, ...]

    @cached_property
    def cells(self) -> dict[tuple[int, int], CellSpace]:
        """Every cell variable as views into its column's arrays, keyed by
        ``(row, column)`` in variable order; built on first use, for the
        per-cell readers (baselines, the learner, oracles)."""
        cells: dict[tuple[int, int], CellSpace] = {}
        for space in self.columns:
            offsets = space.offsets.tolist()
            for cell, row in enumerate(space.rows.tolist()):
                start, stop = offsets[cell], offsets[cell + 1]
                cells[(row, space.column)] = CellSpace(
                    row=row,
                    column=space.column,
                    labels=(NA,) + space.entities[start:stop],
                    scores=space.scores[start:stop],
                    f1=space.f1[start:stop],
                )
        return cells

    def variables(self) -> list[tuple[str, tuple[str | None, ...]]]:
        """``(name, domain)`` of every variable, in variable order."""
        variables = [
            (cell.variable_name, cell.labels) for cell in self.cells.values()
        ]
        variables += [
            (space.variable_name, space.types)
            for space in self.columns
            if space.has_type
        ]
        variables += [(space.variable_name, space.labels) for space in self.pairs]
        return variables

    def stats(self) -> dict[str, float]:
        """Candidate-space statistics (feeds the §6.1.1 candidate bench)."""
        entity_counts = np.concatenate(
            [space.counts for space in self.columns] or [np.zeros(0)]
        )
        type_counts = [
            len(space.types) - 1 for space in self.columns if space.has_type
        ]
        relation_counts = [len(space.labels) - 1 for space in self.pairs]
        return {
            "cells_with_candidates": len(entity_counts),
            "avg_entity_candidates": (
                float(np.mean(entity_counts)) if len(entity_counts) else 0.0
            ),
            "avg_type_candidates": float(np.mean(type_counts)) if type_counts else 0.0,
            "avg_relation_candidates": (
                float(np.mean(relation_counts)) if relation_counts else 0.0
            ),
        }


class _ColumnDraft(NamedTuple):
    """A column's candidate spaces before its f1 and f2 blocks exist."""

    texts: list[str]
    candidates: ColumnCandidates
    #: retrieval scores of the candidates
    scores: np.ndarray
    #: rows with candidates, ascending
    rows: np.ndarray
    type_ints: np.ndarray
    #: ``Tc`` as type ids
    types: tuple[str, ...]
    header: str | None


def _draft_spaces(
    table: Table,
    engine: CandidateEngine,
    features: FeatureComputer,
    erc: Mapping[str, CellCandidates],
    max_column_pairs: int,
) -> tuple[list[_ColumnDraft], list[PairSpace]]:
    """One table's ``Tc`` per column, and its relation variables with
    their ``Bcc'``, f4 and f5 arrays."""
    type_ids = engine.tables.type_ids
    columns: list[_ColumnDraft] = []
    for column in range(table.n_columns):
        texts = [table.cell(row, column) for row in range(table.n_rows)]
        found = [erc[text] for text in texts]
        candidates = ColumnCandidates.of(found)
        type_ints = engine.column_type_candidates(candidates)
        columns.append(
            _ColumnDraft(
                texts=texts,
                candidates=candidates,
                scores=np.concatenate(
                    [cell.scores for cell in found] or [NO_CANDIDATES.scores]
                ),
                rows=np.flatnonzero(candidates.counts),
                type_ints=type_ints,
                types=tuple(type_ids[t] for t in type_ints.tolist()),
                header=table.header(column),
            )
        )

    typed = [column for column, draft in enumerate(columns) if draft.types]
    candidate_pairs: list[
        tuple[int, int, list[tuple[str, int, bool]], PairCandidates]
    ] = []
    for left in typed:
        for right in typed:
            if left >= right:
                continue
            row_pairs = PairCandidates.of(
                columns[left].candidates,
                columns[right].candidates,
                len(engine.tables.entity_ids),
            )
            relations = engine.relation_candidates(row_pairs)
            if relations:
                candidate_pairs.append((left, right, relations, row_pairs))
    candidate_pairs.sort(key=lambda item: (-len(item[2]), item[0], item[1]))
    pairs: list[PairSpace] = []
    for left, right, relations, row_pairs in candidate_pairs[:max_column_pairs]:
        labels = tuple(label for label, _relation, _reverse in relations)
        rows = np.flatnonzero(np.diff(row_pairs.offsets))
        pairs.append(
            PairSpace(
                left=left,
                right=right,
                labels=(NA,) + labels,
                f4=features.f4_block(labels, columns[left].types, columns[right].types),
                left_cells=np.searchsorted(columns[left].rows, rows),
                right_cells=np.searchsorted(columns[right].rows, rows),
                n_left=row_pairs.left_counts[rows],
                n_right=row_pairs.right_counts[rows],
                f5=features.f5_block(relations, row_pairs),
            )
        )
    return columns, pairs


def build_problems(
    tables: Sequence[Table],
    engine: CandidateEngine,
    features: FeatureComputer,
    erc: Mapping[str, CellCandidates],
    max_column_pairs: int = 12,
) -> list[AnnotationProblem]:
    """Construct the candidate spaces and feature arrays of a run of
    tables.

    ``erc`` maps each cell text of the tables to its resolved ``Erc``
    (:meth:`~repro.core.annotator.TableAnnotator.resolve_candidates`
    answers a whole run in one engine call); ``Tc`` and ``Bcc'`` come from
    ``engine``, one whole-column array pass each over the interned entity
    ints, and the f3 and f5 arrays of a column or column pair from one
    gather or one ``searchsorted`` per label.  With every table's spaces
    built, one battery call computes the f1 blocks of all the run's cells
    and one the f2 blocks of all its columns
    (:meth:`FeatureComputer.f1_blocks`, :meth:`FeatureComputer.f2_blocks`).
    Cells without candidates (numeric/blank/unmatched) get no variable —
    their label is forced to na.  Column pairs are considered for every
    ordered pair of columns that both carry a type variable; pairs with no
    candidate relation get no variable.  ``max_column_pairs`` caps
    quadratic blow-up on very wide tables (the widest pairs by candidate
    support are kept).
    """
    drafts = [
        _draft_spaces(table, engine, features, erc, max_column_pairs)
        for table in tables
    ]
    columns = [column for drafted, _pairs in drafts for column in drafted]
    f1 = iter(
        features.f1_blocks(
            [
                (draft.texts[row], draft.candidates.entities[start:stop])
                for draft in columns
                for row, start, stop in zip(
                    draft.rows.tolist(),
                    draft.candidates.offsets[draft.rows].tolist(),
                    draft.candidates.offsets[draft.rows + 1].tolist(),
                )
            ]
        )
    )
    f2 = iter(features.f2_blocks([(draft.header, draft.type_ints) for draft in columns]))
    entity_ids = engine.tables.entity_ids
    problems = []
    for table, (drafted, pairs) in zip(tables, drafts):
        spaces = []
        for column, draft in enumerate(drafted):
            f1_rows = [next(f1) for _row in range(len(draft.rows))]
            spaces.append(
                ColumnSpace(
                    column=column,
                    header=draft.header,
                    rows=draft.rows,
                    offsets=draft.candidates.offsets[
                        np.concatenate((draft.rows, [len(draft.texts)]))
                    ],
                    entities=tuple(
                        entity_ids[i] for i in draft.candidates.entities.tolist()
                    ),
                    scores=draft.scores,
                    f1=(
                        np.concatenate(f1_rows)
                        if f1_rows
                        else np.zeros((0, len(F1_FEATURE_NAMES)))
                    ),
                    types=(NA,) + draft.types,
                    f2=next(f2),
                    f3=features.f3_block(draft.type_ints, draft.candidates),
                )
            )
        problems.append(
            AnnotationProblem(table=table, columns=tuple(spaces), pairs=tuple(pairs))
        )
    return problems


def build_problem(
    table: Table,
    engine: CandidateEngine,
    features: FeatureComputer,
    erc: Mapping[str, CellCandidates],
    max_column_pairs: int = 12,
) -> AnnotationProblem:
    """:func:`build_problems` of a run of one table."""
    (problem,) = build_problems([table], engine, features, erc, max_column_pairs)
    return problem


def candidate_products(
    features: np.ndarray, offsets: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``features @ weights`` over a whole candidate axis, bit for bit the
    products of each cell's own slice.

    ``features`` holds the candidates of a CSR of cells (``offsets``) on
    its second-to-last axis: f1 stacks, ``(n_candidates, |f1|)``, or a
    column's f3 grid, ``(n_types, n_candidates, |f3|)``.  One product runs
    over the whole axis.  A cell with exactly one candidate is redone on
    its own: NumPy multiplies a one-row slice as a dot product, whose sum
    order differs from the matrix-vector product of longer slices in the
    last bits.
    """
    # one matrix-vector product over every (row, candidate) at once; each
    # output of it equals the product of the cell's own slice
    values = (features.reshape(-1, features.shape[-1]) @ weights).reshape(
        features.shape[:-1]
    )
    singles = offsets[:-1][np.diff(offsets) == 1]
    if len(singles):
        values[..., singles] = (features[..., singles, None, :] @ weights)[..., 0]
    return values


# ----------------------------------------------------------------------
# joint feature map (structured learning)
# ----------------------------------------------------------------------
def joint_feature_vector(
    problem: AnnotationProblem,
    assignment: dict[str, str | None],
    with_relations: bool = True,
) -> np.ndarray:
    """The joint feature map Φ(table, assignment), flattened per FAMILY_LAYOUT.

    ``assignment`` maps variable names (``e:r,c`` / ``t:c`` / ``b:l,r``) to
    labels; missing variables count as na.  na labels contribute nothing, so
    ``w · Φ`` equals the assignment's log-score under equation (1).
    """
    phi1 = np.zeros(len(F1_FEATURE_NAMES))
    phi2 = np.zeros(len(F2_FEATURE_NAMES))
    phi3 = np.zeros(len(F3_FEATURE_NAMES))
    phi4 = np.zeros(len(F4_FEATURE_NAMES))
    phi5 = np.zeros(len(F5_FEATURE_NAMES))

    def label_index(labels: tuple[str | None, ...], name: str) -> int:
        """The assigned label's domain position; 0 (na) when the variable
        is unassigned or its label is outside the domain."""
        label = assignment.get(name, NA)
        return labels.index(label) if label in labels else 0

    # every cell's assigned domain position, per column (0 is na)
    picks = [
        [
            label_index(space.labels(cell), f"e:{row},{space.column}")
            for cell, row in enumerate(space.rows.tolist())
        ]
        for space in problem.columns
    ]
    for space, column_picks in zip(problem.columns, picks):
        for start, pick in zip(space.offsets.tolist(), column_picks):
            if pick:
                phi1 += space.f1[start + pick - 1]
    types = [
        label_index(space.types, space.variable_name) for space in problem.columns
    ]
    for space, column_picks, type_index in zip(problem.columns, picks, types):
        if not type_index:
            continue
        phi2 += space.f2[type_index - 1]
        for start, pick in zip(space.offsets.tolist(), column_picks):
            if pick:
                phi3 += space.f3[type_index - 1, start + pick - 1]
    if with_relations:
        for space in problem.pairs:
            relation_index = label_index(space.labels, space.variable_name)
            if not relation_index:
                continue
            left_type, right_type = types[space.left], types[space.right]
            if left_type and right_type:
                phi4 += space.f4[relation_index - 1, left_type - 1, right_type - 1]
            start = 0
            for left_cell, right_cell, n_left, n_right in zip(
                space.left_cells.tolist(),
                space.right_cells.tolist(),
                space.n_left.tolist(),
                space.n_right.tolist(),
            ):
                left = picks[space.left][left_cell]
                right = picks[space.right][right_cell]
                if left and right:
                    pair = start + (left - 1) * n_right + right - 1
                    phi5 += space.f5[relation_index - 1, pair]
                start += n_left * n_right
    return np.concatenate([phi1, phi2, phi3, phi4, phi5])
