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

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.catalog.catalog import Catalog
from repro.core.candidates import (
    CandidateEngine,
    CellCandidates,
    ColumnCandidates,
    PairCandidates,
)
from repro.core.features import TypeEntityFeatureMode, header_absent_features
from repro.tables.generator import base_relation
from repro.tables.model import Table
from repro.text.profile import (
    JaroWinklerCache,
    TokenProfile,
    text_lemma_features_profiled,
)

#: The "no annotation" label; always domain position 0.
NA = None


class FeatureComputer:
    """Feature assembly against one catalog, with cross-table memoisation.

    Blocks are assembled with array programs over the candidate engine's
    interned tables: f1/f2 run the profiled similarity battery
    (:mod:`repro.text.profile`), a column's f3 blocks are one gather from
    the interned (type × entity) grid and a column pair's f5 blocks one
    ``searchsorted`` per label of every row's packed pair keys, each cut
    into per-row views.  The element-loop reading of every family lives in
    ``tests/oracles``; the equivalence tests pin the blocks bit for bit
    against it.

    f3 and f5 need no memo: the grid and the tuple keys hold every value,
    built once with the tables.  The per-(relation, type) f4 sides are
    memoised per element, and so are the Jaro-Winkler scores and lemma
    profiles behind f1/f2; a cell or header text's own profile is rebuilt
    per block (a memo of those saved under 1% of a corpus crawl).

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
        self._jw = JaroWinklerCache()
        self._entity_profiles: dict[str, tuple[TokenProfile, ...]] = {}
        self._type_profiles: dict[str, tuple[TokenProfile, ...]] = {}

    # -- profiles ---------------------------------------------------------
    def _lemma_profiles(
        self,
        cache: dict[str, tuple[TokenProfile, ...]],
        lemmas: tuple[str, ...],
        key: str,
    ) -> tuple[TokenProfile, ...]:
        profiles = cache.get(key)
        if profiles is None:
            weights = self.engine.lemma_tfidf
            profiles = tuple(
                TokenProfile.from_text(lemma, weights) for lemma in lemmas
            )
            cache[key] = profiles
        return profiles

    # -- f1 / f2 ----------------------------------------------------------
    def f1_block(
        self, cell_text: str, entity_ids: tuple[str, ...]
    ) -> np.ndarray:
        """f1 rows for one cell's candidate list, shape (n_entities, |f1|),
        read-only, through ``block_cache`` when one is attached."""
        cache = self.block_cache
        key = ("f1", cell_text, entity_ids)
        block = cache.get(key) if cache is not None else None
        if block is None:
            profile = TokenProfile.from_text(cell_text, self.engine.lemma_tfidf)
            block = np.stack(
                [
                    text_lemma_features_profiled(
                        profile,
                        self._lemma_profiles(
                            self._entity_profiles,
                            self.catalog.entities.lemmas(entity_id),
                            entity_id,
                        ),
                        self._jw,
                    )
                    for entity_id in entity_ids
                ]
            )
            block.flags.writeable = False
            if cache is not None:
                cache.put(key, block)
        return block

    def f2_block(
        self, header_text: str | None, type_ids: tuple[str, ...]
    ) -> np.ndarray:
        """f2 rows for one column's candidate types, shape (n_types, |f2|)."""
        if header_text is None or not header_text.strip():
            return np.stack([header_absent_features() for _ in type_ids])
        profile = TokenProfile.from_text(header_text, self.engine.lemma_tfidf)
        rows = [
            text_lemma_features_profiled(
                profile,
                self._lemma_profiles(
                    self._type_profiles,
                    self.catalog.types.lemmas(type_id),
                    type_id,
                ),
                self._jw,
            )
            for type_id in type_ids
        ]
        return np.stack(rows)

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

    def f3_blocks(
        self, type_ints: np.ndarray, column: ColumnCandidates
    ) -> dict[int, np.ndarray]:
        """f3 of a column's candidate types against each row's candidate
        entities, shape (n_types, n_entities, |f3|) per row with
        candidates: one gather for the whole column, cut into row views."""
        pairs = type_ints[:, None] * self._f3_grid.shape[1] + column.entities
        grid = np.take(self._f3_rows, pairs, axis=0)
        return {row: grid[:, start:stop] for row, start, stop in column.blocks()}

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
    def f5_blocks(
        self, relations: list[tuple[str, int, bool]], pairs: PairCandidates
    ) -> dict[int, np.ndarray]:
        """f5 of a column pair's candidate relations (``Bcc'`` as
        :meth:`~repro.core.candidates.CandidateEngine.relation_candidates`
        returns it) against each row's candidate pairs, shape (n_labels,
        n_left, n_right, |f5|) per row where both sides have candidates.

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
        return {
            row: flat[:, start:stop].reshape(len(relations), n_left, n_right, 2)
            for row, start, stop, n_left, n_right in pairs.blocks()
        }


@dataclass
class CellSpace:
    """Candidate space and f1 features of one cell."""

    row: int
    column: int
    text: str
    #: domain = (NA,) + concrete entity ids, best retrieval score first
    labels: tuple[str | None, ...]
    #: retrieval scores of the concrete labels
    scores: np.ndarray
    #: f1 features of concrete labels, shape (n_concrete, |f1|)
    f1: np.ndarray

    @property
    def variable_name(self) -> str:
        return f"e:{self.row},{self.column}"


@dataclass
class ColumnSpace:
    """Candidate space and f2/f3 features of one column."""

    column: int
    header: str | None
    #: domain = (NA,) + concrete type ids
    labels: tuple[str | None, ...]
    #: f2 features of concrete labels, shape (n_concrete, |f2|)
    f2: np.ndarray
    #: per-row f3 arrays, shape (n_concrete_types, n_concrete_entities, |f3|)
    f3: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def variable_name(self) -> str:
        return f"t:{self.column}"


@dataclass
class PairSpace:
    """Candidate space and f4/f5 features of an ordered column pair."""

    left: int
    right: int
    #: domain = (NA,) + concrete relation labels (possibly ``^-1``-suffixed)
    labels: tuple[str | None, ...]
    #: f4 array, shape (n_concrete, n_left_types, n_right_types, |f4|)
    f4: np.ndarray
    #: per-row f5 arrays, shape (n_concrete, n_left_ents, n_right_ents, |f5|)
    f5: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def variable_name(self) -> str:
        return f"b:{self.left},{self.right}"


@dataclass
class AnnotationProblem:
    """Everything weight-independent about annotating one table."""

    table: Table
    cells: dict[tuple[int, int], CellSpace]
    columns: dict[int, ColumnSpace]
    pairs: dict[tuple[int, int], PairSpace]

    def stats(self) -> dict[str, float]:
        """Candidate-space statistics (feeds the §6.1.1 candidate bench)."""
        entity_counts = [len(space.labels) - 1 for space in self.cells.values()]
        type_counts = [len(space.labels) - 1 for space in self.columns.values()]
        relation_counts = [len(space.labels) - 1 for space in self.pairs.values()]
        return {
            "cells_with_candidates": len(entity_counts),
            "avg_entity_candidates": (
                float(np.mean(entity_counts)) if entity_counts else 0.0
            ),
            "avg_type_candidates": float(np.mean(type_counts)) if type_counts else 0.0,
            "avg_relation_candidates": (
                float(np.mean(relation_counts)) if relation_counts else 0.0
            ),
        }


def build_problem(
    table: Table,
    engine: CandidateEngine,
    features: FeatureComputer,
    erc: Mapping[str, CellCandidates],
    max_column_pairs: int = 12,
) -> AnnotationProblem:
    """Construct the candidate spaces and feature caches for one table.

    ``erc`` maps each cell text of the table to its resolved ``Erc``
    (:meth:`~repro.core.annotator.TableAnnotator.resolve_candidates`
    answers a whole bucket in one engine call); ``Tc`` and ``Bcc'`` come
    from ``engine``, one whole-column array pass each over the interned
    entity ints, and the f3 and f5 blocks of a column or column pair from
    one gather or one ``searchsorted`` per label.  Cells without candidates
    (numeric/blank/unmatched) get no variable — their label is forced to
    na.  Column pairs are considered for every ordered pair of columns that
    both carry a type variable; pairs with no candidate relation get no
    variable.  ``max_column_pairs`` caps quadratic blow-up on very wide
    tables (the widest pairs by candidate support are kept).
    """
    entity_ids = engine.tables.entity_ids
    type_ids = engine.tables.type_ids
    cells: dict[tuple[int, int], CellSpace] = {}
    column_candidates: list[ColumnCandidates] = []
    for column in range(table.n_columns):
        per_row: list[CellCandidates] = []
        for row in range(table.n_rows):
            text = table.cell(row, column)
            found = erc[text]
            per_row.append(found)
            if len(found.entities):
                ids = tuple(entity_ids[i] for i in found.entities.tolist())
                cells[(row, column)] = CellSpace(
                    row=row,
                    column=column,
                    text=text,
                    labels=(NA,) + ids,
                    scores=found.scores,
                    f1=features.f1_block(text, ids),
                )
        column_candidates.append(ColumnCandidates.of(per_row))

    columns: dict[int, ColumnSpace] = {}
    for column, candidates in enumerate(column_candidates):
        type_ints = engine.column_type_candidates(candidates)
        if not len(type_ints):
            continue
        types = tuple(type_ids[t] for t in type_ints.tolist())
        header = table.header(column)
        columns[column] = ColumnSpace(
            column=column,
            header=header,
            labels=(NA,) + types,
            f2=features.f2_block(header, types),
            f3=features.f3_blocks(type_ints, candidates),
        )

    candidate_pairs: list[
        tuple[int, int, list[tuple[str, int, bool]], PairCandidates]
    ] = []
    for left in columns:
        for right in columns:
            if left >= right:
                continue
            row_pairs = PairCandidates.of(
                column_candidates[left], column_candidates[right], len(entity_ids)
            )
            relations = engine.relation_candidates(row_pairs)
            if relations:
                candidate_pairs.append((left, right, relations, row_pairs))
    candidate_pairs.sort(key=lambda item: (-len(item[2]), item[0], item[1]))
    pairs: dict[tuple[int, int], PairSpace] = {}
    for left, right, relations, row_pairs in candidate_pairs[:max_column_pairs]:
        labels = tuple(label for label, _relation, _reverse in relations)
        pairs[(left, right)] = PairSpace(
            left=left,
            right=right,
            labels=(NA,) + labels,
            f4=features.f4_block(
                labels, columns[left].labels[1:], columns[right].labels[1:]
            ),
            f5=features.f5_blocks(relations, row_pairs),
        )

    return AnnotationProblem(table=table, cells=cells, columns=columns, pairs=pairs)


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
    from repro.core.features import (
        F1_FEATURE_NAMES,
        F2_FEATURE_NAMES,
        F3_FEATURE_NAMES,
        F4_FEATURE_NAMES,
        F5_FEATURE_NAMES,
    )

    phi1 = np.zeros(len(F1_FEATURE_NAMES))
    phi2 = np.zeros(len(F2_FEATURE_NAMES))
    phi3 = np.zeros(len(F3_FEATURE_NAMES))
    phi4 = np.zeros(len(F4_FEATURE_NAMES))
    phi5 = np.zeros(len(F5_FEATURE_NAMES))

    def label_index(labels: tuple[str | None, ...], label: str | None) -> int | None:
        try:
            return labels.index(label)
        except ValueError:
            return None

    for space in problem.cells.values():
        label = assignment.get(space.variable_name, NA)
        index = label_index(space.labels, label)
        if index is None or index == 0:
            continue
        phi1 += space.f1[index - 1]
    for space in problem.columns.values():
        type_label = assignment.get(space.variable_name, NA)
        type_index = label_index(space.labels, type_label)
        if type_index is None or type_index == 0:
            continue
        phi2 += space.f2[type_index - 1]
        for row, f3 in space.f3.items():
            cell = problem.cells[(row, space.column)]
            entity_label = assignment.get(cell.variable_name, NA)
            entity_index = label_index(cell.labels, entity_label)
            if entity_index is None or entity_index == 0:
                continue
            phi3 += f3[type_index - 1, entity_index - 1]
    if with_relations:
        for space in problem.pairs.values():
            relation_label = assignment.get(space.variable_name, NA)
            relation_index = label_index(space.labels, relation_label)
            if relation_index is None or relation_index == 0:
                continue
            left_space = problem.columns[space.left]
            right_space = problem.columns[space.right]
            left_type_index = label_index(
                left_space.labels, assignment.get(left_space.variable_name, NA)
            )
            right_type_index = label_index(
                right_space.labels, assignment.get(right_space.variable_name, NA)
            )
            if (
                left_type_index is not None
                and right_type_index is not None
                and left_type_index > 0
                and right_type_index > 0
            ):
                phi4 += space.f4[
                    relation_index - 1, left_type_index - 1, right_type_index - 1
                ]
            for row, f5 in space.f5.items():
                left_cell = problem.cells[(row, space.left)]
                right_cell = problem.cells[(row, space.right)]
                left_index = label_index(
                    left_cell.labels, assignment.get(left_cell.variable_name, NA)
                )
                right_index = label_index(
                    right_cell.labels, assignment.get(right_cell.variable_name, NA)
                )
                if (
                    left_index is None
                    or right_index is None
                    or left_index == 0
                    or right_index == 0
                ):
                    continue
                phi5 += f5[relation_index - 1, left_index - 1, right_index - 1]
    return np.concatenate([phi1, phi2, phi3, phi4, phi5])
