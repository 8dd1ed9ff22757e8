"""Per-table annotation problems: candidate spaces, feature caches, graphs.

An :class:`AnnotationProblem` is everything about one table that does *not*
depend on the model weights: the candidate label spaces (``Erc``, ``Tc``,
``Bcc'`` — each with ``na`` at domain position 0) and the raw feature arrays
for every concrete label combination.  Given a weight vector the problem is
turned into a :class:`~repro.graph.factor_graph.FactorGraph` (potentials are
dot products) in :func:`build_factor_graph`, and — for the structured
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
from repro.core.candidates import BoundedMemo, CandidateEngine, CandidateEntity
from repro.core.features import TypeEntityFeatureMode, header_absent_features
from repro.core.model import AnnotationModel
from repro.graph.factor_graph import FactorGraph
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
    (:mod:`repro.text.profile`), f3 blocks gather from the interned
    (type × entity) grid and f5 grids are ``searchsorted`` membership
    tests over per-relation tuple keys.  The element-loop reading of every
    family lives in ``tests/oracles``; the equivalence tests pin the blocks
    bit for bit against it.

    f3 needs no memo: the grid holds every value, built once with the
    tables.  The per-(relation, type) f4 sides are memoised per element.
    ``block_cache``, when attached (the annotation pipeline does this),
    memoises the blocks that recur across tables — whole *assembled* f1
    and f5 arrays keyed by the candidate-space tuples.  f2 and f4 blocks
    almost never recur (a column's header with its exact type list, a
    pair's relation and type lists), so they are built directly.
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
        self._f4_side_cache: dict[tuple[str, str], tuple[float, float, float, float]] = {}
        self._jw = JaroWinklerCache()
        self._text_profiles = BoundedMemo()
        self._entity_profiles: dict[str, tuple[TokenProfile, ...]] = {}
        self._type_profiles: dict[str, tuple[TokenProfile, ...]] = {}
        self._participant_cache: dict[tuple[int, str], np.ndarray] = {}

    def _block(self, key: tuple, build) -> np.ndarray:
        """Assembled-array memoisation through ``block_cache`` when attached."""
        cache = self.block_cache
        if cache is None:
            return build()
        cached = cache.get(key)
        if cached is None:
            cached = build()
            cache.put(key, cached)
        return cached

    # -- profiles ---------------------------------------------------------
    def _text_profile(self, text: str) -> TokenProfile:
        profile = self._text_profiles.get(text)
        if profile is None:
            profile = TokenProfile.from_text(text, self.engine.lemma_tfidf)
            self._text_profiles.put(text, profile)
        return profile

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
        """f1 rows for one cell's candidate list, shape (n_entities, |f1|)."""

        def build() -> np.ndarray:
            profile = self._text_profile(cell_text)
            rows = [
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
            return np.stack(rows)

        return self._block(("f1", cell_text, entity_ids), build)

    def f2_block(
        self, header_text: str | None, type_ids: tuple[str, ...]
    ) -> np.ndarray:
        """f2 rows for one column's candidate types, shape (n_types, |f2|)."""
        if header_text is None or not header_text.strip():
            return np.stack([header_absent_features() for _ in type_ids])
        profile = self._text_profile(header_text)
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

    def f3_block(
        self, type_ids: tuple[str, ...], entity_ids: tuple[str, ...]
    ) -> np.ndarray:
        """f3 grid for one cell, shape (n_types, n_entities, |f3|): one
        gather (broadcast index arrays, which skip ``np.ix_``'s per-call
        reshapes)."""
        tables = self.engine.tables
        type_ints = tables.intern("type", type_ids)
        entity_ints = tables.intern("entity", entity_ids)
        return self._f3_grid[type_ints[:, None], entity_ints]

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
        self,
        labels: tuple[str, ...],
        left_ids: tuple[str, ...],
        right_ids: tuple[str, ...],
    ) -> np.ndarray:
        """f5 grid for one row of a pair, shape (n_labels, n_left, n_right, |f5|)."""
        return self._block(
            ("f5", labels, left_ids, right_ids),
            lambda: self._f5_grid(labels, left_ids, right_ids),
        )

    def _f5_grid(
        self,
        labels: tuple[str, ...],
        left_ids: tuple[str, ...],
        right_ids: tuple[str, ...],
    ) -> np.ndarray:
        tables = self.engine.tables
        left_ints = tables.intern("entity", left_ids)
        right_ints = tables.intern("entity", right_ids)
        bases = [base_relation(label) for label in labels]
        relation_ints = tables.intern(
            "relation", [relation_id for relation_id, _reverse in bases]
        )
        block = np.zeros(
            (len(labels), len(left_ids), len(right_ids), 2), dtype=np.float64
        )
        n_entities = len(tables.entity_ids)
        for b_index, ((relation_id, reverse), relation_int) in enumerate(
            zip(bases, relation_ints.tolist())
        ):
            start = tables.tuple_offsets[relation_int]
            stop = tables.tuple_offsets[relation_int + 1]
            relation_keys = tables.tuple_keys_by_relation[start:stop]
            # grid layout is [left, right]; the subject role swaps side for
            # reversed labels, exactly as in relation_entities_features
            if reverse:
                keys = left_ints[:, None] + right_ints[None, :] * n_entities
            else:
                keys = left_ints[:, None] * n_entities + right_ints[None, :]
            if len(relation_keys):
                positions = np.searchsorted(relation_keys, keys)
                positions = np.minimum(positions, len(relation_keys) - 1)
                exists = relation_keys[positions] == keys
            else:
                exists = np.zeros(keys.shape, dtype=bool)
            relation = self.catalog.relations.get(relation_id)
            violation = np.zeros(keys.shape, dtype=bool)
            if relation.cardinality.subject_functional:
                # a subject with any catalog tuple contradicts a non-tuple
                # pairing (the &= ~exists below restricts to those)
                active = self._relation_participants(relation_int, "subject")
                if reverse:
                    violation |= active[right_ints][None, :]
                else:
                    violation |= active[left_ints][:, None]
            if relation.cardinality.object_functional:
                active = self._relation_participants(relation_int, "object")
                if reverse:
                    violation |= active[left_ints][:, None]
                else:
                    violation |= active[right_ints][None, :]
            violation &= ~exists
            block[b_index, :, :, 0] = exists
            block[b_index, :, :, 1] = violation
        return block

    def _relation_participants(self, relation_int: int, role: str) -> np.ndarray:
        """Bool-per-entity: participates in the relation as ``role``."""
        cache = self._participant_cache
        key = (relation_int, role)
        active = cache.get(key)
        if active is None:
            tables = self.engine.tables
            n_entities = len(tables.entity_ids)
            start = tables.tuple_offsets[relation_int]
            stop = tables.tuple_offsets[relation_int + 1]
            keys = tables.tuple_keys_by_relation[start:stop]
            members = keys // n_entities if role == "subject" else keys % n_entities
            active = np.zeros(n_entities, dtype=bool)
            active[members] = True
            cache[key] = active
        return active


@dataclass
class CellSpace:
    """Candidate space and f1 features of one cell."""

    row: int
    column: int
    text: str
    candidates: list[CandidateEntity]
    #: domain = (NA,) + concrete entity ids
    labels: tuple[str | None, ...]
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

    def cell_labels(self, row: int, column: int) -> tuple[str | None, ...]:
        space = self.cells.get((row, column))
        return space.labels if space else (NA,)

    def stats(self) -> dict[str, float]:
        """Candidate-space statistics (feeds the §6.1.1 candidate bench)."""
        entity_counts = [len(space.candidates) for space in self.cells.values()]
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
    erc: Mapping[str, list[CandidateEntity]],
    max_column_pairs: int = 12,
) -> AnnotationProblem:
    """Construct the candidate spaces and feature caches for one table.

    ``erc`` maps each cell text of the table to its resolved ``Erc`` list
    (:meth:`~repro.core.annotator.TableAnnotator.resolve_candidates`
    answers a whole bucket in one engine call); ``Tc`` and ``Bcc'`` come
    from ``engine``.  Cells without candidates (numeric/blank/unmatched) get
    no variable — their label is forced to na.  Column pairs are considered
    for every ordered pair of columns that both carry a type variable; pairs
    with no candidate relation get no variable.  ``max_column_pairs`` caps
    quadratic blow-up on very wide tables (the widest pairs by candidate
    support are kept).
    """
    cells: dict[tuple[int, int], CellSpace] = {}
    column_candidates: dict[int, list[list[CandidateEntity]]] = {}
    for column in range(table.n_columns):
        per_row: list[list[CandidateEntity]] = []
        for row in range(table.n_rows):
            text = table.cell(row, column)
            candidates = erc[text]
            per_row.append(candidates)
            if candidates:
                f1 = features.f1_block(
                    text, tuple(c.entity_id for c in candidates)
                )
                cells[(row, column)] = CellSpace(
                    row=row,
                    column=column,
                    text=text,
                    candidates=candidates,
                    labels=(NA,) + tuple(c.entity_id for c in candidates),
                    f1=f1,
                )
        column_candidates[column] = per_row

    columns: dict[int, ColumnSpace] = {}
    for column in range(table.n_columns):
        type_ids = engine.column_type_candidates(column_candidates[column])
        if not type_ids:
            continue
        header = table.header(column)
        f2 = features.f2_block(header, tuple(type_ids))
        space = ColumnSpace(
            column=column,
            header=header,
            labels=(NA,) + tuple(type_ids),
            f2=f2,
        )
        for row in range(table.n_rows):
            cell = cells.get((row, column))
            if cell is None:
                continue
            space.f3[row] = features.f3_block(
                tuple(type_ids),
                tuple(c.entity_id for c in cell.candidates),
            )
        columns[column] = space

    pairs: dict[tuple[int, int], PairSpace] = {}
    candidate_pairs: list[tuple[int, int, list[str]]] = []
    for left in sorted(columns):
        for right in sorted(columns):
            if left >= right:
                continue
            labels = engine.relation_candidates(
                column_candidates[left], column_candidates[right]
            )
            if labels:
                candidate_pairs.append((left, right, labels))
    candidate_pairs.sort(key=lambda item: (-len(item[2]), item[0], item[1]))
    for left, right, labels in candidate_pairs[:max_column_pairs]:
        left_types = columns[left].labels[1:]
        right_types = columns[right].labels[1:]
        f4 = features.f4_block(tuple(labels), left_types, right_types)
        space = PairSpace(
            left=left,
            right=right,
            labels=(NA,) + tuple(labels),
            f4=f4,
        )
        for row in range(table.n_rows):
            left_cell = cells.get((row, left))
            right_cell = cells.get((row, right))
            if left_cell is None or right_cell is None:
                continue
            space.f5[row] = features.f5_block(
                tuple(labels),
                tuple(c.entity_id for c in left_cell.candidates),
                tuple(c.entity_id for c in right_cell.candidates),
            )
        pairs[(left, right)] = space

    return AnnotationProblem(table=table, cells=cells, columns=columns, pairs=pairs)


# ----------------------------------------------------------------------
# factor-graph construction
# ----------------------------------------------------------------------
def build_factor_graph(
    problem: AnnotationProblem,
    model: AnnotationModel,
    with_relations: bool = True,
) -> FactorGraph:
    """Materialise equation (1) as a log-space factor graph.

    Potentials for any combination involving na are identically zero ("no
    feature is fired if label na is involved").  With
    ``with_relations=False`` the bcc'/φ4/φ5 parts are omitted — the
    polynomial special case of Section 4.4.1.
    """
    graph = FactorGraph()
    for space in problem.cells.values():
        unary = np.concatenate(([0.0], space.f1 @ model.w1))
        graph.add_variable(space.variable_name, space.labels, unary, kind="entity")
    for space in problem.columns.values():
        unary = np.concatenate(([0.0], space.f2 @ model.w2))
        graph.add_variable(space.variable_name, space.labels, unary, kind="type")
        for row, f3 in space.f3.items():
            table = np.zeros((len(space.labels), f3.shape[1] + 1))
            table[1:, 1:] = f3 @ model.w3
            graph.add_factor(
                f"phi3:{row},{space.column}",
                (space.variable_name, f"e:{row},{space.column}"),
                table,
                kind="phi3",
            )
    if not with_relations:
        return graph
    for space in problem.pairs.values():
        left_var = f"t:{space.left}"
        right_var = f"t:{space.right}"
        graph.add_variable(
            space.variable_name,
            space.labels,
            np.zeros(len(space.labels)),
            kind="relation",
        )
        n_left_types = len(problem.columns[space.left].labels)
        n_right_types = len(problem.columns[space.right].labels)
        phi4 = np.zeros((len(space.labels), n_left_types, n_right_types))
        phi4[1:, 1:, 1:] = space.f4 @ model.w4
        graph.add_factor(
            f"phi4:{space.left},{space.right}",
            (space.variable_name, left_var, right_var),
            phi4,
            kind="phi4",
        )
        for row, f5 in space.f5.items():
            phi5 = np.zeros(
                (len(space.labels), f5.shape[1] + 1, f5.shape[2] + 1)
            )
            phi5[1:, 1:, 1:] = f5 @ model.w5
            graph.add_factor(
                f"phi5:{row}:{space.left},{space.right}",
                (
                    space.variable_name,
                    f"e:{row},{space.left}",
                    f"e:{row},{space.right}",
                ),
                phi5,
                kind="phi5",
            )
    return graph


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
    ``w · Φ`` equals the factor graph's log-score.
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
