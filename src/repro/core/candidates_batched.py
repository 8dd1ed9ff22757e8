"""The batched candidate engine: array-backed ``Erc`` / ``Tc`` / ``Bcc'``.

The scalar :class:`~repro.core.candidates.CandidateGenerator` resolves every
definition of Section 4.3 with per-cell Python loops: a dense lemma-index
probe per cell, a ``type_ancestors`` set walk per candidate and an
O(rows·k²) ``relations_between`` dict probe per column pair.  Our Figure-7
measurements show that stage at ~90% of per-table wall time once inference
is batched — so, like the fused BP engine of :mod:`repro.graph.fused`, the
work moves into **build-time array layouts** plus vectorised queries:

* :class:`InternedCandidateTables` interns entity / type / relation ids to
  dense integers once per catalog and packs the derived structure the hot
  paths need — per-entity type-ancestor arrays (ragged: offsets + flat),
  per-type IDF specificity, a sorted ``(subject, object) → relations`` pair
  table and per-relation tuple-key arrays with functionality flags.  The
  tables serialize to flat arrays (:meth:`InternedCandidateTables.to_state`)
  and ship inside artifact bundles, so warm servers skip this build too.
* :class:`BatchedCandidateEngine` is a drop-in ``CandidateGenerator``:
  ``Erc`` comes from :meth:`~repro.text.index.InvertedIndex.search_batch`
  (all distinct non-numeric cells of a table scored at once in compact id
  space), ``Tc`` is two ``np.bincount`` passes over stacked ancestor arrays,
  and ``Bcc'`` is a sorted-array join over packed pair keys with per-row-pair
  memoisation.
* :class:`BatchedFeatureComputer` extends the scalar
  :class:`~repro.core.problem.FeatureComputer` with vectorised *assembly*:
  f1/f2 run the profiled similarity battery (:mod:`repro.text.profile`),
  f3 grids gather from one interned (type × entity) matrix, and f5 grids are
  ``searchsorted`` membership tests over per-relation tuple keys.

Everything is value-equivalent to the scalar path — identical candidate ids,
scores and ordering, bit-identical feature blocks, byte-identical
annotations.  The equivalence tests in ``tests/core/test_batched_candidates``
assert exactly that, and unknown ids (entities outside the interned catalog)
fall back to the scalar implementation rather than guessing.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from repro.catalog.catalog import Catalog
from repro.core.candidates import CandidateEntity, CandidateGenerator
from repro.core.features import TypeEntityFeatureMode, type_entity_features
from repro.core.problem import FeatureComputer
from repro.tables.generator import base_relation, reversed_label
from repro.text.index import InvertedIndex
from repro.text.normalize import is_numeric_text
from repro.text.profile import (
    JaroWinklerCache,
    TokenProfile,
    text_lemma_features_profiled,
)

#: Dense-f3-matrix ceiling: above this many (type × entity) pairs the
#: interned grid would dominate memory, so f3 assembly falls back to the
#: scalar per-pair cache.
MAX_DENSE_F3_CELLS = 8_000_000

#: Bound on the per-row-pair relation memo and the cell-text profile cache.
_MEMO_ENTRIES = 65_536


class _BoundedMemo:
    """Tiny thread-safe LRU dict for text-keyed memos (no stats).

    Engines and feature computers are shared across serving / pipeline
    worker threads, so the recency shuffle and eviction run under a lock.
    """

    def __init__(self, max_entries: int = _MEMO_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)


class InternedCandidateTables:
    """Catalog structure interned into dense integer arrays (immutable).

    Built once per catalog (or loaded from a bundle) and shared by every
    pipeline; assumes the build-then-query pattern the catalog documents —
    mutating the catalog afterwards requires rebuilding the tables.
    """

    def __init__(
        self,
        entity_ids: tuple[str, ...],
        type_ids: tuple[str, ...],
        relation_ids: tuple[str, ...],
        anc_offsets: np.ndarray,
        anc_flat: np.ndarray,
        type_specificity: np.ndarray,
        pair_keys: np.ndarray,
        pair_offsets: np.ndarray,
        pair_relations: np.ndarray,
        tuple_offsets: np.ndarray,
        tuple_keys_by_relation: np.ndarray,
    ) -> None:
        self.entity_ids = entity_ids
        self.type_ids = type_ids
        self.relation_ids = relation_ids
        #: ``relation_ids[i]`` read right-to-left (the ``^-1`` labels)
        self.reversed_ids = tuple(reversed_label(r) for r in relation_ids)
        self.entity_index = {e: i for i, e in enumerate(entity_ids)}
        self.type_index = {t: i for i, t in enumerate(type_ids)}
        self.relation_index = {r: i for i, r in enumerate(relation_ids)}
        #: entity i's type ancestors: ``anc_flat[anc_offsets[i]:anc_offsets[i+1]]``
        self.anc_offsets = anc_offsets
        self.anc_flat = anc_flat
        #: ``catalog.type_idf_specificity`` per interned type
        self.type_specificity = type_specificity
        #: sorted unique directed pair keys (``subject·N + object``); the
        #: relations holding pair ``p`` are
        #: ``pair_relations[pair_offsets[p]:pair_offsets[p+1]]``
        self.pair_keys = pair_keys
        self.pair_offsets = pair_offsets
        self.pair_relations = pair_relations
        #: relation r's sorted tuple keys:
        #: ``tuple_keys_by_relation[tuple_offsets[r]:tuple_offsets[r+1]]``
        self.tuple_offsets = tuple_offsets
        self.tuple_keys_by_relation = tuple_keys_by_relation

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "InternedCandidateTables":
        entity_ids = tuple(sorted(entity_id for entity_id in catalog.entities))
        type_ids = tuple(sorted(type_id for type_id in catalog.types))
        relation_ids = tuple(sorted(catalog.relations))
        entity_index = {e: i for i, e in enumerate(entity_ids)}
        type_index = {t: i for i, t in enumerate(type_ids)}

        anc_offsets = np.zeros(len(entity_ids) + 1, dtype=np.int64)
        ancestor_arrays: list[np.ndarray] = []
        for i, entity_id in enumerate(entity_ids):
            ancestors = sorted(
                type_index[t] for t in catalog.type_ancestors(entity_id)
            )
            anc_offsets[i + 1] = anc_offsets[i] + len(ancestors)
            ancestor_arrays.append(np.asarray(ancestors, dtype=np.int64))
        anc_flat = (
            np.concatenate(ancestor_arrays)
            if ancestor_arrays
            else np.zeros(0, dtype=np.int64)
        )

        type_specificity = np.array(
            [catalog.type_idf_specificity(t) for t in type_ids]
        )

        n_entities = len(entity_ids)
        keys: list[int] = []
        relations: list[int] = []
        tuple_offsets = np.zeros(len(relation_ids) + 1, dtype=np.int64)
        tuple_key_arrays: list[np.ndarray] = []
        for r, relation_id in enumerate(relation_ids):
            relation_keys = sorted(
                entity_index[subject] * n_entities + entity_index[object_]
                for subject, object_ in catalog.relations.tuples(relation_id)
            )
            tuple_offsets[r + 1] = tuple_offsets[r] + len(relation_keys)
            tuple_key_arrays.append(np.asarray(relation_keys, dtype=np.int64))
            keys.extend(relation_keys)
            relations.extend([r] * len(relation_keys))
        tuple_keys_by_relation = (
            np.concatenate(tuple_key_arrays)
            if tuple_key_arrays
            else np.zeros(0, dtype=np.int64)
        )

        key_array = np.asarray(keys, dtype=np.int64)
        relation_array = np.asarray(relations, dtype=np.int64)
        order = np.lexsort((relation_array, key_array))
        key_array = key_array[order]
        relation_array = relation_array[order]
        if len(key_array):
            starts = np.flatnonzero(
                np.concatenate(([True], key_array[1:] != key_array[:-1]))
            )
            pair_keys = key_array[starts]
            pair_offsets = np.concatenate((starts, [len(key_array)])).astype(
                np.int64
            )
        else:
            pair_keys = np.zeros(0, dtype=np.int64)
            pair_offsets = np.zeros(1, dtype=np.int64)
        return cls(
            entity_ids=entity_ids,
            type_ids=type_ids,
            relation_ids=relation_ids,
            anc_offsets=anc_offsets,
            anc_flat=anc_flat,
            type_specificity=type_specificity,
            pair_keys=pair_keys,
            pair_offsets=pair_offsets,
            pair_relations=relation_array,
            tuple_offsets=tuple_offsets,
            tuple_keys_by_relation=tuple_keys_by_relation,
        )

    # ------------------------------------------------------------------
    # serialization (artifact bundles)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Flat-array export (bundle format; see :mod:`repro.serve.bundle`).

        A pure function of the catalog: build → export → import → export
        round-trips to identical arrays.
        """
        return {
            "entity_ids": list(self.entity_ids),
            "type_ids": list(self.type_ids),
            "relation_ids": list(self.relation_ids),
            "anc_offsets": self.anc_offsets,
            "anc_flat": self.anc_flat,
            "type_specificity": self.type_specificity,
            "pair_keys": self.pair_keys,
            "pair_offsets": self.pair_offsets,
            "pair_relations": self.pair_relations,
            "tuple_offsets": self.tuple_offsets,
            "tuple_keys_by_relation": self.tuple_keys_by_relation,
        }

    @classmethod
    def from_state(cls, state: dict) -> "InternedCandidateTables":
        """Rebuild from :meth:`to_state` output (arrays used as-is)."""
        return cls(
            entity_ids=tuple(state["entity_ids"]),
            type_ids=tuple(state["type_ids"]),
            relation_ids=tuple(state["relation_ids"]),
            anc_offsets=np.asarray(state["anc_offsets"], dtype=np.int64),
            anc_flat=np.asarray(state["anc_flat"], dtype=np.int64),
            type_specificity=np.asarray(state["type_specificity"]),
            pair_keys=np.asarray(state["pair_keys"], dtype=np.int64),
            pair_offsets=np.asarray(state["pair_offsets"], dtype=np.int64),
            pair_relations=np.asarray(state["pair_relations"], dtype=np.int64),
            tuple_offsets=np.asarray(state["tuple_offsets"], dtype=np.int64),
            tuple_keys_by_relation=np.asarray(
                state["tuple_keys_by_relation"], dtype=np.int64
            ),
        )


def _gather_ragged(
    offsets: np.ndarray, flat: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Concatenate ``flat[offsets[p]:offsets[p+1]]`` for every ``p`` given."""
    starts = offsets[positions]
    counts = (offsets[positions + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=flat.dtype)
    index = np.repeat(starts, counts) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    return flat[index]


class BatchedCandidateEngine:
    """Array-backed drop-in for :class:`CandidateGenerator` (see module docs).

    Wraps a scalar generator (sharing its frozen lemma index and TF-IDF
    table) and answers the same three candidate queries from the interned
    tables.  ``state`` restores prebuilt tables (bundle load path).
    """

    def __init__(
        self,
        generator: CandidateGenerator,
        tables: InternedCandidateTables | None = None,
    ) -> None:
        self._generator = generator
        self.catalog = generator.catalog
        self.top_k_entities = generator.top_k_entities
        self.max_type_candidates = generator.max_type_candidates
        self.lemma_tfidf = generator.lemma_tfidf
        self.tables = (
            tables
            if tables is not None
            else InternedCandidateTables.from_catalog(generator.catalog)
        )
        self._pair_memo = _BoundedMemo()

    @property
    def lemma_index(self) -> InvertedIndex:
        return self._generator.lemma_index

    @property
    def scalar_generator(self) -> CandidateGenerator:
        """The wrapped per-cell reference generator."""
        return self._generator

    # ------------------------------------------------------------------
    # Erc
    # ------------------------------------------------------------------
    def cell_candidates(self, cell_text: str) -> list[CandidateEntity]:
        """Single-cell probe (delegates to the scalar reference path)."""
        return self._generator.cell_candidates(cell_text)

    def cell_candidates_batch(
        self, cell_texts: list[str]
    ) -> list[list[CandidateEntity]]:
        """``Erc`` for every cell of a table (or pipeline batch) at once.

        Numeric/blank cells yield ``[]`` without touching the index; the
        distinct remaining texts are scored through
        :meth:`InvertedIndex.search_batch` in one pass.  Duplicate cells
        share one (immutable) candidate list.
        """
        results: list[list[CandidateEntity] | None] = [None] * len(cell_texts)
        distinct: dict[str, list[int]] = {}
        for position, cell_text in enumerate(cell_texts):
            text = cell_text.strip()
            if not text or is_numeric_text(text):
                results[position] = []
            else:
                distinct.setdefault(text, []).append(position)
        if distinct:
            queries = list(distinct)
            for query, hits in zip(
                queries,
                self.lemma_index.search_batch(queries, top_k=self.top_k_entities),
            ):
                candidates = [
                    CandidateEntity(entity_id=hit.key, retrieval_score=hit.score)
                    for hit in hits
                ]
                for position in distinct[query]:
                    results[position] = candidates
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Tc
    # ------------------------------------------------------------------
    def intern_entity_ids(self, entity_ids) -> np.ndarray | None:
        """Interned ids of an entity-id sequence; None when any is unknown."""
        index = self.tables.entity_index
        ints = np.zeros(len(entity_ids), dtype=np.int64)
        for i, entity_id in enumerate(entity_ids):
            interned = index.get(entity_id)
            if interned is None:
                return None
            ints[i] = interned
        return ints

    def _entity_ints(
        self, candidates: list[CandidateEntity]
    ) -> np.ndarray | None:
        """Interned ids of a candidate list; None when any id is unknown."""
        return self.intern_entity_ids(
            [candidate.entity_id for candidate in candidates]
        )

    def column_type_candidates(
        self, column_candidates: list[list[CandidateEntity]]
    ) -> list[str]:
        """``Tc`` via two bincounts over stacked ancestor arrays.

        Ranking matches the scalar generator exactly: (#cells supporting the
        type, #candidate entities under it, IDF specificity, type id).
        """
        tables = self.tables
        per_cell: list[np.ndarray] = []
        for candidates in column_candidates:
            if not candidates:
                continue
            ints = self._entity_ints(candidates)
            if ints is None:
                # unknown entity id: the interned tables cannot answer —
                # defer to the scalar reference for the whole column
                return self._generator.column_type_candidates(column_candidates)
            per_cell.append(
                _gather_ragged(tables.anc_offsets, tables.anc_flat, ints)
            )
        if not per_cell:
            return []
        n_types = len(tables.type_ids)
        entity_support = np.bincount(
            np.concatenate(per_cell), minlength=n_types
        )
        cell_support = np.bincount(
            np.concatenate([np.unique(ancestors) for ancestors in per_cell]),
            minlength=n_types,
        )
        supported = np.flatnonzero(cell_support)
        if not len(supported):
            return []
        # lexsort's last key is primary: cell support desc, entity support
        # desc, specificity desc, interned type id asc (== type id asc, the
        # ids are interned in sorted order)
        order = np.lexsort(
            (
                supported,
                -tables.type_specificity[supported],
                -entity_support[supported],
                -cell_support[supported],
            )
        )
        ranked = supported[order[: self.max_type_candidates]]
        return [tables.type_ids[i] for i in ranked.tolist()]

    # ------------------------------------------------------------------
    # Bcc'
    # ------------------------------------------------------------------
    def _pair_relation_ints(
        self, left_ints: np.ndarray, right_ints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(forward, reversed) relation ints joining one row's candidates."""
        tables = self.tables
        n_entities = len(tables.entity_ids)
        forward_keys = (
            left_ints[:, None] * n_entities + right_ints[None, :]
        ).reshape(-1)
        backward_keys = (
            right_ints[:, None] * n_entities + left_ints[None, :]
        ).reshape(-1)
        found: list[np.ndarray] = []
        for keys in (forward_keys, backward_keys):
            positions = np.searchsorted(tables.pair_keys, keys)
            positions = np.minimum(positions, len(tables.pair_keys) - 1)
            matched = (
                positions[tables.pair_keys[positions] == keys]
                if len(tables.pair_keys)
                else np.zeros(0, dtype=np.int64)
            )
            found.append(
                np.unique(
                    _gather_ragged(
                        tables.pair_offsets, tables.pair_relations, matched
                    )
                )
            )
        return found[0], found[1]

    def relation_candidates(
        self,
        left_candidates: list[list[CandidateEntity]],
        right_candidates: list[list[CandidateEntity]],
    ) -> list[str]:
        """``Bcc'`` as sorted-array pair joins with per-row-pair memoisation."""
        tables = self.tables
        forward: set[int] = set()
        backward: set[int] = set()
        for row_left, row_right in zip(left_candidates, right_candidates):
            if not row_left or not row_right:
                continue
            memo_key = (
                tuple(candidate.entity_id for candidate in row_left),
                tuple(candidate.entity_id for candidate in row_right),
            )
            cached = self._pair_memo.get(memo_key)
            if cached is None:
                left_ints = self._entity_ints(row_left)
                right_ints = self._entity_ints(row_right)
                if left_ints is None or right_ints is None:
                    return self._generator.relation_candidates(
                        left_candidates, right_candidates
                    )
                cached = self._pair_relation_ints(left_ints, right_ints)
                self._pair_memo.put(memo_key, cached)
            forward.update(cached[0].tolist())
            backward.update(cached[1].tolist())
        labels = {tables.relation_ids[r] for r in forward}
        labels.update(tables.reversed_ids[r] for r in backward)
        return sorted(labels)


class BatchedFeatureComputer(FeatureComputer):
    """:class:`FeatureComputer` with vectorised block assembly.

    The element features (f1..f5 per concrete label) are unchanged — the
    batched paths produce bit-identical arrays, they just stop paying a
    Python call per element.  Blocks still flow through ``block_cache`` when
    the pipeline attaches one.
    """

    def __init__(
        self,
        catalog: Catalog,
        mode: TypeEntityFeatureMode,
        generator,
        engine: BatchedCandidateEngine,
    ) -> None:
        super().__init__(catalog, mode, generator)
        self.engine = engine
        tables = engine.tables
        self._jw = JaroWinklerCache()
        self._text_profiles = _BoundedMemo()
        self._entity_profiles: dict[str, tuple[TokenProfile, ...]] = {}
        self._type_profiles: dict[str, tuple[TokenProfile, ...]] = {}
        # dense interned f3 grid (lazy; gated on catalog size)
        n_cells = len(tables.type_ids) * len(tables.entity_ids)
        self._f3_dense_enabled = 0 < n_cells <= MAX_DENSE_F3_CELLS
        self._f3_values: np.ndarray | None = None
        self._f3_known: np.ndarray | None = None
        self._f3_init_lock = threading.Lock()
        self._participant_cache: dict[tuple[int, str], np.ndarray] = {}
        # interned f3 element inputs, built on first dense f3 fill:
        # normalised per-type IDF, the type-co-occurrence count matrix
        # |E(T1) ∩ E(T2)| and per-entity direct-type int arrays
        self._norm_idf: np.ndarray | None = None
        self._type_overlap: np.ndarray | None = None
        self._type_member_counts: np.ndarray | None = None
        self._direct_type_ints: list[np.ndarray] | None = None

    # -- profiles ---------------------------------------------------------
    def _text_profile(self, text: str) -> TokenProfile:
        profile = self._text_profiles.get(text)
        if profile is None:
            profile = TokenProfile.from_text(text, self.generator.lemma_tfidf)
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
            weights = self.generator.lemma_tfidf
            profiles = tuple(
                TokenProfile.from_text(lemma, weights) for lemma in lemmas
            )
            cache[key] = profiles
        return profiles

    # -- f1 / f2 ----------------------------------------------------------
    def f1_block(
        self, cell_text: str, entity_ids: tuple[str, ...]
    ) -> np.ndarray:
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
        def build() -> np.ndarray:
            if header_text is None or not header_text.strip():
                return np.stack(
                    [self.f2(header_text, type_id) for type_id in type_ids]
                )
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

        return self._block(("f2", header_text, type_ids), build)

    # -- f3 ---------------------------------------------------------------
    def _f3_grid(
        self, type_ids: tuple[str, ...], entity_ids: tuple[str, ...]
    ) -> np.ndarray:
        tables = self.engine.tables
        type_ints = [tables.type_index.get(t) for t in type_ids]
        entity_ints = [tables.entity_index.get(e) for e in entity_ids]
        if (
            not self._f3_dense_enabled
            or any(i is None for i in type_ints)
            or any(i is None for i in entity_ints)
        ):
            # scalar assembly (still served by the per-pair element cache)
            return np.stack(
                [
                    np.stack([self.f3(t, e) for e in entity_ids])
                    for t in type_ids
                ]
            )
        # reprolint: ignore[lock-unguarded-attr]: double-checked init gate —
        # a stale None re-checks under _f3_init_lock below
        if self._f3_values is None:
            # double-checked init: _f3_values is the readiness gate and is
            # published last, so lock-free readers never see partial state;
            # the grid itself fills idempotently (deterministic values,
            # value written before its known flag) outside the lock
            with self._f3_init_lock:
                if self._f3_values is None:
                    shape = (len(tables.type_ids), len(tables.entity_ids))
                    self._ensure_f3_inputs()
                    self._f3_known = np.zeros(shape, dtype=bool)
                    self._f3_values = np.zeros(shape + (3,), dtype=np.float64)
        # reprolint: ignore[lock-unguarded-attr]: _f3_known exists whenever
        # _f3_values does (both published under _f3_init_lock above)
        assert self._f3_known is not None
        type_index = np.asarray(type_ints, dtype=np.int64)
        entity_index = np.asarray(entity_ints, dtype=np.int64)
        # reprolint: ignore[lock-unguarded-attr]: a racing reader seeing a
        # stale False just recomputes the same deterministic value below
        known = self._f3_known[np.ix_(type_index, entity_index)]
        if not known.all():
            for t_pos, e_pos in zip(*np.nonzero(~known)):
                t_int = int(type_index[t_pos])
                e_int = int(entity_index[e_pos])
                # reprolint: ignore[lock-unguarded-attr]: idempotent fill —
                # every racer writes the identical deterministic value
                self._f3_values[t_int, e_int] = self._f3_value(t_int, e_int)
                # reprolint: ignore[lock-unguarded-attr]: flag set strictly
                # after its value; worst case is one redundant recompute
                self._f3_known[t_int, e_int] = True
        # reprolint: ignore[lock-unguarded-attr]: every cell read here was
        # made known (value-before-flag) by this or an earlier call
        return self._f3_values[np.ix_(type_index, entity_index)]

    def _ensure_f3_inputs(self) -> None:
        """Intern everything :func:`type_entity_features` derives per call.

        The co-occurrence matrix turns ``relatedness``'s per-call set
        intersections into one integer matmul over the entity→ancestor
        membership matrix: ``overlap[T', T] = |E(T') ∩ E(T)|`` exactly,
        because ``E ∈+ T ⇔ T ∈ T(E)``.
        """
        tables = self.engine.tables
        catalog = self.catalog
        # same expression as features._normalised_idf, hoisted per type
        maximum = math.log(max(len(catalog.entities), 2))
        self._norm_idf = np.asarray(tables.type_specificity) / maximum
        n_entities = len(tables.entity_ids)
        n_types = len(tables.type_ids)
        membership = np.zeros((n_entities, n_types), dtype=np.float64)
        counts = np.diff(tables.anc_offsets)
        membership[
            np.repeat(np.arange(n_entities), counts), tables.anc_flat
        ] = 1.0
        self._type_overlap = membership.T @ membership
        self._type_member_counts = np.diagonal(self._type_overlap).copy()
        type_index = tables.type_index
        self._direct_type_ints = [
            np.asarray(
                sorted(
                    type_index[t]
                    for t in catalog.entities.get(entity_id).direct_types
                ),
                dtype=np.int64,
            )
            for entity_id in tables.entity_ids
        ]

    def _f3_value(self, t_int: int, e_int: int) -> tuple[float, float, float]:
        """One f3 element from the interned inputs.

        Term-for-term the arithmetic of :func:`type_entity_features`
        (equivalence-tested bit-identical); only the lookups changed.
        """
        tables = self.engine.tables
        catalog = self.catalog
        assert (
            self._norm_idf is not None
            and self._type_overlap is not None
            and self._type_member_counts is not None
            and self._direct_type_ints is not None
        )
        type_id = tables.type_ids[t_int]
        distance = catalog.distance(tables.entity_ids[e_int], type_id)
        contained = math.isfinite(distance)
        if contained:
            scale = 1.0
            effective_distance = distance
        else:
            # relatedness: min over direct types of |E(T') ∩ E(T)| / |E(T')|
            best = math.inf
            for direct in self._direct_type_ints[e_int].tolist():
                members = self._type_member_counts[direct]
                overlap = (
                    self._type_overlap[direct, t_int] / members
                    if members
                    else 0.0
                )
                best = min(best, overlap)
            scale = 0.0 if best is math.inf else float(best)
            effective_distance = catalog.min_instance_distance(type_id)
            if not math.isfinite(effective_distance):
                scale = 0.0
                effective_distance = 1.0
        if self.mode is TypeEntityFeatureMode.INV_DIST:
            distance_compat = scale / max(effective_distance, 1.0)
        elif self.mode is TypeEntityFeatureMode.INV_SQRT_DIST:
            distance_compat = scale / math.sqrt(max(effective_distance, 1.0))
        else:  # IDF: specificity alone
            distance_compat = 0.0
        idf_specificity = scale * self._norm_idf[t_int]
        return distance_compat, idf_specificity, 1.0 if contained else 0.0

    def f3_block(
        self, type_ids: tuple[str, ...], entity_ids: tuple[str, ...]
    ) -> np.ndarray:
        return self._block(
            ("f3", type_ids, entity_ids),
            lambda: self._f3_grid(type_ids, entity_ids),
        )

    # -- f5 ---------------------------------------------------------------
    def _f5_grid(
        self,
        labels: tuple[str, ...],
        left_ids: tuple[str, ...],
        right_ids: tuple[str, ...],
    ) -> np.ndarray:
        tables = self.engine.tables
        left_ints = self.engine.intern_entity_ids(left_ids)
        right_ints = self.engine.intern_entity_ids(right_ids)
        block = np.zeros(
            (len(labels), len(left_ids), len(right_ids), 2), dtype=np.float64
        )
        if left_ints is None or right_ints is None:
            # unknown entity: scalar per-element fill
            for b_index, label in enumerate(labels):
                for e_index, left_id in enumerate(left_ids):
                    for o_index, right_id in enumerate(right_ids):
                        block[b_index, e_index, o_index] = self.f5(
                            label, left_id, right_id
                        )
            return block
        n_entities = len(tables.entity_ids)
        for b_index, label in enumerate(labels):
            relation_id, reverse = base_relation(label)
            relation_int = tables.relation_index.get(relation_id)
            if relation_int is None:
                for e_index, left_id in enumerate(left_ids):
                    for o_index, right_id in enumerate(right_ids):
                        block[b_index, e_index, o_index] = self.f5(
                            label, left_id, right_id
                        )
                continue
            start = tables.tuple_offsets[relation_int]
            stop = tables.tuple_offsets[relation_int + 1]
            relation_keys = tables.tuple_keys_by_relation[start:stop]
            # grid layout is [left, right]; the subject role swaps side for
            # reversed labels, exactly as in the scalar f5
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

    def f5_block(
        self,
        labels: tuple[str, ...],
        left_ids: tuple[str, ...],
        right_ids: tuple[str, ...],
    ) -> np.ndarray:
        return self._block(
            ("f5", labels, left_ids, right_ids),
            lambda: self._f5_grid(labels, left_ids, right_ids),
        )
