"""Candidate label spaces: ``Erc``, ``Tc`` and ``Bcc'`` (Section 4.3).

The paper determines the space of values each variable ranges over as:

* ``Erc`` — entities retrieved from a text index "based on overlap between
  cell and lemma tokens",
* ``Tc`` — the union of type ancestors of all candidate entities in the
  column (``∪_{E ∈ Erc} T(E)``),
* ``Bcc'`` — relations with a catalog tuple joining candidate entities of
  the two columns (in either direction here: reversed labels carry ``^-1``),

plus ``na`` everywhere.  The paper's Figure 7 attributes ~80% of annotation
time to this stage, so :class:`CandidateEngine` answers all three from
**build-time array layouts**, built once per catalog (or loaded from an
artifact bundle) and shared by every pipeline:

* the frozen lemma index and its TF-IDF table: ``Erc`` scores all distinct
  cell texts of a call at once through
  :meth:`~repro.text.index.InvertedIndex.search_batch`, consulting the
  pipeline's candidate cache first when one is passed;
* :class:`InternedCandidateTables`, which intern entity / type / relation
  ids to dense integers and pack per-entity type-ancestor arrays (ragged:
  offsets + flat), per-type IDF specificity, a sorted ``(subject, object)
  → relations`` pair table, per-relation tuple-key arrays and the f3 value
  of every (type, entity) pair in every mode.  ``Tc`` is two
  ``np.bincount`` passes over stacked ancestor arrays, ``Bcc'`` a
  sorted-array join over packed pair keys and an f3 block one gather.  The
  tables serialize to flat arrays
  (:meth:`InternedCandidateTables.to_state`) and ship inside artifact
  bundles.

An id outside the interned tables raises
:class:`~repro.catalog.errors.UnknownIdError`.  The per-cell reading of the
same definitions lives in ``tests/oracles``; the equivalence tests pin
identical ids, scores and ordering against it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.errors import UnknownIdError
from repro.core.features import type_entity_feature_grid
from repro.tables.generator import reversed_label
from repro.text.index import InvertedIndex
from repro.text.normalize import is_numeric_text
from repro.text.tfidf import TfidfWeights
from repro.text.tokenize import tokenize

if TYPE_CHECKING:  # the pipeline owns the cache; it imports this module
    from repro.pipeline.cache import CandidateCache

#: Bound on the per-row-pair relation memo and the cell-text profile cache.
_MEMO_ENTRIES = 65_536

#: Ceiling on the (type × entity) cells of the interned f3 grid (72 bytes
#: each: three features in each of three modes); a bigger catalog is
#: refused when its tables are built.
MAX_DENSE_F3_CELLS = 8_000_000


@dataclass(frozen=True)
class CandidateEntity:
    """One retrieved candidate: entity id and raw index score."""

    entity_id: str
    retrieval_score: float


def normalized_cell_key(text: str) -> str:
    """The candidate-cache key of one cell text: its tokens joined by spaces.

    Tokenisation lower-cases and strips whitespace/punctuation, and the
    ordered token bag is exactly what retrieval scores on — so two texts with
    the same key are guaranteed the same candidates, while casing, stray
    spaces and punctuation stop fragmenting the cache.
    """
    return " ".join(tokenize(text))


def build_lemma_index(catalog: Catalog) -> tuple[InvertedIndex, TfidfWeights]:
    """The frozen lemma index over every entity lemma, and its TF-IDF table."""
    index = InvertedIndex()
    lemma_documents: list[str] = []
    for entity in catalog.entities.all_entities():
        for lemma in entity.lemmas:
            index.add(entity.entity_id, lemma)
            lemma_documents.append(lemma)
    index.freeze()
    return index, TfidfWeights.from_documents(lemma_documents)


class BoundedMemo:
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
        f3_grid: np.ndarray,
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
        #: ``type_entity_features`` of every interned (type, entity) pair,
        #: shape (modes, types, entities, |f3|); see
        #: :func:`~repro.core.features.type_entity_feature_grid`
        self.f3_grid = f3_grid

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "InternedCandidateTables":
        entity_ids = tuple(sorted(entity_id for entity_id in catalog.entities))
        type_ids = tuple(sorted(type_id for type_id in catalog.types))
        relation_ids = tuple(sorted(catalog.relations))
        cells = len(type_ids) * len(entity_ids)
        if cells > MAX_DENSE_F3_CELLS:
            raise ValueError(
                f"catalog {catalog.name!r} has {len(type_ids)} types x "
                f"{len(entity_ids)} entities = {cells} f3 cells, over "
                f"MAX_DENSE_F3_CELLS = {MAX_DENSE_F3_CELLS}"
            )
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
            f3_grid=type_entity_feature_grid(catalog, type_ids, entity_ids),
        )

    def intern(self, kind: str, ids) -> np.ndarray:
        """Interned ints of ``kind`` ("entity", "type" or "relation") ids.

        Raises:
            UnknownIdError: for an id outside the interned catalog.
        """
        index = {
            "entity": self.entity_index,
            "type": self.type_index,
            "relation": self.relation_index,
        }[kind]
        try:
            return np.fromiter(
                (index[identifier] for identifier in ids),
                dtype=np.int64,
                count=len(ids),
            )
        except KeyError as error:
            raise UnknownIdError(kind, error.args[0]) from None

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
            "f3_grid": self.f3_grid,
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
            f3_grid=np.asarray(state["f3_grid"], dtype=np.float64),
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


class CandidateEngine:
    """Answers ``Erc``, ``Tc`` and ``Bcc'`` against one catalog.

    Args:
        catalog: The (annotator-view) catalog.
        top_k_entities: Cap on ``|Erc|``; the paper observes 7-8 candidate
            entities per cell, the default of 8 mirrors that.
        max_type_candidates: Cap on ``|Tc|``; candidate types are ranked by
            how many of the column's candidate entities they cover (then by
            specificity), so the cap trims only rarely-supported types.
        lemma_index: A prebuilt frozen lemma index (artifact-bundle load
            path); built from the catalog's lemmas when ``None``.
        lemma_tfidf: The prebuilt TF-IDF table matching ``lemma_index``;
            must be given exactly when ``lemma_index`` is.
        tables: Prebuilt interned tables (bundle load path); built from the
            catalog when ``None``.
    """

    def __init__(
        self,
        catalog: Catalog,
        top_k_entities: int = 8,
        max_type_candidates: int = 64,
        lemma_index: InvertedIndex | None = None,
        lemma_tfidf: TfidfWeights | None = None,
        tables: InternedCandidateTables | None = None,
    ) -> None:
        if top_k_entities < 1:
            raise ValueError("top_k_entities must be >= 1")
        if max_type_candidates < 1:
            raise ValueError("max_type_candidates must be >= 1")
        if (lemma_index is None) != (lemma_tfidf is None):
            raise ValueError("lemma_index and lemma_tfidf must be given together")
        self.catalog = catalog
        self.top_k_entities = top_k_entities
        self.max_type_candidates = max_type_candidates
        if lemma_index is None or lemma_tfidf is None:
            lemma_index, lemma_tfidf = build_lemma_index(catalog)
        #: the frozen lemma index and its TF-IDF table (exported into bundles)
        self.lemma_index = lemma_index
        self.lemma_tfidf = lemma_tfidf
        self.tables = (
            tables
            if tables is not None
            else InternedCandidateTables.from_catalog(catalog)
        )
        self._pair_memo = BoundedMemo()

    # ------------------------------------------------------------------
    # Erc
    # ------------------------------------------------------------------
    def cell_candidates_batch(
        self, cell_texts: list[str], cache: CandidateCache | None = None
    ) -> list[list[CandidateEntity]]:
        """``Erc`` for many cells at once, position-aligned with ``cell_texts``.

        Numeric/blank cells yield ``[]`` without touching the index.  With a
        ``cache``, each remaining text is looked up under its
        :func:`normalized_cell_key` (texts sharing a pending miss share its
        probe); every miss is then scored in one
        :meth:`InvertedIndex.search_batch` pass and stored.  Cells with the
        same key share one (immutable) candidate list.
        """
        results: list[list[CandidateEntity] | None] = [None] * len(cell_texts)
        missing: dict[str, tuple[str, list[int]]] = {}
        for position, cell_text in enumerate(cell_texts):
            text = cell_text.strip()
            if not text or is_numeric_text(text):
                results[position] = []
                continue
            key = normalized_cell_key(text) if cache is not None else text
            pending = missing.get(key)
            if pending is not None:
                pending[1].append(position)
                continue
            if cache is not None:
                cached = cache.get_candidates(key, text)
                if cached is not None:
                    results[position] = cached
                    continue
            missing[key] = (text, [position])
        if missing:
            queries = [text for text, _positions in missing.values()]
            hits_per_query = self.lemma_index.search_batch(
                queries, top_k=self.top_k_entities
            )
            for (key, (text, positions)), hits in zip(
                missing.items(), hits_per_query
            ):
                candidates = [
                    CandidateEntity(entity_id=hit.key, retrieval_score=hit.score)
                    for hit in hits
                ]
                if cache is not None:
                    cache.put_candidates(key, text, candidates)
                for position in positions:
                    results[position] = candidates
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Tc
    # ------------------------------------------------------------------
    def _entity_ints(self, candidates: list[CandidateEntity]) -> np.ndarray:
        return self.tables.intern(
            "entity", [candidate.entity_id for candidate in candidates]
        )

    def column_type_candidates(
        self, column_candidates: list[list[CandidateEntity]]
    ) -> list[str]:
        """``Tc`` via two bincounts over stacked ancestor arrays.

        Returns ``∪_{r} ∪_{E ∈ Erc} T(E)`` ranked by (#cells with a candidate
        under the type, #candidate entities under the type, IDF specificity,
        type id), truncated to ``max_type_candidates``.
        """
        tables = self.tables
        per_cell = [
            _gather_ragged(
                tables.anc_offsets, tables.anc_flat, self._entity_ints(candidates)
            )
            for candidates in column_candidates
            if candidates
        ]
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
        """Candidate relation labels for an ordered column pair.

        A relation ``B`` is a candidate when some row has candidate entities
        ``E`` (left) and ``E'`` (right) with ``B(E, E')`` — emitted as the
        plain label — or ``B(E', E)`` — emitted with the ``^-1`` suffix.
        Answered as sorted-array pair joins, memoised per row pair.
        """
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
                cached = self._pair_relation_ints(
                    self._entity_ints(row_left), self._entity_ints(row_right)
                )
                self._pair_memo.put(memo_key, cached)
            forward.update(cached[0].tolist())
            backward.update(cached[1].tolist())
        labels = {tables.relation_ids[r] for r in forward}
        labels.update(tables.reversed_ids[r] for r in backward)
        return sorted(labels)
