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

* the frozen lemma index, whose IDF values also weigh f1/f2: ``Erc``
  scores all distinct cell texts of a call at once through
  :meth:`~repro.text.index.InvertedIndex.search_batch`, consulting the
  pipeline's candidate cache first when one is passed, and hands out
  interned entity ints with their scores (:class:`CellCandidates`);
* :class:`InternedCandidateTables`, which intern entity / type / relation
  ids to dense integers and pack per-entity type-ancestor arrays (ragged:
  offsets + flat), per-type IDF specificity, a sorted ``(subject, object)
  → relations`` pair table, per-relation tuple-key arrays and the f3 value
  of every (type, entity) pair in every mode.  The tables serialize to flat
  arrays (:meth:`InternedCandidateTables.to_state`) and ship inside
  artifact bundles.

``Tc`` and ``Bcc'`` run as whole-column array passes over those ints: a
column's ``Erc`` is one flat array cut by row offsets
(:class:`ColumnCandidates`), ``Tc`` is one ancestor gather and two
``np.bincount`` passes over it, and ``Bcc'`` is one ``searchsorted`` per
direction of every row's packed pair keys (:class:`PairCandidates`), which
the f5 blocks reuse.  Strings come back only in the label tuples decode
reads.

Every lemma-index key is interned when the engine is built, so an index
naming an entity outside the catalog raises
:class:`~repro.catalog.errors.UnknownIdError` there.  The per-cell reading
of the same definitions lives in ``tests/oracles``; the equivalence tests
pin identical ids, scores and ordering against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.errors import UnknownIdError
from repro.core.battery import TokenVocabulary
from repro.core.features import type_entity_feature_grid
from repro.tables.generator import reversed_label
from repro.text.index import InvertedIndex
from repro.text.normalize import is_numeric_text
from repro.text.tokenize import tokenize

if TYPE_CHECKING:  # the pipeline owns the cache; it imports this module
    from repro.pipeline.cache import CandidateCache

#: Ceiling on the (type × entity) cells of the interned f3 grid (72 bytes
#: each: three features in each of three modes); a bigger catalog is
#: refused when its tables are built.
MAX_DENSE_F3_CELLS = 8_000_000


def normalized_cell_key(text: str) -> str:
    """The candidate-cache key of one cell text: its tokens joined by spaces.

    Tokenisation lower-cases and strips whitespace/punctuation, and the
    ordered token bag is exactly what retrieval scores on — so two texts with
    the same key are guaranteed the same candidates, while casing, stray
    spaces and punctuation stop fragmenting the cache.
    """
    return " ".join(tokenize(text))


def build_lemma_index(catalog: Catalog) -> InvertedIndex:
    """The frozen lemma index over every entity lemma.

    Its IDF values are the one IDF table of the annotator: retrieval scores
    with them, and f1/f2 weigh tokens with them.  A lemma with no tokens
    adds no document, so it counts in neither.
    """
    index = InvertedIndex()
    for entity in catalog.entities.all_entities():
        for lemma in entity.lemmas:
            index.add(entity.entity_id, lemma)
    index.freeze()
    return index


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
        """Interned ints of ``kind`` ("entity" or "type") ids.

        Raises:
            UnknownIdError: for an id outside the interned catalog.
        """
        index = {"entity": self.entity_index, "type": self.type_index}[kind]
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
) -> tuple[np.ndarray, np.ndarray]:
    """``flat[offsets[p]:offsets[p+1]]`` for every ``p`` given, concatenated,
    and the length of each piece."""
    starts = offsets[positions]
    counts = offsets[positions + 1] - starts
    total = int(counts.sum())
    index = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts
    )
    return flat[index], counts


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CellCandidates(NamedTuple):
    """``Erc`` of one cell: interned entity ints and their retrieval scores,
    best hit first.  Both arrays are read-only: every cell (and, through the
    candidate cache, every table) with the same text shares them."""

    entities: np.ndarray
    scores: np.ndarray


#: ``Erc`` of a numeric or blank cell
NO_CANDIDATES = CellCandidates(
    _frozen(np.zeros(0, dtype=np.int64)), _frozen(np.zeros(0, dtype=np.float64))
)


@dataclass(frozen=True)
class ColumnCandidates:
    """One column's ``Erc``, row after row: row ``r``'s candidates are
    ``entities[offsets[r]:offsets[r + 1]]``."""

    entities: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, cells: Sequence[CellCandidates]) -> "ColumnCandidates":
        offsets = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum([len(cell.entities) for cell in cells], out=offsets[1:])
        entities = (
            np.concatenate([cell.entities for cell in cells])
            if cells
            else NO_CANDIDATES.entities
        )
        return cls(entities=entities, offsets=offsets)

    @property
    def counts(self) -> np.ndarray:
        """Candidates per row."""
        return np.diff(self.offsets)


@dataclass(frozen=True)
class PairCandidates:
    """Every row's (left, right) candidate pairs of an ordered column pair.

    Row ``r``'s pairs are ``[offsets[r], offsets[r + 1])``, left-major (the
    layout of a ``(n_left, n_right)`` grid); ``forward`` keys each pair as
    ``left·N + right`` and ``backward`` as ``right·N + left`` (``N``
    entities), the packed form of the interned pair and tuple tables.
    """

    left: np.ndarray
    right: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    offsets: np.ndarray
    left_counts: np.ndarray
    right_counts: np.ndarray

    @classmethod
    def of(
        cls, left: ColumnCandidates, right: ColumnCandidates, n_entities: int
    ) -> "PairCandidates":
        left_counts, right_counts = left.counts, right.counts
        per_row = left_counts * right_counts
        offsets = np.zeros(len(per_row) + 1, dtype=np.int64)
        np.cumsum(per_row, out=offsets[1:])
        rows = np.repeat(np.arange(len(per_row)), per_row)
        within = np.arange(int(offsets[-1]), dtype=np.int64) - offsets[rows]
        width = right_counts[rows]
        left_ints = left.entities[left.offsets[rows] + within // width]
        right_ints = right.entities[right.offsets[rows] + within % width]
        return cls(
            left=left_ints,
            right=right_ints,
            forward=left_ints * n_entities + right_ints,
            backward=right_ints * n_entities + left_ints,
            offsets=offsets,
            left_counts=left_counts,
            right_counts=right_counts,
        )


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
        tables: Prebuilt interned tables (bundle load path); built from the
            catalog when ``None``.

    Raises:
        UnknownIdError: when a lemma-index key is not an interned entity (a
            bundle whose index and catalog disagree fails here, at session
            open, not on the first request that retrieves the key).
    """

    def __init__(
        self,
        catalog: Catalog,
        top_k_entities: int = 8,
        max_type_candidates: int = 64,
        lemma_index: InvertedIndex | None = None,
        tables: InternedCandidateTables | None = None,
    ) -> None:
        if top_k_entities < 1:
            raise ValueError("top_k_entities must be >= 1")
        if max_type_candidates < 1:
            raise ValueError("max_type_candidates must be >= 1")
        self.catalog = catalog
        self.top_k_entities = top_k_entities
        self.max_type_candidates = max_type_candidates
        if lemma_index is None:
            lemma_index = build_lemma_index(catalog)
        #: the frozen lemma index (exported into bundles); its IDF values
        #: weigh f1/f2 too
        self.lemma_index = lemma_index
        self.tables = (
            tables
            if tables is not None
            else InternedCandidateTables.from_catalog(catalog)
        )
        # run for its UnknownIdError: every hit key must intern later
        self.tables.intern("entity", lemma_index.keys())
        #: the token ids of f1/f2: the lemma index's tokens plus the
        #: type-lemma tokens
        self.vocabulary = TokenVocabulary.of(
            lemma_index,
            (
                lemma
                for type_id in self.tables.type_ids
                for lemma in catalog.types.lemmas(type_id)
            ),
        )

    # ------------------------------------------------------------------
    # Erc
    # ------------------------------------------------------------------
    def cell_candidates_batch(
        self, cell_texts: list[str], cache: CandidateCache | None = None
    ) -> list[CellCandidates]:
        """``Erc`` for many cells at once, position-aligned with ``cell_texts``.

        Numeric/blank cells yield :data:`NO_CANDIDATES` without touching the
        index.  With a ``cache``, each remaining text is looked up under its
        :func:`normalized_cell_key` (texts sharing a pending miss share its
        probe); every miss is then scored in one
        :meth:`InvertedIndex.search_batch` pass, whose hit keys are interned
        in one pass, and stored.  Cells with the same key share one
        (read-only) :class:`CellCandidates`.
        """
        results: list[CellCandidates] = [NO_CANDIDATES] * len(cell_texts)
        missing: dict[str, tuple[str, list[int]]] = {}
        for position, cell_text in enumerate(cell_texts):
            text = cell_text.strip()
            if not text or is_numeric_text(text):
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
            hits = [hit for query_hits in hits_per_query for hit in query_hits]
            entities = _frozen(self.tables.intern("entity", [hit.key for hit in hits]))
            scores = _frozen(
                np.fromiter(
                    (hit.score for hit in hits), dtype=np.float64, count=len(hits)
                )
            )
            stop = 0
            for (key, (text, positions)), query_hits in zip(
                missing.items(), hits_per_query
            ):
                start, stop = stop, stop + len(query_hits)
                found = CellCandidates(entities[start:stop], scores[start:stop])
                if cache is not None:
                    cache.put_candidates(key, text, found)
                for position in positions:
                    results[position] = found
        return results

    # ------------------------------------------------------------------
    # Tc
    # ------------------------------------------------------------------
    def column_type_candidates(self, column: ColumnCandidates) -> np.ndarray:
        """``Tc``: interned type ints in rank order, at most
        ``max_type_candidates`` of them.

        ``∪_{r} ∪_{E ∈ Erc} T(E)`` ranked by (#cells with a candidate under
        the type, #candidate entities under the type, IDF specificity, type
        id): one ancestor gather over every row, ``np.unique`` over (row,
        type) keys, two bincounts and one lexsort.
        """
        tables = self.tables
        ancestors, counts = _gather_ragged(
            tables.anc_offsets, tables.anc_flat, column.entities
        )
        if not len(ancestors):
            return ancestors
        n_types = len(tables.type_ids)
        rows = np.repeat(
            np.repeat(np.arange(len(column.offsets) - 1), column.counts), counts
        )
        entity_support = np.bincount(ancestors, minlength=n_types)
        cell_support = np.bincount(
            np.unique(rows * n_types + ancestors) % n_types, minlength=n_types
        )
        supported = np.flatnonzero(cell_support)
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
        return supported[order[: self.max_type_candidates]]

    # ------------------------------------------------------------------
    # Bcc'
    # ------------------------------------------------------------------
    def relation_candidates(
        self, pairs: PairCandidates
    ) -> list[tuple[str, int, bool]]:
        """``Bcc'`` of an ordered column pair as ``(label, relation int,
        reversed)`` in label order.

        A relation ``B`` is a candidate when some row has candidate entities
        ``E`` (left) and ``E'`` (right) with ``B(E, E')`` — emitted as the
        plain label — or ``B(E', E)`` — emitted with the ``^-1`` suffix: one
        ``searchsorted`` of every row's pair keys per direction into the
        interned pair table.
        """
        tables = self.tables
        if not len(pairs.forward) or not len(tables.pair_keys):
            return []
        found: list[tuple[str, int, bool]] = []
        for keys, labels, reverse in (
            (pairs.forward, tables.relation_ids, False),
            (pairs.backward, tables.reversed_ids, True),
        ):
            positions = np.minimum(
                np.searchsorted(tables.pair_keys, keys), len(tables.pair_keys) - 1
            )
            matched = positions[tables.pair_keys[positions] == keys]
            relations, _counts = _gather_ragged(
                tables.pair_offsets, tables.pair_relations, matched
            )
            found.extend(
                (labels[r], r, reverse) for r in np.unique(relations).tolist()
            )
        return sorted(found)
