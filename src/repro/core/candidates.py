"""Candidate label spaces: ``Erc``, ``Tc`` and ``Bcc'`` (Section 4.3).

The paper determines the space of values each variable ranges over as:

* ``Erc`` — entities retrieved from a text index "based on overlap between
  cell and lemma tokens",
* ``Tc`` — the union of type ancestors of all candidate entities in the
  column (``∪_{E ∈ Erc} T(E)``),
* ``Bcc'`` — relations with a catalog tuple joining candidate entities of
  the two columns (in either direction here: reversed labels carry ``^-1``),

plus ``na`` everywhere.  The lemma index is the expensive part of annotation
(the paper's Figure 7 attributes ~80% of time to lemma probing); the
:class:`CandidateGenerator` is therefore built once per catalog and reused.

This module is the per-cell **scalar** definition.  Annotation runs the
array-backed engine of :mod:`repro.core.candidates_batched`, which wraps a
:class:`CandidateGenerator` (its lemma index, and its per-cell answers for
ids outside the interned tables) and replaces the per-cell Python loops with
array programs; the scalar path stays the reference the equivalence tests
compare against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.tables.generator import reversed_label
from repro.text.index import InvertedIndex
from repro.text.normalize import is_numeric_text
from repro.text.tfidf import TfidfWeights

@dataclass(frozen=True)
class CandidateEntity:
    """One retrieved candidate: entity id and raw index score."""

    entity_id: str
    retrieval_score: float


class CandidateGenerator:
    """Builds candidate spaces against one catalog.

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
    """

    def __init__(
        self,
        catalog: Catalog,
        top_k_entities: int = 8,
        max_type_candidates: int = 64,
        lemma_index: InvertedIndex | None = None,
        lemma_tfidf: TfidfWeights | None = None,
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
        if lemma_index is not None and lemma_tfidf is not None:
            self._index = lemma_index
            self.lemma_tfidf = lemma_tfidf
        else:
            self._index = InvertedIndex()
            lemma_documents: list[str] = []
            for entity in catalog.entities.all_entities():
                for lemma in entity.lemmas:
                    self._index.add(entity.entity_id, lemma)
                    lemma_documents.append(lemma)
            self._index.freeze()
            self.lemma_tfidf = TfidfWeights.from_documents(lemma_documents)

    @property
    def lemma_index(self) -> InvertedIndex:
        """The frozen lemma index (exported into artifact bundles)."""
        return self._index

    # ------------------------------------------------------------------
    # Erc
    # ------------------------------------------------------------------
    def cell_candidates(self, cell_text: str) -> list[CandidateEntity]:
        """Candidate entities for one cell; empty for numeric/blank cells."""
        text = cell_text.strip()
        if not text or is_numeric_text(text):
            return []
        hits = self._index.search(text, top_k=self.top_k_entities)
        return [
            CandidateEntity(entity_id=hit.key, retrieval_score=hit.score)
            for hit in hits
        ]

    # ------------------------------------------------------------------
    # Tc
    # ------------------------------------------------------------------
    def column_type_candidates(
        self, column_candidates: list[list[CandidateEntity]]
    ) -> list[str]:
        """Candidate types for a column given its cells' entity candidates.

        Returns ``∪_{r} ∪_{E ∈ Erc} T(E)`` ranked by (#cells with a candidate
        under the type, #candidate entities under the type, IDF specificity),
        truncated to ``max_type_candidates``.
        """
        cell_support: Counter[str] = Counter()
        entity_support: Counter[str] = Counter()
        for candidates in column_candidates:
            seen_in_cell: set[str] = set()
            for candidate in candidates:
                for type_id in self.catalog.type_ancestors(candidate.entity_id):
                    entity_support[type_id] += 1
                    seen_in_cell.add(type_id)
            for type_id in seen_in_cell:
                cell_support[type_id] += 1
        ranked = sorted(
            cell_support,
            key=lambda type_id: (
                -cell_support[type_id],
                -entity_support[type_id],
                -self.catalog.type_idf_specificity(type_id),
                type_id,
            ),
        )
        return ranked[: self.max_type_candidates]

    # ------------------------------------------------------------------
    # Bcc'
    # ------------------------------------------------------------------
    def relation_candidates(
        self,
        left_candidates: list[list[CandidateEntity]],
        right_candidates: list[list[CandidateEntity]],
    ) -> list[str]:
        """Candidate relation labels for an ordered column pair.

        A relation ``B`` is a candidate when some row has candidate entities
        ``E`` (left) and ``E'`` (right) with ``B(E, E')`` — emitted as the
        plain label — or ``B(E', E)`` — emitted with the ``^-1`` suffix.
        """
        labels: set[str] = set()
        for row_left, row_right in zip(left_candidates, right_candidates):
            for left in row_left:
                for right in row_right:
                    for relation_id in self.catalog.relations.relations_between(
                        left.entity_id, right.entity_id
                    ):
                        labels.add(relation_id)
                    for relation_id in self.catalog.relations.relations_between(
                        right.entity_id, left.entity_id
                    ):
                        labels.add(reversed_label(relation_id))
        return sorted(labels)
