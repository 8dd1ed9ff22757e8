"""Corpus-level TF-IDF statistics.

The annotator's cosine feature (paper Section 4.2.1) is the *standard TF-IDF
cosine* [18]: token weights combine within-string term frequency with an
inverse document frequency computed over the lemma corpus.  This module owns
the document-frequency table; :mod:`repro.text.similarity` consumes it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from repro.text.tokenize import tokenize


class TfidfWeights:
    """Document-frequency statistics with smoothed IDF lookup.

    ``idf(token) = 1 + log((N + 1) / (df(token) + 1))`` — the add-one variants
    keep unseen tokens finite and seen-everywhere tokens positive, so cosine
    values stay in ``(0, 1]``.
    """

    def __init__(self) -> None:
        self._document_frequency: Counter[str] = Counter()
        self._documents = 0

    @classmethod
    def from_documents(cls, documents: Iterable[str]) -> "TfidfWeights":
        """Build statistics from an iterable of text documents (lemmas)."""
        weights = cls()
        for document in documents:
            weights.add_document(document)
        return weights

    def add_document(self, document: str) -> None:
        """Count one document's distinct tokens into the df table."""
        self._documents += 1
        for token in set(tokenize(document)):
            self._document_frequency[token] += 1

    @property
    def document_count(self) -> int:
        return self._documents

    def document_frequency(self, token: str) -> int:
        return self._document_frequency.get(token, 0)

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency of ``token``."""
        return 1.0 + math.log(
            (self._documents + 1) / (self._document_frequency.get(token, 0) + 1)
        )

    # ------------------------------------------------------------------
    # serialization (artifact bundles)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-compatible export: document count plus the df table."""
        return {
            "documents": self._documents,
            "document_frequency": dict(sorted(self._document_frequency.items())),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TfidfWeights":
        """Rebuild statistics exported by :meth:`to_state` (no re-tokenising)."""
        weights = cls()
        weights._documents = int(state["documents"])
        weights._document_frequency = Counter(
            {token: int(count) for token, count in state["document_frequency"].items()}
        )
        return weights
