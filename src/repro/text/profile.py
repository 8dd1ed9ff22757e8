"""Precomputed token profiles for the f1/f2 similarity battery.

:func:`repro.core.features.text_lemma_features` is the hottest scalar code in
candidate generation: every (cell, entity-lemma) pair re-tokenizes both
strings, recomputes IDF weights and norms, and re-runs Jaro-Winkler between
every token pair.  For one corpus the same lemmas are compared thousands of
times and the same cell texts recur table after table, so almost all of that
work is repeated.

A :class:`TokenProfile` captures everything the battery needs about one
string, computed once: token counts in first-appearance order, the token set,
per-token ``count · idf`` weights, the TF-IDF norm and the case-folded
surface form.  :func:`text_lemma_features_profiled` then evaluates the exact
battery of ``text_lemma_features`` over profiles — the arithmetic is kept
term-for-term identical (same expression trees, same iteration order), so the
resulting feature vectors are bit-identical to the scalar path; the batched
candidate engine's equivalence tests assert this.

:class:`JaroWinklerCache` memoises the token-pair similarity inside
SoftTFIDF — the vocabulary is small and closed (catalog lemmas plus corpus
cell tokens), so the hit rate is near 1 after the first few tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.text.index import InvertedIndex
from repro.text.similarity import jaro_winkler
from repro.text.tokenize import tokenize

#: |f1| == |f2| — keep in sync with repro.core.features.F1_FEATURE_NAMES
_N_FEATURES = 6


@dataclass(frozen=True)
class TokenProfile:
    """One string's precomputed view for the similarity battery."""

    text: str
    #: case-folded surface form (the battery's exact-match side)
    folded: str
    #: ``count · idf`` per token, in first-appearance (Counter) order
    weights: dict[str, float]
    #: raw token counts, same order as ``weights``
    counts: dict[str, int]
    #: per-token IDF under the profile's index
    idf: dict[str, float]
    token_set: frozenset[str]
    #: ``sqrt(Σ (count · idf)²)`` accumulated in token order
    norm: float

    @classmethod
    def from_text(cls, text: str, index: InvertedIndex | None = None) -> "TokenProfile":
        counts = Counter(tokenize(text))
        idf = {
            token: (index.idf(token) if index is not None else 1.0)
            for token in counts
        }
        token_weights = {
            token: count * idf[token] for token, count in counts.items()
        }
        # same accumulation the scalar battery performs:
        # sqrt(sum((count * idf) ** 2)) over tokens in Counter order
        norm = math.sqrt(sum((c * idf[t]) ** 2 for t, c in counts.items()))
        return cls(
            text=text,
            folded=text.strip().lower(),
            weights=token_weights,
            counts=dict(counts),
            idf=idf,
            token_set=frozenset(counts),
            norm=norm,
        )


class JaroWinklerCache:
    """Memoised ``jaro_winkler`` over lower-cased token pairs.

    Bounded by wholesale reset: token vocabularies are small, so the cap is
    effectively never hit — it only guards pathological corpora.
    """

    def __init__(self, max_entries: int = 1 << 20) -> None:
        self.max_entries = max_entries
        self._scores: dict[tuple[str, str], float] = {}

    def score(self, a: str, b: str) -> float:
        key = (a, b)
        cached = self._scores.get(key)
        if cached is None:
            if len(self._scores) >= self.max_entries:
                self._scores.clear()
            cached = jaro_winkler(a, b)
            self._scores[key] = cached
        return cached


def _cosine(a: TokenProfile, b: TokenProfile) -> float:
    """``cosine_tfidf`` over profiles (same expression tree)."""
    if not a.counts and not b.counts:
        return 1.0
    if not a.counts or not b.counts:
        return 0.0
    dot = 0.0
    other = b.weights
    for token, weight in a.weights.items():
        weight_b = other.get(token)
        if weight_b is not None:
            dot += weight * weight_b
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    return dot / (a.norm * b.norm)


def _soft_tfidf(
    a: TokenProfile, b: TokenProfile, jw: JaroWinklerCache, threshold: float = 0.9
) -> float:
    """``soft_tfidf`` over profiles with memoised Jaro-Winkler."""
    if not a.counts and not b.counts:
        return 1.0
    if not a.counts or not b.counts:
        return 0.0
    dot = 0.0
    for token_a, _count_a in a.counts.items():
        best_token = None
        best_score = threshold
        for token_b in b.counts:
            score = jw.score(token_a, token_b)
            if score >= best_score:
                best_score = score
                best_token = token_b
        if best_token is not None:
            # identical association order to the scalar battery:
            # ((((count_a * idf_a) * count_b) * idf_b) * score)
            dot += (
                a.weights[token_a]
                * b.counts[best_token]
                * b.idf[best_token]
                * best_score
            )
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    return min(dot / (a.norm * b.norm), 1.0)


def _set_overlap(a: TokenProfile, b: TokenProfile) -> tuple[float, float]:
    """(jaccard, dice) over precomputed token sets."""
    set_a, set_b = a.token_set, b.token_set
    if not set_a and not set_b:
        return 1.0, 1.0
    if not set_a or not set_b:
        return 0.0, 0.0
    intersection = len(set_a & set_b)
    jaccard = intersection / len(set_a | set_b)
    dice = 2.0 * intersection / (len(set_a) + len(set_b))
    return jaccard, dice


def text_lemma_features_profiled(
    text: TokenProfile,
    lemmas: tuple[TokenProfile, ...],
    jw: JaroWinklerCache,
) -> np.ndarray:
    """``text_lemma_features`` evaluated over precomputed profiles.

    Bit-identical to the scalar battery: each similarity is the max over
    lemmas in lemma order, with the same per-measure arithmetic.
    """
    vector = np.zeros(_N_FEATURES)
    vector[-1] = 1.0
    if not text.text or not lemmas:
        return vector
    best_cosine = best_soft = best_jaccard = best_dice = 0.0
    exact = 0.0
    for lemma in lemmas:
        best_cosine = max(best_cosine, _cosine(text, lemma))
        best_soft = max(best_soft, _soft_tfidf(text, lemma, jw))
        jaccard, dice = _set_overlap(text, lemma)
        best_jaccard = max(best_jaccard, jaccard)
        best_dice = max(best_dice, dice)
        if text.folded == lemma.folded:
            exact = 1.0
    vector[0] = best_cosine
    vector[1] = best_soft
    vector[2] = best_jaccard
    vector[3] = best_dice
    vector[4] = exact
    return vector
