"""String similarity measures, all returning values in ``[0, 1]``.

The feature vectors f1/f2 of the paper combine several similarity measures
between cell (or header) text and catalog lemmas: TF-IDF cosine [18], Jaccard
and a soft cosine [2].  We implement those plus Dice and Jaro-Winkler (the
secondary measure inside soft-TFIDF, following Bilenko et al.'s SoftTFIDF).
"""

from __future__ import annotations

import math
from collections import Counter

from repro.text.index import InvertedIndex
from repro.text.tokenize import token_set, tokenize


def jaccard(a: str, b: str) -> float:
    """Token-set Jaccard similarity ``|A ∩ B| / |A ∪ B|``."""
    set_a, set_b = token_set(a), token_set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def dice(a: str, b: str) -> float:
    """Token-set Dice coefficient ``2|A ∩ B| / (|A| + |B|)``."""
    set_a, set_b = token_set(a), token_set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def cosine_tfidf(a: str, b: str, index: InvertedIndex | None = None) -> float:
    """TF-IDF weighted cosine between the token bags of ``a`` and ``b``.

    Token weights take their IDF from ``index``; without one every token has
    IDF 1 (plain cosine) — convenient in tests.  The annotator passes its
    lemma index, whose IDF is taken over the catalog's lemmas.
    """
    counts_a, counts_b = Counter(tokenize(a)), Counter(tokenize(b))
    if not counts_a and not counts_b:
        return 1.0
    if not counts_a or not counts_b:
        return 0.0

    def idf(token: str) -> float:
        return index.idf(token) if index is not None else 1.0

    dot = 0.0
    for token, count in counts_a.items():
        if token in counts_b:
            dot += (count * idf(token)) * (counts_b[token] * idf(token))
    norm_a = math.sqrt(sum((c * idf(t)) ** 2 for t, c in counts_a.items()))
    norm_b = math.sqrt(sum((c * idf(t)) ** 2 for t, c in counts_b.items()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def jaro(a: str, b: str) -> float:
    """Jaro similarity of two strings."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    match_window = max(len_a, len_b) // 2 - 1
    match_window = max(match_window, 0)
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, char_a in enumerate(a):
        lo = max(0, i - match_window)
        hi = min(len_b, i + match_window + 1)
        for j in range(lo, hi):
            if matched_b[j] or b[j] != char_a:
                continue
            matched_a[i] = True
            matched_b[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len_a):
        if not matched_a[i]:
            continue
        while not matched_b[k]:
            k += 1
        if a[i] != b[k]:
            transpositions += 1
        k += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by up to 4 characters of common prefix."""
    a, b = a.lower(), b.lower()
    base = jaro(a, b)
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix == 4:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def soft_tfidf(
    a: str,
    b: str,
    index: InvertedIndex | None = None,
    threshold: float = 0.9,
) -> float:
    """SoftTFIDF of Bilenko et al. [2]: TF-IDF cosine with fuzzy token matches.

    Tokens of ``a`` and ``b`` are considered matching when their Jaro-Winkler
    similarity exceeds ``threshold``; each close pair contributes
    ``w_a(t) * w_b(u) * jw(t, u)`` to the dot product.  Catches
    typo/abbreviation variants ("Einstien" ~ "Einstein") that the hard cosine
    misses.
    """
    tokens_a, tokens_b = tokenize(a), tokenize(b)
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0

    def idf(token: str) -> float:
        return index.idf(token) if index is not None else 1.0

    counts_a, counts_b = Counter(tokens_a), Counter(tokens_b)
    dot = 0.0
    for token_a, count_a in counts_a.items():
        best_token = None
        best_score = threshold
        for token_b in counts_b:
            score = jaro_winkler(token_a, token_b)
            if score >= best_score:
                best_score = score
                best_token = token_b
        if best_token is not None:
            dot += (
                count_a
                * idf(token_a)
                * counts_b[best_token]
                * idf(best_token)
                * best_score
            )
    norm_a = math.sqrt(sum((c * idf(t)) ** 2 for t, c in counts_a.items()))
    norm_b = math.sqrt(sum((c * idf(t)) ** 2 for t, c in counts_b.items()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return min(dot / (norm_a * norm_b), 1.0)
