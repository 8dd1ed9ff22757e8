"""The f1/f2 similarity battery as array passes (Sections 4.2.1–4.2.2).

f1 compares a cell's text with every lemma of each candidate entity, f2 a
column header with every lemma of each candidate type.  The battery is
TF-IDF cosine, SoftTFIDF, Jaccard, Dice and exact match, each the max over
a label's lemmas, plus a bias.  :func:`battery_rows` evaluates it for many
(text, labels) blocks in one pass — a fused run's f1 block-cache misses in
one call, its headers in another:

* every lemma token is an id of one :class:`TokenVocabulary`, fixed when
  the candidate engine is built: the lemma index's tokens plus the
  type-lemma tokens, so no id depends on arrival order;
* each label's lemmas are one :class:`LemmaRow`, CSR over their tokens
  (ids in first-appearance order, counts, IDF, norm and folded surface),
  built on first use by :class:`LemmaRows`;
* every (text, lemma) pair of the call is one slot of flat arrays, and
  each of its sums over the text's tokens takes one vector step per text
  token position, in the text's first-appearance order.  That is the order
  the scalar battery adds in, and a step holds only the pairs with a term
  at that position (skipping a 0.0 term is exact), so every value is
  bit-identical to the scalar battery's;
* nothing is padded to the widest text or the longest token: texts are
  CSR over their tokens and token sketches come from one buffer of all
  the characters, so memory and time stay linear in the call's (text
  token, lemma token) pairs and characters, as in the scalar battery;
* SoftTFIDF's Jaro-Winkler scores come from a bounded
  :class:`JaroWinklerMemo` keyed by (text token, lemma token id).  Equal
  tokens score exactly 1.0 without it, and a pair whose lengths and
  character sets bound its score under the 0.9 floor
  (:func:`may_reach_floor`) is never scored;
* a label's value is the max over its lemmas' pairs, from 0.0.

The reference is ``text_lemma_features`` in ``tests/oracles/scalar.py``;
the property tests hold every block to it bit for bit.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.features import F1_FEATURE_NAMES
from repro.text.index import InvertedIndex
from repro.text.similarity import jaro_winkler
from repro.text.tokenize import tokenize

#: cosine, soft_tfidf, jaccard, dice, exact, bias — the f1 and f2 layout
N_FEATURES = len(F1_FEATURE_NAMES)
#: SoftTFIDF's Jaro-Winkler floor for a close token pair
SOFT_THRESHOLD = 0.9


class TokenSketches(NamedTuple):
    """What bounds a token's Jaro-Winkler score against another's."""

    lengths: np.ndarray
    #: bit ``ord(c) % 64`` set for each character ``c``
    masks: np.ndarray
    #: set bits of each mask
    bits: np.ndarray


_M1, _M2, _M4, _H01 = (
    np.uint64(word)
    for word in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x0101010101010101,
    )
)


def popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 mask, as int64 (a SWAR count: NumPy before
    2.0 has no ``bitwise_count``)."""
    counts = masks - ((masks >> np.uint64(1)) & _M1)
    counts = (counts & _M2) + ((counts >> np.uint64(2)) & _M2)
    counts = (counts + (counts >> np.uint64(4))) & _M4
    return ((counts * _H01) >> np.uint64(56)).view(np.int64)


def sketch_tokens(tokens: Sequence[str]) -> TokenSketches:
    """:class:`TokenSketches` of non-empty tokens, from one UTF-32 buffer
    of all their characters: memory and time linear in the characters."""
    lengths = np.fromiter(map(len, tokens), np.int64, len(tokens))
    if not len(lengths):
        empty = np.zeros(0, dtype=np.uint64)
        return TokenSketches(lengths, empty, popcount(empty))
    codes = np.frombuffer(
        "".join(tokens).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    bits = np.left_shift(np.uint64(1), (codes % 64).astype(np.uint64))
    masks = np.bitwise_or.reduceat(bits, np.cumsum(lengths) - lengths)
    return TokenSketches(lengths, masks, popcount(masks))


def may_reach_floor(a: TokenSketches, b: TokenSketches) -> np.ndarray:
    """False for aligned token pairs whose ``jaro_winkler`` is surely under
    :data:`SOFT_THRESHOLD`.

    Jaro-Winkler adds at most 0.4·(1 − Jaro) for the common prefix, so
    0.9 needs Jaro ≥ 5/6, and Jaro ≤ (m/|a| + m/|b| + 1)/3 for m matched
    characters: it needs 2m(|a| + |b|) ≥ 3|a||b|.  At most ``min(length −
    characters missing from the other token)`` characters match, where
    each bit of one mask that the other lacks stands for at least one
    missing character.  The test is exact in integers, and a pair it
    refuses scores at least 0.1/(|a||b|) under the floor, far beyond the
    rounding of ``jaro_winkler``.  It passes no pair whose lengths differ
    by more than a factor of two.
    """
    common = popcount(a.masks & b.masks)
    matches = np.minimum(a.lengths - a.bits + common, b.lengths - b.bits + common)
    return 2 * matches * (a.lengths + b.lengths) >= 3 * a.lengths * b.lengths


class TokenVocabulary:
    """Lemma tokens interned to dense ids (immutable).

    The tokens are sorted, so the ids are a function of the token set
    alone.
    """

    def __init__(self, tokens: Iterable[str]) -> None:
        self.tokens = tuple(sorted(set(tokens)))
        self.ids = {token: i for i, token in enumerate(self.tokens)}

    @cached_property
    def sketches(self) -> TokenSketches:
        """Every token's :class:`TokenSketches`, built on first use: a
        session that never scores f1/f2 never builds them."""
        return sketch_tokens(self.tokens)

    @classmethod
    def of(
        cls, index: InvertedIndex, type_lemmas: Iterable[str]
    ) -> "TokenVocabulary":
        """The lemma index's tokens plus every type lemma's tokens."""
        return cls(
            chain(
                index.tokens(),
                chain.from_iterable(tokenize(lemma) for lemma in type_lemmas),
            )
        )


def _weighted_bag(
    text: str, idf_of: Callable[[str], float]
) -> tuple[list[str], list[int], list[float], list[float], float]:
    """A text's distinct tokens in first-appearance order, their counts,
    IDF values and ``count · idf`` weights, and its TF-IDF norm, each
    computed as the scalar battery computes it."""
    tokens = tokenize(text)
    bag = dict.fromkeys(tokens, 0)
    for token in tokens:
        bag[token] += 1
    idf: list[float] = []
    weights: list[float] = []
    # reprolint: ignore[det-unordered-iter]: a dict keeps the first-appearance order of the token list, the order the scalar battery sums in
    for token, count in bag.items():
        idf.append(idf_of(token))
        weights.append(count * idf[-1])
    return (
        list(bag),
        list(bag.values()),
        idf,
        weights,
        math.sqrt(sum(weight**2 for weight in weights)),
    )


class LemmaRow(NamedTuple):
    """One label's lemmas, CSR over their distinct tokens.

    Lemma ``i``'s tokens are the ``lengths[i]`` entries of ``tokens``,
    ``counts`` and ``idf`` after the lemmas before it, in first-appearance
    order.
    """

    n_lemmas: int
    lengths: np.ndarray
    #: ``sqrt(Σ (count · idf)²)`` per lemma, summed in token order
    norms: np.ndarray
    #: ``hash`` of each folded surface, a prefilter for exact match
    surface_hashes: np.ndarray
    tokens: np.ndarray
    counts: np.ndarray
    idf: np.ndarray
    #: ``lemma.strip().lower()`` per lemma, the exact-match side
    folded: tuple[str, ...]


class LemmaRows:
    """Every label's :class:`LemmaRow` of one label kind, built on first
    use.

    ``lemmas(label)`` gives a label int's lemmas.  Rows are published with
    ``dict.setdefault``: two threads building one row build equal rows,
    and both read the one stored first.
    """

    def __init__(
        self,
        lemmas: Callable[[int], tuple[str, ...]],
        vocabulary: TokenVocabulary,
        index: InvertedIndex,
    ) -> None:
        self._lemmas = lemmas
        self.vocabulary = vocabulary
        self.index = index
        self._rows: dict[int, LemmaRow] = {}

    def row(self, label: int) -> LemmaRow:
        row = self._rows.get(label)
        if row is None:
            row = self._rows.setdefault(label, self._build(label))
        return row

    def _build(self, label: int) -> LemmaRow:
        ids = self.vocabulary.ids
        idf_of = self.index.idf
        lemmas = self._lemmas(label)
        lengths: list[int] = []
        tokens: list[int] = []
        counts: list[int] = []
        idf: list[float] = []
        norms: list[float] = []
        for lemma in lemmas:
            bag, bag_counts, bag_idf, _weights, norm = _weighted_bag(lemma, idf_of)
            lengths.append(len(bag))
            tokens.extend(ids[token] for token in bag)
            counts.extend(bag_counts)
            idf.extend(bag_idf)
            norms.append(norm)
        folded = tuple(lemma.strip().lower() for lemma in lemmas)
        return LemmaRow(
            n_lemmas=len(lemmas),
            lengths=np.array(lengths, dtype=np.int64),
            norms=np.array(norms, dtype=np.float64),
            surface_hashes=np.array([hash(f) for f in folded], dtype=np.int64),
            tokens=np.array(tokens, dtype=np.int64),
            counts=np.array(counts, dtype=np.float64),
            idf=np.array(idf, dtype=np.float64),
            folded=folded,
        )


class JaroWinklerMemo:
    """``jaro_winkler(text token, lemma token)`` by (text token, lemma
    token id).

    Bounded by wholesale reset: the lemma vocabulary is closed and cell
    tokens recur across a corpus, so the cap only guards pathological
    inputs.  Only pairs :func:`may_reach_floor` passes are scored, so a
    key's text token is at most twice as long as its lemma token.  Entries
    are pure values, so a racing reset or insert loses at most a
    recomputation.
    """

    def __init__(self, vocabulary: TokenVocabulary, max_entries: int = 1 << 20):
        self._tokens = vocabulary.tokens
        self.max_entries = max_entries
        self._scores: dict[tuple[str, int], float] = {}

    def score(self, token: str, lemma_token: int) -> float:
        key = (token, lemma_token)
        score = self._scores.get(key)
        if score is None:
            if len(self._scores) >= self.max_entries:
                self._scores = {}
            score = jaro_winkler(token, self._tokens[lemma_token])
            self._scores[key] = score
        return score


def _ragged_arange(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of ``counts`` lengths: each position's segment and its
    place within it."""
    segment = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return segment, np.arange(len(segment)) - starts[segment]


def _segment_starts(segment: np.ndarray) -> np.ndarray:
    """Where each run of a sorted segment array starts."""
    return np.flatnonzero(np.concatenate(([True], segment[1:] != segment[:-1])))


def battery_rows(
    texts: Sequence[str],
    labels: Sequence[np.ndarray],
    rows: LemmaRows,
    memo: JaroWinklerMemo,
) -> np.ndarray:
    """The battery of ``texts[i]`` against every label int of
    ``labels[i]``, all blocks stacked: shape ``(Σ len(labels[i]), 6)``,
    block after block.

    An empty text or a label without lemmas gets the bias alone, as in the
    scalar battery.
    """
    sizes = np.fromiter((len(block) for block in labels), np.int64, len(labels))
    out = np.zeros((int(sizes.sum()), N_FEATURES), dtype=np.float64)
    out[:, -1] = 1.0
    if not len(out):
        return out
    vocabulary, index = rows.vocabulary, rows.index

    # -- texts: distinct texts, their distinct tokens in first-appearance
    # order (call-local ids), count·idf weights and norms, CSR
    text_ids: dict[str, int] = {}
    block_text = np.fromiter(
        (text_ids.setdefault(text, len(text_ids)) for text in texts),
        np.int64,
        len(texts),
    )
    distinct_texts = list(text_ids)
    token_ids: dict[str, int] = {}
    text_tokens: list[int] = []
    text_weights: list[float] = []
    text_norms: list[float] = []
    text_lengths_list: list[int] = []
    for text in distinct_texts:
        bag, _counts, _idf, weights, norm = _weighted_bag(text, index.idf)
        text_tokens.extend(token_ids.setdefault(token, len(token_ids)) for token in bag)
        text_weights.extend(weights)
        text_norms.append(norm)
        text_lengths_list.append(len(bag))
    text_lengths = np.array(text_lengths_list, dtype=np.int64)

    # -- labels: the rows of the distinct labels, stacked
    distinct_labels, slot_label = np.unique(
        np.concatenate(labels), return_inverse=True
    )
    row = rows.row
    (
        lemma_counts,
        lengths,
        norms,
        hashes,
        tokens,
        counts,
        idf,
        folded,
    ) = zip(*[row(label) for label in distinct_labels.tolist()])
    lemma_counts = np.array(lemma_counts, dtype=np.int64)
    first_lemma = np.cumsum(lemma_counts) - lemma_counts
    lemma_lengths = np.concatenate(lengths)

    # -- pairs: every (slot, lemma of its label), slot after slot; an
    # empty text pairs with nothing
    slot_text = np.repeat(block_text, sizes)
    text_nonempty = np.array([bool(text) for text in distinct_texts])
    per_slot = np.where(text_nonempty[slot_text], lemma_counts[slot_label], 0)
    pair_slot, pair_place = _ragged_arange(per_slot)
    if not len(pair_slot):
        return out
    pair_text = slot_text[pair_slot]
    pair_lemma = first_lemma[slot_label[pair_slot]] + pair_place
    n_a = text_lengths[pair_text]
    n_b = lemma_lengths[pair_lemma]
    values = np.zeros((len(pair_slot), N_FEATURES - 1), dtype=np.float64)
    # two empty token bags are identical, one empty bag matches nothing
    values[(n_a == 0) & (n_b == 0), :4] = 1.0
    full = np.flatnonzero((n_a > 0) & (n_b > 0))
    if len(full):
        values[full, :4] = _token_measures(
            _TextSide(
                np.array(text_tokens, dtype=np.int64),
                np.array(text_weights, dtype=np.float64),
                text_lengths,
                np.cumsum(text_lengths) - text_lengths,
                np.array(text_norms, dtype=np.float64),
                list(token_ids),
            ),
            _LemmaSide(
                lemma_lengths,
                np.cumsum(lemma_lengths) - lemma_lengths,
                np.concatenate(norms),
                np.concatenate(tokens),
                np.concatenate(counts),
                np.concatenate(idf),
            ),
            pair_text[full],
            pair_lemma[full],
            vocabulary,
            memo,
        )

    # exact match: equal folded surfaces (hash equality, then the strings)
    text_folded = [text.strip().lower() for text in distinct_texts]
    text_hashes = np.array([hash(text) for text in text_folded], dtype=np.int64)
    same = np.flatnonzero(text_hashes[pair_text] == np.concatenate(hashes)[pair_lemma])
    if len(same):
        surfaces = list(chain.from_iterable(folded))
        for pair in same.tolist():
            if text_folded[pair_text[pair]] == surfaces[pair_lemma[pair]]:
                values[pair, 4] = 1.0

    # a label's value: the max over its lemmas' pairs (no value is below
    # 0.0, so this is the max from 0.0)
    out[np.flatnonzero(per_slot), :-1] = np.maximum.reduceat(
        values, _segment_starts(pair_slot), axis=0
    )
    return out


class _TextSide(NamedTuple):
    """The distinct texts of one battery call."""

    #: each text's distinct tokens as call-local ids, first appearance
    #: first, text after text
    tokens: np.ndarray
    #: ``count · idf`` of each of those tokens
    weights: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    norms: np.ndarray
    #: the call-local tokens, by id
    strings: list[str]


class _LemmaSide(NamedTuple):
    """The lemmas of one battery call's labels, stacked (CSR)."""

    lengths: np.ndarray
    starts: np.ndarray
    norms: np.ndarray
    tokens: np.ndarray
    counts: np.ndarray
    idf: np.ndarray


def _token_measures(
    texts: _TextSide,
    lemmas: _LemmaSide,
    pair_text: np.ndarray,
    pair_lemma: np.ndarray,
    vocabulary: TokenVocabulary,
    memo: JaroWinklerMemo,
) -> np.ndarray:
    """Cosine, SoftTFIDF, Jaccard and Dice of (text, lemma) pairs whose
    token bags are both non-empty, shape (pairs, 4)."""
    # elements: every (pair, text token position); sub-elements: every
    # (element, lemma token)
    element_pair, element_place = _ragged_arange(texts.lengths[pair_text])
    element_position = texts.starts[pair_text[element_pair]] + element_place
    element_token = texts.tokens[element_position]
    element_lemma = pair_lemma[element_pair]
    sub_element, sub_place = _ragged_arange(lemmas.lengths[element_lemma])
    sub_position = lemmas.starts[element_lemma][sub_element] + sub_place
    sub_token = lemmas.tokens[sub_position]
    sub_text_token = element_token[sub_element]
    text_vocabulary = np.fromiter(
        (vocabulary.ids.get(token, -1) for token in texts.strings),
        np.int64,
        len(texts.strings),
    )
    equal = text_vocabulary[sub_text_token] == sub_token
    # lemma tokens are distinct, so a text token equals at most one
    hard = np.full(len(element_pair), -1, dtype=np.int64)
    hard[sub_element[equal]] = sub_position[equal]

    # SoftTFIDF: each text token takes the last lemma token of the highest
    # Jaro-Winkler score at or above the floor.  Equal tokens score 1.0; a
    # pair bounded under the floor keeps -1.0 and loses, as any score
    # under the floor does
    scores = np.where(equal, 1.0, -1.0)
    close = np.flatnonzero(
        ~equal
        & may_reach_floor(
            TokenSketches(
                *(field[sub_text_token] for field in sketch_tokens(texts.strings))
            ),
            TokenSketches(*(field[sub_token] for field in vocabulary.sketches)),
        )
    )
    if len(close):
        scores[close] = [
            memo.score(texts.strings[text_token], lemma_token)
            for text_token, lemma_token in zip(
                sub_text_token[close].tolist(), sub_token[close].tolist()
            )
        ]
    floored = np.where(scores >= SOFT_THRESHOLD, scores, -1.0)
    starts = _segment_starts(sub_element)
    top = np.maximum.reduceat(floored, starts)
    winners = np.where(
        (floored >= SOFT_THRESHOLD) & (floored == top[sub_element]),
        np.arange(len(sub_element)),
        -1,
    )
    last = np.maximum.reduceat(winners, starts)
    soft = np.where(last >= 0, sub_position[last], -1)
    soft_score = np.where(last >= 0, scores[last], 0.0)

    # the two dot products.  The elements with a term, grouped by text
    # token position; each term in the scalar battery's association order
    # (the rest would add 0.0 to a non-negative sum, which changes no bit)
    hit = np.flatnonzero((hard >= 0) | (soft >= 0))
    hit = hit[np.argsort(element_place[hit], kind="stable")]
    hard, soft, soft_score = hard[hit], soft[hit], soft_score[hit]
    weight = texts.weights[element_position[hit]]
    counts, idf = lemmas.counts, lemmas.idf
    terms = np.stack(
        (
            np.where(hard >= 0, weight * (counts[hard] * idf[hard]), 0.0),
            np.where(
                soft >= 0, ((weight * counts[soft]) * idf[soft]) * soft_score, 0.0
            ),
        )
    )
    # one vector step per position, in token order, as the scalar battery
    # adds; a pair has one element per position, so no step repeats a pair
    hit_pair = element_pair[hit]
    steps = np.flatnonzero(np.diff(element_place[hit])) + 1
    dots = np.zeros((2, len(pair_text)), dtype=np.float64)
    for start, stop in zip([0, *steps.tolist()], [*steps.tolist(), len(hit)]):
        dots[:, hit_pair[start:stop]] += terms[:, start:stop]
    # a non-empty bag has a positive norm: every IDF is at least 1
    norm = texts.norms[pair_text] * lemmas.norms[pair_lemma]
    shared = np.bincount(hit_pair[hard >= 0], minlength=len(pair_text))
    a, b = texts.lengths[pair_text], lemmas.lengths[pair_lemma]
    return np.stack(
        (
            dots[0] / norm,
            np.minimum(dots[1] / norm, 1.0),
            shared / (a + b - shared),
            2.0 * shared / (a + b),
        ),
        axis=1,
    )
