"""Text and IR substrate: tokenisation, similarities and the lemma index.

The paper relies on a Lucene index over lemmas plus a battery of string
similarity measures (TF-IDF cosine [18], Jaccard, soft cosine [2]).  This
package provides pure-Python equivalents:

* :mod:`repro.text.tokenize` — lower-cased alphanumeric tokenisation,
* :mod:`repro.text.normalize` — cell/header normalisation helpers,
* :mod:`repro.text.similarity` — cosine/Jaccard/Dice/soft-TFIDF/Jaro-Winkler
  similarities, all in ``[0, 1]``,
* :mod:`repro.text.index` — an inverted index with TF-IDF scoring used for
  candidate entity retrieval and table search; the lemma index's IDF
  values also weigh the f1/f2 similarities.

:mod:`repro.core.battery` computes f1/f2 as array passes over many (text,
lemma) pairs at once; the functions here are the per-pair definitions.
"""

from repro.text.index import IndexHit, InvertedIndex
from repro.text.normalize import normalize_text
from repro.text.similarity import (
    cosine_tfidf,
    dice,
    jaccard,
    jaro_winkler,
    soft_tfidf,
)
from repro.text.tokenize import tokenize

__all__ = [
    "IndexHit",
    "InvertedIndex",
    "cosine_tfidf",
    "dice",
    "jaccard",
    "jaro_winkler",
    "normalize_text",
    "soft_tfidf",
    "tokenize",
]
