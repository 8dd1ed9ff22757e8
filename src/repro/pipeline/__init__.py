"""Corpus-scale annotation pipeline: cache, batching, streaming I/O.

This package is the single corpus-annotation entry point of the system; see
:class:`AnnotationPipeline`.
"""

from repro.pipeline.cache import (
    CacheStats,
    CandidateCache,
    LRUCache,
    normalized_cell_key,
)
from repro.pipeline.io import (
    annotation_to_dict,
    iter_corpus_jsonl,
    read_annotations_jsonl,
    write_annotations_jsonl,
)
from repro.pipeline.pipeline import (
    AnnotationPipeline,
    CorpusTimingReport,
    PipelineConfig,
    iter_batches,
)

__all__ = [
    "AnnotationPipeline",
    "CacheStats",
    "CandidateCache",
    "CorpusTimingReport",
    "LRUCache",
    "PipelineConfig",
    "annotation_to_dict",
    "iter_batches",
    "iter_corpus_jsonl",
    "normalized_cell_key",
    "read_annotations_jsonl",
    "write_annotations_jsonl",
]
