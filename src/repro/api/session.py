"""The :class:`ReproSession` facade — the one public entry point.

Every frontend (CLI commands, the HTTP server, library callers) drives the
system the same way: open a session, hand it typed requests, get typed
responses back.  A session owns

* the catalog and model,
* one warm :class:`~repro.pipeline.AnnotationPipeline` (built at open, then
  shared by every request — its candidate / feature-block / answer caches
  are internally locked; the candidate engine with its frozen lemma index
  and interned candidate tables is shared with training pipelines),
* the annotated table index plus both search processors and the join
  processor (built lazily once an index exists).

Sessions open two ways::

    session = ReproSession.from_world("world/catalog_view.json")
    session = ReproSession.from_bundle("bundle/")       # prebuilt artifacts

``from_world`` starts cold (annotating builds all state on demand);
``from_bundle`` starts warm — the index and frozen text indexes come
straight off disk, which is what ``repro serve`` runs on.

Thread safety (the library contract): one session may be shared by any
number of threads, and concurrent requests get exactly the answers serial
requests would.  Serving workers answer one message at a time and do not
need this; library callers do.  How it holds:

* **Bundle state is immutable.**  The catalog, the frozen lemma/header/
  context indexes and the annotated table index are never mutated after
  :func:`~repro.serve.bundle.load_bundle`, so every search reads them
  lock-free.  The one exception is a memo: the table index builds a
  column's token postings on the first query that touches the column and
  publishes them with one ``dict.setdefault``.  A thread racing on the
  same cold column builds an equal value, and both go on with whichever
  landed first, so no lock is needed and answers do not depend on which
  thread won.
* **Annotation is a pure function with thread-safe memoisation.**  The
  session's one :class:`~repro.pipeline.AnnotationPipeline` carries its
  candidate / feature-block / answer LRUs behind their own internal locks
  (pinned by ``tests/pipeline/test_answer_cache.py``).  The answer LRU
  hands every request a fresh copy of a cached answer, under the request's
  own table id.  Scratch buffers (the text index's, the fused engine's)
  are per-thread.
* **Each response reads its own timing** from the annotation's
  diagnostics; nothing accumulates per table.
* **Everything else** (lazy searcher construction) happens under one small
  mutex here.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.api import errors
from repro.api.config import SessionConfig
from repro.api.errors import ApiError, to_api_error
from repro.api.types import (
    AnnotateRequest,
    AnnotateResponse,
    BundleBuildRequest,
    BundleBuildResponse,
    JoinSearchRequest,
    SearchRequest,
    SearchResponse,
    TrainRequest,
    TrainResponse,
)
from repro.catalog.catalog import Catalog
from repro.catalog.errors import CatalogError
from repro.catalog.io import load_catalog_json
from repro.core.annotation import TableAnnotation
from repro.core.candidates import CandidateEngine, InternedCandidateTables
from repro.core.model import AnnotationModel, default_model
from repro.pipeline.io import annotation_to_dict, iter_corpus_jsonl
from repro.pipeline.pipeline import AnnotationPipeline
from repro.search.annotated_search import AnnotatedSearcher
from repro.search.join_search import JoinQuery, JoinSearcher
from repro.search.query import RelationQuery
from repro.search.ranking import build_lemma_resolver
from repro.search.table_index import AnnotatedTableIndex
from repro.tables.model import LabeledTable, Table

if TYPE_CHECKING:  # the serve package imports this module; break the cycle
    from repro.serve.bundle import LoadedBundle


class ReproSession:
    """One warm, shareable handle on the whole system (see module docs)."""

    def __init__(
        self,
        catalog: Catalog,
        model: AnnotationModel | None = None,
        config: SessionConfig | None = None,
        bundle: LoadedBundle | None = None,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        self.bundle = bundle
        self.catalog = catalog
        self.model = model if model is not None else default_model()
        self._state_lock = threading.Lock()
        self._index: AnnotatedTableIndex | None = (
            bundle.table_index if bundle is not None else None
        )
        self._lemma_resolver: dict[str, str] | None = None
        self._searchers: dict[bool, AnnotatedSearcher] | None = None
        self._join_searcher: JoinSearcher | None = None
        # built once at open so the first request pays nothing extra
        self._candidate_engine = self._make_candidate_engine()
        self._pipeline = AnnotationPipeline(
            self.catalog,
            model=self.model,
            config=self.config.pipeline_config(),
            candidate_engine=self._candidate_engine,
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_world(
        cls,
        catalog: str | Path | Catalog,
        model: str | Path | AnnotationModel | None = None,
        config: SessionConfig | None = None,
    ) -> "ReproSession":
        """Open a session on a catalog file, a world directory or a live
        :class:`Catalog`.

        A world directory (as written by ``repro generate-world``) resolves
        to its ``catalog_view.json`` (falling back to ``catalog_full.json``).
        """
        if not isinstance(catalog, Catalog):
            path = Path(catalog)
            if path.is_dir():
                for name in ("catalog_view.json", "catalog_full.json"):
                    if (path / name).is_file():
                        path = path / name
                        break
                else:
                    raise ApiError(
                        errors.IO_ERROR,
                        f"{path} is not a world directory (no "
                        f"catalog_view.json / catalog_full.json)",
                    )
            if not path.is_file():
                raise ApiError(errors.IO_ERROR, f"catalog not found: {path}")
            catalog = load_catalog_json(path)
        if model is not None and not isinstance(model, AnnotationModel):
            model_path = Path(model)
            if not model_path.is_file():
                raise ApiError(errors.IO_ERROR, f"model not found: {model_path}")
            model = AnnotationModel.load(model_path)
        return cls(catalog, model=model, config=config)

    @classmethod
    def from_bundle(
        cls,
        bundle: str | Path | LoadedBundle,
        config: SessionConfig | None = None,
        verify: bool = True,
    ) -> "ReproSession":
        """Open a warm session on a prebuilt artifact bundle."""
        # reprolint: ignore[arch-layering]: deliberate lazy upward import —
        # the bundle format is serve-owned; deferring keeps the api layer
        # load-time-independent of the serving tier
        from repro.serve.bundle import LoadedBundle, load_bundle

        if not isinstance(bundle, LoadedBundle):
            bundle = load_bundle(bundle, verify=verify)
        return cls(
            bundle.catalog, model=bundle.model, config=config, bundle=bundle
        )

    # ------------------------------------------------------------------
    # pipelines
    # ------------------------------------------------------------------
    def _make_candidate_engine(self) -> CandidateEngine:
        """The one candidate engine (frozen lemma index + interned tables)
        every pipeline of the session shares; bundle sessions load both
        straight from disk, world sessions build them once."""
        bundle = self.bundle
        state = bundle.candidate_state if bundle is not None else None
        return CandidateEngine(
            self.catalog,
            top_k_entities=self.config.annotator.top_k_entities,
            max_type_candidates=self.config.annotator.max_type_candidates,
            lemma_index=bundle.lemma_index if bundle is not None else None,
            tables=(
                InternedCandidateTables.from_state(state) if state is not None else None
            ),
        )

    def pipeline(self) -> AnnotationPipeline:
        """The session's one warm pipeline."""
        return self._pipeline

    # ------------------------------------------------------------------
    # annotation
    # ------------------------------------------------------------------
    def annotate(self, request: AnnotateRequest) -> AnnotateResponse:
        """Annotate one table (the typed request/response path)."""
        annotation = self._pipeline.annotate(request.table)
        return self._annotate_response(
            annotation, include_timing=request.include_timing
        )

    def _annotate_response(
        self, annotation: TableAnnotation, include_timing: bool
    ) -> AnnotateResponse:
        """One annotation as its wire response (single source of the shape)."""
        timing = annotation.diagnostics.get("timing")
        return AnnotateResponse(
            table_id=annotation.table_id,
            annotation=annotation_to_dict(annotation),
            diagnostics={
                "iterations": annotation.diagnostics.get("iterations"),
                "converged": annotation.diagnostics.get("converged"),
                "n_variables": annotation.diagnostics.get("n_variables"),
                "n_factors": annotation.diagnostics.get("n_factors"),
            },
            timing_seconds=(
                {
                    "total": timing.total_seconds,
                    "candidates": timing.candidate_seconds,
                    "inference": timing.inference_seconds,
                }
                if include_timing and timing is not None
                else None
            ),
        )

    def annotate_batch(
        self, requests: Sequence[AnnotateRequest]
    ) -> list[AnnotateResponse | ApiError]:
        """Annotate many requests in one pass of the pipeline's miss path.

        The serving workers' entry point.
        :meth:`~repro.pipeline.AnnotationPipeline.answer` looks every table
        up in the answer cache, computes each distinct miss once in fused
        runs and isolates each table's failure.  A slot whose
        table fails holds an :class:`ApiError` instead of a response — for
        a lone table, the error :meth:`annotate` would raise.  Each response
        is byte-identical to what a lone :meth:`annotate` call would
        produce (pinned by the batching property tests).
        """
        outcomes = self._pipeline.answer([request.table for request in requests])
        return [
            to_api_error(outcome)
            if isinstance(outcome, Exception)
            else self._annotate_response(
                outcome, include_timing=request.include_timing
            )
            for request, outcome in zip(requests, outcomes)
        ]

    def annotate_wire_stream(
        self,
        tables: Iterable[Table | LabeledTable],
        include_timing: bool = False,
    ) -> Iterator[AnnotateResponse]:
        """Stream typed responses for a whole corpus.

        Runs through the batched pipeline (so ``batch_size`` applies),
        yielding one :class:`AnnotateResponse` per table in corpus order —
        each byte-identical to what a single :meth:`annotate` call for that
        table would produce.  Timing is excluded by default: the corpus wire
        format is the deterministic one.
        """
        for annotation in self.annotate_stream(tables):
            yield self._annotate_response(
                annotation, include_timing=include_timing
            )

    def annotate_stream(
        self, tables: Iterable[Table | LabeledTable]
    ) -> Iterator[TableAnnotation]:
        """Stream corpus annotations in order (batched and cached — see
        :class:`AnnotationPipeline`)."""
        return self._pipeline.annotate_stream(tables)

    def annotate_with_tables(
        self, tables: Iterable[Table | LabeledTable]
    ) -> Iterator[tuple[Table, TableAnnotation]]:
        """Stream ``(table, annotation)`` pairs in corpus order."""
        return self._pipeline.annotate_with_tables(tables)

    # ------------------------------------------------------------------
    # index + search
    # ------------------------------------------------------------------
    @property
    def index(self) -> AnnotatedTableIndex | None:
        """The annotated table index, if one exists yet."""
        # reprolint: ignore[lock-unguarded-attr]: single atomic reference
        # read; _index moves monotonically None -> frozen index and is never
        # mutated in place, so any snapshot the caller sees is consistent
        return self._index

    def index_corpus(
        self, tables: Iterable[Table | LabeledTable] | str | Path
    ) -> AnnotatedTableIndex:
        """Annotate a corpus (iterable or JSONL path) into the session index.

        Replaces any previous index; the searchers rebuild lazily on the
        next query.
        """
        if isinstance(tables, (str, Path)):
            path = Path(tables)
            if not path.is_file():
                raise ApiError(errors.IO_ERROR, f"corpus not found: {path}")
            tables = iter_corpus_jsonl(path)
        index = AnnotatedTableIndex(catalog=self.catalog)
        for table, annotation in self.annotate_with_tables(tables):
            index.add_table(table, annotation)
        index.freeze()
        with self._state_lock:
            self._index = index
            self._searchers = None
            self._join_searcher = None
        return index

    def _require_index(self) -> AnnotatedTableIndex:
        # reprolint: ignore[lock-unguarded-attr]: single atomic reference
        # read of a monotone None -> frozen-index attribute; callers either
        # hold _state_lock already or only need *a* consistent snapshot
        index = self._index
        if index is None:
            raise ApiError(
                errors.NO_INDEX,
                "session has no table index: open a bundle or call "
                "index_corpus() first",
            )
        return index

    def _searcher(self, use_relations: bool) -> AnnotatedSearcher:
        # lock-free fast path once warm (one atomic attribute read); the
        # slow path reads the index and builds the searchers inside one
        # critical section, so a concurrent index_corpus() can never leave
        # searchers cached over a replaced index
        # reprolint: ignore[lock-unguarded-attr]: double-checked fast path;
        # the dict is built fully before the single reference publish under
        # _state_lock, and a stale None just takes the locked slow path
        searchers = self._searchers
        if searchers is not None:
            return searchers[use_relations]
        with self._state_lock:
            if self._searchers is None:
                index = self._require_index()
                if self._lemma_resolver is None:
                    self._lemma_resolver = build_lemma_resolver(self.catalog)
                self._searchers = {
                    flag: AnnotatedSearcher(
                        index,
                        self.catalog,
                        use_relations=flag,
                        lemma_resolver=self._lemma_resolver,
                    )
                    for flag in (True, False)
                }
            return self._searchers[use_relations]

    def _join(self) -> JoinSearcher:
        # reprolint: ignore[lock-unguarded-attr]: double-checked fast path;
        # the searcher is fully constructed before its reference is
        # published under _state_lock, and a stale None re-checks locked
        searcher = self._join_searcher
        if searcher is not None:
            return searcher
        with self._state_lock:
            if self._join_searcher is None:
                index = self._require_index()
                if self._lemma_resolver is None:
                    self._lemma_resolver = build_lemma_resolver(self.catalog)
                self._join_searcher = JoinSearcher(
                    index, self.catalog, lemma_resolver=self._lemma_resolver
                )
            return self._join_searcher

    def search(self, request: SearchRequest) -> SearchResponse:
        """Answer one relational query against the session index."""
        searcher = self._searcher(request.use_relations)
        try:
            query = RelationQuery.from_catalog(
                self.catalog, request.relation, request.entity
            )
        except CatalogError as error:
            raise to_api_error(error) from error
        return SearchResponse.from_ranked(
            searcher.search(query), top_k=request.top_k
        )

    def join_search(self, request: JoinSearchRequest) -> SearchResponse:
        """Answer one two-hop join query against the session index."""
        searcher = self._join()
        try:
            query = JoinQuery.from_catalog(
                self.catalog,
                request.first_relation,
                request.second_relation,
                request.entity,
            )
        except CatalogError as error:
            raise to_api_error(error) from error
        except ValueError as error:
            raise ApiError(errors.INVALID_QUERY, str(error)) from error
        return SearchResponse.from_ranked(
            searcher.search(query), top_k=request.top_k
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(self, request: TrainRequest) -> TrainResponse:
        """Train fresh model weights on a labeled corpus.

        Training runs on a dedicated pipeline so the session's warm serving
        pipeline (and its caches) is never perturbed.  The session keeps
        its original model; load the trained one into a new session.
        """
        from repro.core.learning import StructuredTrainer, TrainingConfig
        from repro.tables.corpus import load_corpus_jsonl

        corpus_path = Path(request.corpus_path)
        if not corpus_path.is_file():
            raise ApiError(errors.IO_ERROR, f"corpus not found: {corpus_path}")
        corpus = load_corpus_jsonl(corpus_path)
        # a dedicated pipeline keeps the warm serving pipeline untouched,
        # but the expensive candidate engine (catalog scan + frozen lemma
        # index + interned tables) is shared — it depends only on the catalog
        pipeline = AnnotationPipeline(
            self.catalog,
            model=default_model(),
            config=self.config.pipeline_config(),
            candidate_engine=self._candidate_engine,
        )
        try:
            trainer = StructuredTrainer(
                pipeline.annotator,
                TrainingConfig(
                    epochs=request.epochs,
                    seed=request.seed,
                    method=request.method,
                ),
            )
            model = trainer.train(list(corpus))
        except ValueError as error:
            raise ApiError(errors.VALIDATION_ERROR, str(error)) from error
        if request.output_path is not None:
            model.save(request.output_path)
        final_loss = (
            trainer.history[-1]["hamming_loss"] if trainer.history else 0.0
        )
        return TrainResponse(
            n_tables=len(corpus),
            epochs=request.epochs,
            final_hamming_loss=final_loss,
            model_fingerprint=model.fingerprint(),
            model_path=request.output_path,
        )

    # ------------------------------------------------------------------
    # bundles
    # ------------------------------------------------------------------
    def build_bundle(self, request: BundleBuildRequest) -> BundleBuildResponse:
        """Annotate a corpus and serialize the full serving bundle."""
        # reprolint: ignore[arch-layering]: deliberate lazy upward import —
        # bundle building is serve-owned; the session only brokers it
        from repro.serve.bundle import build_bundle

        corpus_path = Path(request.corpus_path)
        if not corpus_path.is_file():
            raise ApiError(errors.IO_ERROR, f"corpus not found: {corpus_path}")
        manifest = build_bundle(
            request.output_path,
            self.catalog,
            iter_corpus_jsonl(corpus_path),
            pipeline=self._pipeline,
        )
        return BundleBuildResponse(
            output_path=str(request.output_path),
            n_tables=int(manifest.stats.get("n_tables", 0)),
            n_files=len(manifest.files),
            annotate_seconds=float(manifest.stats.get("annotate_seconds", 0.0)),
        )
