"""repro — reproduction of Limaye, Sarawagi & Chakrabarti (VLDB 2010),
"Annotating and Searching Web Tables Using Entities, Types and
Relationships".

The public entry point is the typed API (:mod:`repro.api`)::

    from repro import AnnotateRequest, ReproSession, SearchRequest

    session = ReproSession.from_world("world/catalog_view.json")
    response = session.annotate(AnnotateRequest(table=table))
    session.index_corpus("world/corpus.jsonl")
    answers = session.search(SearchRequest(relation="rel:directed",
                                           entity="ent:kurosawa"))

The same requests drive the CLI (``python -m repro``) and the HTTP server
(``repro serve``) — all three frontends share one session facade and one
versioned wire schema, so their behaviour is identical by construction.

Lower-level building blocks (catalogs, generators, annotators, pipelines,
searchers) remain importable below for power users and existing code.

See docs/ARCHITECTURE.md for the system inventory and
``benchmarks/bench_fig<N>_*.py`` for the paper-vs-measured check of every
figure.
"""

from repro.api import (
    SCHEMA_VERSION,
    AnnotateRequest,
    AnnotateResponse,
    ApiError,
    BundleBuildRequest,
    BundleBuildResponse,
    ErrorEnvelope,
    JoinSearchRequest,
    ReproSession,
    SearchRequest,
    SearchResponse,
    ServeConfig,
    SessionConfig,
    TrainRequest,
    TrainResponse,
    encode_json,
)
from repro.catalog import (
    Catalog,
    CatalogBuilder,
    SyntheticCatalogConfig,
    SyntheticCatalogGenerator,
)
from repro.catalog.synthetic import SyntheticWorld, generate_world
from repro.core import (
    AnnotationModel,
    AnnotatorConfig,
    LCAAnnotator,
    MajorityAnnotator,
    StructuredTrainer,
    TableAnnotation,
    TableAnnotator,
    TrainingConfig,
    TypeEntityFeatureMode,
)
from repro.pipeline import (
    AnnotationPipeline,
    CandidateCache,
    CorpusTimingReport,
    PipelineConfig,
)
from repro.search import (
    AnnotatedSearcher,
    AnnotatedTableIndex,
    BaselineSearcher,
    JoinQuery,
    JoinSearcher,
    RelationQuery,
)
from repro.tables import (
    LabeledTable,
    NoiseProfile,
    Table,
    TableCorpus,
    TableGeneratorConfig,
    WebTableGenerator,
    extract_tables_from_html,
)

__version__ = "2.0.0"

__all__ = [
    # typed API surface
    "SCHEMA_VERSION",
    "AnnotateRequest",
    "AnnotateResponse",
    "ApiError",
    "BundleBuildRequest",
    "BundleBuildResponse",
    "ErrorEnvelope",
    "JoinSearchRequest",
    "ReproSession",
    "SearchRequest",
    "SearchResponse",
    "ServeConfig",
    "SessionConfig",
    "TrainRequest",
    "TrainResponse",
    "encode_json",
    # building blocks
    "AnnotatedSearcher",
    "AnnotatedTableIndex",
    "AnnotationModel",
    "AnnotationPipeline",
    "AnnotatorConfig",
    "CandidateCache",
    "CorpusTimingReport",
    "PipelineConfig",
    "BaselineSearcher",
    "Catalog",
    "CatalogBuilder",
    "JoinQuery",
    "JoinSearcher",
    "LCAAnnotator",
    "LabeledTable",
    "MajorityAnnotator",
    "NoiseProfile",
    "RelationQuery",
    "StructuredTrainer",
    "SyntheticCatalogConfig",
    "SyntheticCatalogGenerator",
    "SyntheticWorld",
    "Table",
    "TableAnnotation",
    "TableAnnotator",
    "TableCorpus",
    "TableGeneratorConfig",
    "TrainingConfig",
    "TypeEntityFeatureMode",
    "WebTableGenerator",
    "extract_tables_from_html",
    "generate_world",
    "__version__",
]
