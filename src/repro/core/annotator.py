"""High-level annotation facade.

:class:`TableAnnotator` wires together the candidate engine, feature
computer and the fused inference engine behind one call::

    annotator = TableAnnotator(catalog)
    annotation = annotator.annotate(table)

Every annotation carries the timing behind the Figure-7 reproduction in
``diagnostics["timing"]``: how long was spent probing the lemma index and
computing similarities (``candidate_seconds``) versus running message passing
(``inference_seconds``) — the paper reports roughly 80% and <1% of total time
respectively.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.core.annotation import TableAnnotation
from repro.core.baselines import BaselineResult, LCAAnnotator, MajorityAnnotator
from repro.core.candidates import CandidateEngine, CellCandidates
from repro.core.fused import annotate_fused_chunk
from repro.core.fused import annotate_problem as annotate_collective_problem
from repro.core.model import AnnotationModel, default_model
from repro.core.problem import AnnotationProblem, FeatureComputer, build_problem
from repro.core.simple_inference import annotate_simple
from repro.tables.model import Table


def check_count(name: str, value: object, least: int) -> None:
    """Refuse a count that is not an int (bools included) or is below
    ``least``, with a ``ValueError``.  Every config count is checked here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}: {value!r}")


@dataclass
class AnnotatorConfig:
    """Configuration of the full annotation pipeline."""

    top_k_entities: int = 8
    max_type_candidates: int = 64
    max_column_pairs: int = 12
    max_iterations: int = 10
    #: False disables bcc'/φ4/φ5 — the polynomial special case (Section 4.4.1)
    with_relations: bool = True

    def __post_init__(self) -> None:
        for name, least in (
            ("top_k_entities", 1),
            ("max_type_candidates", 1),
            ("max_column_pairs", 0),
            ("max_iterations", 1),
        ):
            check_count(name, getattr(self, name), least)
        if not isinstance(self.with_relations, bool):
            raise ValueError(
                f"with_relations must be a bool: {self.with_relations!r}"
            )

    def to_dict(self) -> dict:
        """JSON-ready view (used by :class:`repro.api.SessionConfig`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AnnotatorConfig":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown AnnotatorConfig field(s): {', '.join(unknown)}"
            )
        return cls(**payload)


class TableAnnotator:
    """Annotates tables against a catalog with the collective model."""

    def __init__(
        self,
        catalog: Catalog,
        model: AnnotationModel | None = None,
        config: AnnotatorConfig | None = None,
        candidate_engine: CandidateEngine | None = None,
    ) -> None:
        self.catalog = catalog
        self.model = model if model is not None else default_model()
        self.config = config if config is not None else AnnotatorConfig()
        # a prebuilt engine skips the lemma-index and interned-table builds —
        # sessions pass one loaded straight from an artifact bundle
        self.candidate_engine = (
            candidate_engine
            if candidate_engine is not None
            else CandidateEngine(
                catalog,
                top_k_entities=self.config.top_k_entities,
                max_type_candidates=self.config.max_type_candidates,
            )
        )
        self.features = FeatureComputer(
            catalog, self.model.mode, self.candidate_engine
        )
        #: optional ``Erc`` cache (set by the pipeline); every candidate
        #: resolution of this annotator consults it
        self.candidate_cache = None

    # ------------------------------------------------------------------
    # problems
    # ------------------------------------------------------------------
    def resolve_candidates(
        self, tables: list[Table]
    ) -> dict[str, CellCandidates]:
        """``Erc`` of every distinct cell text of ``tables`` in one engine
        call, through the candidate cache when one is attached."""
        texts = list(
            dict.fromkeys(
                table.cell(row, column)
                for table in tables
                for column in range(table.n_columns)
                for row in range(table.n_rows)
            )
        )
        return dict(
            zip(
                texts,
                self.candidate_engine.cell_candidates_batch(
                    texts, self.candidate_cache
                ),
            )
        )

    def build_problem(self, table: Table) -> AnnotationProblem:
        """Candidate spaces + feature caches for one table."""
        return build_problem(
            table,
            self.candidate_engine,
            self.features,
            self.resolve_candidates([table]),
            max_column_pairs=self.config.max_column_pairs,
        )

    # ------------------------------------------------------------------
    # annotation
    # ------------------------------------------------------------------
    def annotate(self, table: Table) -> TableAnnotation:
        """Annotate one table as a bucket of one (records timing; see
        :func:`~repro.core.fused.annotate_fused_chunk`)."""
        return annotate_fused_chunk(self, [table])[0]

    def annotate_simple(
        self, table: Table, unique_columns: tuple[int, ...] = ()
    ) -> TableAnnotation:
        """Figure-2 exact inference (no relation variables).

        ``unique_columns`` applies the Section-4.4.1 primary-key constraint
        to those columns (all-different entity assignment).
        """
        problem = self.build_problem(table)
        return annotate_simple(
            problem, self.model, unique_columns=unique_columns, features=self.features
        )

    def annotate_problem(self, problem: AnnotationProblem) -> TableAnnotation:
        """Collective inference on a pre-built problem (learner fast path)."""
        if self.config.with_relations:
            return annotate_collective_problem(problem, self.model, self.config)
        return annotate_simple(problem, self.model)

    # ------------------------------------------------------------------
    # baselines sharing this annotator's caches
    # ------------------------------------------------------------------
    def lca_baseline(self) -> LCAAnnotator:
        return LCAAnnotator(self.features, self.model)

    def majority_baseline(self, threshold_percent: float = 50.0) -> MajorityAnnotator:
        return MajorityAnnotator(
            self.features, self.model, threshold_percent=threshold_percent
        )

    def annotate_with_baseline(
        self, table: Table, method: str, threshold_percent: float = 50.0
    ) -> BaselineResult:
        """Run a named baseline ("lca" or "majority") on one table."""
        problem = self.build_problem(table)
        if method == "lca":
            return self.lca_baseline().annotate(problem)
        if method == "majority":
            return self.majority_baseline(threshold_percent).annotate(problem)
        raise ValueError(f"unknown baseline method: {method!r}")
