"""The scalar oracle: per-cell candidates and per-edge max-product BP.

See :mod:`tests.oracles` for how the tests use it.  Nothing here is tuned
for speed; every function is the direct reading of the paper's definitions
(Section 4.3 candidates, Figure-11 schedule, argmax decoding).
"""

from __future__ import annotations

import numpy as np

from repro.catalog.catalog import Catalog
from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.core.annotator import AnnotatorConfig
from repro.core.candidates import CandidateGenerator
from repro.core.candidates_batched import (
    BatchedCandidateEngine,
    BatchedFeatureComputer,
)
from repro.core.fused import annotate_problem
from repro.core.inference import InferenceConfig
from repro.core.model import AnnotationModel, default_model
from repro.core.problem import (
    NA,
    AnnotationProblem,
    FeatureComputer,
    build_factor_graph,
    build_problem,
)
from repro.core.simple_inference import annotate_simple
from repro.graph.bp import MaxProductBP
from repro.tables.model import Table

#: "paper" is the Figure-11 block schedule; "flooding" the generic
#: synchronous schedule (the design ablation's alternative)
SCHEDULES = ("paper", "flooding")

#: which implementation an :class:`OracleAnnotator` layer uses: "scalar"
#: is the reference, "batched" the production counterpart
LAYERS = ("scalar", "batched")


def run_scalar_paper_schedule(
    engine: MaxProductBP, max_iterations: int = 10, tolerance: float = 1e-5
) -> tuple[int, bool]:
    """Drive a scalar engine through the Figure-11 block schedule.

    The per-edge loop the fused engine's ``run_paper_schedule`` must
    reproduce: within each half-step every update reads only messages
    written in earlier half-steps.  Returns ``(iterations, converged)``.
    """
    graph = engine.graph
    phi3_edges: list[tuple[str, str, str]] = []  # (factor, type_var, entity_var)
    phi5_edges: list[tuple[str, str, str, str]] = []  # (factor, b, e_left, e_right)
    phi4_edges: list[tuple[str, str, str, str]] = []  # (factor, b, t_left, t_right)
    for factor in graph.factors.values():
        if factor.kind == "phi3":
            phi3_edges.append((factor.name, factor.variables[0], factor.variables[1]))
        elif factor.kind == "phi5":
            phi5_edges.append((factor.name, *factor.variables))
        elif factor.kind == "phi4":
            phi4_edges.append((factor.name, *factor.variables))

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):  # noqa: B007 - read after loop
        delta = 0.0
        # Block 1: entities <-> types through phi3.
        for factor_name, type_var, entity_var in phi3_edges:
            delta = max(delta, engine.update_var_to_factor(entity_var, factor_name))
            delta = max(delta, engine.update_factor_to_var(factor_name, type_var))
        for factor_name, type_var, entity_var in phi3_edges:
            delta = max(delta, engine.update_var_to_factor(type_var, factor_name))
            delta = max(delta, engine.update_factor_to_var(factor_name, entity_var))
        # Blocks 2 and 3: entities <-> relations through phi5, then
        # types <-> relations through phi4 (same edge pattern).
        for edges in (phi5_edges, phi4_edges):
            for factor_name, b_var, left_var, right_var in edges:
                delta = max(delta, engine.update_var_to_factor(left_var, factor_name))
                delta = max(delta, engine.update_var_to_factor(right_var, factor_name))
                delta = max(delta, engine.update_factor_to_var(factor_name, b_var))
            for factor_name, b_var, left_var, right_var in edges:
                delta = max(delta, engine.update_var_to_factor(b_var, factor_name))
                delta = max(delta, engine.update_factor_to_var(factor_name, left_var))
                delta = max(delta, engine.update_factor_to_var(factor_name, right_var))
        if delta < tolerance:
            converged = True
            break
    return iterations, converged


def _belief_margin(belief: np.ndarray, chosen: int) -> float:
    if belief.shape[0] < 2:
        return float(belief[chosen])
    others = np.delete(belief, chosen)
    return float(belief[chosen] - others.max())


def scalar_decode(
    problem: AnnotationProblem,
    engine: MaxProductBP,
    iterations: int,
    converged: bool,
) -> TableAnnotation:
    """Per-variable argmax decoding of a scalar run (ties to na's side)."""
    annotation = TableAnnotation(table_id=problem.table.table_id)
    graph = engine.graph
    for space in problem.cells.values():
        belief = engine.belief(space.variable_name)
        index = int(np.argmax(belief))
        annotation.cells[(space.row, space.column)] = CellAnnotation(
            row=space.row,
            column=space.column,
            entity_id=space.labels[index],
            score=_belief_margin(belief, index),
        )
    for space in problem.columns.values():
        belief = engine.belief(space.variable_name)
        index = int(np.argmax(belief))
        annotation.columns[space.column] = ColumnAnnotation(
            column=space.column,
            type_id=space.labels[index],
            score=_belief_margin(belief, index),
        )
    for column in range(problem.table.n_columns):
        if column not in annotation.columns:
            annotation.columns[column] = ColumnAnnotation(
                column=column, type_id=NA, score=0.0
            )
    for space in problem.pairs.values():
        belief = engine.belief(space.variable_name)
        index = int(np.argmax(belief))
        annotation.relations[(space.left, space.right)] = RelationAnnotation(
            left_column=space.left,
            right_column=space.right,
            label=space.labels[index],
            score=_belief_margin(belief, index),
        )
    annotation.diagnostics.update(
        {
            "method": "collective",
            "iterations": iterations,
            "converged": converged,
            "log_score": graph.score(engine.map_assignment()),
            "n_variables": len(graph.variables),
            "n_factors": len(graph.factors),
        }
    )
    return annotation


def scalar_annotate_problem(
    problem: AnnotationProblem,
    model: AnnotationModel,
    config: InferenceConfig,
    unary_bonus: dict[str, np.ndarray] | None = None,
    schedule: str = "paper",
) -> TableAnnotation:
    """Collective inference on one problem with the scalar engine."""
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule: {schedule!r}")
    graph = build_factor_graph(problem, model)
    for name, bonus in (unary_bonus or {}).items():
        variable = graph.variables.get(name)
        if variable is not None:
            variable.unary = variable.unary + np.asarray(bonus, dtype=float)
    engine = MaxProductBP(graph, damping=config.damping)
    if schedule == "flooding":
        result = engine.run_flooding(
            max_iterations=config.max_iterations, tolerance=config.tolerance
        )
        return scalar_decode(problem, engine, result.iterations, result.converged)
    iterations, converged = run_scalar_paper_schedule(
        engine, max_iterations=config.max_iterations, tolerance=config.tolerance
    )
    return scalar_decode(problem, engine, iterations, converged)


class OracleAnnotator:
    """Reference annotator, one layer at a time.

    ``candidates`` picks the problem builder ("scalar": per-cell
    ``CandidateGenerator`` + ``FeatureComputer``; "batched": the production
    array-backed pair) and ``bp`` the inference engine ("scalar": per-edge
    :class:`MaxProductBP`; "batched": the production fused engine on a
    bucket of one).  ``candidate_generator`` shares a prebuilt lemma index;
    a batched engine is unwrapped to its scalar generator for the scalar
    candidate path.
    """

    def __init__(
        self,
        catalog: Catalog,
        model: AnnotationModel | None = None,
        config: AnnotatorConfig | None = None,
        candidates: str = "scalar",
        bp: str = "scalar",
        schedule: str = "paper",
        candidate_generator: CandidateGenerator | BatchedCandidateEngine | None = None,
    ) -> None:
        if candidates not in LAYERS or bp not in LAYERS:
            raise ValueError(f"unknown oracle layers: {candidates!r}, {bp!r}")
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule: {schedule!r}")
        self.catalog = catalog
        self.model = model if model is not None else default_model()
        self.config = config if config is not None else AnnotatorConfig()
        self.bp = bp
        self.schedule = schedule
        generator = candidate_generator
        if isinstance(generator, BatchedCandidateEngine):
            generator = generator.scalar_generator
        if generator is None:
            generator = CandidateGenerator(
                catalog,
                top_k_entities=self.config.top_k_entities,
                max_type_candidates=self.config.max_type_candidates,
            )
        self.generator: CandidateGenerator | BatchedCandidateEngine
        if candidates == "batched":
            engine = BatchedCandidateEngine(generator)
            self.generator = engine
            self.features: FeatureComputer = BatchedFeatureComputer(
                catalog, self.model.mode, engine, engine=engine
            )
        else:
            self.generator = generator
            self.features = FeatureComputer(catalog, self.model.mode, generator)

    def build_problem(self, table: Table) -> AnnotationProblem:
        return build_problem(
            table,
            self.generator,
            self.features,
            max_column_pairs=self.config.max_column_pairs,
        )

    def annotate_problem(
        self,
        problem: AnnotationProblem,
        unary_bonus: dict[str, np.ndarray] | None = None,
    ) -> TableAnnotation:
        if not self.config.with_relations:
            return annotate_simple(problem, self.model)
        inference = self.config.inference_config()
        if self.bp == "batched":
            return annotate_problem(problem, self.model, inference, unary_bonus)
        return scalar_annotate_problem(
            problem, self.model, inference, unary_bonus, self.schedule
        )

    def annotate(self, table: Table) -> TableAnnotation:
        return self.annotate_problem(self.build_problem(table))
