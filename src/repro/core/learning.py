"""Structured large-margin training of the model weights w1..w5.

The paper trains with the structured SVM of Tsochantaridis et al. [22] and
says only that "we follow standard machine learning procedures".  The exact
Java implementation is unavailable offline, so this module provides the same
max-margin family:

* **averaged structured perceptron** (default) — per-table updates
  ``w += lr (Φ(y*) − Φ(ŷ))`` with the prediction ``ŷ`` obtained by
  *loss-augmented* collective inference (a Hamming cost on every variable),
  with the weight vector averaged over **every** example step (not just
  mistake rounds), and
* **SSVM subgradient** — the same loop with L2 shrinkage
  ``w ← (1 − lr·λ) w`` before each update (Pegasos-style margin-rescaled
  subgradient descent).

Ground-truth labels that fall outside a variable's candidate space (the
index did not retrieve the true entity) are clamped to ``na`` — the slot can
never be predicted correctly, so no gradient should flow toward it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.core.annotation import TableAnnotation
from repro.core.annotator import TableAnnotator
from repro.core.fused import annotate_problem
from repro.core.model import AnnotationModel
from repro.core.problem import (
    NA,
    AnnotationProblem,
    joint_feature_vector,
)
from repro.core.simple_inference import annotate_simple
from repro.tables.model import LabeledTable


@dataclass
class TrainingConfig:
    """Hyper-parameters of the structured learner."""

    epochs: int = 5
    learning_rate: float = 0.1
    method: str = "perceptron"  # or "ssvm"
    regularization: float = 1e-3  # SSVM only
    loss_cost: float = 1.0  # Hamming cost per mislabeled variable
    averaged: bool = True
    seed: int = 0
    verbose: bool = False

    def validate(self) -> None:
        if self.method not in ("perceptron", "ssvm"):
            raise ValueError(f"unknown training method: {self.method!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def truth_assignment(
    problem: AnnotationProblem, truth
) -> dict[str, str | None]:
    """Map a :class:`~repro.tables.model.TableTruth` onto problem variables.

    Labels outside the candidate domain clamp to na; variables without any
    recorded truth default to na as well (they contribute the same feature
    mass to both sides only if the prediction also picks na — mismatches
    there correctly push the na biases).
    """
    assignment: dict[str, str | None] = {}
    for (row, column), space in problem.cells.items():
        label = truth.cell_entities.get((row, column), NA)
        assignment[space.variable_name] = label if label in space.labels else NA
    for column in problem.columns:
        if column.has_type:
            label = truth.column_types.get(column.column, NA)
            assignment[column.variable_name] = label if label in column.types else NA
    for pair in problem.pairs:
        label = truth.relations.get((pair.left, pair.right), NA)
        assignment[pair.variable_name] = label if label in pair.labels else NA
    return assignment


def map_assignment_of(annotation: TableAnnotation) -> dict[str, str | None]:
    """Assignment dict (variable name -> label) from a decoded annotation.

    Used by the learner to compare prediction and truth through the joint
    feature map.
    """
    assignment: dict[str, str | None] = {}
    for (row, column), cell in annotation.cells.items():
        assignment[f"e:{row},{column}"] = cell.entity_id
    for column, column_annotation in annotation.columns.items():
        assignment[f"t:{column}"] = column_annotation.type_id
    for (left, right), relation in annotation.relations.items():
        assignment[f"b:{left},{right}"] = relation.label
    return assignment


class StructuredTrainer:
    """Trains an :class:`AnnotationModel` on labeled tables."""

    def __init__(
        self,
        annotator: TableAnnotator,
        config: TrainingConfig | None = None,
    ) -> None:
        self.annotator = annotator
        self.config = config if config is not None else TrainingConfig()
        self.config.validate()
        self.history: list[dict[str, float]] = []

    def train(self, labeled_tables: list[LabeledTable]) -> AnnotationModel:
        """Run the configured number of epochs; returns the trained model.

        The annotator's model is *updated in place* as training progresses
        (so its caches stay valid) and the final — averaged, if configured —
        weights are written back before returning.
        """
        if not labeled_tables:
            raise ValueError("no training tables given")
        rng = random.Random(self.config.seed)
        problems = [
            (self.annotator.build_problem(labeled.table), labeled.truth)
            for labeled in labeled_tables
        ]
        weights = self.annotator.model.as_flat()
        # Averaged perceptron: the average runs over the weight vector *after
        # every example*, mistake or not.  Accumulating only on mistake rounds
        # (and dividing by the mistake count) would weight the error-heavy
        # early vectors far more than the settled late ones — exactly the
        # noise averaging exists to suppress.
        weight_sum = np.zeros_like(weights)
        n_steps = 0
        with_relations = self.annotator.config.with_relations
        for epoch in range(self.config.epochs):
            order = list(range(len(problems)))
            rng.shuffle(order)
            epoch_loss = 0.0
            for index in order:
                problem, truth = problems[index]
                gold = truth_assignment(problem, truth)
                model = AnnotationModel.from_flat(
                    weights, mode=self.annotator.model.mode
                )
                predicted = self._loss_augmented_prediction(problem, model, gold)
                hamming = sum(
                    1 for name, label in gold.items() if predicted.get(name, NA) != label
                )
                epoch_loss += hamming
                if hamming:
                    gold_features = joint_feature_vector(
                        problem, gold, with_relations=with_relations
                    )
                    predicted_features = joint_feature_vector(
                        problem, predicted, with_relations=with_relations
                    )
                    gradient = gold_features - predicted_features
                    if self.config.method == "ssvm":
                        weights *= (
                            1.0
                            - self.config.learning_rate * self.config.regularization
                        )
                    weights = weights + self.config.learning_rate * gradient
                weight_sum += weights
                n_steps += 1
            self.history.append(
                {"epoch": float(epoch), "hamming_loss": float(epoch_loss)}
            )
            if self.config.verbose:  # pragma: no cover - console aid
                print(f"[train] epoch {epoch}: hamming loss {epoch_loss:.0f}")
        if self.config.averaged and n_steps:
            final = weight_sum / n_steps
        else:
            final = weights
        trained = AnnotationModel.from_flat(final, mode=self.annotator.model.mode)
        self.annotator.model = trained
        return trained

    # ------------------------------------------------------------------
    def _loss_augmented_prediction(
        self,
        problem: AnnotationProblem,
        model: AnnotationModel,
        gold: dict[str, str | None],
    ) -> dict[str, str | None]:
        """MAP under ``w·Φ + Hamming(y, gold)`` (cost-augmented decoding)."""
        bonus: dict[str, np.ndarray] = {}
        cost = self.config.loss_cost
        variables = problem.variables()
        if not self.annotator.config.with_relations:
            # the relation variables come last
            variables = variables[: len(variables) - len(problem.pairs)]
        for name, domain in variables:
            gold_label = gold.get(name, NA)
            penalties = np.full(len(domain), cost)
            penalties[domain.index(gold_label) if gold_label in domain else 0] = 0.0
            bonus[name] = penalties
        if self.annotator.config.with_relations:
            annotation = annotate_problem(
                problem, model, self.annotator.config, unary_bonus=bonus
            )
        else:
            annotation = annotate_simple(problem, model)
        return map_assignment_of(annotation)
