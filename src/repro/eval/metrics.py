"""Evaluation metrics matching the paper's Section 6.1.1.

* **Entity annotation** — 0/1 loss per cell: "we lose a point if we get a
  cell wrong, including choosing na when ground truth was not na".
* **Type / relation annotation** — F1 between the predicted label *set* and
  the (singleton or empty-for-na) truth set, macro-averaged over columns /
  column pairs.  The collective annotator predicts one label, the baselines
  may predict several — the same metric covers both.
* **Search** — mean average precision (MAP) over ranked answer lists.

Slots whose ground truth was never collected are skipped ("If ground truth is
missing for a entity, type, or relation, we drop it from the labeling task").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.annotation import TableAnnotation
from repro.tables.model import TableTruth


@dataclass
class MetricCounts:
    """Running tallies for one task over a dataset."""

    correct: int = 0
    total: int = 0
    f1_sum: float = 0.0
    f1_count: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def mean_f1(self) -> float:
        return self.f1_sum / self.f1_count if self.f1_count else 0.0

    def merge(self, other: "MetricCounts") -> None:
        self.correct += other.correct
        self.total += other.total
        self.f1_sum += other.f1_sum
        self.f1_count += other.f1_count


# ----------------------------------------------------------------------
# annotation metrics
# ----------------------------------------------------------------------
def entity_accuracy(truth: TableTruth, annotation: TableAnnotation) -> MetricCounts:
    """0/1 loss over cells that carry ground truth."""
    counts = MetricCounts()
    for (row, column), true_entity in truth.cell_entities.items():
        predicted = annotation.entity_of(row, column)
        counts.total += 1
        if predicted == true_entity:
            counts.correct += 1
    return counts


def set_f1(predicted: set[str], truth: set[str]) -> float:
    """F1 between two label sets; two empty sets agree perfectly (na vs na)."""
    if not predicted and not truth:
        return 1.0
    if not predicted or not truth:
        return 0.0
    overlap = len(predicted & truth)
    precision = overlap / len(predicted)
    recall = overlap / len(truth)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def type_f1(
    truth: TableTruth,
    predicted_sets: dict[int, set[str]],
) -> MetricCounts:
    """Macro F1 of column-type prediction over columns with ground truth.

    ``predicted_sets`` maps column → predicted type set (empty = na); build it
    from a point annotation with :func:`annotation_type_sets`.
    """
    counts = MetricCounts()
    for column, true_type in truth.column_types.items():
        predicted = predicted_sets.get(column, set())
        truth_set = set() if true_type is None else {true_type}
        counts.f1_sum += set_f1(predicted, truth_set)
        counts.f1_count += 1
        counts.total += 1
        if predicted == truth_set:
            counts.correct += 1
    return counts


def relation_f1(truth: TableTruth, annotation: TableAnnotation) -> MetricCounts:
    """Macro F1 of relation prediction over column pairs with ground truth."""
    counts = MetricCounts()
    for (left, right), true_label in truth.relations.items():
        predicted_label = annotation.relation_of(left, right)
        predicted = set() if predicted_label is None else {predicted_label}
        truth_set = set() if true_label is None else {true_label}
        counts.f1_sum += set_f1(predicted, truth_set)
        counts.f1_count += 1
        counts.total += 1
        if predicted == truth_set:
            counts.correct += 1
    return counts


def annotation_type_sets(annotation: TableAnnotation) -> dict[int, set[str]]:
    """Singleton type sets from a point annotation (collective's output)."""
    return {
        column: (set() if ann.type_id is None else {ann.type_id})
        for column, ann in annotation.columns.items()
    }


# ----------------------------------------------------------------------
# search metrics
# ----------------------------------------------------------------------
def average_precision(ranked_keys: list[str], relevant_keys: set[str]) -> float:
    """AP of one ranked list against a relevant-key set.

    Duplicate keys deeper in the ranking are ignored; an empty relevant set
    yields 0 (such queries are normally filtered from the workload).
    """
    if not relevant_keys:
        return 0.0
    hits = 0
    precision_sum = 0.0
    seen: set[str] = set()
    rank = 0
    for key in ranked_keys:
        if key in seen:
            continue
        seen.add(key)
        rank += 1
        if key in relevant_keys:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(relevant_keys)


def mean_average_precision(
    per_query: list[tuple[list[str], set[str]]]
) -> float:
    """MAP over (ranked keys, relevant keys) pairs."""
    if not per_query:
        return 0.0
    return sum(
        average_precision(ranked, relevant) for ranked, relevant in per_query
    ) / len(per_query)


@dataclass
class AnnotationScores:
    """Bundled metrics of one algorithm on one dataset."""

    entity: MetricCounts = field(default_factory=MetricCounts)
    type_: MetricCounts = field(default_factory=MetricCounts)
    relation: MetricCounts = field(default_factory=MetricCounts)
