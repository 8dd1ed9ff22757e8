"""Output quality against generator truth (deterministic for a seed)."""

from __future__ import annotations

from repro.tables.model import LabeledTable


def cell_accuracy(pairs: list[tuple[LabeledTable, dict]]) -> float:
    """0/1 cell-entity accuracy over every cell that carries truth.

    ``pairs`` holds each table with its AnnotateResponse body; a cell the
    annotation leaves out counts as predicted na.
    """
    correct = total = 0
    for labeled, response in pairs:
        cells = response["annotation"]["cells"]
        for (row, column), truth in labeled.truth.cell_entities.items():
            total += 1
            correct += cells.get(f"{row},{column}") == truth
    return correct / total if total else 0.0


def average_precision(ranked: list[str], relevant: set[str]) -> float:
    """AP of one ranked key list; repeated keys deeper in the list are skipped."""
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    seen: set[str] = set()
    for key in ranked:
        if key in seen:
            continue
        seen.add(key)
        if key in relevant:
            hits += 1
            precision_sum += hits / len(seen)
    return precision_sum / len(relevant)


def search_map(world, results: list[tuple[frozenset[str], dict]]) -> float:
    """MAP of /search responses against the full catalog (Figure 9 method).

    Relevant keys are the true answer entity ids plus their normalised
    lemmas, and an answer's key is its entity id or else its normalised text,
    exactly as the Figure-9 experiment scores rankings.
    """
    from repro.text.normalize import normalize_text

    def key(text: str) -> str:
        return normalize_text(text).lower()

    scores = []
    for relevant_ids, response in results:
        relevant = set(relevant_ids)
        for entity_id in relevant_ids:
            relevant.update(key(lemma) for lemma in world.full.entities.lemmas(entity_id))
        ranked = [
            answer["entity_id"] if answer["entity_id"] is not None else key(answer["text"])
            for answer in response["answers"]
        ]
        scores.append(average_precision(ranked, relevant))
    return sum(scores) / len(scores) if scores else 0.0
