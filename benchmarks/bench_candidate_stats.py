"""Section 6.1.1 candidate statistics + candidate-cap ablation.

Paper: "the typical number of entities between which the algorithms had to
choose for each cell was around 7-8" and "the typical number of types ...
for each column was in the hundreds" (on YAGO's 2M-entity scale; our world is
~450 entities, so tens of candidate types is the proportional analogue).
Also ablates the per-cell top-K retrieval cap (``top_k_entities``).
"""

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.eval.experiments import candidate_statistics
from repro.eval.metrics import entity_accuracy
from repro.eval.reporting import format_table


def test_candidate_statistics(bench_world, bench_datasets, emit, benchmark):
    stats = candidate_statistics(
        bench_world, bench_datasets["web_manual"].tables
    )
    rows = [
        ["tables", int(stats["n_tables"])],
        ["avg candidate entities / cell", round(stats["avg_entity_candidates"], 2)],
        ["avg candidate types / column", round(stats["avg_type_candidates"], 2)],
        ["avg candidate relations / pair", round(stats["avg_relation_candidates"], 2)],
    ]
    emit(
        "candidate_stats",
        format_table(
            ["Quantity", "Value"],
            rows,
            title="Candidate-space statistics (paper §6.1.1)",
        ),
    )
    # several alternatives per cell, well above one (ambiguity exists) and
    # bounded by the configured top-K of 8 (the paper's observed 7-8)
    assert 1.5 <= stats["avg_entity_candidates"] <= 8.0
    assert stats["avg_type_candidates"] >= 10

    table = bench_datasets["web_manual"].tables[0].table
    annotator = TableAnnotator(bench_world.annotator_view)
    benchmark(lambda: annotator.build_problem(table))


def test_top_k_ablation(bench_world, bench_datasets, trained_model, emit, benchmark):
    """Entity accuracy as the retrieval cap K (``top_k_entities``) varies."""
    tables = bench_datasets["wiki_manual"].tables[:12]
    rows = []
    accuracies = {}
    for top_k in (2, 4, 8, 16):
        annotator = TableAnnotator(
            bench_world.annotator_view,
            model=trained_model,
            config=AnnotatorConfig(top_k_entities=top_k),
        )
        correct = total = 0
        for labeled in tables:
            annotation = annotator.annotate(labeled.table)
            counts = entity_accuracy(labeled.truth, annotation)
            correct += counts.correct
            total += counts.total
        accuracies[top_k] = correct / total
        rows.append([f"K={top_k}", round(100 * accuracies[top_k], 2)])
    emit(
        "topk_ablation",
        format_table(
            ["Retrieval cap", "Entity accuracy (%)"],
            rows,
            title="Ablation — per-cell candidate cap K",
        ),
    )
    # a tiny cap must hurt: truth often falls outside the candidate set
    assert accuracies[8] >= accuracies[2]

    # timed unit: candidate generation at the default cap
    annotator = TableAnnotator(bench_world.annotator_view, model=trained_model)
    benchmark(lambda: annotator.build_problem(tables[0].table))
