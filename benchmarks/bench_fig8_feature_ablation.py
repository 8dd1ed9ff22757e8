"""Figure 8: type-entity compatibility settings — 1/sqrt(dist), 1/dist, IDF.

Paper values: entity accuracy is nearly flat across settings (83.9 / 84.3 /
85.4 on Wiki Manual), while type accuracy separates sharply — 1/sqrt(dist)
is the most robust (56.1 / 43.2) and IDF-alone collapses (40.3 / 26.0).

Shapes asserted here: (a) entity accuracy is flat across settings, and
(b) type F1 is *more sensitive* to the setting than entity accuracy.  The
paper's dramatic IDF-alone collapse does not reproduce at our catalog scale
(161 types vs YAGO's 249k — with so few confusable types the containment
gate does the discriminating regardless of setting), so it is a known
deviation and is not asserted.
"""

import pytest

from repro.core.features import TypeEntityFeatureMode
from repro.core.learning import TrainingConfig
from repro.eval.experiments import feature_ablation
from repro.eval.reporting import format_table, percent

MODES = (
    TypeEntityFeatureMode.INV_SQRT_DIST,
    TypeEntityFeatureMode.INV_DIST,
    TypeEntityFeatureMode.IDF,
)


@pytest.fixture(scope="module")
def ablation(bench_world, bench_datasets):
    eval_sets = {
        "wiki_manual": bench_datasets["wiki_manual"],
        "web_manual": bench_datasets["web_manual"],
    }
    return feature_ablation(
        bench_world,
        bench_datasets["wiki_manual"].tables,
        eval_sets,
        modes=MODES,
        training=TrainingConfig(epochs=2, seed=0),
    )


def _render_figure8(ablation):
    entity_rows = []
    type_rows = []
    for dataset in ("wiki_manual", "web_manual"):
        entity_rows.append(
            [dataset]
            + [percent(ablation[mode.value][dataset]["entity_accuracy"]) for mode in MODES]
        )
        type_rows.append(
            [dataset]
            + [percent(ablation[mode.value][dataset]["type_f1"]) for mode in MODES]
        )
    return "\n\n".join(
        [
            format_table(
                ["Dataset", "1/sqrt(dist)", "1/dist", "IDF"],
                entity_rows,
                title="Figure 8a — entity accuracy by f3 setting (%)",
            ),
            format_table(
                ["Dataset", "1/sqrt(dist)", "1/dist", "IDF"],
                type_rows,
                title="Figure 8b — type F1 by f3 setting (%)",
            ),
        ]
    )


def test_fig8_tables(ablation, emit):
    emit("fig8_feature_ablation", _render_figure8(ablation))


def test_fig8_entity_accuracy_flat_across_settings(ablation):
    """Entity accuracy barely moves with the f3 setting (paper Fig 8a)."""
    for dataset in ("wiki_manual", "web_manual"):
        entity_values = [
            ablation[mode.value][dataset]["entity_accuracy"] for mode in MODES
        ]
        assert max(entity_values) - min(entity_values) < 0.05


def test_fig8_types_more_sensitive_than_entities(ablation):
    """Type labelling reacts to the compatibility setting more than entity
    labelling does (the qualitative core of paper Fig 8b vs 8a)."""
    type_spread = entity_spread = 0.0
    for dataset in ("wiki_manual", "web_manual"):
        type_values = [ablation[mode.value][dataset]["type_f1"] for mode in MODES]
        entity_values = [
            ablation[mode.value][dataset]["entity_accuracy"] for mode in MODES
        ]
        type_spread = max(type_spread, max(type_values) - min(type_values))
        entity_spread = max(entity_spread, max(entity_values) - min(entity_values))
    assert type_spread >= entity_spread


def test_fig8_sqrt_robust_on_noisy_types(ablation):
    """1/sqrt(dist) never collapses on the noisy dataset (paper: it is the
    robust setting)."""
    assert (
        ablation["inv_sqrt_dist"]["web_manual"]["type_f1"]
        >= ablation["inv_dist"]["web_manual"]["type_f1"] - 0.02
    )


def test_fig8_timing(ablation, emit, bench_world, bench_datasets, benchmark):
    """Timed unit: one-mode retrain + eval on a small slice.

    Also emits Figure 8 and re-asserts the headline shape under
    ``--benchmark-only``.
    """
    emit("fig8_feature_ablation", _render_figure8(ablation))
    for dataset in ("wiki_manual", "web_manual"):
        entity_values = [
            ablation[mode.value][dataset]["entity_accuracy"] for mode in MODES
        ]
        assert max(entity_values) - min(entity_values) < 0.05
    small = bench_datasets["wiki_manual"].tables[:4]
    eval_sets = {
        "wiki_manual": type(bench_datasets["wiki_manual"])(
            name="s", tables=small, noise=bench_datasets["wiki_manual"].noise
        )
    }
    benchmark(
        lambda: feature_ablation(
            bench_world,
            small,
            eval_sets,
            modes=(TypeEntityFeatureMode.INV_SQRT_DIST,),
            training=TrainingConfig(epochs=1),
        )
    )
