"""Tests for structured training."""

import numpy as np
import pytest

from repro.core.annotator import TableAnnotator
from repro.core.learning import StructuredTrainer, TrainingConfig, truth_assignment
from repro.core.model import AnnotationModel, default_model
from repro.eval.experiments import evaluate_annotation


class TestTruthAssignment:
    def test_maps_truth_onto_variables(self, annotator, wiki_tables):
        labeled = wiki_tables[0]
        problem = annotator.build_problem(labeled.table)
        gold = truth_assignment(problem, labeled.truth)
        for (_row, _column), space in problem.cells.items():
            name = space.variable_name
            assert name in gold
            assert gold[name] in space.labels

    def test_unreachable_truth_clamps_to_na(self, annotator, wiki_tables):
        import copy

        labeled = wiki_tables[0]
        problem = annotator.build_problem(labeled.table)
        truth = copy.deepcopy(labeled.truth)  # session fixture: never mutate
        # inject an impossible truth label
        some_cell = next(iter(problem.cells))
        truth.cell_entities[some_cell] = "ent:not-a-real-entity"
        gold = truth_assignment(problem, truth)
        assert gold[problem.cells[some_cell].variable_name] is None


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(method="magic").validate()
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-1).validate()


class TestPerceptron:
    def test_training_improves_over_bad_weights(self, world, wiki_tables):
        """Start from deliberately broken weights; training must recover."""
        bad = AnnotationModel()  # all zeros: everything decodes to na
        annotator = TableAnnotator(world.annotator_view, model=bad)
        before = evaluate_annotation(
            world,
            _as_dataset(wiki_tables[:6]),
            bad,
            algorithms=("collective",),
        )["collective"].entity.accuracy
        trainer = StructuredTrainer(
            annotator, TrainingConfig(epochs=3, learning_rate=0.2, seed=1)
        )
        trained = trainer.train(wiki_tables[:6])
        after = evaluate_annotation(
            world,
            _as_dataset(wiki_tables[:6]),
            trained,
            algorithms=("collective",),
        )["collective"].entity.accuracy
        assert after > before
        assert after > 0.5

    def test_history_recorded(self, world, wiki_tables):
        annotator = TableAnnotator(world.annotator_view, model=default_model())
        trainer = StructuredTrainer(annotator, TrainingConfig(epochs=2))
        trainer.train(wiki_tables[:3])
        assert len(trainer.history) == 2
        assert all("hamming_loss" in entry for entry in trainer.history)

    def test_empty_training_set_rejected(self, world):
        annotator = TableAnnotator(world.annotator_view)
        trainer = StructuredTrainer(annotator)
        with pytest.raises(ValueError):
            trainer.train([])

    def test_determinism(self, world, wiki_tables):
        results = []
        for _ in range(2):
            annotator = TableAnnotator(world.annotator_view, model=default_model())
            trainer = StructuredTrainer(
                annotator, TrainingConfig(epochs=2, seed=42)
            )
            results.append(trainer.train(wiki_tables[:4]).as_flat())
        assert np.allclose(results[0], results[1])

    def test_model_written_back_to_annotator(self, world, wiki_tables):
        annotator = TableAnnotator(world.annotator_view, model=default_model())
        trainer = StructuredTrainer(annotator, TrainingConfig(epochs=1))
        trained = trainer.train(wiki_tables[:3])
        assert annotator.model is trained


class TestAveraging:
    """Hand-computed check of averaged-perceptron weight accumulation.

    Two orthogonal single-cell examples, zero initial weights, lr=1,
    loss_cost=1, 2 epochs.  Epoch 1: both examples mispredict na (the
    Hamming bonus +1 on na beats the zero-weight entity score), each adds
    its f1 vector — w ends at x1+x2.  Epoch 2: both predict correctly
    (f1·w = 4 beats na's bonus 1), no updates.  The average must run over
    all 4 example steps — (x1 + (x1+x2) + 2·(x1+x2)) / 4, i.e. components
    {2.0, 1.5} — not over the 2 mistake rounds only, which would yield
    {2.0, 1.0} and over-weight the noisy early vectors.
    """

    @staticmethod
    def _single_cell_problem(table_id, text, entity_id, f1_row):
        from repro.core.problem import AnnotationProblem, ColumnSpace
        from repro.tables.model import Table

        table = Table(table_id=table_id, cells=[[text]])
        space = ColumnSpace(
            column=0,
            header=None,
            rows=np.array([0]),
            offsets=np.array([0, 1]),
            entities=(entity_id,),
            scores=np.array([1.0]),
            f1=np.array([f1_row], dtype=float),
            types=(None,),
            f2=np.zeros((0, 6)),
            f3=np.zeros((0, 1, 3)),
        )
        return AnnotationProblem(table=table, columns=(space,), pairs=())

    def test_average_runs_over_every_example_step(self):
        from repro.core.annotator import AnnotatorConfig
        from repro.tables.model import LabeledTable, Table, TableTruth

        x1 = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        x2 = [0.0, 2.0, 0.0, 0.0, 0.0, 0.0]
        problems = {
            "t1": self._single_cell_problem("t1", "alpha", "ent:a", x1),
            "t2": self._single_cell_problem("t2", "beta", "ent:b", x2),
        }

        class StubAnnotator:
            """Duck-typed TableAnnotator: fixed problems, real config."""

            def __init__(self):
                self.model = AnnotationModel()  # all-zero weights
                self.config = AnnotatorConfig()

            def build_problem(self, table):
                return problems[table.table_id]

        labeled = [
            LabeledTable(
                table=problems[tid].table,
                truth=TableTruth(cell_entities={(0, 0): entity}),
            )
            for tid, entity in (("t1", "ent:a"), ("t2", "ent:b"))
        ]
        annotator = StubAnnotator()
        trainer = StructuredTrainer(
            annotator,
            TrainingConfig(epochs=2, learning_rate=1.0, loss_cost=1.0, seed=0),
        )
        trained = trainer.train(labeled)

        # epoch 1 makes 2 mistakes, epoch 2 none
        assert trainer.history[0]["hamming_loss"] == 2.0
        assert trainer.history[1]["hamming_loss"] == 0.0
        # the example seen first contributes to 4 accumulated vectors, the
        # second to 3 — shuffle decides which is which, values are symmetric
        assert sorted(trained.w1[:2].tolist()) == [1.5, 2.0]
        assert np.all(trained.w1[2:] == 0.0)
        # regression: mistake-only averaging would have produced {1.0, 2.0}
        assert 1.0 not in trained.w1[:2].tolist()


class TestSSVM:
    def test_ssvm_trains(self, world, wiki_tables):
        annotator = TableAnnotator(world.annotator_view, model=default_model())
        trainer = StructuredTrainer(
            annotator,
            TrainingConfig(epochs=2, method="ssvm", regularization=1e-2, seed=3),
        )
        trained = trainer.train(wiki_tables[:4])
        scores = evaluate_annotation(
            world,
            _as_dataset(wiki_tables[:4]),
            trained,
            algorithms=("collective",),
        )["collective"]
        assert scores.entity.accuracy > 0.7


def _as_dataset(tables):
    from repro.eval.datasets import EvalDataset
    from repro.tables.generator import NoiseProfile

    return EvalDataset(name="adhoc", tables=tables, noise=NoiseProfile.WIKI)
