"""The fused engine against the scalar reference on single tables.

A lone table runs as a fused bucket of one.  Its compiled blocks must stack
exactly the factor graph's potentials (same-shaped factors merged, ragged
tails padded with ``-inf``), its beliefs must follow the scalar engine's
Figure-11 trajectory (up to float summation order, hence the 1e-9
tolerances), and its annotations must match the scalar oracle's.  The
scalar engine's own flooding schedule is tested in ``test_bp.py``.
"""

import numpy as np
import pytest

from repro.core.fused import build_fused_bundle
from repro.core.model import default_model
from repro.core.problem import AnnotationProblem, CellSpace, ColumnSpace
from repro.graph.fused import FusedMaxProductBP
from repro.pipeline.io import annotation_to_dict
from repro.tables.model import Table
from tests.oracles import (
    MaxProductBP,
    OracleAnnotator,
    build_factor_graph,
    run_scalar_paper_schedule,
)


def variable_ids(bundle) -> dict[str, int]:
    """Factor-graph variable name -> fused variable id, for table 0."""
    spec = bundle.specs[0]
    ids = {f"e:{row},{column}": var_id for row, column, var_id, _ in spec.cells}
    ids.update({f"t:{column}": var_id for column, var_id, _ in spec.columns})
    ids.update(
        {f"b:{left},{right}": var_id for left, right, var_id, _ in spec.pairs}
    )
    return ids


@pytest.fixture(scope="module")
def problems(annotator, wiki_tables):
    return [annotator.build_problem(labeled.table) for labeled in wiki_tables[:4]]


class TestCompilation:
    def test_buckets_merge_same_shaped_factors(self, problems, annotator):
        """Per kind, factors sharing (arity, head size) stack into one
        block in graph order, tails padded to the widest with -inf."""
        for problem in problems:
            graph = build_factor_graph(problem, annotator.model)
            bundle = build_fused_bundle([problem], annotator.model)
            ids = variable_ids(bundle)
            groups: dict[str, dict[tuple[int, int], list]] = {}
            for factor in graph.factors.values():
                key = (factor.table.ndim, factor.table.shape[0])
                groups.setdefault(factor.kind, {}).setdefault(key, []).append(
                    factor
                )
            for kind, by_shape in groups.items():
                blocks = [
                    bundle.graph.blocks[block_id]
                    for block_id in bundle.graph.kind_blocks[kind]
                ]
                assert len(blocks) == len(by_shape)
                for block, factors in zip(blocks, by_shape.values()):
                    assert block.n_factors == len(factors)
                    for slot, factor in enumerate(factors):
                        real = (slot,) + tuple(
                            slice(0, n) for n in factor.table.shape
                        )
                        assert np.array_equal(block.tables[real], factor.table)
                        padded = block.tables[slot].copy()
                        padded[tuple(slice(0, n) for n in factor.table.shape)] = 0
                        assert np.all((padded == 0) | np.isneginf(padded))
                        assert [
                            int(block.var_ids[position, slot])
                            for position in range(block.n_positions)
                        ] == [ids[name] for name in factor.variables]

    def test_head_axis_separates_buckets(self, problems, annotator):
        """Within one table, factors with different head sizes never share
        a block; across tables, the same rank does."""
        split = [
            problem
            for problem in problems
            if len({len(space.labels) for space in problem.columns.values()}) > 1
        ]
        assert split, "fixture tables should mix type-domain sizes"
        bundle = build_fused_bundle(split[:1], annotator.model)
        phi3 = bundle.graph.kind_blocks["phi3"]
        assert len(phi3) > 1
        for block_id in phi3:
            heads = bundle.graph.blocks[block_id].valid[0].sum(axis=1)
            assert len(set(heads.tolist())) == 1
        pair = build_fused_bundle(problems[:2], annotator.model)
        assert any(
            set(block.table_ids.tolist()) == {0, 1} for block in pair.graph.blocks
        )


class TestPaperScheduleEquivalence:
    """Scalar and fused Figure-11 schedules on real annotation graphs."""

    def test_message_trajectories_match(self, problems, annotator):
        for problem in problems:
            graph = build_factor_graph(problem, annotator.model)
            bundle = build_fused_bundle([problem], annotator.model)
            ids = variable_ids(bundle)
            for iterations in (1, 2, 4):
                scalar = MaxProductBP(graph)
                run_scalar_paper_schedule(
                    scalar, max_iterations=iterations, tolerance=0.0
                )
                fused = FusedMaxProductBP(bundle.graph)
                fused.run_paper_schedule(max_iterations=iterations, tolerance=0.0)
                for name in graph.variables:
                    np.testing.assert_allclose(
                        scalar.belief(name), fused.belief(ids[name]), atol=1e-9
                    )

    def test_annotations_identical(self, problems, annotator, world):
        oracle = OracleAnnotator(
            world.annotator_view,
            model=annotator.model,
            candidates="batched",
            candidate_engine=annotator.candidate_engine,
        )
        for problem in problems:
            scalar = oracle.annotate_problem(problem)
            fused = annotator.annotate_problem(problem)
            assert annotation_to_dict(fused) == annotation_to_dict(scalar)
            for key in ("iterations", "converged", "n_variables", "n_factors"):
                assert fused.diagnostics[key] == scalar.diagnostics[key]
            for key, cell in scalar.cells.items():
                assert fused.cells[key].score == pytest.approx(cell.score, abs=1e-9)
            assert scalar.diagnostics["log_score"] == pytest.approx(
                fused.diagnostics["log_score"], abs=1e-9
            )


class TestDampingSemantics:
    def test_delta_is_undamped(self):
        """The reported convergence delta is the whole step the stored
        message took (the schedule is undamped)."""
        model = default_model()
        table = Table("t", [["x"]])
        problem = AnnotationProblem(
            table=table,
            cells={
                (0, 0): CellSpace(
                    row=0,
                    column=0,
                    text="x",
                    labels=(None, "ent:x"),
                    scores=np.zeros(1),
                    f1=np.zeros((1, len(model.w1))),
                )
            },
            columns={
                0: ColumnSpace(
                    column=0,
                    header=None,
                    labels=(None, "type:x"),
                    f2=np.zeros((1, len(model.w2))),
                    f3={0: np.zeros((1, 1, len(model.w3)))},
                )
            },
            pairs={},
        )
        bundle = build_fused_bundle(
            [problem], model, [{"e:0,0": np.array([3.0, 0.0])}]
        )
        engine = FusedMaxProductBP(bundle.graph)
        engine.update_block_vars_to_factor(0, (1,))  # entity -> phi3
        assert engine._deltas[0] == pytest.approx(3.0)
        assert engine._var_to_factor[0][1][0] == pytest.approx([0.0, -3.0])

