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
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.oracles.test_byte_identity as identity
from repro.core.fused import build_fused_bundle
from repro.core.model import default_model
from repro.core.problem import AnnotationProblem, ColumnSpace, PairSpace
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
    return bundle.specs[0].variable_ids()


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
            if len({len(space.types) for space in problem.columns if space.has_type})
            > 1
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


def narrowed(draw, problem: AnnotationProblem) -> AnnotationProblem:
    """``problem`` as if candidate generation had kept fewer labels: every
    cell its first candidates, every column its first types and every pair
    its first relations (at least one of each, often exactly one)."""

    def keep(n: int) -> int:
        return draw(st.one_of(st.just(1), st.integers(1, n)))

    columns: list[ColumnSpace] = []
    kept_counts: list[list[int]] = []
    for space in problem.columns:
        kept = [keep(n) for n in space.counts.tolist()]
        index = np.array(
            [
                start + k
                for start, n in zip(space.offsets.tolist(), kept)
                for k in range(n)
            ],
            dtype=np.intp,
        )
        n_types = keep(len(space.types) - 1) if space.has_type else 0
        columns.append(
            ColumnSpace(
                column=space.column,
                header=space.header,
                rows=space.rows,
                offsets=np.cumsum([0] + kept),
                entities=tuple(space.entities[i] for i in index.tolist()),
                scores=space.scores[index],
                f1=space.f1[index],
                types=space.types[: n_types + 1],
                f2=np.ascontiguousarray(space.f2[:n_types]),
                f3=np.ascontiguousarray(space.f3[:n_types][:, index]),
            )
        )
        kept_counts.append(kept)
    pairs: list[PairSpace] = []
    for pair in problem.pairs:
        n_labels = keep(len(pair.labels) - 1)
        n_left = [kept_counts[pair.left][cell] for cell in pair.left_cells.tolist()]
        n_right = [
            kept_counts[pair.right][cell] for cell in pair.right_cells.tolist()
        ]
        blocks, start = [], 0
        for old_left, old_right, left, right in zip(
            pair.n_left.tolist(), pair.n_right.tolist(), n_left, n_right
        ):
            stop = start + old_left * old_right
            block = pair.f5[:, start:stop].reshape(-1, old_left, old_right, 2)
            blocks.append(block[:n_labels, :left, :right].reshape(n_labels, -1, 2))
            start = stop
        left_types = len(columns[pair.left].types) - 1
        right_types = len(columns[pair.right].types) - 1
        pairs.append(
            PairSpace(
                left=pair.left,
                right=pair.right,
                labels=pair.labels[: n_labels + 1],
                f4=np.ascontiguousarray(
                    pair.f4[:n_labels, :left_types, :right_types]
                ),
                left_cells=pair.left_cells,
                right_cells=pair.right_cells,
                n_left=np.array(n_left),
                n_right=np.array(n_right),
                f5=np.concatenate(blocks, axis=1),
            )
        )
    return AnnotationProblem(
        table=problem.table, columns=tuple(columns), pairs=tuple(pairs)
    )


def assert_compiled_bits(problems, model, bonuses) -> None:
    """Every unary row and every factor row of the fused graph holds the
    oracle's per-table factor graph potentials, byte for byte (so ``-0.0``
    and ``0.0`` differ), with ``-inf`` on every padded slot."""
    bundle = build_fused_bundle(problems, model, bonuses)
    graph = bundle.graph
    rows: dict[tuple[str, tuple[int, ...]], tuple] = {}
    for block in graph.blocks:
        for slot, ids in enumerate(block.var_ids.T.tolist()):
            rows[(block.kind, tuple(ids))] = (block, slot)
    assert len(rows) == graph.n_factors
    compared = 0
    for spec, problem, bonus in zip(bundle.specs, problems, bonuses):
        oracle = build_factor_graph(problem, model)
        ids = spec.variable_ids()
        assert len(ids) == len(oracle.variables) == spec.n_variables
        for name, variable in oracle.variables.items():
            unary = variable.unary
            if name in bonus:
                unary = unary + np.asarray(bonus[name], dtype=float)
            row = graph.unaries[ids[name]]
            assert row[: len(unary)].tobytes() == unary.tobytes(), name
            assert np.isneginf(row[len(unary) :]).all(), name
        for factor in oracle.factors.values():
            block, slot = rows[
                (factor.kind, tuple(ids[name] for name in factor.variables))
            ]
            region = tuple(slice(0, n) for n in factor.table.shape)
            assert block.tables[slot][region].tobytes() == factor.table.tobytes()
            padding = block.tables[slot].copy()
            padding[region] = -np.inf
            assert np.isneginf(padding).all(), factor.name
            compared += 1
    assert compared == graph.n_factors


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compiled_potentials_are_the_oracles_bit_for_bit(data, sources, annotator):
    """Hypothesis-drawn buckets, narrowed so cells with one candidate, rows
    with one right-hand candidate, one-type columns beside wide ones and
    one-label pairs all occur, with and without a unary bonus."""
    size = data.draw(st.integers(1, 4), label="bucket size")
    problems = [
        narrowed(
            data.draw,
            annotator.build_problem(
                data.draw(identity.cut_table(sources, index))
            ),
        )
        for index in range(size)
    ]
    bonuses = [
        identity.hamming_bonus(data.draw, problem)
        if data.draw(st.booleans(), label="unary bonus")
        else {}
        for problem in problems
    ]
    assert_compiled_bits(problems, annotator.model, bonuses)


@pytest.fixture(scope="module")
def sources(wiki_tables, web_tables):
    return [labeled.table for labeled in list(wiki_tables) + list(web_tables)]


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
            columns=(
                ColumnSpace(
                    column=0,
                    header=None,
                    rows=np.array([0]),
                    offsets=np.array([0, 1]),
                    entities=("ent:x",),
                    scores=np.zeros(1),
                    f1=np.zeros((1, len(model.w1))),
                    types=(None, "type:x"),
                    f2=np.zeros((1, len(model.w2))),
                    f3=np.zeros((1, 1, len(model.w3))),
                ),
            ),
            pairs=(),
        )
        bundle = build_fused_bundle(
            [problem], model, [{"e:0,0": np.array([3.0, 0.0])}]
        )
        engine = FusedMaxProductBP(bundle.graph)
        engine.update_block_vars_to_factor(0, (1,))  # entity -> phi3
        assert engine._deltas[0] == pytest.approx(3.0)
        assert engine._var_to_factor[0][1][0] == pytest.approx([0.0, -3.0])

