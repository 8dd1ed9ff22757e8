"""Production annotation against the scalar oracle, byte for byte.

Generated buckets of tables (cut from fixture tables, with junk cells mixed
in) run through the production path — array-backed candidates into one
fused BP run per bucket — and through the oracle — per-cell candidates and
per-edge BP, one table at a time.  The wire JSON of every table must be
identical: labels, iteration counts, convergence flags and graph sizes.
Buckets of one and multi-table buckets, and runs with and without a
loss-augmentation ``unary_bonus``, are all drawn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.fused import (
    annotate_fused_chunk,
    build_fused_bundle,
    run_fused_bundle,
)
from repro.core.model import default_model
from repro.tables.model import Table
from tests.oracles import OracleAnnotator, wire

JUNK = ["", "  ", "1984", "12%", "zzz qqq", "Baker"]


@pytest.fixture(scope="module")
def sources(wiki_tables, web_tables):
    return [labeled.table for labeled in list(wiki_tables) + list(web_tables)]


@pytest.fixture(scope="module")
def paths(world):
    """The (production, oracle) annotator pair."""
    config = AnnotatorConfig(max_iterations=25)
    production = TableAnnotator(
        world.annotator_view, model=default_model(), config=config
    )
    oracle = OracleAnnotator(
        world.annotator_view,
        model=default_model(),
        config=config,
        candidate_engine=production.candidate_engine,
    )
    return production, oracle


@st.composite
def cut_table(draw, sources, index: int) -> Table:
    """Rows and columns cut from a fixture table, some cells junked."""
    source = draw(st.sampled_from(sources))
    rows = sorted(
        draw(
            st.sets(
                st.integers(0, source.n_rows - 1),
                min_size=1,
                max_size=min(6, source.n_rows),
            )
        )
    )
    columns = sorted(
        draw(
            st.sets(
                st.integers(0, source.n_columns - 1),
                min_size=1,
                max_size=min(3, source.n_columns),
            )
        )
    )
    cells = [[source.cell(row, column) for column in columns] for row in rows]
    junked = draw(
        st.sets(
            st.tuples(
                st.integers(0, len(rows) - 1), st.integers(0, len(columns) - 1)
            ),
            max_size=2,
        )
    )
    for row, column in junked:
        cells[row][column] = draw(st.sampled_from(JUNK))
    headers = [source.header(column) for column in columns]
    return Table(table_id=f"cut{index}", cells=cells, headers=headers)


def hamming_bonus(draw, problem, cost: float = 1.0) -> dict[str, np.ndarray]:
    """A learner-style loss-augmentation bonus against a drawn gold label."""
    bonus: dict[str, np.ndarray] = {}
    for name, domain in problem.variables():
        gold = draw(st.integers(0, len(domain) - 1))
        penalties = np.full(len(domain), cost)
        penalties[gold] = 0.0
        bonus[name] = penalties
    return bonus


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_production_wire_json_matches_oracle(data, sources, paths):
    size = data.draw(st.integers(1, 4), label="bucket size")
    tables = [data.draw(cut_table(sources, index)) for index in range(size)]
    with_bonus = data.draw(st.booleans(), label="unary bonus")
    production, oracle = paths

    if with_bonus:
        problems = [production.build_problem(table) for table in tables]
        bonuses = [hamming_bonus(data.draw, problem) for problem in problems]
        bundle = build_fused_bundle(problems, production.model, bonuses)
        produced = run_fused_bundle(bundle, production.config, tables)
        expected = [
            oracle.annotate_problem(oracle.build_problem(table), bonus)
            for table, bonus in zip(tables, bonuses)
        ]
    else:
        produced = annotate_fused_chunk(production, tables)
        expected = [oracle.annotate(table) for table in tables]

    assert [wire(annotation) for annotation in produced] == [
        wire(annotation) for annotation in expected
    ]
