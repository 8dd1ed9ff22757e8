"""The paper's Figure-11 schedule against generic flooding.

Flooding is not a production schedule: it runs only in the scalar oracle
(:mod:`tests.oracles`), where it stands in for the design ablation's
alternative.
"""

import pytest

from repro.core.annotator import AnnotatorConfig, TableAnnotator
from tests.oracles import OracleAnnotator


class TestScheduleOptions:
    def test_unknown_schedule_rejected(self, world):
        with pytest.raises(ValueError, match="schedule"):
            OracleAnnotator(world.annotator_view, schedule="sideways")

    def test_flooding_matches_paper_schedule_labels(self, world, wiki_tables):
        paper = TableAnnotator(world.annotator_view)
        flooding = OracleAnnotator(
            world.annotator_view,
            config=AnnotatorConfig(max_iterations=30),
            candidates="batched",
            schedule="flooding",
            candidate_engine=paper.candidate_engine,
        )
        agree = total = 0
        for labeled in wiki_tables[:4]:
            annotation_a = paper.annotate(labeled.table)
            annotation_b = flooding.annotate(labeled.table)
            for key, cell in annotation_a.cells.items():
                total += 1
                agree += annotation_b.cells[key].entity_id == cell.entity_id
        assert total > 0
        assert agree / total > 0.95

    def test_flooding_diagnostics(self, world, wiki_tables):
        annotator = OracleAnnotator(world.annotator_view, schedule="flooding")
        annotation = annotator.annotate(wiki_tables[0].table)
        assert annotation.diagnostics["method"] == "collective"
        assert annotation.diagnostics["iterations"] >= 1

