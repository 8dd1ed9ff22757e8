"""The scalar oracle: per-cell candidates, element-loop features, the
per-table factor graph and per-edge max-product BP over it.

See :mod:`tests.oracles` for how the tests use it.  Nothing here is tuned
for speed; every function is the direct reading of the paper's definitions
(Section 4.3 candidates, Section 4.2 features, equation (1), Figure-11
schedule, argmax decoding).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.catalog.catalog import Catalog
from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.api.types import AnnotateResponse, encode_json
from repro.core.annotator import AnnotatorConfig
from repro.core.candidates import (
    CandidateEngine,
    CellCandidates,
    ColumnCandidates,
    PairCandidates,
    build_lemma_index,
)
from repro.core.features import (
    F1_FEATURE_NAMES,
    F2_FEATURE_NAMES,
    F3_FEATURE_NAMES,
    F5_FEATURE_NAMES,
    TypeEntityFeatureMode,
    header_absent_features,
    relation_entities_features,
    relation_types_features,
    text_lemma_features,
    type_entity_features,
)
from repro.core.fused import annotate_problem
from repro.core.model import AnnotationModel, default_model
from repro.core.problem import (
    NA,
    AnnotationProblem,
    ColumnSpace,
    FeatureComputer,
    PairSpace,
    build_problem,
)
from repro.core.simple_inference import annotate_simple
from repro.graph.fused import TOLERANCE
from repro.pipeline.io import annotation_to_dict
from repro.tables.generator import reversed_label
from repro.tables.model import Table
from repro.text.index import InvertedIndex
from repro.text.normalize import is_numeric_text
from repro.text.tfidf import TfidfWeights
from tests.oracles.bp import FactorGraph, MaxProductBP
from tests.oracles.retrieval import dense_search

#: "paper" is the Figure-11 block schedule; "flooding" the generic
#: synchronous schedule (the design ablation's alternative)
SCHEDULES = ("paper", "flooding")

#: which implementation an :class:`OracleAnnotator` layer uses: "scalar"
#: is the reference, "batched" the production counterpart
LAYERS = ("scalar", "batched")


@dataclass(frozen=True)
class CandidateEntity:
    """One retrieved candidate: entity id and raw index score."""

    entity_id: str
    retrieval_score: float


class CandidateGenerator:
    """Per-cell ``Erc`` / ``Tc`` / ``Bcc'`` straight from the catalog.

    Takes the arguments of :class:`~repro.core.candidates.CandidateEngine`
    except ``tables``; a ``lemma_index`` / ``lemma_tfidf`` pair shares a
    production engine's frozen index (probed per cell here, never through
    ``search_batch``).
    """

    def __init__(
        self,
        catalog: Catalog,
        top_k_entities: int = 8,
        max_type_candidates: int = 64,
        lemma_index: InvertedIndex | None = None,
        lemma_tfidf: TfidfWeights | None = None,
    ) -> None:
        if top_k_entities < 1:
            raise ValueError("top_k_entities must be >= 1")
        if max_type_candidates < 1:
            raise ValueError("max_type_candidates must be >= 1")
        self.catalog = catalog
        self.top_k_entities = top_k_entities
        self.max_type_candidates = max_type_candidates
        if lemma_index is None or lemma_tfidf is None:
            lemma_index, lemma_tfidf = build_lemma_index(catalog)
        self.lemma_index = lemma_index
        self.lemma_tfidf = lemma_tfidf

    @classmethod
    def sharing(cls, engine: CandidateEngine) -> "CandidateGenerator":
        """The oracle over a production engine's catalog, caps and index."""
        return cls(
            engine.catalog,
            top_k_entities=engine.top_k_entities,
            max_type_candidates=engine.max_type_candidates,
            lemma_index=engine.lemma_index,
            lemma_tfidf=engine.lemma_tfidf,
        )

    def cell_candidates(self, cell_text: str) -> list[CandidateEntity]:
        """Candidate entities for one cell; empty for numeric/blank cells."""
        text = cell_text.strip()
        if not text or is_numeric_text(text):
            return []
        hits = dense_search(self.lemma_index, text, top_k=self.top_k_entities)
        return [
            CandidateEntity(entity_id=hit.key, retrieval_score=hit.score)
            for hit in hits
        ]

    def cell_candidates_batch(
        self, cell_texts: list[str]
    ) -> list[list[CandidateEntity]]:
        """:meth:`cell_candidates` per text (the engine's batch signature)."""
        return [self.cell_candidates(text) for text in cell_texts]

    def column_type_candidates(
        self, column_candidates: list[list[CandidateEntity]]
    ) -> list[str]:
        """``∪_{r} ∪_{E ∈ Erc} T(E)`` ranked by (#cells with a candidate
        under the type, #candidate entities under the type, IDF specificity,
        type id), truncated to ``max_type_candidates``."""
        cell_support: Counter[str] = Counter()
        entity_support: Counter[str] = Counter()
        for candidates in column_candidates:
            seen_in_cell: set[str] = set()
            for candidate in candidates:
                for type_id in self.catalog.type_ancestors(candidate.entity_id):
                    entity_support[type_id] += 1
                    seen_in_cell.add(type_id)
            for type_id in seen_in_cell:
                cell_support[type_id] += 1
        ranked = sorted(
            cell_support,
            key=lambda type_id: (
                -cell_support[type_id],
                -entity_support[type_id],
                -self.catalog.type_idf_specificity(type_id),
                type_id,
            ),
        )
        return ranked[: self.max_type_candidates]

    def relation_candidates(
        self,
        left_candidates: list[list[CandidateEntity]],
        right_candidates: list[list[CandidateEntity]],
    ) -> list[str]:
        """Relations ``B`` with ``B(E, E')`` (plain label) or ``B(E', E)``
        (``^-1`` label) for candidates ``E`` left and ``E'`` right of one row."""
        labels: set[str] = set()
        for row_left, row_right in zip(left_candidates, right_candidates):
            for left in row_left:
                for right in row_right:
                    for relation_id in self.catalog.relations.relations_between(
                        left.entity_id, right.entity_id
                    ):
                        labels.add(relation_id)
                    for relation_id in self.catalog.relations.relations_between(
                        right.entity_id, left.entity_id
                    ):
                        labels.add(reversed_label(relation_id))
        return sorted(labels)


class EngineQueries:
    """The production engine behind :class:`CandidateGenerator`'s per-cell
    signatures, so one set of queries checks both.

    ``Erc`` comes back as :class:`CandidateEntity` lists decoded from the
    engine's interned ints; ``Tc`` and ``Bcc'`` take such lists, re-intern
    them into the engine's column arrays and return label lists.
    """

    def __init__(self, engine: CandidateEngine) -> None:
        self.engine = engine

    def cell_candidates_batch(
        self, cell_texts: list[str]
    ) -> list[list[CandidateEntity]]:
        names = self.engine.tables.entity_ids
        return [
            [
                CandidateEntity(names[entity], score)
                for entity, score in zip(
                    found.entities.tolist(), found.scores.tolist()
                )
            ]
            for found in self.engine.cell_candidates_batch(cell_texts)
        ]

    def _column(self, cells: list[list[CandidateEntity]]) -> ColumnCandidates:
        intern = self.engine.tables.intern
        return ColumnCandidates.of(
            [
                CellCandidates(
                    intern("entity", [c.entity_id for c in candidates]),
                    np.array([c.retrieval_score for c in candidates]),
                )
                for candidates in cells
            ]
        )

    def column_type_candidates(
        self, column_candidates: list[list[CandidateEntity]]
    ) -> list[str]:
        ranked = self.engine.column_type_candidates(self._column(column_candidates))
        return [self.engine.tables.type_ids[t] for t in ranked.tolist()]

    def relation_candidates(
        self,
        left_candidates: list[list[CandidateEntity]],
        right_candidates: list[list[CandidateEntity]],
    ) -> list[str]:
        pairs = PairCandidates.of(
            self._column(left_candidates),
            self._column(right_candidates),
            len(self.engine.tables.entity_ids),
        )
        return [label for label, _r, _rev in self.engine.relation_candidates(pairs)]


class ScalarFeatureComputer(FeatureComputer):
    """Feature blocks assembled element by element.

    f1 to f5 come from the :mod:`repro.core.features` functions one label
    at a time (f3, f4 and f5 memoised per element).  ``generator`` stands
    in for the engine: only its ``lemma_tfidf`` is read.  No block reads
    production's grid or memos, so every equivalence check compares two
    computations.
    """

    def __init__(
        self,
        catalog: Catalog,
        mode: TypeEntityFeatureMode,
        generator: CandidateGenerator,
    ) -> None:
        # not FeatureComputer.__init__: it takes a view of the engine's
        # interned f3 grid, and a generator has no interned tables
        self.catalog = catalog
        self.mode = mode
        self.engine = generator  # type: ignore[assignment]
        self._f3_cache: dict[tuple[str, str], np.ndarray] = {}
        self._f4_cache: dict[tuple[str, str, str], np.ndarray] = {}
        self._f5_cache: dict[tuple[str, str, str], np.ndarray] = {}

    def f1(self, cell_text: str, entity_id: str) -> np.ndarray:
        lemmas = self.catalog.entities.lemmas(entity_id)
        return text_lemma_features(cell_text, lemmas, self.engine.lemma_tfidf)

    def f2(self, header_text: str | None, type_id: str) -> np.ndarray:
        if header_text is None or not header_text.strip():
            return header_absent_features()
        lemmas = self.catalog.types.lemmas(type_id)
        return text_lemma_features(header_text, lemmas, self.engine.lemma_tfidf)

    def f3(self, type_id: str, entity_id: str) -> np.ndarray:
        key = (type_id, entity_id)
        cached = self._f3_cache.get(key)
        if cached is None:
            cached = type_entity_features(self.catalog, type_id, entity_id, self.mode)
            self._f3_cache[key] = cached
        return cached

    def f4(self, label: str, left_type: str, right_type: str) -> np.ndarray:
        key = (label, left_type, right_type)
        cached = self._f4_cache.get(key)
        if cached is None:
            cached = relation_types_features(self.catalog, label, left_type, right_type)
            self._f4_cache[key] = cached
        return cached

    def f5(self, label: str, left_entity: str, right_entity: str) -> np.ndarray:
        key = (label, left_entity, right_entity)
        cached = self._f5_cache.get(key)
        if cached is None:
            cached = relation_entities_features(
                self.catalog, label, left_entity, right_entity
            )
            self._f5_cache[key] = cached
        return cached

    def f1_block(
        self, cell_text: str, entity_ids: tuple[str, ...]
    ) -> np.ndarray:
        return np.stack([self.f1(cell_text, e) for e in entity_ids])

    def f2_block(
        self, header_text: str | None, type_ids: tuple[str, ...]
    ) -> np.ndarray:
        return np.stack([self.f2(header_text, t) for t in type_ids])

    def f3_block(
        self, type_ids: tuple[str, ...], entity_ids: tuple[str, ...]
    ) -> np.ndarray:
        """f3 of one cell, shape (n_types, n_entities, |f3|)."""
        return np.stack(
            [np.stack([self.f3(t, e) for e in entity_ids]) for t in type_ids]
        )

    def f4_block(
        self,
        relation_labels: tuple[str, ...],
        left_types: tuple[str, ...],
        right_types: tuple[str, ...],
    ) -> np.ndarray:
        """f4 of one column pair, shape (n_labels, n_left, n_right, |f4|)."""
        block = np.zeros((len(relation_labels), len(left_types), len(right_types), 4))
        for b_index, label in enumerate(relation_labels):
            for l_index, left_type in enumerate(left_types):
                for r_index, right_type in enumerate(right_types):
                    block[b_index, l_index, r_index] = self.f4(
                        label, left_type, right_type
                    )
        return block

    def f5_block(
        self,
        labels: tuple[str, ...],
        left_ids: tuple[str, ...],
        right_ids: tuple[str, ...],
    ) -> np.ndarray:
        """f5 of one row of a pair, shape (n_labels, n_left, n_right, |f5|)."""
        block = np.zeros((len(labels), len(left_ids), len(right_ids), 2))
        for b_index, label in enumerate(labels):
            for e_index, left_id in enumerate(left_ids):
                for o_index, right_id in enumerate(right_ids):
                    block[b_index, e_index, o_index] = self.f5(
                        label, left_id, right_id
                    )
        return block


def scalar_build_problem(
    table: Table,
    generator: CandidateGenerator,
    features: ScalarFeatureComputer,
    max_column_pairs: int = 12,
) -> AnnotationProblem:
    """:func:`~repro.core.problem.build_problem` read row by row: per-cell
    ``Erc``, ``Tc`` and ``Bcc'`` from the catalog loops of ``generator``
    and every f1 / f3 / f4 / f5 block assembled from elements, one cell or
    row at a time, then laid side by side in the problem's arrays."""
    columns: list[ColumnSpace] = []
    column_candidates: list[list[list[CandidateEntity]]] = []
    for column in range(table.n_columns):
        texts = [table.cell(row, column) for row in range(table.n_rows)]
        per_row = generator.cell_candidates_batch(texts)
        cells = [
            (row, text, tuple(c.entity_id for c in candidates), candidates)
            for row, (text, candidates) in enumerate(zip(texts, per_row))
            if candidates
        ]
        type_ids = tuple(generator.column_type_candidates(per_row))
        header = table.header(column)
        entities = tuple(entity for _row, _text, ids, _c in cells for entity in ids)
        columns.append(
            ColumnSpace(
                column=column,
                header=header,
                rows=np.array([row for row, *_ in cells], dtype=np.int64),
                offsets=np.cumsum([0] + [len(ids) for _r, _t, ids, _c in cells]),
                entities=entities,
                scores=np.array(
                    [c.retrieval_score for *_, candidates in cells for c in candidates]
                ),
                f1=_side_by_side(
                    [features.f1_block(text, ids) for _row, text, ids, _c in cells],
                    0,
                    (0, len(F1_FEATURE_NAMES)),
                ),
                types=(NA,) + type_ids,
                f2=(
                    features.f2_block(header, type_ids)
                    if type_ids
                    else np.zeros((0, len(F2_FEATURE_NAMES)))
                ),
                f3=_side_by_side(
                    [
                        features.f3_block(type_ids, ids)
                        for _row, _text, ids, _c in cells
                        if type_ids
                    ],
                    1,
                    (len(type_ids), len(entities), len(F3_FEATURE_NAMES)),
                ),
            )
        )
        column_candidates.append(per_row)

    candidate_pairs: list[tuple[int, int, tuple[str, ...]]] = []
    typed = [space.column for space in columns if space.has_type]
    for left in typed:
        for right in typed:
            if left >= right:
                continue
            labels = tuple(
                generator.relation_candidates(
                    column_candidates[left], column_candidates[right]
                )
            )
            if labels:
                candidate_pairs.append((left, right, labels))
    candidate_pairs.sort(key=lambda item: (-len(item[2]), item[0], item[1]))
    pairs: list[PairSpace] = []
    for left, right, labels in candidate_pairs[:max_column_pairs]:
        left_space, right_space = columns[left], columns[right]
        left_cells = {row: cell for cell, row in enumerate(left_space.rows.tolist())}
        right_cells = {
            row: cell for cell, row in enumerate(right_space.rows.tolist())
        }
        rows = [row for row in left_cells if row in right_cells]
        blocks = [
            features.f5_block(
                labels,
                left_space.labels(left_cells[row])[1:],
                right_space.labels(right_cells[row])[1:],
            )
            for row in rows
        ]
        pairs.append(
            PairSpace(
                left=left,
                right=right,
                labels=(NA,) + labels,
                f4=features.f4_block(
                    labels, left_space.types[1:], right_space.types[1:]
                ),
                left_cells=np.array([left_cells[row] for row in rows], dtype=np.int64),
                right_cells=np.array(
                    [right_cells[row] for row in rows], dtype=np.int64
                ),
                n_left=np.array([block.shape[1] for block in blocks], dtype=np.int64),
                n_right=np.array([block.shape[2] for block in blocks], dtype=np.int64),
                f5=_side_by_side(
                    [block.reshape(len(labels), -1, 2) for block in blocks],
                    1,
                    (len(labels), 0, len(F5_FEATURE_NAMES)),
                ),
            )
        )

    return AnnotationProblem(table=table, columns=tuple(columns), pairs=tuple(pairs))


def _side_by_side(
    blocks: list[np.ndarray], axis: int, empty: tuple[int, ...]
) -> np.ndarray:
    """``blocks`` concatenated along ``axis``; zeros of shape ``empty``
    when there are none."""
    return np.concatenate(blocks, axis=axis) if blocks else np.zeros(empty)


def cell_blocks(problem: AnnotationProblem):
    """Every cell as ``(name, labels, f1, row, column)``, in variable order:
    the per-cell reading of the column arrays."""
    for space in problem.columns:
        starts = space.offsets.tolist()
        for cell, (row, start, stop) in enumerate(
            zip(space.rows.tolist(), starts, starts[1:])
        ):
            yield (
                f"e:{row},{space.column}",
                space.labels(cell),
                space.f1[start:stop],
                row,
                space.column,
            )


def f3_blocks(space: ColumnSpace):
    """``(row, f3)`` of a typed column's cells, f3 shape (n_types,
    n_candidates, |f3|): the per-row views of the column grid."""
    starts = space.offsets.tolist()
    for row, start, stop in zip(space.rows.tolist(), starts, starts[1:]):
        yield row, space.f3[:, start:stop]


def f5_blocks(problem: AnnotationProblem, space: PairSpace):
    """``(row, f5)`` of a pair's rows, f5 shape (n_labels, n_left,
    n_right, |f5|): the per-row views of the pair's flat array."""
    rows = problem.columns[space.left].rows[space.left_cells]
    start = 0
    for row, n_left, n_right in zip(
        rows.tolist(), space.n_left.tolist(), space.n_right.tolist()
    ):
        stop = start + n_left * n_right
        yield row, space.f5[:, start:stop].reshape(
            len(space.labels) - 1, n_left, n_right, -1
        )
        start = stop


def build_factor_graph(
    problem: AnnotationProblem,
    model: AnnotationModel,
    with_relations: bool = True,
) -> FactorGraph:
    """Materialise equation (1) as a log-space factor graph.

    Potentials for any combination involving na are identically zero ("no
    feature is fired if label na is involved").  With
    ``with_relations=False`` the bcc'/φ4/φ5 parts are omitted — the
    polynomial special case of Section 4.4.1.  Every potential is the
    product of one cell's or one row's own features.
    """
    graph = FactorGraph()
    for name, labels, f1, _row, _column in cell_blocks(problem):
        unary = np.concatenate(([0.0], f1 @ model.w1))
        graph.add_variable(name, labels, unary, kind="entity")
    for space in problem.columns:
        if not space.has_type:
            continue
        unary = np.concatenate(([0.0], space.f2 @ model.w2))
        graph.add_variable(space.variable_name, space.types, unary, kind="type")
        for row, f3 in f3_blocks(space):
            table = np.zeros((len(space.types), f3.shape[1] + 1))
            table[1:, 1:] = f3 @ model.w3
            graph.add_factor(
                f"phi3:{row},{space.column}",
                (space.variable_name, f"e:{row},{space.column}"),
                table,
                kind="phi3",
            )
    if not with_relations:
        return graph
    for space in problem.pairs:
        left_var = f"t:{space.left}"
        right_var = f"t:{space.right}"
        graph.add_variable(
            space.variable_name,
            space.labels,
            np.zeros(len(space.labels)),
            kind="relation",
        )
        n_left_types = len(problem.columns[space.left].types)
        n_right_types = len(problem.columns[space.right].types)
        phi4 = np.zeros((len(space.labels), n_left_types, n_right_types))
        phi4[1:, 1:, 1:] = space.f4 @ model.w4
        graph.add_factor(
            f"phi4:{space.left},{space.right}",
            (space.variable_name, left_var, right_var),
            phi4,
            kind="phi4",
        )
        for row, f5 in f5_blocks(problem, space):
            phi5 = np.zeros(
                (len(space.labels), f5.shape[1] + 1, f5.shape[2] + 1)
            )
            phi5[1:, 1:, 1:] = f5 @ model.w5
            graph.add_factor(
                f"phi5:{row}:{space.left},{space.right}",
                (
                    space.variable_name,
                    f"e:{row},{space.left}",
                    f"e:{row},{space.right}",
                ),
                phi5,
                kind="phi5",
            )
    return graph


def wire(annotation: TableAnnotation) -> str:
    """The ``/annotate`` response body of one annotation (timing excluded)."""
    return encode_json(
        AnnotateResponse(
            table_id=annotation.table_id,
            annotation=annotation_to_dict(annotation),
            diagnostics={
                key: annotation.diagnostics.get(key)
                for key in ("iterations", "converged", "n_variables", "n_factors")
            },
        ).to_json()
    )


def run_scalar_paper_schedule(
    engine: MaxProductBP, max_iterations: int = 10, tolerance: float = TOLERANCE
) -> tuple[int, bool]:
    """Drive a scalar engine through the Figure-11 block schedule.

    The per-edge loop the fused engine's ``run_paper_schedule`` must
    reproduce: within each half-step every update reads only messages
    written in earlier half-steps.  Returns ``(iterations, converged)``.
    """
    graph = engine.graph
    phi3_edges: list[tuple[str, str, str]] = []  # (factor, type_var, entity_var)
    phi5_edges: list[tuple[str, str, str, str]] = []  # (factor, b, e_left, e_right)
    phi4_edges: list[tuple[str, str, str, str]] = []  # (factor, b, t_left, t_right)
    for factor in graph.factors.values():
        if factor.kind == "phi3":
            phi3_edges.append((factor.name, factor.variables[0], factor.variables[1]))
        elif factor.kind == "phi5":
            phi5_edges.append((factor.name, *factor.variables))
        elif factor.kind == "phi4":
            phi4_edges.append((factor.name, *factor.variables))

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):  # noqa: B007 - read after loop
        delta = 0.0
        # Block 1: entities <-> types through phi3.
        for factor_name, type_var, entity_var in phi3_edges:
            delta = max(delta, engine.update_var_to_factor(entity_var, factor_name))
            delta = max(delta, engine.update_factor_to_var(factor_name, type_var))
        for factor_name, type_var, entity_var in phi3_edges:
            delta = max(delta, engine.update_var_to_factor(type_var, factor_name))
            delta = max(delta, engine.update_factor_to_var(factor_name, entity_var))
        # Blocks 2 and 3: entities <-> relations through phi5, then
        # types <-> relations through phi4 (same edge pattern).
        for edges in (phi5_edges, phi4_edges):
            for factor_name, b_var, left_var, right_var in edges:
                delta = max(delta, engine.update_var_to_factor(left_var, factor_name))
                delta = max(delta, engine.update_var_to_factor(right_var, factor_name))
                delta = max(delta, engine.update_factor_to_var(factor_name, b_var))
            for factor_name, b_var, left_var, right_var in edges:
                delta = max(delta, engine.update_var_to_factor(b_var, factor_name))
                delta = max(delta, engine.update_factor_to_var(factor_name, left_var))
                delta = max(delta, engine.update_factor_to_var(factor_name, right_var))
        if delta < tolerance:
            converged = True
            break
    return iterations, converged


def _belief_margin(belief: np.ndarray, chosen: int) -> float:
    if belief.shape[0] < 2:
        return float(belief[chosen])
    others = np.delete(belief, chosen)
    return float(belief[chosen] - others.max())


def scalar_decode(
    problem: AnnotationProblem,
    engine: MaxProductBP,
    iterations: int,
    converged: bool,
) -> TableAnnotation:
    """Per-variable argmax decoding of a scalar run (ties to na's side)."""
    annotation = TableAnnotation(table_id=problem.table.table_id)
    graph = engine.graph
    for name, labels, _f1, row, column in cell_blocks(problem):
        belief = engine.belief(name)
        index = int(np.argmax(belief))
        annotation.cells[(row, column)] = CellAnnotation(
            row=row,
            column=column,
            entity_id=labels[index],
            score=_belief_margin(belief, index),
        )
    for space in problem.columns:
        if not space.has_type:
            continue
        belief = engine.belief(space.variable_name)
        index = int(np.argmax(belief))
        annotation.columns[space.column] = ColumnAnnotation(
            column=space.column,
            type_id=space.types[index],
            score=_belief_margin(belief, index),
        )
    for column in range(problem.table.n_columns):
        if column not in annotation.columns:
            annotation.columns[column] = ColumnAnnotation(
                column=column, type_id=NA, score=0.0
            )
    for space in problem.pairs:
        belief = engine.belief(space.variable_name)
        index = int(np.argmax(belief))
        annotation.relations[(space.left, space.right)] = RelationAnnotation(
            left_column=space.left,
            right_column=space.right,
            label=space.labels[index],
            score=_belief_margin(belief, index),
        )
    annotation.diagnostics.update(
        {
            "method": "collective",
            "iterations": iterations,
            "converged": converged,
            "log_score": graph.score(engine.map_assignment()),
            "n_variables": len(graph.variables),
            "n_factors": len(graph.factors),
        }
    )
    return annotation


def scalar_annotate_problem(
    problem: AnnotationProblem,
    model: AnnotationModel,
    config: AnnotatorConfig,
    unary_bonus: dict[str, np.ndarray] | None = None,
    schedule: str = "paper",
) -> TableAnnotation:
    """Collective inference on one problem with the scalar engine."""
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule: {schedule!r}")
    graph = build_factor_graph(problem, model)
    for name, bonus in (unary_bonus or {}).items():
        variable = graph.variables.get(name)
        if variable is not None:
            variable.unary = variable.unary + np.asarray(bonus, dtype=float)
    engine = MaxProductBP(graph)
    if schedule == "flooding":
        result = engine.run_flooding(
            max_iterations=config.max_iterations, tolerance=TOLERANCE
        )
        return scalar_decode(problem, engine, result.iterations, result.converged)
    iterations, converged = run_scalar_paper_schedule(
        engine, max_iterations=config.max_iterations, tolerance=TOLERANCE
    )
    return scalar_decode(problem, engine, iterations, converged)


class OracleAnnotator:
    """Reference annotator, one layer at a time.

    ``candidates`` picks the problem builder ("scalar": per-cell
    :class:`CandidateGenerator` + :class:`ScalarFeatureComputer`;
    "batched": the production engine and feature computer) and ``bp`` the
    inference engine ("scalar": per-edge :class:`MaxProductBP`; "batched":
    the production fused engine on a bucket of one).  ``candidate_engine``
    shares a prebuilt production engine (its lemma index, for the scalar
    candidate path).
    """

    def __init__(
        self,
        catalog: Catalog,
        model: AnnotationModel | None = None,
        config: AnnotatorConfig | None = None,
        candidates: str = "scalar",
        bp: str = "scalar",
        schedule: str = "paper",
        candidate_engine: CandidateEngine | None = None,
    ) -> None:
        if candidates not in LAYERS or bp not in LAYERS:
            raise ValueError(f"unknown oracle layers: {candidates!r}, {bp!r}")
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule: {schedule!r}")
        self.catalog = catalog
        self.model = model if model is not None else default_model()
        self.config = config if config is not None else AnnotatorConfig()
        self.bp = bp
        self.schedule = schedule
        caps = {
            "top_k_entities": self.config.top_k_entities,
            "max_type_candidates": self.config.max_type_candidates,
        }
        self.generator: CandidateGenerator | CandidateEngine
        if candidates == "batched":
            engine = candidate_engine or CandidateEngine(catalog, **caps)
            self.generator = engine
            self.features: FeatureComputer = FeatureComputer(
                catalog, self.model.mode, engine
            )
        else:
            self.generator = (
                CandidateGenerator.sharing(candidate_engine)
                if candidate_engine is not None
                else CandidateGenerator(catalog, **caps)
            )
            self.features = ScalarFeatureComputer(
                catalog, self.model.mode, self.generator
            )

    def build_problem(self, table: Table) -> AnnotationProblem:
        if isinstance(self.generator, CandidateGenerator):
            return scalar_build_problem(
                table,
                self.generator,
                self.features,  # type: ignore[arg-type]
                max_column_pairs=self.config.max_column_pairs,
            )
        texts = list(dict.fromkeys(text for _row, _column, text in table.iter_cells()))
        return build_problem(
            table,
            self.generator,
            self.features,
            dict(zip(texts, self.generator.cell_candidates_batch(texts))),
            max_column_pairs=self.config.max_column_pairs,
        )

    def annotate_problem(
        self,
        problem: AnnotationProblem,
        unary_bonus: dict[str, np.ndarray] | None = None,
    ) -> TableAnnotation:
        if not self.config.with_relations:
            return annotate_simple(problem, self.model)
        if self.bp == "batched":
            return annotate_problem(problem, self.model, self.config, unary_bonus)
        return scalar_annotate_problem(
            problem, self.model, self.config, unary_bonus, self.schedule
        )

    def annotate(self, table: Table) -> TableAnnotation:
        return self.annotate_problem(self.build_problem(table))
