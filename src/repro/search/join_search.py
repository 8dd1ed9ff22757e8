"""Join queries over annotated tables — the paper's "left for future work".

Section 2.1 sketches the query form

    R1(e1 ∈ T1, e2 ∈ T2)  ∧  R2(e2 ∈ T2, E3 ∈ T3)

with ``E3`` given: e.g. "movies (e1) acted in by footballers-turned-actors
(e2) who play for club E3" — a two-hop join through the middle variable
``e2``.  The paper notes that "tagging tables with entities and types lets us
express precise join queries without depending on fuzzy text matches"; this
module implements exactly that on top of the annotated index:

1. answer ``R2(?, E3)`` with the Type+Rel processor → candidate middle
   entities with scores,
2. for each middle entity (the top :data:`MAX_MIDDLE`), answer ``R1(?, e2)``,
3. aggregate ``E1`` scores across middles (score of the join path = product
   of hop scores, summed over paths).

Only entity-resolved middles participate — a string answer cannot anchor the
second hop, which is precisely why the join needs annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.search.annotated_search import AnnotatedSearcher
from repro.search.query import RelationQuery
from repro.search.ranking import SearchAnswer, SearchResponse
from repro.search.table_index import AnnotatedTableIndex

#: middle entities (best hop-2 answers first) whose hop 1 is searched
MAX_MIDDLE = 10
#: join answers returned
TOP_K_ANSWERS = 50


@dataclass(frozen=True)
class JoinQuery:
    """``R1(e1, e2) ∧ R2(e2, E3)`` with ``E3`` known.

    ``first_relation`` is R1 (its subjects are the answers); ``second_relation``
    is R2 (its subjects are the middle entities; ``given_entity`` is E3).
    The middle variable must inhabit both R1's object type and R2's subject
    type — validated against the catalog at construction time via
    :meth:`from_catalog`.
    """

    first_relation: str
    second_relation: str
    given_entity: str

    @classmethod
    def from_catalog(
        cls, catalog: Catalog, first_relation: str, second_relation: str, given_entity: str
    ) -> "JoinQuery":
        r1 = catalog.relations.get(first_relation)
        r2 = catalog.relations.get(second_relation)
        compatible = catalog.types.is_subtype(
            r2.subject_type, r1.object_type
        ) or catalog.types.is_subtype(r1.object_type, r2.subject_type)
        if not compatible:
            raise ValueError(
                f"join types incompatible: {first_relation} object type "
                f"{r1.object_type} vs {second_relation} subject type {r2.subject_type}"
            )
        catalog.entities.get(given_entity)  # validates existence
        return cls(
            first_relation=first_relation,
            second_relation=second_relation,
            given_entity=given_entity,
        )


class JoinSearcher:
    """Two-hop join processing over one annotated index."""

    def __init__(
        self,
        index: AnnotatedTableIndex,
        catalog: Catalog,
        lemma_resolver: dict[str, str] | None = None,
    ) -> None:
        self.index = index
        self.catalog = catalog
        self._hop_searcher = AnnotatedSearcher(
            index, catalog, use_relations=True, lemma_resolver=lemma_resolver
        )

    def search(self, query: JoinQuery) -> SearchResponse:
        # Hop 2 first: middle entities e2 with R2(e2, E3).
        middle_query = RelationQuery.from_catalog(
            self.catalog, query.second_relation, query.given_entity
        )
        middle_response = self._hop_searcher.search(middle_query)
        middles = [
            answer
            for answer in middle_response.answers
            if answer.entity_id is not None
        ][:MAX_MIDDLE]

        # Hop 1: answers e1 with R1(e1, e2), aggregated over middles.
        scores: dict[str, float] = {}
        texts: dict[str, str] = {}
        supports: dict[str, set[str]] = {}
        tables_considered = middle_response.tables_considered
        rows_matched = middle_response.rows_matched
        for middle in middles:
            first_query = RelationQuery.from_catalog(
                self.catalog, query.first_relation, middle.entity_id
            )
            response = self._hop_searcher.search(first_query)
            tables_considered += response.tables_considered
            rows_matched += response.rows_matched
            for answer in response.answers:
                if answer.entity_id is None:
                    continue  # unresolved strings cannot be join answers
                path_score = answer.score * middle.score
                scores[answer.entity_id] = scores.get(answer.entity_id, 0.0) + path_score
                texts.setdefault(answer.entity_id, answer.text)
                supports.setdefault(answer.entity_id, set()).update(
                    answer.supporting_tables
                )
        ranked = sorted(
            scores.items(), key=lambda item: (-item[1], texts[item[0]].lower())
        )
        answers = [
            SearchAnswer(
                text=texts[entity_id],
                score=score,
                entity_id=entity_id,
                supporting_tables=tuple(sorted(supports[entity_id])),
            )
            for entity_id, score in ranked[:TOP_K_ANSWERS]
        ]
        return SearchResponse(
            answers=answers,
            tables_considered=tables_considered,
            rows_matched=rows_matched,
        )
