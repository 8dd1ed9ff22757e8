"""Answer aggregation and ranking shared by all query processors.

All three processors end the same way (paper Figures 3/4, last line):
"cluster, dedup, rank and present" the collected evidence.  Evidence arrives
as per-row hits — either an entity id (annotated cells) or a raw string
(unannotated cells) — each with a weight.  Entity evidence aggregates by id;
string evidence clusters by normalised text; an entity absorbs string
evidence that exactly matches one of its lemmas ("aggregate evidence in favor
of known entities").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.text.normalize import normalize_text


@dataclass
class SearchAnswer:
    """One ranked answer.

    ``entity_id`` is set when the evidence resolved to a catalog entity;
    ``text`` always carries a displayable surface form.  On the wire the
    API codec (:mod:`repro.api.types`) encodes it from these fields.
    """

    text: str
    score: float
    entity_id: str | None = None
    supporting_tables: tuple[str, ...] = ()


@dataclass
class SearchResponse:
    """Ranked answers plus bookkeeping for evaluation."""

    answers: list[SearchAnswer] = field(default_factory=list)
    tables_considered: int = 0
    rows_matched: int = 0

    def ranked_keys(self) -> list[str]:
        """Entity ids where known, else normalised answer text, in rank order."""
        keys = []
        for answer in self.answers:
            keys.append(
                answer.entity_id
                if answer.entity_id is not None
                else normalize_text(answer.text).lower()
            )
        return keys


def build_lemma_resolver(catalog: Catalog) -> dict[str, str]:
    """Folded lemma → entity id, for lemmas naming exactly one entity.

    One accumulator builds this lazily per query; long-lived callers (the
    serving layer) precompute it once per catalog and hand the same immutable
    mapping to every request's accumulator — catalog-sized work leaves the
    per-query path entirely.
    """
    mapping: dict[str, str | None] = {}
    for entity in catalog.entities.all_entities():
        for lemma in entity.lemmas:
            folded = normalize_text(lemma).lower()
            if folded in mapping and mapping[folded] != entity.entity_id:
                mapping[folded] = None  # ambiguous lemma: do not resolve
            else:
                mapping.setdefault(folded, entity.entity_id)
    return {
        lemma: entity_id
        for lemma, entity_id in mapping.items()
        if entity_id is not None
    }


class EvidenceAccumulator:
    """Collects per-row hits and produces the ranked response."""

    def __init__(
        self,
        catalog: Catalog,
        resolve_strings_to_entities: bool = True,
        lemma_resolver: dict[str, str] | None = None,
    ) -> None:
        """``resolve_strings_to_entities=False`` keeps string evidence as
        strings (the Figure-3 baseline presents raw cell contents and never
        touches the catalog); ``lemma_resolver`` injects a prebuilt
        :func:`build_lemma_resolver` mapping (otherwise built lazily)."""
        self._catalog = catalog
        self._resolve = resolve_strings_to_entities
        self._entity_scores: dict[str, float] = {}
        self._entity_tables: dict[str, set[str]] = {}
        self._string_scores: dict[str, float] = {}
        self._string_display: dict[str, str] = {}
        self._string_tables: dict[str, set[str]] = {}
        self._lemma_to_entity: dict[str, str] | None = lemma_resolver
        self.rows_matched = 0
        self.tables_considered = 0

    # ------------------------------------------------------------------
    def add_entity_evidence(self, entity_id: str, weight: float, table_id: str) -> None:
        self.rows_matched += 1
        self._entity_scores[entity_id] = self._entity_scores.get(entity_id, 0.0) + weight
        self._entity_tables.setdefault(entity_id, set()).add(table_id)

    def add_string_evidence(self, text: str, weight: float, table_id: str) -> None:
        self.rows_matched += 1
        key = normalize_text(text).lower()
        if not key:
            return
        entity_id = self._resolve_lemma(key) if self._resolve else None
        if entity_id is not None:
            self._entity_scores[entity_id] = (
                self._entity_scores.get(entity_id, 0.0) + weight
            )
            self._entity_tables.setdefault(entity_id, set()).add(table_id)
            return
        self._string_scores[key] = self._string_scores.get(key, 0.0) + weight
        self._string_display.setdefault(key, text.strip())
        self._string_tables.setdefault(key, set()).add(table_id)

    def _resolve_lemma(self, key: str) -> str | None:
        """Entity whose lemma exactly matches ``key``, if unambiguous."""
        if self._lemma_to_entity is None:
            self._lemma_to_entity = build_lemma_resolver(self._catalog)
        return self._lemma_to_entity.get(key)

    # ------------------------------------------------------------------
    def response(self, top_k: int = 50) -> SearchResponse:
        answers: list[SearchAnswer] = []
        for entity_id, score in self._entity_scores.items():
            entity = self._catalog.entities.get(entity_id)
            answers.append(
                SearchAnswer(
                    text=entity.primary_lemma,
                    score=score,
                    entity_id=entity_id,
                    supporting_tables=tuple(sorted(self._entity_tables[entity_id])),
                )
            )
        for key, score in self._string_scores.items():
            answers.append(
                SearchAnswer(
                    text=self._string_display[key],
                    score=score,
                    entity_id=None,
                    supporting_tables=tuple(sorted(self._string_tables[key])),
                )
            )
        answers.sort(key=lambda answer: (-answer.score, answer.text.lower()))
        return SearchResponse(
            answers=answers[:top_k],
            tables_considered=self.tables_considered,
            rows_matched=self.rows_matched,
        )
