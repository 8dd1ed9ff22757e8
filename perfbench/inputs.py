"""Seeded benchmark inputs: world, tables, queries and the serving bundle.

Everything here runs before any timed region.  The world and the bundle
corpus are fixed; the same seed gives the same tables and queries.  The
program under test only ever sees the files and request payloads produced
here, and builds the bundle itself.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from repro.catalog.io import save_catalog_json
from repro.catalog.synthetic import SyntheticCatalogConfig, SyntheticWorld, generate_world
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
    base_relation,
)
from repro.tables.model import LabeledTable

import settings

#: two-hop joins R1(?, e2) ∧ R2(e2, E3) whose middle types line up
JOIN_SHAPES = (
    ("rel:acted_in", "rel:born_in"),
    ("rel:directed", "rel:born_in"),
    ("rel:produced", "rel:born_in"),
    ("rel:born_in", "rel:located_in"),
)


def make_world() -> SyntheticWorld:
    """The catalog world: one fixed world for every seed (see settings)."""
    return generate_world(SyntheticCatalogConfig(seed=settings.WORLD_SEED, **settings.WORLD))


def make_tables(
    world: SyntheticWorld, seed: int, count: int, prefix: str
) -> list[LabeledTable]:
    """``count`` distinct tables, stratified over noise and row count.

    Every block of consecutive tables holds one WIKI and one WEB table of
    each row count in ``ROWS_RANGE``, in a seeded order,
    so every seed (and every window of the request stream) has the same
    mix of table sizes; the seed varies which entities fill them.  Cells
    repeat across tables the way a crawl's do (the same entities are
    rendered into many tables); identical tables are dropped.
    """
    rng = random.Random(seed * 7919 + len(prefix))
    low, high = settings.ROWS_RANGE
    strata = [
        (noise, rows)
        for noise in (NoiseProfile.WIKI, NoiseProfile.WEB)
        for rows in range(low, high + 1)
    ]
    per_stratum = -(-count // len(strata)) + 1  # spare tables for duplicates
    pools = {
        (noise, rows): WebTableGenerator(
            world.full,
            TableGeneratorConfig(
                seed=rng.randrange(2**31),
                n_tables=per_stratum,
                rows_range=(rows, rows),
                noise=noise,
                id_prefix=f"{prefix}-{noise.value}-r{rows}",
            ),
        ).generate()
        for noise, rows in strata
    }
    tables: list[LabeledTable] = []
    seen: set[str] = set()
    for round_index in range(per_stratum):
        order = list(strata)
        rng.shuffle(order)
        for stratum in order:
            labeled = pools[stratum][round_index]
            key = json.dumps(labeled.table.cells)
            if key not in seen:
                seen.add(key)
                tables.append(labeled)
    return tables[:count]


def warm_table(world: SyntheticWorld) -> LabeledTable:
    """The set-up's warm table, one of the middle row count.  It is the
    same for every seed, so set-up does the same work whatever the seed."""
    low, high = settings.ROWS_RANGE
    tables = make_tables(world, settings.WORLD_SEED, 2 * (high - low + 1), "warm")
    middle = (low + high) // 2
    return next(labeled for labeled in tables if labeled.table.n_rows == middle)


def write_world(world: SyntheticWorld, directory: Path) -> Path:
    path = directory / "catalog_view.json"
    save_catalog_json(world.annotator_view, path)
    return path


def write_corpus(tables: list[LabeledTable], path: Path) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        for labeled in tables:
            handle.write(json.dumps(labeled.to_dict(), ensure_ascii=False))
            handle.write("\n")
    return path


def build_bundle(
    root: Path, env: dict, catalog: Path, corpus: Path, output: Path
) -> None:
    """``repro bundle build`` — the bundle is made by the code under test."""
    subprocess.run(
        [
            sys.executable, "-m", "repro", "bundle", "build",
            "--catalog", str(catalog),
            "--corpus", str(corpus),
            "--output", str(output),
        ],
        cwd=root,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=300,
    )


def annotate_payload(labeled: LabeledTable) -> dict:
    return {"table": labeled.table.to_dict(), "include_timing": False}


@dataclass
class SearchQuery:
    endpoint: str  # "search" or "search_join"
    payload: dict
    #: relevant answer entity ids for relation queries (None for joins)
    relevant: frozenset[str] | None


def _relation_query(world: SyntheticWorld, relation_id: str, entity: str) -> SearchQuery:
    return SearchQuery(
        "search",
        {"relation": relation_id, "entity": entity, "top_k": settings.TOP_K},
        frozenset(world.full.relations.subjects_of(relation_id, entity)),
    )


def quality_queries(world: SyntheticWorld, corpus: list[LabeledTable]) -> list[SearchQuery]:
    """The Figure-9 workload, restricted to queries the corpus can answer.

    Every object entity of the five query relations whose relation tuple is
    rendered in at least one corpus table (by generator truth).  Queries
    with no answer in the corpus would score 0 whatever the program does,
    and how many there are depends only on the seeded corpus.
    """
    rendered: set[tuple[str, str]] = set()
    for labeled in corpus:
        truth = labeled.truth
        for (left, right), label in truth.relations.items():
            if label is None:
                continue
            relation_id, reverse = base_relation(label)
            subject_column, object_column = (right, left) if reverse else (left, right)
            for (row, column), entity in truth.cell_entities.items():
                if column == object_column and entity is not None:
                    if truth.cell_entities.get((row, subject_column)) is not None:
                        rendered.add((relation_id, entity))
    view = world.annotator_view
    return [
        _relation_query(world, relation_id, entity)
        for relation_id in world.query_relations
        for entity in sorted(world.full.relations.participating_objects(relation_id))
        if entity in view.entities and (relation_id, entity) in rendered
    ]


def _zipf(rng: random.Random, items: list):
    """A sampler drawing ``items`` Zipf-like over a seeded popularity order."""
    ranked = sorted(items)
    rng.shuffle(ranked)
    weights = list(accumulate(1.0 / rank**settings.ZIPF_S for rank in range(1, len(ranked) + 1)))
    return lambda: rng.choices(ranked, cum_weights=weights)[0]


def make_queries(world: SyntheticWorld, seed: int, count: int) -> list[SearchQuery]:
    """A seeded /search + /search/join mix, Zipf-like within each relation.

    Every (relation, object entity) pair of the full catalog is a possible
    relation query.  Relations take turns in shuffled blocks, each relation
    as often as it has pairs, and the entity is drawn Zipf-like over a
    seeded popularity order, so popular queries repeat the way query logs
    do while every window of the stream has the same relation mix.  Every
    ``JOIN_STRIDE``-th query is a two-hop join, cycling through the join
    shapes.
    """
    rng = random.Random(seed * 104729 + 17)
    view = world.annotator_view
    # queries name ids the served catalog (the annotator view) knows
    objects = {
        relation_id: [
            entity
            for entity in world.full.relations.participating_objects(relation_id)
            if entity in view.entities
        ]
        for relation_id in sorted(world.full.relations)
        if relation_id in view.relations
    }
    objects = {relation_id: found for relation_id, found in objects.items() if found}
    total = sum(len(found) for found in objects.values())
    block = [
        relation_id
        for relation_id, found in objects.items()
        for _ in range(max(1, round(settings.RELATION_BLOCK * len(found) / total)))
    ]
    samplers = {relation_id: _zipf(rng, found) for relation_id, found in objects.items()}
    join_samplers = [
        (first, second, _zipf(rng, [
            entity
            for entity in world.full.relations.participating_objects(second)
            if entity in view.entities
        ]))
        for first, second in JOIN_SHAPES
    ]

    queries: list[SearchQuery] = []
    slots: list[str] = []
    for index in range(count):
        if index % settings.JOIN_STRIDE == settings.JOIN_STRIDE - 1:
            first, second, sample = join_samplers[(index // settings.JOIN_STRIDE) % len(join_samplers)]
            payload = {
                "first_relation": first,
                "second_relation": second,
                "entity": sample(),
                "top_k": settings.TOP_K,
            }
            queries.append(SearchQuery("search_join", payload, None))
            continue
        if not slots:
            slots = list(block)
            rng.shuffle(slots)
        relation_id = slots.pop()
        queries.append(_relation_query(world, relation_id, samplers[relation_id]()))
    return queries


def warm_queries(world: SyntheticWorld) -> list[SearchQuery]:
    """The set-up's warm requests, one relation search and one join (the
    first of each builds its lazy searcher).  The same for every seed."""
    queries = make_queries(world, settings.WORLD_SEED, settings.JOIN_STRIDE)
    return [queries[0], queries[-1]]
