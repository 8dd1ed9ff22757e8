#!/usr/bin/env python3
"""The typed API in one sitting: annotate → search → join via ReproSession.

Run with::

    python examples/api_quickstart.py

One :class:`repro.ReproSession` is the whole public surface — the same
facade the CLI and the HTTP server run on.  This example opens a session on
a synthetic world, annotates a table through the typed request/response
path, indexes a corpus, then answers a relational query and a two-hop join.
Every payload printed here is exactly what ``POST /annotate`` / ``/search``
/ ``/search/join`` would return for the same request.
"""

import os

from repro import (
    AnnotateRequest,
    ApiError,
    JoinSearchRequest,
    NoiseProfile,
    ReproSession,
    SearchRequest,
    SessionConfig,
    TableGeneratorConfig,
    WebTableGenerator,
    encode_json,
    generate_world,
)

#: REPRO_SMOKE=1 shrinks the corpus so CI's examples job stays fast
SMOKE = bool(os.environ.get("REPRO_SMOKE"))


def main() -> None:
    # 1. A seeded synthetic world and a small corpus of noisy web tables.
    world = generate_world()
    generator = WebTableGenerator(
        world.full,
        TableGeneratorConfig(
            seed=11, n_tables=6 if SMOKE else 12, noise=NoiseProfile.WIKI
        ),
    )
    corpus = generator.generate()

    # 2. One session = one warm handle on the whole system.  The config
    #    composes what used to be scattered per-command wiring.
    session = ReproSession.from_world(
        world.annotator_view, config=SessionConfig(batch_size=16)
    )

    # 3. Annotate through the typed path.  The response is a versioned wire
    #    object: encode_json(response.to_json()) is byte-identical to what
    #    the HTTP server would send for this request.
    request = AnnotateRequest(table=corpus[0].table, include_timing=False)
    response = session.annotate(request)
    print("annotate ->", encode_json(response.to_json())[:120], "…")
    print("column types:", response.annotation["columns"])

    # 4. Index the corpus, then search it.  Pick a relation/entity pair
    #    that actually occurs in the ground truth so the query hits.
    session.index_corpus(corpus)
    relation, entity, answers = None, None, None
    for candidate in world.annotator_view.relations.all_relations():
        relation = candidate.relation_id
        for entity in sorted(
            world.annotator_view.relations.participating_objects(relation)
        ):
            answers = session.search(
                SearchRequest(relation=relation, entity=entity, top_k=5)
            )
            if answers.answers:
                break
        if answers is not None and answers.answers:
            break
    print(f"search {relation}(?, {entity}):")
    for answer in answers.answers:
        print(f"  {answer.score:8.3f}  {answer.text}  {answer.entity_id or ''}")

    # 5. A two-hop join through a middle entity, where the schemas compose.
    catalog = world.annotator_view
    for first in catalog.relations.all_relations():
        for second in catalog.relations.all_relations():
            joinable = catalog.types.is_subtype(
                second.subject_type, first.object_type
            ) or catalog.types.is_subtype(first.object_type, second.subject_type)
            objects = sorted(
                catalog.relations.participating_objects(second.relation_id)
            )
            if not joinable or not objects:
                continue
            join = session.join_search(
                JoinSearchRequest(
                    first_relation=first.relation_id,
                    second_relation=second.relation_id,
                    entity=objects[0],
                    top_k=3,
                )
            )
            print(
                f"join {first.relation_id} ∘ {second.relation_id} "
                f"-> {len(join.answers)} answers"
            )
            break
        else:
            continue
        break

    # 6. Failures carry stable codes — the same codes the HTTP server maps
    #    to statuses, so clients branch on code, never on message text.
    try:
        session.search(SearchRequest(relation="rel:nope", entity=entity))
    except ApiError as error:
        print(f"expected failure: [{error.code}] http {error.http_status}")


if __name__ == "__main__":
    main()
