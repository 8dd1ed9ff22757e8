"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate-world`` — write a synthetic catalog pair (full + annotator view)
  and optionally a table corpus to a directory,
* ``annotate``       — annotate a JSONL table corpus against a catalog and
  write the annotations as JSON (or streaming JSONL / wire payloads),
* ``train``          — train model weights on a labeled corpus,
* ``search``         — answer one relational query over an annotated corpus,
* ``search-index``   — annotate + index a corpus and report index statistics,
* ``augment``        — mine new catalog facts from an annotated corpus and
  optionally write the augmented catalog back out,
* ``bundle build`` / ``bundle info`` — serialize (and inspect) everything
  the query path needs into a versioned artifact bundle,
* ``serve``          — long-lived HTTP service answering ``/annotate`` and
  ``/search`` from a prebuilt bundle, with a pre-fork multi-worker tier
  (``--workers N``), 503 load shedding and bundle hot-swap
  (see :mod:`repro.serve` and ``docs/OPERATIONS.md``).

Every command is a thin argparse shim over the typed API: flags become a
request object from :mod:`repro.api.types`, one shared
:class:`~repro.api.ReproSession` executes it, and responses encode through
the same :func:`~repro.api.encode_json` the HTTP server uses — so ``repro
annotate --wire`` and ``POST /annotate`` emit byte-identical payloads for
identical requests.  API and serving failures (a bad bundle, a worker
that cannot start) print as ``error [<stable code>]: <message>`` and exit
1.

All commands are deterministic given their ``--seed`` arguments.  Anything
beyond one-shot usage should import :mod:`repro` (see ``ReproSession``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.api.config import SessionConfig
from repro.api.errors import ApiError, to_api_error
from repro.api.session import ReproSession
from repro.api.types import (
    BundleBuildRequest,
    SearchRequest,
    TrainRequest,
    encode_json,
)
from repro.catalog.io import save_catalog_json
from repro.catalog.synthetic import SyntheticCatalogConfig, generate_world
from repro.pipeline.io import (
    iter_corpus_jsonl,
    write_annotations_json_array,
    write_annotations_jsonl,
)
from repro.pipeline.pipeline import AnnotationPipeline
from repro.search.table_index import AnnotatedTableIndex
from repro.serve.errors import ServeError
from repro.tables.corpus import TableCorpus, save_corpus_jsonl
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)


def _session_from_args(args: argparse.Namespace) -> ReproSession:
    """One session per invocation: catalog + model + composed config."""
    return ReproSession.from_world(
        args.catalog,
        model=getattr(args, "model", None),
        config=SessionConfig.from_args(args),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=16,
        help="tables per batch and the most tables one fused BP graph "
        "holds (a batch's tables are fused in arrival order)",
    )
    parser.add_argument(
        "--cache-size",
        type=_non_negative_int,
        default=100_000,
        help="entries of the candidate cache and of the f1 block cache "
        "(0 disables both)",
    )
    parser.add_argument(
        "--answer-cache-size",
        type=_non_negative_int,
        default=2048,
        help="tables in the answer LRU (0 disables it)",
    )


def _print_pipeline_summary(pipeline: AnnotationPipeline) -> None:
    report = pipeline.last_report
    if report is None or not report.finished:
        return
    line = (
        f"annotated {report.n_tables} tables in {report.wall_seconds:.2f}s "
        f"(candidate share {report.candidate_fraction:.0%}"
    )
    if report.cache is not None:
        line += f", cache hit rate {report.cache.hit_rate:.0%}"
    line += (
        f", {report.fused_batches} fused batches, "
        f"bucket sizes {report.bucket_size_histogram}"
    )
    print(line + ")", file=sys.stderr)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_generate_world(args: argparse.Namespace) -> int:
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    config = SyntheticCatalogConfig(seed=args.seed)
    world = generate_world(config)
    save_catalog_json(world.full, output / "catalog_full.json")
    save_catalog_json(world.annotator_view, output / "catalog_view.json")
    if args.tables:
        generator = WebTableGenerator(
            world.full,
            TableGeneratorConfig(
                seed=args.seed + 1,
                n_tables=args.tables,
                noise=NoiseProfile(args.noise),
            ),
        )
        save_corpus_jsonl(TableCorpus(generator.generate()), output / "corpus.jsonl")
    print(f"world written to {output}  ({world.full.stats()})")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    if args.wire and args.jsonl:
        raise ApiError(
            "validation_error", "--wire and --jsonl are mutually exclusive"
        )
    session = _session_from_args(args)
    if args.wire:
        # one full AnnotateResponse wire payload per line — the canonical
        # deterministic encoding (timing excluded), byte-identical to what
        # POST /annotate returns for the same request; runs through the
        # batched pipeline like every other corpus mode
        wire_lines = (
            encode_json(response.to_json())
            for response in session.annotate_wire_stream(
                iter_corpus_jsonl(args.corpus)
            )
        )
        if args.output:
            written = 0
            with Path(args.output).open("w", encoding="utf-8") as handle:
                for line in wire_lines:
                    handle.write(line + "\n")
                    written += 1
            print(f"annotated {written} tables -> {args.output}")
        else:
            for line in wire_lines:
                print(line)
        _print_pipeline_summary(session.pipeline())
        return 0
    pipeline = session.pipeline()
    # both modes stream: tables are read, annotated and written one batch at
    # a time, so memory stays bounded however large the corpus is
    if args.jsonl:
        if args.output:
            report = pipeline.annotate_jsonl(args.corpus, args.output)
            print(f"annotated {report.n_tables} tables -> {args.output}")
        else:
            pipeline.annotate_jsonl(args.corpus, sys.stdout)
    else:
        annotations = session.annotate_stream(iter_corpus_jsonl(args.corpus))
        if args.output:
            with Path(args.output).open("w", encoding="utf-8") as handle:
                written = write_annotations_json_array(annotations, handle)
            print(f"annotated {written} tables -> {args.output}")
        else:
            write_annotations_json_array(annotations, sys.stdout)
            print()
    _print_pipeline_summary(pipeline)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    session = ReproSession.from_world(args.catalog)
    response = session.train(
        TrainRequest(
            corpus_path=args.corpus,
            epochs=args.epochs,
            seed=args.seed,
            output_path=args.output,
        )
    )
    print(
        f"trained on {response.n_tables} tables; final epoch hamming loss "
        f"{response.final_hamming_loss:.0f}; model -> {response.model_path}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    session.index_corpus(args.corpus)
    _print_pipeline_summary(session.pipeline())
    if args.json:
        # the typed path: top_k is part of the request, and the printed
        # payload is byte-identical to POST /search for this request
        request = SearchRequest(
            relation=args.relation,
            entity=args.entity,
            use_relations=not args.no_relations,
            top_k=args.top_k,
        )
        print(encode_json(session.search(request).to_json()))
        return 0
    # human mode: report the full answer count, trim only the display
    response = session.search(
        SearchRequest(
            relation=args.relation,
            entity=args.entity,
            use_relations=not args.no_relations,
        )
    )
    print(f"{len(response.answers)} answers "
          f"({response.tables_considered} tables considered)")
    for answer in response.answers[: args.top_k]:
        print(f"  {answer.score:8.3f}  {answer.text:40}  {answer.entity_id or ''}")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    from repro.core.augmentation import CatalogAugmenter

    session = _session_from_args(args)
    catalog = session.catalog
    augmenter = CatalogAugmenter(catalog, min_confidence=args.min_confidence)
    for annotation in session.annotate_stream(iter_corpus_jsonl(args.corpus)):
        augmenter.add_annotated_table(annotation)
    _print_pipeline_summary(session.pipeline())
    report = augmenter.report()
    print(
        f"{len(report.tuples)} tuple proposals, "
        f"{len(report.instance_links)} instance-link proposals"
    )
    for proposal in report.tuples[: args.top_k]:
        print(
            f"  {proposal.relation_id}({proposal.subject}, {proposal.object_}) "
            f"support={proposal.support} conf={proposal.confidence:.2f}"
        )
    if args.output:
        counts = report.apply_to(catalog, min_support=args.min_support)
        save_catalog_json(catalog, args.output)
        print(
            f"applied {counts['tuples']} tuples and "
            f"{counts['instance_links']} links -> {args.output}"
        )
    return 0


def cmd_search_index(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    catalog = session.catalog

    def tables_with_side_output():
        if not args.annotations:
            yield from session.annotate_with_tables(iter_corpus_jsonl(args.corpus))
            return
        with Path(args.annotations).open("w", encoding="utf-8") as handle:
            for table, annotation in session.annotate_with_tables(
                iter_corpus_jsonl(args.corpus)
            ):
                write_annotations_jsonl([annotation], handle)
                yield table, annotation

    index = AnnotatedTableIndex(catalog=catalog)
    for table, annotation in tables_with_side_output():
        index.add_table(table, annotation)
    index.freeze()
    _print_pipeline_summary(session.pipeline())
    for key, value in index.stats().items():
        print(f"{key}: {value}")
    if args.annotations:
        print(f"annotations -> {args.annotations}")
    return 0


def cmd_bundle_build(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    response = session.build_bundle(
        BundleBuildRequest(corpus_path=args.corpus, output_path=args.output)
    )
    _print_pipeline_summary(session.pipeline())
    print(
        f"bundle written to {response.output_path}: {response.n_tables} tables, "
        f"{response.n_files} files, annotate time "
        f"{response.annotate_seconds:.2f}s"
    )
    return 0


def cmd_bundle_info(args: argparse.Namespace) -> int:
    from repro.serve.bundle import read_manifest, verify_bundle

    manifest = read_manifest(args.bundle)
    if args.verify:
        verify_bundle(args.bundle, manifest)
        print("integrity: all file hashes match")
    print(json.dumps(manifest.to_dict(), indent=1))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.api.config import ServeConfig
    from repro.serve.dispatcher import Dispatcher
    from repro.serve.server import create_server, run_server

    config = SessionConfig(
        cache_size=args.cache_size,
        answer_cache_size=args.answer_cache_size,
        serve=ServeConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            shed_timeout_seconds=args.shed_timeout,
            request_timeout_seconds=args.request_timeout,
            health_interval_seconds=args.health_interval,
            drain_timeout_seconds=args.drain_timeout,
        ),
    )
    # the workers are forked and ping-verified before the socket is bound,
    # so a start-up failure leaves nothing listening
    dispatcher = Dispatcher(
        args.bundle,
        config=config,
        verify=not args.no_verify,
        quiet=not args.verbose,
    )
    try:
        server = create_server(
            dispatcher, host=args.host, port=args.port, quiet=not args.verbose
        )
    except OSError as error:
        # a busy port must not strand the warmed workers until exit
        dispatcher.shutdown()
        raise ApiError(
            "io_error",
            f"cannot listen on {args.host}:{args.port}: {error.strerror or error}",
        ) from error

    def _drain(signum: int, frame: Any) -> None:
        # serve_forever must be stopped from another thread; run_server
        # then drains the dispatcher and returns once every in-flight
        # request's response is written
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    host, port = server.server_address[:2]
    n_tables = dispatcher.healthz()["tables"]
    print(
        f"serving bundle {args.bundle} ({n_tables} tables, "
        f"{args.workers} pre-fork worker(s)) "
        f"on http://{host}:{port}  (Ctrl-C to stop, SIGTERM to drain)",
        file=sys.stderr,
        flush=True,
    )
    drained = run_server(server)
    print(
        "shutdown: in-flight requests "
        + ("drained" if drained else "FORCE-STOPPED after drain timeout"),
        file=sys.stderr,
        flush=True,
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # imported here so no other command pays for loading the analyzer
    from repro.analysis.runner import main as lint_main

    return lint_main(args.lint_argv)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Web-table annotation and search (Limaye et al., VLDB 2010)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate-world", help="write a synthetic catalog (and corpus)"
    )
    generate.add_argument("--output", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--tables", type=int, default=0, help="also generate N labeled tables"
    )
    generate.add_argument(
        "--noise", choices=[p.value for p in NoiseProfile], default="web"
    )
    generate.set_defaults(handler=cmd_generate_world)

    annotate = subparsers.add_parser("annotate", help="annotate a JSONL corpus")
    annotate.add_argument("--catalog", required=True)
    annotate.add_argument("--corpus", required=True)
    annotate.add_argument("--model", default=None)
    annotate.add_argument("--output", default=None)
    annotate.add_argument(
        "--jsonl",
        action="store_true",
        help="stream annotations as JSONL (one object per line, bounded memory)",
    )
    annotate.add_argument(
        "--wire",
        action="store_true",
        help="stream full AnnotateResponse wire payloads as JSONL "
        "(byte-identical to POST /annotate, timing excluded)",
    )
    _add_pipeline_arguments(annotate)
    annotate.set_defaults(handler=cmd_annotate)

    train = subparsers.add_parser("train", help="train model weights")
    train.add_argument("--catalog", required=True)
    train.add_argument("--corpus", required=True, help="labeled JSONL corpus")
    train.add_argument("--output", required=True, help="model JSON path")
    train.add_argument("--epochs", type=int, default=3)
    train.add_argument("--seed", type=int, default=0)
    train.set_defaults(handler=cmd_train)

    search = subparsers.add_parser("search", help="answer a relational query")
    search.add_argument("--catalog", required=True)
    search.add_argument("--corpus", required=True)
    search.add_argument("--model", default=None)
    search.add_argument("--relation", required=True, help="e.g. rel:directed")
    search.add_argument("--entity", required=True, help="the given E2 entity id")
    search.add_argument("--top-k", type=int, default=10)
    search.add_argument(
        "--no-relations",
        action="store_true",
        help="type-only search (paper Figure 4 without relation filtering)",
    )
    search.add_argument(
        "--json",
        action="store_true",
        help="print the SearchResponse wire payload "
        "(byte-identical to POST /search for the same request)",
    )
    _add_pipeline_arguments(search)
    search.set_defaults(handler=cmd_search)

    search_index = subparsers.add_parser(
        "search-index",
        help="annotate + index a corpus, reporting index statistics",
    )
    search_index.add_argument("--catalog", required=True)
    search_index.add_argument("--corpus", required=True)
    search_index.add_argument("--model", default=None)
    search_index.add_argument(
        "--annotations",
        default=None,
        help="also write the annotation stream to this JSONL path",
    )
    _add_pipeline_arguments(search_index)
    search_index.set_defaults(handler=cmd_search_index)

    augment = subparsers.add_parser(
        "augment", help="mine new catalog facts from an annotated corpus"
    )
    augment.add_argument("--catalog", required=True)
    augment.add_argument("--corpus", required=True)
    augment.add_argument("--model", default=None)
    augment.add_argument(
        "--output", default=None, help="write the augmented catalog here"
    )
    augment.add_argument("--min-confidence", type=float, default=0.5)
    augment.add_argument("--min-support", type=int, default=1)
    augment.add_argument("--top-k", type=int, default=10)
    _add_pipeline_arguments(augment)
    augment.set_defaults(handler=cmd_augment)

    bundle = subparsers.add_parser(
        "bundle",
        help="build or inspect serving artifact bundles (see `repro serve`)",
    )
    bundle_commands = bundle.add_subparsers(dest="bundle_command", required=True)
    bundle_build = bundle_commands.add_parser(
        "build",
        help="annotate a corpus and write a versioned artifact bundle",
    )
    bundle_build.add_argument("--catalog", required=True)
    bundle_build.add_argument("--corpus", required=True)
    bundle_build.add_argument("--model", default=None)
    bundle_build.add_argument("--output", required=True, help="bundle directory")
    _add_pipeline_arguments(bundle_build)
    bundle_build.set_defaults(handler=cmd_bundle_build)
    bundle_info = bundle_commands.add_parser(
        "info", help="print a bundle's manifest"
    )
    bundle_info.add_argument("--bundle", required=True, help="bundle directory")
    bundle_info.add_argument(
        "--verify",
        action="store_true",
        help="also re-hash every file against the manifest",
    )
    bundle_info.set_defaults(handler=cmd_bundle_info)

    serve = subparsers.add_parser(
        "serve",
        help="serve /annotate and /search over HTTP from a prebuilt bundle",
    )
    serve.add_argument("--bundle", required=True, help="bundle directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--cache-size",
        type=_non_negative_int,
        default=100_000,
        help="entries of the candidate cache and of the f1 block cache, per "
        "worker (0 disables both)",
    )
    serve.add_argument(
        "--answer-cache-size",
        type=_non_negative_int,
        default=2048,
        help="tables in the answer LRU per worker (0 disables it)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="pre-fork worker processes sharing the mmapped bundle "
        "(default 1; see docs/OPERATIONS.md for tuning)",
    )
    serve.add_argument(
        "--queue-depth",
        type=_non_negative_int,
        default=16,
        help="requests allowed to queue beyond the in-flight workers "
        "before load shedding kicks in",
    )
    serve.add_argument(
        "--shed-timeout",
        type=float,
        default=2.0,
        help="seconds a request may wait for admission before a 503 shed",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        help="per-request ceiling: a request still queued past it fails "
        "overloaded, a worker silent past it is replaced",
    )
    serve.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="seconds between the liveness checks of idle workers",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds shutdown / hot-swap waits for in-flight requests",
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip manifest hash verification at load",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    serve.set_defaults(handler=cmd_serve)

    # reprolint parses its own flags: `repro lint --help` lists them
    lint = subparsers.add_parser(
        "lint",
        help="run the project-specific static analyzer (reprolint)",
        add_help=False,
    )
    lint.set_defaults(handler=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        args.lint_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return args.handler(args)
    except (ApiError, ServeError) as error:
        api_error = to_api_error(error)
        print(f"error [{api_error.code}]: {api_error.message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
