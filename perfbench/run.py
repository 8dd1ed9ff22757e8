"""The repository benchmark: one workload per run, metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve-annotate --seed 1 --seconds 25 --trace 0

Workloads:

* ``serve-annotate`` — ``repro serve`` (default single pre-fork worker)
  answers distinct ``/annotate`` tables sent one at a time (``p50_ms``,
  ``p95_ms``, ``ms_per_op``), with a replay of answered requests after
  every block of fresh ones (``recrawl_ms_per_op``).
* ``serve-search`` — the same server answers a Zipf-like ``/search`` +
  ``/search/join`` mix, the same way.
* ``corpus`` — a fresh process streams a JSONL corpus through
  ``ReproSession.annotate_wire_stream`` (crawl pass, ``ms_per_op``),
  again on the same session (recrawl pass, ``recrawl_ms_per_op``), and
  annotates fresh tables one call at a time (``p50_ms``, ``p95_ms``), a
  slice of each pass per round.

The benchmark and every process it starts run on one CPU, and every time
is scaled to a machine-speed probe run next to it on that CPU (see
``reference.py``), so the metrics read in milliseconds or seconds at a
fixed reference speed rather than at the shared host's momentary speed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that wraps the layers' public calls and reports per-layer self times
(unscaled).  Inputs are generated from ``--seed`` before any timing.  The
last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-annotate", "serve-search", "corpus")

SPEC = ROOT / "BENCHMARK.json"


class Run:
    """Counts and checks shared by every workload."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.record: dict = {}
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env.setdefault("PYTHONHASHSEED", "0")

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.fail(f"{failed} of {attempted} {what} failed")


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
def _annotate_requests(tables) -> list[tuple[str, bytes]]:
    import inputs

    return [
        ("/annotate", json.dumps(inputs.annotate_payload(labeled)).encode("utf-8"))
        for labeled in tables
    ]


def _search_requests(queries) -> list[tuple[str, bytes]]:
    paths = {"search": "/search", "search_join": "/search/join"}
    return [
        (paths[query.endpoint], json.dumps(query.payload).encode("utf-8"))
        for query in queries
    ]


ENDPOINTS = {"/annotate": "annotate", "/search": "search", "/search/join": "search_join"}


def in_process(session, endpoint: str, payload: dict) -> dict:
    """The worker's own work for one request, without the serving tier.

    ``repro.serve`` routes requests the same way inside its worker; the
    benchmark keeps its own copy so the reference answer comes from
    ``ReproSession``, the stable entry point, and not from serving code.
    """
    from repro.api import types

    if endpoint == "annotate":
        return session.annotate(types.AnnotateRequest.from_json(payload)).to_json()
    if endpoint == "search":
        return session.search(types.SearchRequest.from_json(payload)).to_json()
    return session.join_search(types.JoinSearchRequest.from_json(payload)).to_json()


def encode(body: dict) -> bytes:
    from repro.api import types

    return types.encode_json(body).encode("utf-8")


def check_identity(run: Run, session, requests, bodies: list[bytes]) -> int:
    """Compare served bodies byte for byte with the in-process answer."""
    mismatches = 0
    for (path, raw), body in zip(requests, bodies):
        expected = encode(in_process(session, ENDPOINTS[path], json.loads(raw)))
        if expected != body:
            mismatches += 1
    run.count(len(requests), mismatches, "byte-identity comparisons")
    return mismatches


def serve_inputs(run: Run):
    """World, bundle and request streams for one serve workload."""
    import inputs
    import settings

    world = inputs.make_world()
    run.work.mkdir(parents=True, exist_ok=True)
    catalog = inputs.write_world(world, run.work)
    bundle_tables = inputs.make_tables(
        world, settings.WORLD_SEED, settings.BUNDLE_TABLES[run.workload], "bundle"
    )
    corpus = inputs.write_corpus(bundle_tables, run.work / "bundle_corpus.jsonl")
    bundle = run.work / "bundle"
    inputs.build_bundle(ROOT, run.env, catalog, corpus, bundle)

    # the traced run sends the open-loop and split requests, the untraced
    # run the fresh pool
    n_warmup = settings.WARMUP_REQUESTS[run.workload]
    if run.trace:
        n_open = settings.OPEN_REQUESTS[run.workload]
        n_split = settings.SPLIT_REQUESTS[run.workload]
        n_fresh = 0
    else:
        n_open = n_split = 0
        n_fresh = max(
            settings.FRESH_POOL_RATE[run.workload] * run.seconds, 2 * settings.MIN_FRESH
        )
    total = n_warmup + n_open + n_split + n_fresh
    scored = []
    if run.workload == "serve-annotate":
        tables = inputs.make_tables(world, run.seed, total, "request")
        warm = _annotate_requests([inputs.warm_table(world)])
        requests = _annotate_requests(tables)
        truth = tables
    else:
        queries = inputs.make_queries(world, run.seed, total)
        requests = _search_requests(queries)
        truth = queries
        warm = _search_requests(inputs.warm_queries(world))
        scored = inputs.quality_queries(world, bundle_tables)
    cuts = itertools.accumulate([n_warmup, n_open, n_split, n_fresh])
    warmup, opened, split, fresh = (slice(a, b) for a, b in itertools.pairwise([0, *cuts]))
    return dict(
        world=world,
        bundle=bundle,
        warm=warm,
        warmup=requests[warmup],
        warmup_truth=truth[warmup],
        open=requests[opened],
        split=requests[split],
        split_truth=truth[split],
        fresh=requests[fresh],
        quality=_search_requests(scored),
        quality_truth=scored,
    )


def launch(run: Run, bundle: Path, warm, label: str):
    """Start a server and answer the warm requests; returns the server and
    its set-up time (launch to the last warm answer) at reference speed."""
    import reference
    import serve
    import settings

    before = reference.probe(settings.SETUP_PROBES)
    server = serve.Server(ROOT, run.env, bundle, run.work / f"serve-{label}.log")
    try:
        server.wait_ready()
        outcomes, _ = serve.sequential(server.port, warm)
    except BaseException:
        server.stop()
        raise
    failed = sum(outcome.done is None for outcome in outcomes)
    run.count(len(outcomes), failed, "warm requests")
    ready = outcomes[-1].done if outcomes[-1].done is not None else time.perf_counter()
    after = reference.probe(settings.SETUP_PROBES)
    return server, reference.scale(ready - server.started, [before, after])


def latency_percentiles(run: Run, latencies: list[float]) -> tuple[float, float]:
    import stats

    try:
        return stats.percentile(latencies, 0.50), stats.percentile(latencies, 0.95)
    except stats.TooFewSamples as error:
        run.fail(str(error))
        return math.inf, math.inf


def warm_up(run: Run, server, requests) -> list:
    """Untimed requests after set-up, so timing starts on a warm worker."""
    import serve

    outcomes, _ = serve.sequential(server.port, requests)
    run.count(len(outcomes), sum(o.done is None for o in outcomes), "warm-up requests")
    return outcomes


def timed_phase(run: Run, server, data: dict) -> dict:
    """Blocks of fresh requests, each followed by a block of replays.

    Requests go one at a time, each right after a machine-speed probe on
    the same CPU as the server, and each latency is scaled by its block's
    mean probe.  Replays cycle through the requests answered so far, so the
    worker's caches are warm for every one of them.  The phase lasts
    ``--seconds`` and at least until ``MIN_FRESH`` fresh answers; peak
    memory is taken over those first ``MIN_FRESH``.
    """
    import reference
    import serve
    import settings

    size = settings.BLOCK_REQUESTS[run.workload]
    replay_size = settings.REPLAY_REQUESTS[run.workload]
    pids = server.pids()
    pool = data["fresh"]
    answered = list(data["warmup"])
    fresh, replay, probes = [], [], []
    cursor = 0
    peak_mb = 0.0
    start = time.perf_counter()
    deadline = start + run.seconds

    def block(requests, into: list) -> None:
        outcomes, block_probes = serve.sequential(server.port, requests, reference.probe)
        probes.extend(block_probes)
        into.extend(
            (outcome, reference.scale(outcome.latency, block_probes)) for outcome in outcomes
        )

    while len(fresh) < len(pool) and (
        time.perf_counter() < deadline or len(fresh) < settings.MIN_FRESH
    ):
        requests = pool[len(fresh) : len(fresh) + size]
        block(requests, fresh)
        answered += requests
        # memory is sampled between blocks (reading a process's smaps holds
        # its memory-map lock) and only while the fresh requests answered
        # are a fixed set for the seed: the caches grow with every request
        if len(fresh) <= settings.MIN_FRESH:
            peak_mb = max(peak_mb, serve.pss_mb(pids))
        block([answered[(cursor + i) % len(answered)] for i in range(replay_size)], replay)
        cursor += replay_size
    return dict(
        fresh=fresh, replay=replay, probes=probes, peak_mb=peak_mb,
        elapsed=time.perf_counter() - start,
    )


def run_serve(run: Run) -> None:
    import quality
    import reference
    import serve
    import settings
    import stats

    data = serve_inputs(run)
    if run.trace:
        run_serve_traced(run, data)
        return

    # set-up is timed on launches before and after the measured server's
    # life, so the median samples the machine across the whole run
    setups = []
    launches = settings.SERVE_SETUPS // 2
    for attempt in range(launches + 1):
        server, seconds = launch(run, data["bundle"], data["warm"], str(attempt))
        setups.append(seconds)
        if attempt < launches:
            server.stop()
    try:
        warmed = warm_up(run, server, data["warmup"])
        timed = timed_phase(run, server, data)
        # search quality is scored on the fixed Figure-9 query set, sent
        # after the timed phase
        scored, _ = serve.sequential(server.port, data["quality"])
    finally:
        server.stop()
    for attempt in range(launches + 1, settings.SERVE_SETUPS):
        server, seconds = launch(run, data["bundle"], data["warm"], str(attempt))
        setups.append(seconds)
        server.stop()

    fresh = [latency for _, latency in timed["fresh"]]
    replay = [latency for _, latency in timed["replay"]]
    run.count(len(scored), sum(o.done is None for o in scored), "quality queries")
    run.count(len(fresh), fresh.count(math.inf), "fresh requests")
    run.count(len(replay), replay.count(math.inf), "replayed requests")

    p50, p95 = latency_percentiles(run, fresh)
    run.metrics.update(
        p50_ms=1000.0 * p50,
        p95_ms=1000.0 * p95,
        ms_per_op=1000.0 * statistics.fmean(fresh),
        recrawl_ms_per_op=1000.0 * statistics.fmean(replay),
        mem_mb=timed["peak_mb"],
        setup_s=statistics.median(setups),
    )
    raw = [outcome.latency for outcome, _ in timed["fresh"]]
    run.record.update(
        samples={"p50_ms": len(fresh), "p95_ms": len(fresh), "ms_per_op": len(fresh),
                 "recrawl_ms_per_op": len(replay), "setup_s": len(setups)},
        timed_seconds=round(timed["elapsed"], 3),
        probe_ms={"median": round(1000.0 * statistics.median(timed["probes"]), 4),
                  "reference": 1000.0 * reference.REFERENCE_SECONDS},
        unscaled_p50_ms=round(1000.0 * stats.percentile(raw, 0.50, 0), 4),
        setup_seconds=[round(value, 4) for value in setups],
    )

    if run.problems:
        run.metrics["quality"] = 0.0
    elif run.workload == "serve-annotate":
        responses = [json.loads(outcome.body) for outcome in warmed]
        run.metrics["quality"] = quality.cell_accuracy(list(zip(data["warmup_truth"], responses)))
    else:
        pairs = [
            (query.relevant, json.loads(outcome.body))
            for query, outcome in zip(data["quality_truth"], scored)
        ]
        run.metrics["quality"] = quality.search_map(data["world"], pairs)

    # seeded sample of served answers against the in-process session
    from repro.api.session import ReproSession

    answered = data["warmup"] + data["fresh"][: len(fresh)]
    bodies = [o.body for o in warmed] + [o.body for o, _ in timed["fresh"]]
    sample = random.Random(run.seed).sample(
        range(len(answered)), min(settings.IDENTITY_SAMPLE[run.workload], len(answered))
    )
    session = ReproSession.from_bundle(data["bundle"])
    check_identity(
        run, session, [answered[i] for i in sample], [bodies[i] for i in sample]
    )


def _time_requests(call, requests) -> tuple[list[float], list]:
    times, results = [], []
    for path, raw in requests:
        payload = json.loads(raw)
        start = time.perf_counter()
        results.append(call(ENDPOINTS[path], payload))
        times.append(time.perf_counter() - start)
    return times, results


def run_serve_traced(run: Run, data: dict) -> None:
    """Per-layer run: open-loop lateness, then the HTTP / pool / session split.

    The pre-fork worker is a separate process, so the serving tier's share
    comes from timing the same requests three ways, each on its own state:
    over HTTP, through an in-process ``Dispatcher.call`` and straight into
    a ``ReproSession``.  A fourth way repeats the session calls on another
    session with the layer wrappers on.
    """
    import layers
    import serve
    import settings
    import stats
    from spans import Tracer

    server, _ = launch(run, data["bundle"], data["warm"], "open")
    try:
        warm_up(run, server, data["warmup"])
        rate = settings.OFFERED_RATE[run.workload]
        opened = serve.open_loop(server, data["open"], rate, settings.CONNECTIONS)
    finally:
        server.stop()
    run.record.update(offered_rate_per_s=rate, connections=settings.CONNECTIONS)
    run.count(len(opened.outcomes), opened.failed, "open-loop requests")
    late = [outcome.sent - outcome.due for outcome in opened.outcomes]
    run.metrics["bench.late_ms"] = 1000.0 * stats.percentile(late, 0.95)
    # open-loop latency from due time, unscaled: for reading against
    # bench.late_ms, too noisy on a shared host to bound as a metric
    due = stats.due_latencies(
        [outcome.due for outcome in opened.outcomes],
        [outcome.done for outcome in opened.outcomes],
    )
    run.record["open_loop_due_ms"] = {
        "p50": round(1000.0 * stats.percentile(due, 0.50), 4),
        "p95": round(1000.0 * stats.percentile(due, 0.95), 4),
        "samples": len(due),
    }

    from repro.api.config import SessionConfig
    from repro.api.session import ReproSession
    from repro.serve import bundle as bundle_module
    from repro.serve.dispatcher import Dispatcher

    split = data["split"]
    warm = data["warm"] + data["warmup"]
    truth = {
        labeled.table.table_id: dict(labeled.truth.cell_entities)
        for labeled in data["split_truth"]
        if run.workload == "serve-annotate"
    }
    tracer = Tracer()
    server, _ = launch(run, data["bundle"], data["warm"], "split")
    dispatcher = Dispatcher(data["bundle"], config=SessionConfig())
    try:
        warm_up(run, server, data["warmup"])
        _time_requests(dispatcher.call, warm)
        session = ReproSession.from_bundle(data["bundle"])
        untraced_call = lambda endpoint, payload: in_process(  # noqa: E731
            session, endpoint, payload
        )
        _time_requests(untraced_call, warm)
        # the dispatcher's worker is forked above, before any wrapper exists
        tracer.install(layers.targets(truth))
        traced_session = ReproSession.from_bundle(bundle_module.load_bundle(data["bundle"]))
        run.metrics.update(layers.setup_metrics(tracer, 1))
        traced_call = lambda endpoint, payload: in_process(  # noqa: E731
            traced_session, endpoint, payload
        )
        _time_requests(traced_call, warm)
        pipeline = traced_session.pipeline()
        before = layers.cache_counters(pipeline)
        tracer.reset()
        # each request is timed four ways back to back (over HTTP, through
        # an in-process Dispatcher.call, into an untraced and into a traced
        # ReproSession, each with its own state), so the machine's drift
        # cancels out of the differences and the overhead ratio
        http, pool, untraced, traced, bodies = [], [], [], [], []
        for index, request in enumerate(split):
            outcomes, _ = serve.sequential(server.port, [request])
            http += outcomes
            seconds, results = _time_requests(dispatcher.call, [request])
            pool += seconds
            bodies += results
            tracer.enabled = False
            seconds, results = _time_requests(untraced_call, [request])
            untraced += seconds
            bodies += results
            tracer.enabled = True
            tracer.request = str(index)
            with tracer.span("bench.request"):
                seconds, _ = _time_requests(traced_call, [request])
            traced += seconds
        run.metrics.update(layers.layer_metrics(tracer, len(split)))
        run.metrics.update(layers.cache_ratios(pipeline, before))
        run.record["self_time_shares"] = layers.share_table(tracer)
    finally:
        tracer.uninstall()
        dispatcher.shutdown(drain_timeout=10.0)
        server.stop()
    run.record["absent_wrap_targets"] = tracer.absent
    run.count(len(http), sum(outcome.done is None for outcome in http), "HTTP split requests")

    # the pool's and the untraced session's answers alternate in bodies
    expected = [encode(result) for result in bodies[1::2]]
    mismatches = sum(
        encode(result) != body for result, body in zip(bodies[0::2], expected)
    ) + sum(outcome.body != body for outcome, body in zip(http, expected))
    run.count(2 * len(split), mismatches, "split byte-identity comparisons")

    n = len(split)
    run.metrics["serve.http_ms"] = 1000.0 * (
        sum(outcome.latency for outcome in http) - sum(pool)
    ) / n
    run.metrics["serve.pool_ms"] = 1000.0 * (sum(pool) - sum(untraced)) / n
    run.metrics["bench.trace_overhead_ratio"] = sum(traced) / sum(untraced)
    run.record["split_requests"] = n


# ----------------------------------------------------------------------
# corpus workload
# ----------------------------------------------------------------------
def rounds(items: list, count: int) -> list[list]:
    """``items`` cut into ``count`` consecutive, near-equal slices."""
    cuts = [round(len(items) * index / count) for index in range(count + 1)]
    return [items[a:b] for a, b in itertools.pairwise(cuts)]


def run_corpus(run: Run) -> None:
    import inputs
    import layers
    import quality
    import reference
    import settings

    world = inputs.make_world()
    run.work.mkdir(parents=True, exist_ok=True)
    catalog = inputs.write_world(world, run.work)
    # whole pipeline batches per round; every table the session sees (warm,
    # corpus, lone) fits in the compiled-graph cache, so the recrawl pass
    # measures hits, not thrash
    batches = max(1, round(
        run.seconds * settings.CORPUS_TABLES_PER_SECOND
        / (settings.ROUNDS * settings.PIPELINE_BATCH)
    ))
    n_tables = min(
        settings.ROUNDS * settings.PIPELINE_BATCH * batches,
        settings.COMPILED_CACHE_ENTRIES - settings.LONE_TABLES - 48,
    )
    tables = inputs.make_tables(world, run.seed, n_tables + settings.LONE_TABLES, "corpus")
    lone, tables = tables[: settings.LONE_TABLES], tables[settings.LONE_TABLES :]
    corpora, lones = [], []
    for index, (part, lone_part) in enumerate(
        zip(rounds(tables, settings.ROUNDS), rounds(lone, settings.ROUNDS))
    ):
        corpora.append(inputs.write_corpus(part, run.work / f"corpus-{index}.jsonl"))
        lones.append(run.work / f"lone-{index}.requests.jsonl")
        lones[-1].write_text(
            "".join(json.dumps(inputs.annotate_payload(t)) + "\n" for t in lone_part),
            encoding="utf-8",
        )
    warm_path = run.work / "warm.json"
    warm_path.write_text(json.dumps(inputs.warm_table(world).table.to_dict()), encoding="utf-8")
    run.record["corpus_tables"] = len(tables)
    run.record["lone_tables"] = len(lone)
    run.record["compiled_cache_entries"] = settings.COMPILED_CACHE_ENTRIES
    run.record["rounds"] = settings.ROUNDS

    command = [
        sys.executable, str(HERE / "corpus_child.py"),
        "--catalog", str(catalog),
        "--corpus", *map(str, corpora),
        "--warm", str(warm_path),
        "--lone", *map(str, lones),
        "--out", str(run.work),
    ]

    def child(*extra: str) -> dict:
        completed = subprocess.run(
            command + list(extra), cwd=ROOT, env=run.env,
            capture_output=True, text=True, timeout=160,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"corpus process failed:\n{completed.stderr[-3000:]}")
        return json.loads(completed.stdout.strip().splitlines()[-1])

    def setup(report: dict) -> float:
        return reference.scale(report["setup"]["seconds"], report["setup"]["probes"])

    if run.trace:
        baseline = child("--crawl-only")["crawl"]
        report = child("--trace", "1")
    else:
        # set-up is timed in processes before and after the measured one,
        # so the median samples the machine across the whole run
        before = settings.CORPUS_SETUPS // 2
        setups = [setup(child("--setup-only")) for _ in range(before)]
        report = child()
        setups.append(setup(report))
        setups += [
            setup(child("--setup-only"))
            for _ in range(settings.CORPUS_SETUPS - before - 1)
        ]
    run.attempted += 1

    crawl_bytes = (run.work / "crawl.jsonl").read_bytes()
    crawl_lines = crawl_bytes.splitlines()
    run.count(len(tables), max(len(tables) - len(crawl_lines), 0), "corpus tables")
    recrawl_bytes = (run.work / "recrawl.jsonl").read_bytes()
    run.count(1, int(recrawl_bytes != crawl_bytes), "recrawl-equals-crawl checks")

    # seeded sample of corpus answers against one-table session calls
    from repro.api.session import ReproSession

    session = ReproSession.from_world(catalog)
    sample = random.Random(run.seed).sample(
        range(len(tables)), min(settings.IDENTITY_SAMPLE["corpus"], len(tables))
    )
    check_identity(
        run,
        session,
        _annotate_requests([tables[i] for i in sample]),
        [crawl_lines[i] for i in sample],
    )

    if run.trace:
        traced_bytes = (run.work / "traced.jsonl").read_bytes()
        run.count(1, int(traced_bytes != crawl_bytes), "traced-equals-untraced checks")
        run.metrics.update(report["crawl_layers"])
        run.metrics.update(
            {f"recrawl.{name}": report["recrawl_layers"][name] for name in layers.RECRAWL}
        )
        run.metrics.update(report["setup"])
        # the traced and the untraced crawl run in two processes, one after
        # the other, so both are scaled to the reference speed
        run.metrics["bench.trace_overhead_ratio"] = sum(
            reference.scale(part["seconds"], part["probes"]) for part in report["traced_crawl"]
        ) / sum(reference.scale(part["seconds"], part["probes"]) for part in baseline)
        run.record["self_time_shares"] = {
            "crawl": report["crawl_shares"],
            "recrawl": report["recrawl_shares"],
        }
        run.record["absent_wrap_targets"] = report["absent"]
        return

    lone_lines = (run.work / "lone.jsonl").read_bytes().splitlines()
    run.count(len(lone), max(len(lone) - len(lone_lines), 0), "lone annotate calls")
    # each slice is scaled by the probes around it, each lone call by the
    # mean of its round's probes
    passes = {
        name: [reference.scale(part["seconds"], part["probes"]) for part in report[name]]
        for name in ("crawl", "recrawl")
    }
    lone_seconds = [
        reference.scale(seconds, part["probes"])
        for part in report["lone"]
        for seconds in part["seconds"]
    ]
    p50, p95 = latency_percentiles(run, lone_seconds)
    responses = [json.loads(line) for line in crawl_lines]
    run.metrics.update(
        p50_ms=1000.0 * p50,
        p95_ms=1000.0 * p95,
        ms_per_op=1000.0 * sum(passes["crawl"]) / len(tables),
        recrawl_ms_per_op=1000.0 * sum(passes["recrawl"]) / len(tables),
        quality=quality.cell_accuracy(list(zip(tables, responses))),
        mem_mb=report["max_rss_mb"],
        setup_s=statistics.median(setups),
    )
    probes = [
        probe
        for name in ("crawl", "recrawl", "lone")
        for part in report[name]
        for probe in part["probes"]
    ]
    run.record.update(
        samples={"p50_ms": len(lone), "p95_ms": len(lone), "ms_per_op": len(tables),
                 "recrawl_ms_per_op": len(tables), "setup_s": len(setups)},
        phase_seconds={
            name: round(sum(part["seconds"] for part in report[name]), 3)
            for name in ("crawl", "recrawl")
        },
        probe_ms={"median": round(1000.0 * statistics.median(probes), 4),
                  "reference": 1000.0 * reference.REFERENCE_SECONDS},
        setup_seconds=[round(value, 4) for value in setups],
    )


# ----------------------------------------------------------------------
# run record + output
# ----------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None if completed.returncode == 0 else None


def run_record(run: Run) -> dict:
    import numpy
    import scipy

    import settings

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == run.workload)
    return {
        "workload": run.workload,
        "why": why,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "predictions": settings.PREDICTIONS,
        **run.record,
    }


def expected_metrics(run: Run) -> dict[str, str]:
    """Every metric the run reports, with its unit, as BENCHMARK.json lists
    them: each end-to-end metric is defined on every workload."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    kind = "per_layer" if run.trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for the benchmark and every process it starts (see
    # reference.py), set before numpy starts any thread
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.setdefault("PYTHONHASHSEED", "0")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "corpus":
            run_corpus(run)
        else:
            run_serve(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    units = expected_metrics(run)
    missing = [name for name in units if name not in run.metrics]
    record = run_record(run)
    if missing:
        record["not_applicable"] = missing
    metrics = {
        name: {"value": finite(run.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    correct = not run.problems
    print(json.dumps(record, sort_keys=True))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
