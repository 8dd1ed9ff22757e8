"""Load benchmark for the pre-fork serving tier: throughput vs workers.

The serving story of the deployment section: one read-only bundle, N forked
workers sharing its pages, a dispatcher load-balancing a closed-loop client
population.  This bench drives the same annotate traffic through pools of
increasing size and records aggregate throughput and client-side latency
percentiles per worker count into ``BENCH_serve.json``.

Two invariants are asserted at every scale, then a cpu-aware scaling gate:

* **byte identity** — every response at every worker count is byte-identical
  to the single-worker response for the same table (the pool must be an
  invisible optimisation);
* **no drops** — the admission queue is sized so the closed-loop population
  never sheds; every request succeeds.
* **scaling** — with >= 4 CPUs a 4-worker pool must beat one worker by the
  gated ratio (>= 2.5x full-scale, >= 1.6x at CI smoke scale, where the
  corpus is small enough that fixed costs blunt the slope).  On fewer CPUs
  the gate degrades to a bounded-overhead check: the pool pays fork +
  pipe + dispatch bookkeeping, and on one core that machinery must not
  cost more than about half the inline throughput.  The committed
  ``BENCH_serve.json`` records ``cpu_count`` next to every number, so a
  1-core container's honest numbers are never mistaken for a scaling
  failure.

The scaling section's request tables are all distinct: repeated tables
would hit the workers' answer caches and measure queueing machinery
rather than annotation.

A second section, ``batching``, drives one single-worker dispatcher at
concurrency 1, 8 and 32.  The dispatcher has one request path: an idle
worker takes everything queued (up to ``batch_size``), so concurrency 1 is
a batch of one per round trip and concurrent requests ride fused batches
by themselves.  It measures two kinds of traffic — ``distinct`` (tables
never served before) and ``repeated`` (replays of tables already served
alone, answered from the worker's answer cache) — and records throughput + p50/p99
per concurrency, the ``/metrics`` batch-size histogram, and a
``byte_identical`` flag asserting every response matches the table served
alone byte for byte.

Run with ``REPRO_BENCH_SMOKE=1`` for the CI-scale variant.
"""

from __future__ import annotations

import hashlib
import os
import queue
import random
import statistics
import threading
import time
from collections import Counter

from repro.api.config import ServeConfig, SessionConfig
from repro.api.types import encode_json
from repro.eval.reporting import format_table
from repro.serve.bundle import build_bundle
from repro.serve.dispatcher import Dispatcher
from repro.serve.metrics import percentile
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: pool sizes measured (1 is the scaling denominator)
WORKER_COUNTS = (1, 2, 4)
#: distinct request tables (each annotated once per pool size)
N_TABLES = 32 if SMOKE else 96
#: closed-loop clients per measured pool size
CLIENTS = 8


def _build_request_corpus(world):
    """Distinct request tables + a few warmup tables, all over the world."""
    tables = WebTableGenerator(
        world.full,
        TableGeneratorConfig(
            seed=1117, n_tables=N_TABLES + 4, noise=NoiseProfile.WIKI
        ),
    ).generate()
    payloads = [
        {"table": labeled.table.to_dict(), "include_timing": False}
        for labeled in tables[:N_TABLES]
    ]
    warmup = [
        {"table": labeled.table.to_dict(), "include_timing": False}
        for labeled in tables[N_TABLES:]
    ]
    return payloads, warmup


def _drive(dispatcher: Dispatcher, payloads: list[dict], clients: int):
    """Closed-loop load: ``clients`` threads drain the request set once.

    Returns (wall_seconds, sorted per-request latencies, responses by
    payload index).
    """
    work: queue.Queue[int] = queue.Queue()
    for index in range(len(payloads)):
        work.put(index)
    latencies: list[float] = []
    responses: dict[int, dict] = {}
    failures: list[Exception] = []
    lock = threading.Lock()

    def client() -> None:
        while True:
            try:
                index = work.get_nowait()
            except queue.Empty:
                return
            started = time.perf_counter()
            try:
                response = dispatcher.call("annotate", payloads[index])
            except Exception as error:  # noqa: BLE001 - recorded, re-raised
                with lock:
                    failures.append(error)
                return
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                responses[index] = response

    threads = [threading.Thread(target=client) for _ in range(clients)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    if failures:
        raise AssertionError(f"load run failed: {failures[0]!r}") from failures[0]
    return wall, sorted(latencies), responses


def test_serve_load_scaling(bench_world, tmp_path, emit, emit_json):
    bundle_path = tmp_path / "bundle"
    # the bundle corpus only feeds /search; /annotate traffic carries its
    # own tables, so a handful of tables keeps bundle build out of the cost
    bundle_corpus = WebTableGenerator(
        bench_world.full,
        TableGeneratorConfig(seed=5, n_tables=8, noise=NoiseProfile.WIKI),
    ).generate()
    build_bundle(bundle_path, bench_world.annotator_view, bundle_corpus)
    payloads, warmup = _build_request_corpus(bench_world)

    cpu_count = os.cpu_count() or 1
    results: dict[int, dict] = {}
    reference_digests: dict[int, str] = {}

    for workers in WORKER_COUNTS:
        config = SessionConfig(
            serve=ServeConfig(
                workers=workers,
                queue_depth=len(payloads) + CLIENTS,  # never shed
                shed_timeout_seconds=60.0,
                request_timeout_seconds=600.0,
            )
        )
        dispatcher = Dispatcher(bundle_path, config=config)
        try:
            # one pass of warmup tables per worker: first-request costs
            # (lazy pipeline state) stay out of the measurement
            _drive(dispatcher, warmup * workers, clients=workers)
            wall, latencies, responses = _drive(
                dispatcher, payloads, clients=CLIENTS
            )
            snapshot = dispatcher.dispatch_metrics.snapshot()
        finally:
            dispatcher.shutdown(drain_timeout=10.0)

        assert len(responses) == len(payloads), "requests were dropped"
        assert snapshot["shed_total"] == 0, "load run shed requests"
        digests = {
            index: hashlib.sha256(
                encode_json(response).encode("utf-8")
            ).hexdigest()
            for index, response in responses.items()
        }
        if not reference_digests:
            reference_digests = digests
        else:
            assert digests == reference_digests, (
                f"{workers}-worker responses diverged from 1-worker responses"
            )
        results[workers] = {
            "wall_seconds": round(wall, 4),
            "throughput_rps": round(len(payloads) / wall, 3),
            "latency_seconds": {
                "p50": round(percentile(latencies, 0.50), 5),
                "p99": round(percentile(latencies, 0.99), 5),
                "max": round(latencies[-1], 5),
            },
            "queue_wait_p99": snapshot["queue_wait_seconds"]["p99"],
        }

    base = results[WORKER_COUNTS[0]]["throughput_rps"]
    scaling = {
        str(workers): round(results[workers]["throughput_rps"] / base, 3)
        for workers in WORKER_COUNTS
    }

    emit(
        "serve_load_scaling",
        format_table(
            ["workers", "throughput rps", "p50 s", "p99 s", "vs 1 worker"],
            [
                [
                    workers,
                    results[workers]["throughput_rps"],
                    results[workers]["latency_seconds"]["p50"],
                    results[workers]["latency_seconds"]["p99"],
                    f'{scaling[str(workers)]:.2f}x',
                ]
                for workers in WORKER_COUNTS
            ],
            title=(
                "Serving tier — annotate throughput vs pre-fork workers "
                f"({N_TABLES} distinct tables, {CLIENTS} clients, "
                f"{cpu_count} CPU core(s))"
            ),
        ),
    )
    emit_json(
        "serve",
        "load_scaling",
        {
            "cpu_count": cpu_count,
            "tables": len(payloads),
            "clients": CLIENTS,
            "byte_identical_across_worker_counts": True,
            "per_workers": {str(w): results[w] for w in WORKER_COUNTS},
            "scaling_vs_one_worker": scaling,
        },
    )

    ratio_at_4 = scaling["4"]
    if cpu_count >= 4:
        # the tentpole's reason to exist: near-linear aggregate scaling
        assert ratio_at_4 >= (1.6 if SMOKE else 2.5), (
            f"4-worker scaling {ratio_at_4:.2f}x below the gate on "
            f"{cpu_count} CPUs"
        )
    elif cpu_count >= 2:
        assert scaling["2"] >= 0.9, (
            f"2 workers on {cpu_count} CPUs should roughly hold throughput, "
            f"got {scaling['2']:.2f}x"
        )
    else:
        # one core: pool machinery may cost, but boundedly (measured ~0.48x
        # in the 1-core container; 0.35 leaves noise headroom)
        assert ratio_at_4 >= 0.35, (
            f"pool overhead on 1 CPU too high: {ratio_at_4:.2f}x"
        )


#: closed-loop client populations for the batching section (1 = no overlap)
BATCHING_CONCURRENCY = (1, 8, 32)
#: distinct request tables per measured pass of the batching section (a
#: repeated pass replays the BATCHING_ROUNDS concurrency-1 sets at once)
BATCHING_TABLES = 32 if SMOKE else 96
#: requests one worker round trip may carry in the batching section
BATCHING_BATCH_SIZE = 32
#: interleaved passes per concurrency and traffic kind; throughput is the
#: median pass
BATCHING_ROUNDS = 5
#: concurrency-32 over concurrency-1 throughput floors per traffic kind.
#: Seven recorded smoke runs on a 2-core VM: distinct 1.00x-1.32x (median
#: 1.08x), repeated 1.61x-2.15x (median 1.79x).  Six runs of the same
#: smoke bench with the former compiled-graph cache read distinct
#: 0.99x-1.18x and repeated 1.04x-1.26x.
BATCHING_SPEEDUP_FLOORS = {"distinct": 1.0, "repeated": 0.9}


def _build_batching_corpus(world):
    """Distinct request tables of similar size.

    The generator's row range is narrowed to 8-12 rows so every table costs
    about the same and passes stay comparable.  Fusion does not depend on
    it: a coalesced batch's misses are cut, in arrival order, into fused
    runs under one cell budget whatever their shapes.  Returns one table
    set per (round, concurrency) pass plus a few warm-up tables.
    """
    passes = [
        (round_index, clients)
        for round_index in range(BATCHING_ROUNDS)
        for clients in BATCHING_CONCURRENCY
    ]
    tables = WebTableGenerator(
        world.full,
        TableGeneratorConfig(
            seed=2229,
            n_tables=len(passes) * BATCHING_TABLES + 4,
            rows_range=(8, 12),
            noise=NoiseProfile.WIKI,
        ),
    ).generate()
    payloads = [
        {"table": labeled.table.to_dict(), "include_timing": False}
        for labeled in tables
    ]
    sets = {
        key: payloads[slot * BATCHING_TABLES : (slot + 1) * BATCHING_TABLES]
        for slot, key in enumerate(passes)
    }
    return sets, payloads[len(passes) * BATCHING_TABLES :]


class _Level:
    """Every measured pass of one (traffic, concurrency) level."""

    def __init__(self) -> None:
        self.tables = 0
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.histogram: Counter[str] = Counter()

    def measure(self, dispatcher: Dispatcher, payloads: list[dict], clients: int):
        """One closed-loop pass; returns the response digests by payload."""
        before = _histogram(dispatcher)
        wall, times, responses = _drive(dispatcher, payloads, clients=clients)
        self.histogram += _histogram(dispatcher) - before
        assert len(responses) == len(payloads), "requests dropped"
        self.tables = len(payloads)
        self.walls.append(wall)
        self.latencies.extend(times)
        return {index: _digest(response) for index, response in responses.items()}

    def summary(self) -> dict:
        ordered = sorted(self.latencies)
        return {
            "tables_per_pass": self.tables,
            "wall_seconds": [round(wall, 4) for wall in self.walls],
            "throughput_rps": round(self.tables / statistics.median(self.walls), 3),
            "latency_seconds": {
                "p50": round(percentile(ordered, 0.50), 5),
                "p99": round(percentile(ordered, 0.99), 5),
                "max": round(ordered[-1], 5),
            },
            "batch_size_histogram": dict(
                sorted(self.histogram.items(), key=lambda item: int(item[0]))
            ),
        }


def test_serve_batching(bench_world, tmp_path, emit, emit_json):
    """Batching on the one request path: throughput vs concurrency.

    One 1-worker dispatcher (default caches) serves closed-loop passes at
    concurrency 1, 8 and 32.  An idle worker takes everything queued, so
    concurrency 1 is a batch of one per round trip and higher concurrency
    rides fused batches by itself; ``/metrics`` reports the batch sizes
    that formed.  Two kinds of traffic, rounds interleaved:

    * **distinct** — every pass serves tables never served before;
    * **repeated** — every pass replays all the tables the distinct
      concurrency-1 passes served alone, shuffled so batch groupings do
      not recur.  Every repeat is answered from the answer cache before
      any planning, so this is the replay case a batching path could
      lose to one request at a time.

    Every response must be byte-identical to the table served alone, and
    concurrency 32 must keep up with concurrency 1 on both kinds of
    traffic (the floors below).
    """
    bundle_path = tmp_path / "bundle"
    bundle_corpus = WebTableGenerator(
        bench_world.full,
        TableGeneratorConfig(seed=5, n_tables=8, noise=NoiseProfile.WIKI),
    ).generate()
    build_bundle(bundle_path, bench_world.annotator_view, bundle_corpus)
    sets, warmup = _build_batching_corpus(bench_world)

    cpu_count = os.cpu_count() or 1
    config = SessionConfig(
        batch_size=BATCHING_BATCH_SIZE,
        serve=ServeConfig(
            workers=1,  # isolate the batching effect from pool scaling
            queue_depth=BATCHING_TABLES + max(BATCHING_CONCURRENCY),
            shed_timeout_seconds=60.0,
            request_timeout_seconds=600.0,
        ),
    )
    dispatcher = Dispatcher(bundle_path, config=config)
    levels = {
        (traffic, clients): _Level()
        for traffic in ("distinct", "repeated")
        for clients in BATCHING_CONCURRENCY
    }
    digests: dict[tuple[int, int], dict[int, str]] = {}
    byte_identical = True
    try:
        # warm the lazy pipeline state and fused kernels both ways
        _drive(dispatcher, warmup, clients=1)
        _drive(dispatcher, warmup * 4, clients=8)
        # interleaved rounds: machine drift lands on every level alike
        for round_index in range(BATCHING_ROUNDS):
            for clients in BATCHING_CONCURRENCY:
                digests[round_index, clients] = levels["distinct", clients].measure(
                    dispatcher, sets[round_index, clients], clients
                )
        served_alone = [
            (payload, digests[round_index, 1][index])
            for round_index in range(BATCHING_ROUNDS)
            for index, payload in enumerate(sets[round_index, 1])
        ]
        for round_index in range(BATCHING_ROUNDS):
            for clients in BATCHING_CONCURRENCY:
                replay = random.Random(round_index * 1000 + clients).sample(
                    served_alone, len(served_alone)
                )
                replayed = levels["repeated", clients].measure(
                    dispatcher, [payload for payload, _reference in replay], clients
                )
                byte_identical = byte_identical and all(
                    replayed[slot] == reference
                    for slot, (_payload, reference) in enumerate(replay)
                )
        # the solo reference for the distinct tables that ran batched
        for (round_index, clients), batched in digests.items():
            if clients > 1:
                _wall, _times, alone = _drive(
                    dispatcher, sets[round_index, clients], clients=1
                )
                byte_identical = byte_identical and batched == {
                    index: _digest(response) for index, response in alone.items()
                }
    finally:
        dispatcher.shutdown(drain_timeout=10.0)

    traffic_summary: dict[str, dict[str, dict]] = {}
    for traffic in ("distinct", "repeated"):
        entries = {
            str(clients): levels[traffic, clients].summary()
            for clients in BATCHING_CONCURRENCY
        }
        base = entries["1"]["throughput_rps"]
        for entry in entries.values():
            entry["speedup_vs_concurrency_1"] = round(
                entry["throughput_rps"] / base, 3
            )
        traffic_summary[traffic] = entries
    emit(
        "serve_batching",
        format_table(
            ["traffic", "clients", "rps", "vs 1 client", "p50 s", "p99 s", "batches"],
            [
                [
                    traffic,
                    clients,
                    entry["throughput_rps"],
                    f'{entry["speedup_vs_concurrency_1"]:.2f}x',
                    entry["latency_seconds"]["p50"],
                    entry["latency_seconds"]["p99"],
                    entry["batch_size_histogram"],
                ]
                for traffic, entries in traffic_summary.items()
                for clients, entry in entries.items()
            ],
            title=(
                "Serving tier — one request path, batches by concurrency "
                f"(1 worker, batch_size {BATCHING_BATCH_SIZE}, "
                f"{cpu_count} CPU core(s))"
            ),
        ),
    )
    emit_json(
        "serve",
        "batching",
        {
            "cpu_count": cpu_count,
            "workers": 1,
            "batch_size": BATCHING_BATCH_SIZE,
            "rounds": BATCHING_ROUNDS,
            "byte_identical": byte_identical,
            **traffic_summary,
        },
    )

    # batching must be invisible in the responses
    assert byte_identical
    # and keep up with one request at a time once requests overlap
    top = str(max(BATCHING_CONCURRENCY))
    for traffic, floor in BATCHING_SPEEDUP_FLOORS.items():
        speedup = traffic_summary[traffic][top]["speedup_vs_concurrency_1"]
        assert speedup >= floor, (
            f"{traffic} concurrency-{top} throughput {speedup:.2f}x of "
            f"concurrency 1, below the {floor}x floor"
        )


def _digest(response: dict) -> str:
    return hashlib.sha256(encode_json(response).encode("utf-8")).hexdigest()


def _histogram(dispatcher: Dispatcher) -> Counter[str]:
    """``/metrics`` ``dispatcher.batch_size_histogram`` right now."""
    return Counter(
        dispatcher.metrics_snapshot()["dispatcher"]["batch_size_histogram"]
    )
