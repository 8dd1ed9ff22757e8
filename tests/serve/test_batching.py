"""Serve-time batching: byte-identity, isolation, FIFO.

Every request the dispatcher admits joins one queue; an idle worker takes
the oldest plus — while no other worker is idle — everything queued behind
it, as one worker round trip.  Batching must be invisible in responses:
every answer (success or error envelope) under concurrent serving is
byte-identical to what :meth:`ServeState.handle` returns for the same
payload.  The tests park the one worker of a module-scoped dispatcher with
``_sleep``, so concurrent requests queue up behind it and ride one round
trip together deterministically; the hypothesis test races N client
threads over mixed-shape tables with a poisoned payload riding along.

Also covered here: the queue deadline (a request still queued past
``request_timeout`` fails ``overloaded`` without being shipped), a
``/search`` riding in a batch of annotates, the fused→per-table fallback
when a fused run dies (its ``fallbacks`` counter and WARNING log), and
FIFO admission ordering (:class:`FifoSlots`).
"""

from __future__ import annotations

import copy
import logging
import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.config import ServeConfig, SessionConfig
from repro.api.errors import ApiError
from repro.api.types import ErrorEnvelope, encode_json
from repro.core.fused import fused_runs
from repro.serve.dispatcher import Dispatcher, FifoSlots
from repro.serve.state import ServeState
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)
from repro.tables.model import Table
from tests.serve.conftest import find_productive_query

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the pre-fork tier requires fork"
)

#: a payload the wire layer rejects deterministically (missing table_id)
POISON_PAYLOAD = {"table": {"cells": "not-a-grid"}, "include_timing": False}

#: how long the worker is parked while a test's requests queue up
PARK_SECONDS = 0.25


@pytest.fixture(scope="module")
def dispatcher(bundle_dir):
    """One worker, room to queue every request a test sends at once."""
    d = Dispatcher(
        bundle_dir,
        config=SessionConfig(
            serve=ServeConfig(
                workers=1,
                queue_depth=48,
                shed_timeout_seconds=2.0,
                request_timeout_seconds=30.0,
            )
        ),
    )
    yield d
    d.shutdown(drain_timeout=5.0)


@pytest.fixture(scope="module")
def table_payloads(tiny_world, serve_corpus):
    """Mixed-shape wire payloads: the serve corpus plus a second generator
    run with different shape ranges, so batches span several fused runs."""
    extra = WebTableGenerator(
        tiny_world.full,
        TableGeneratorConfig(
            seed=97, n_tables=8, rows_range=(4, 9), noise=NoiseProfile.WIKI
        ),
    ).generate()
    tables = [labeled.table for labeled in list(serve_corpus) + list(extra)]
    return [
        {"table": table.to_dict(), "include_timing": False}
        for table in tables
    ]


@pytest.fixture(scope="module")
def solo_state(loaded_bundle):
    """The oracle: a plain in-process state answering one request at a time."""
    return ServeState(loaded_bundle)


@pytest.fixture(scope="module")
def solo_responses(solo_state, table_payloads):
    """Byte-level solo reference for every pool payload."""
    return [
        encode_json(solo_state.handle("annotate", payload))
        for payload in table_payloads
    ]


@pytest.fixture(scope="module")
def solo_poison_error(solo_state):
    """The deterministic (code, message) the solo path gives POISON."""
    with pytest.raises(ApiError) as excinfo:
        solo_state.handle("annotate", POISON_PAYLOAD)
    return excinfo.value.code, str(excinfo.value)


def _drive_concurrently(backend, payloads, endpoints=None):
    """POST every payload from its own thread; returns outcomes in order.

    Each outcome is ``("ok", bytes)`` or ``("error", code, message)`` —
    exactly what the HTTP layer would serialize either way.  Endpoints
    default to ``annotate``.
    """
    endpoints = endpoints or ["annotate"] * len(payloads)
    outcomes: list = [None] * len(payloads)

    def client(index: int) -> None:
        try:
            result = backend.call(endpoints[index], payloads[index])
        except ApiError as error:
            outcomes[index] = ("error", error.code, str(error))
        else:
            outcomes[index] = ("ok", encode_json(result))

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(len(payloads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert all(outcome is not None for outcome in outcomes)
    return outcomes


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _shipped(dispatcher) -> int:
    """Worker round trips the dispatcher has shipped so far."""
    histogram = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
    return sum(histogram.values())


def _park(dispatcher, seconds: float = PARK_SECONDS) -> threading.Thread:
    """Busy the worker with ``_sleep`` and return once it has taken it, so
    whatever arrives next queues behind it."""
    shipped = _shipped(dispatcher)
    parked = threading.Thread(
        target=dispatcher.call, args=("_sleep", {"seconds": seconds})
    )
    parked.start()
    _wait_until(lambda: _shipped(dispatcher) > shipped)
    return parked


def _drive_parked(dispatcher, payloads, endpoints=None):
    """:func:`_drive_concurrently` behind a parked worker: every request
    queues, then ships in as few round trips as ``batch_size`` allows."""
    parked = _park(dispatcher)
    try:
        return _drive_concurrently(dispatcher, payloads, endpoints)
    finally:
        parked.join(timeout=30.0)


def _new_batches(before: dict, after: dict) -> dict[int, int]:
    """Round trips shipped between two ``batch_size_histogram`` reads."""
    return {
        int(size): count - before.get(size, 0)
        for size, count in after.items()
        if count > before.get(size, 0)
    }


# ----------------------------------------------------------------------
# FIFO admission (the Semaphore replacement)
# ----------------------------------------------------------------------
def test_fifo_slots_wake_in_arrival_order():
    """Freed slots must go to waiters strictly in arrival order — the
    guarantee ``threading.Semaphore`` does not make."""
    slots = FifoSlots(1)
    assert slots.acquire(timeout=0.1)
    wake_order: list[int] = []
    wake_lock = threading.Lock()

    def waiter(index: int) -> None:
        assert slots.acquire(timeout=10.0)
        with wake_lock:
            wake_order.append(index)

    threads = []
    for index in range(8):
        thread = threading.Thread(target=waiter, args=(index,))
        thread.start()
        threads.append(thread)
        # park deterministically: each waiter must be queued before the
        # next arrives, so arrival order is exactly 0..7
        for _ in range(2000):
            with slots._lock:
                queued = len(slots._waiters)
            if queued == index + 1:
                break
            threading.Event().wait(0.001)
        else:  # pragma: no cover - scheduler stall
            pytest.fail(f"waiter {index} never parked")
    # one release at a time, observing which waiter each slot went to —
    # releasing in a burst would let thread scheduling shuffle the appends
    # even though the grants themselves were FIFO
    for step in range(8):
        slots.release()
        for _ in range(5000):
            with wake_lock:
                woken = len(wake_order)
            if woken == step + 1:
                break
            threading.Event().wait(0.001)
        else:  # pragma: no cover - scheduler stall
            pytest.fail(f"release {step} never woke a waiter")
    for thread in threads:
        thread.join(timeout=10.0)
    assert wake_order == list(range(8))


def test_fifo_slots_timeout_returns_slot():
    """A timed-out waiter must not leak its ticket or a slot."""
    slots = FifoSlots(1)
    assert slots.acquire(timeout=0.1)
    assert not slots.acquire(timeout=0.05)
    slots.release()
    assert slots.acquire(timeout=0.1)


# ----------------------------------------------------------------------
# batching on the one request path
# ----------------------------------------------------------------------
@needs_fork
def test_batching_backend_byte_identity_under_concurrency(
    dispatcher, table_payloads, solo_responses
):
    """Concurrent responses == solo responses, byte for byte, and at least
    one multi-table round trip actually formed."""
    before = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
    indices = list(range(len(table_payloads))) * 2
    outcomes = _drive_parked(dispatcher, [table_payloads[i] for i in indices])
    for slot, index in enumerate(indices):
        assert outcomes[slot] == ("ok", solo_responses[index])
    after = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
    assert any(size > 1 for size in _new_batches(before, after)), after


@needs_fork
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_batching_property_byte_identity_with_poison(
    data, dispatcher, table_payloads, solo_responses, solo_poison_error
):
    """N concurrent clients, mixed shapes, one poisoned table per batch:
    every response byte-identical to the solo path, and the poison never
    takes a batchmate down with it."""
    indices = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(table_payloads) - 1),
            min_size=1,
            max_size=10,
        )
    )
    poison_slot = data.draw(
        st.integers(min_value=0, max_value=len(indices))
    )
    payloads = [table_payloads[i] for i in indices]
    payloads.insert(poison_slot, POISON_PAYLOAD)
    outcomes = _drive_parked(dispatcher, payloads)
    expected_code, expected_message = solo_poison_error
    for slot, outcome in enumerate(outcomes):
        if slot == poison_slot:
            assert outcome == ("error", expected_code, expected_message)
        else:
            index = indices[slot if slot < poison_slot else slot - 1]
            assert outcome == ("ok", solo_responses[index])


@needs_fork
def test_search_rides_behind_annotates(
    dispatcher, tiny_world, loaded_bundle, solo_state, table_payloads,
    solo_responses,
):
    """A ``/search`` queued with annotates ships in the same round trip and
    still matches the solo path byte for byte."""
    relation_id, entity_id = find_productive_query(
        tiny_world, loaded_bundle.table_index
    )
    search = {"relation": relation_id, "entity": entity_id}
    before = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
    outcomes = _drive_parked(
        dispatcher,
        [*table_payloads[:4], search],
        ["annotate"] * 4 + ["search"],
    )
    assert outcomes[:4] == [("ok", body) for body in solo_responses[:4]]
    assert outcomes[4] == (
        "ok",
        encode_json(solo_state.handle("search", search)),
    )
    after = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
    assert _new_batches(before, after) == {1: 1, 5: 1}, after


@needs_fork
def test_request_timeout_is_per_request_not_per_batch(bundle_dir):
    """A request still queued past its own deadline fails ``overloaded``
    without ever being shipped to the worker."""
    d = Dispatcher(
        bundle_dir,
        config=SessionConfig(
            batch_size=1,
            serve=ServeConfig(
                workers=1, queue_depth=4, request_timeout_seconds=0.8
            ),
        ),
    )
    try:
        parked = _park(d, seconds=0.5)
        # queued behind the park; with batch_size=1 it ships alone next
        second = threading.Thread(
            target=d.call, args=("_sleep", {"seconds": 0.5})
        )
        second.start()
        _wait_until(lambda: len(d._current().pending) == 1)
        with pytest.raises(ApiError) as excinfo:
            d.call("annotate", {"table": {"cells": "x"}})
        assert excinfo.value.code == "overloaded"
        assert "no worker became available" in str(excinfo.value)
        parked.join(timeout=10.0)
        second.join(timeout=10.0)
        snapshot = d.dispatch_metrics.snapshot()
        assert snapshot["batch_size_histogram"] == {"1": 2}
        assert snapshot["shed"] == {"queue_wait": 1}
        assert snapshot["in_flight"] == 0
    finally:
        d.shutdown(drain_timeout=5.0)


@needs_fork
def test_batching_over_dispatcher_pool(
    dispatcher, table_payloads, solo_responses, solo_poison_error
):
    """The full stack: queue → one ``requests`` pipe message → worker
    ``handle_requests`` → demultiplexed responses, byte-identical and
    poison-isolated, with the round trip in ``/metrics``."""
    payloads = [POISON_PAYLOAD, *table_payloads[:6]]
    outcomes = _drive_parked(dispatcher, payloads)
    expected_code, expected_message = solo_poison_error
    assert outcomes[0] == ("error", expected_code, expected_message)
    for slot in range(1, len(payloads)):
        assert outcomes[slot] == ("ok", solo_responses[slot - 1])
    histogram = dispatcher.metrics_snapshot()["dispatcher"][
        "batch_size_histogram"
    ]
    assert histogram.get(str(len(payloads)), 0) >= 1, histogram


@needs_fork
def test_round_trip_time_is_split_across_its_requests(dispatcher):
    """Per-worker handler time counts a round trip once: each of its
    requests records an equal share, not the whole trip."""
    (worker,) = dispatcher._current().workers
    before = dispatcher.dispatch_metrics.worker_snapshot(worker.name)
    outcomes = _drive_parked(dispatcher, [{"seconds": 0.1}] * 4, ["_sleep"] * 4)
    assert [outcome[0] for outcome in outcomes] == ["ok"] * 4
    after = dispatcher.dispatch_metrics.worker_snapshot(worker.name)
    # the park (0.25 s) plus one 4-request trip of about 0.4 s
    spent = after["total_seconds"] - before["total_seconds"]
    assert 0.6 <= spent < 1.2, spent


@needs_fork
def test_unplannable_table_fails_only_itself(
    dispatcher, solo_state, table_payloads, solo_responses
):
    """A table the wire decoder refuses (a null cell) fails with the
    envelope :meth:`ServeState.handle` gives it; its batchmates stay
    byte-identical and the worker lives on."""
    broken = copy.deepcopy(table_payloads[0])
    broken["table"]["cells"][0][0] = None
    with pytest.raises(ApiError) as excinfo:
        solo_state.handle("annotate", broken)
    assert excinfo.value.code == "invalid_table"
    expected = ErrorEnvelope.from_error(excinfo.value)
    restarts = dispatcher.dispatch_metrics.snapshot()["worker_restarts"]
    before = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
    outcomes = _drive_parked(dispatcher, [*table_payloads[:4], broken])
    assert outcomes[:4] == [("ok", body) for body in solo_responses[:4]]
    assert outcomes[4] == ("error", expected.code, expected.message)
    after = dispatcher.dispatch_metrics.snapshot()
    assert _new_batches(before, after["batch_size_histogram"]) == {1: 1, 5: 1}
    assert after["worker_restarts"] == restarts


@needs_fork
def test_escaped_exception_fails_the_message_not_the_worker(
    bundle_dir, monkeypatch
):
    """Whatever escapes ``handle_requests`` becomes one error outcome per
    request at the worker's process boundary; the worker is not replaced."""

    def boom(self, items):
        raise RuntimeError("handler bug")

    # patched before the fork, so the worker inherits it
    monkeypatch.setattr(ServeState, "handle_requests", boom)
    d = Dispatcher(bundle_dir, config=SessionConfig(serve=ServeConfig(workers=1)))
    try:
        for _ in range(2):
            with pytest.raises(ApiError) as excinfo:
                d.call("_sleep", {"seconds": 0})
            assert excinfo.value.code == "internal_error"
            assert "handler bug" in str(excinfo.value)
        assert d.dispatch_metrics.snapshot()["worker_restarts"] == 0
    finally:
        d.shutdown(drain_timeout=5.0)


# ----------------------------------------------------------------------
# fused-run failures inside one worker message
# ----------------------------------------------------------------------
def _annotates(payloads):
    return [("annotate", payload) for payload in payloads]


def test_fused_chunk_failure_falls_back_per_table(
    loaded_bundle, table_payloads, solo_responses, monkeypatch
):
    """A multi-table fused super-graph blowing up must degrade to
    per-table execution with identical responses, not fail the batch."""
    import repro.pipeline.pipeline as pipeline_module

    fused = pipeline_module.annotate_fused_chunk

    def explode(annotator, tables):
        if len(tables) > 1:
            raise RuntimeError("fused graph corrupted")
        return fused(annotator, tables)

    monkeypatch.setattr(pipeline_module, "annotate_fused_chunk", explode)
    state = ServeState(loaded_bundle)
    results = state.handle_requests(_annotates(table_payloads))
    assert [
        ("ok", encode_json(outcome["ok"])) for outcome in results
    ] == [("ok", reference) for reference in solo_responses]
    assert state.cache_stats()["fusion"]["fallbacks"] >= 1


#: a cell text the poisoned candidate engine below refuses to resolve
POISON_CELL = "poison cell"


def _poison_candidates(state, monkeypatch) -> list[int]:
    """Make the state's candidate lookup raise on :data:`POISON_CELL`;
    returns the list its calls are counted in."""
    engine = state.pipeline().annotator.candidate_engine
    resolve = engine.cell_candidates_batch
    calls: list[int] = []

    def poisoned(texts, cache=None):
        calls.append(1)
        if POISON_CELL in texts:
            raise RuntimeError("candidate index corrupted")
        return resolve(texts, cache)

    monkeypatch.setattr(engine, "cell_candidates_batch", poisoned)
    return calls


def _poisoned_twin(payload: dict) -> dict:
    twin = copy.deepcopy(payload)
    twin["table"]["table_id"] = "poisoned"
    twin["table"]["cells"][0][0] = POISON_CELL
    return twin


def test_repeats_are_answered_from_the_answer_cache(
    loaded_bundle, solo_state, table_payloads, monkeypatch
):
    """A table already annotated alone is answered from the answer cache
    when it comes back with a batchmate it would share a fused run with,
    and again under a new id in the same batch; only the new table is
    computed, and every response is byte-identical to a solo
    ``annotate``."""
    import repro.pipeline.pipeline as pipeline_module

    computed: list[str] = []
    fused = pipeline_module.annotate_fused_chunk

    def recorded(annotator, tables):
        computed.extend(table.table_id for table in tables)
        return fused(annotator, tables)

    monkeypatch.setattr(pipeline_module, "annotate_fused_chunk", recorded)
    state = ServeState(loaded_bundle)
    seen = table_payloads[0]
    state.handle("annotate", seen)
    computed.clear()  # the warm-up ran through the stub as a run of one
    twin = copy.deepcopy(seen)
    twin["table"]["table_id"] = "twin"
    twin["table"]["cells"][0][0] = "another cell"
    # uncached, the twin would share one fused run with its batchmate
    tables = [Table.from_dict(payload["table"]) for payload in (seen, twin)]
    assert list(fused_runs(tables, state.pipeline().config.batch_size)) == [
        tables
    ]
    renamed = copy.deepcopy(seen)
    renamed["table"]["table_id"] = "renamed"
    answers = state.pipeline().answer_cache
    before = answers.stats()
    results = state.handle_requests(_annotates([seen, twin, renamed]))
    after = answers.stats()
    # checked before the solo comparisons below, which run through the stub
    assert computed == ["twin"]
    assert [encode_json(outcome["ok"]) for outcome in results] == [
        encode_json(solo_state.handle("annotate", payload))
        for payload in (seen, twin, renamed)
    ]
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


def test_poisoned_batchmate_counts_one_fallback(
    loaded_bundle, table_payloads, solo_responses, monkeypatch, caplog
):
    """A table that fails inside annotation takes its fused run down;
    the run reruns table by table, the rerun is counted exactly once in
    the pipeline's ``fusion`` counters and logged at WARNING, and every
    batchmate's response stays byte-identical to a solo ``annotate``."""
    state = ServeState(loaded_bundle)
    _poison_candidates(state, monkeypatch)
    twin = _poisoned_twin(table_payloads[0])
    batch = [table_payloads[0], twin] + table_payloads[1:]
    # the poisoned table shares one fused run with its twin
    tables = [Table.from_dict(payload["table"]) for payload in batch]
    first_run = next(fused_runs(tables, state.pipeline().config.batch_size))
    assert [table.table_id for table in first_run[:2]] == [
        tables[0].table_id,
        "poisoned",
    ]

    before = state.cache_stats()["fusion"]["fallbacks"]
    with caplog.at_level(logging.WARNING, logger="repro.pipeline.pipeline"):
        results = state.handle_requests(_annotates(batch))
    assert state.cache_stats()["fusion"]["fallbacks"] == before + 1
    assert [
        encode_json(outcome["ok"]) for outcome in results[:1] + results[2:]
    ] == solo_responses
    assert results[1]["error"]["error"]["code"] == "internal_error"
    warnings = [
        record for record in caplog.records if record.levelno == logging.WARNING
    ]
    assert len(warnings) == 1
    assert "rerunning them one at a time" in warnings[0].getMessage()
    assert "candidate index corrupted" in str(warnings[0].exc_info[1])


def test_lone_failing_table_is_not_rerun(
    loaded_bundle, table_payloads, monkeypatch, caplog
):
    """A run of one has no batchmates to protect: its failure is the
    table's own error — the envelope :meth:`ServeState.handle` gives — after
    one candidate lookup, with no rerun, fallback or warning."""
    state = ServeState(loaded_bundle)
    calls = _poison_candidates(state, monkeypatch)
    twin = _poisoned_twin(table_payloads[0])
    before = state.cache_stats()["fusion"]["fallbacks"]
    with caplog.at_level(logging.WARNING, logger="repro.pipeline.pipeline"):
        (outcome,) = state.handle_requests(_annotates([twin]))
    assert len(calls) == 1
    assert state.cache_stats()["fusion"]["fallbacks"] == before
    assert not caplog.records
    with pytest.raises(RuntimeError) as excinfo:
        state.handle("annotate", twin)
    assert outcome == {"error": ErrorEnvelope.from_error(excinfo.value).to_json()}
