"""Serve-time dynamic micro-batching: byte-identity, isolation, FIFO.

The coalescer's contract is that batching must be invisible in responses:
every ``/annotate`` answer (success or error envelope) under concurrent
batched serving is byte-identical to what the inline unbatched backend
returns for the same payload.  The hypothesis test races N client threads
against a :class:`BatchingBackend` over mixed-shape tables with a poisoned
payload riding along, and checks every response byte-for-byte against solo
references.

Also covered here: per-request deadline enforcement (``request_timeout``
is per request, not per batch), the fused→per-table fallback when a fused
chunk dies (and its ``fallbacks`` counter), solo bypass for non-annotate
endpoints, FIFO admission ordering (:class:`FifoSlots`), and the whole
``batch`` pipe message end to end on a real pre-fork dispatcher.
"""

from __future__ import annotations

import copy
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.config import ServeConfig, SessionConfig
from repro.api.errors import ApiError
from repro.api.types import encode_json
from repro.serve.dispatcher import BatchingBackend, Dispatcher, FifoSlots
from repro.serve.server import InlineBackend
from repro.pipeline.planner import table_signature
from repro.serve.state import ServeState
from repro.tables.generator import (
    NoiseProfile,
    TableGeneratorConfig,
    WebTableGenerator,
)
from repro.tables.model import Table
from tests.serve.conftest import find_productive_query

#: a payload the wire layer rejects deterministically (missing table_id)
POISON_PAYLOAD = {"table": {"cells": "not-a-grid"}, "include_timing": False}


def _batching_config(
    max_batch_size: int = 8,
    batch_wait_ms: float = 25.0,
    request_timeout: float = 30.0,
    workers: int = 1,
) -> SessionConfig:
    return SessionConfig(
        serve=ServeConfig(
            workers=workers,
            queue_depth=32,
            shed_timeout_seconds=2.0,
            request_timeout_seconds=request_timeout,
            batching=True,
            max_batch_size=max_batch_size,
            batch_wait_ms=batch_wait_ms,
        )
    )


@pytest.fixture(scope="module")
def table_payloads(tiny_world, serve_corpus):
    """Mixed-shape wire payloads: the serve corpus plus a second generator
    run with different shape ranges, so batches span several buckets."""
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
    """The oracle: a plain unbatched inline state."""
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
    """The deterministic (code, message) the unbatched path gives POISON."""
    with pytest.raises(ApiError) as excinfo:
        solo_state.handle("annotate", POISON_PAYLOAD)
    return excinfo.value.code, str(excinfo.value)


def _drive_concurrently(backend, payloads):
    """POST every payload from its own thread; returns outcomes in order.

    Each outcome is ``("ok", bytes)`` or ``("error", code, message)`` —
    exactly what the HTTP layer would serialize either way.
    """
    outcomes: list = [None] * len(payloads)

    def client(index: int) -> None:
        try:
            result = backend.call("annotate", payloads[index])
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
# the coalescer over the inline backend
# ----------------------------------------------------------------------
def test_batching_backend_byte_identity_under_concurrency(
    loaded_bundle, table_payloads, solo_responses
):
    """Concurrent batched responses == solo responses, byte for byte, and
    at least one multi-table fused batch actually formed."""
    backend = BatchingBackend(
        InlineBackend(ServeState(loaded_bundle)),
        config=_batching_config(max_batch_size=16, batch_wait_ms=50.0),
    )
    try:
        indices = list(range(len(table_payloads))) * 2
        outcomes = _drive_concurrently(
            backend, [table_payloads[i] for i in indices]
        )
        for slot, index in enumerate(indices):
            assert outcomes[slot] == ("ok", solo_responses[index])
        snapshot = backend.batch_metrics.snapshot()
        assert snapshot["batched_requests"] == len(indices)
        assert any(
            int(size) > 1 for size in snapshot["batch_size_histogram"]
        ), snapshot
    finally:
        backend.shutdown(drain_timeout=5.0)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_batching_property_byte_identity_with_poison(
    data, loaded_bundle, table_payloads, solo_responses, solo_poison_error
):
    """N concurrent clients, mixed shapes, one poisoned table per batch:
    every response byte-identical to the inline unbatched backend, and the
    poison never takes a batchmate down with it."""
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
    backend = BatchingBackend(
        InlineBackend(ServeState(loaded_bundle)),
        config=_batching_config(max_batch_size=16, batch_wait_ms=30.0),
    )
    try:
        outcomes = _drive_concurrently(backend, payloads)
    finally:
        backend.shutdown(drain_timeout=5.0)
    expected_code, expected_message = solo_poison_error
    for slot, outcome in enumerate(outcomes):
        if slot == poison_slot:
            assert outcome == ("error", expected_code, expected_message)
        else:
            index = indices[slot if slot < poison_slot else slot - 1]
            assert outcome == ("ok", solo_responses[index])


def test_engine_override_bypasses_batching(
    loaded_bundle, tiny_world, solo_state
):
    """Non-annotate requests run solo — and still match the unbatched
    backend byte for byte."""
    backend = BatchingBackend(
        InlineBackend(ServeState(loaded_bundle)),
        config=_batching_config(),
    )
    try:
        relation_id, entity_id = find_productive_query(
            tiny_world, loaded_bundle.table_index
        )
        payload = {"relation": relation_id, "entity": entity_id}
        result = backend.call("search", payload)
        assert encode_json(result) == encode_json(
            solo_state.handle("search", payload)
        )
        snapshot = backend.batch_metrics.snapshot()
        assert snapshot["solo_requests"] == 1
        assert snapshot["batched_requests"] == 0
    finally:
        backend.shutdown(drain_timeout=5.0)


def test_request_timeout_is_per_request_not_per_batch(loaded_bundle):
    """A request whose own deadline passes while the batch is still being
    held must fail overloaded instead of riding along late."""
    backend = BatchingBackend(
        InlineBackend(ServeState(loaded_bundle)),
        config=_batching_config(
            batch_wait_ms=300.0, request_timeout=0.01
        ),
    )
    try:
        with pytest.raises(ApiError) as excinfo:
            backend.call(
                "annotate", {"table": {"cells": "x"}, "include_timing": False}
            )
        assert excinfo.value.code == "overloaded"
        assert "batching queue" in str(excinfo.value)
    finally:
        backend.shutdown(drain_timeout=5.0)


def test_fused_chunk_failure_falls_back_per_table(
    loaded_bundle, table_payloads, solo_responses, monkeypatch
):
    """A fused super-graph blowing up must degrade to per-table execution
    with identical responses, not fail the whole batch."""
    import repro.api.session as session_module

    def explode(*args, **kwargs):
        raise RuntimeError("fused graph corrupted")

    monkeypatch.setattr(session_module, "annotate_fused_chunk", explode)
    state = ServeState(loaded_bundle)
    results = state.handle_batch("annotate", table_payloads)["results"]
    assert [
        ("ok", encode_json(outcome["ok"])) for outcome in results
    ] == [("ok", reference) for reference in solo_responses]


# ----------------------------------------------------------------------
# the batch message end to end on a real pre-fork pool
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the pre-fork tier requires fork"
)
def test_batching_over_dispatcher_pool(
    bundle_dir, table_payloads, solo_responses, solo_poison_error
):
    """The full stack: coalescer → dispatcher → ``batch`` pipe message →
    worker ``handle_batch`` → demultiplexed responses, byte-identical and
    poison-isolated."""
    config = _batching_config(max_batch_size=8, batch_wait_ms=40.0)
    dispatcher = Dispatcher(bundle_dir, config=config)
    backend = BatchingBackend(dispatcher, config=config)
    try:
        payloads = [POISON_PAYLOAD, *table_payloads[:6]]
        outcomes = _drive_concurrently(backend, payloads)
        expected_code, expected_message = solo_poison_error
        assert outcomes[0] == ("error", expected_code, expected_message)
        for slot in range(1, len(payloads)):
            assert outcomes[slot] == ("ok", solo_responses[slot - 1])
        snapshot = backend.metrics_snapshot()
        assert snapshot["batching"]["enabled"] is True
        assert snapshot["batching"]["batched_requests"] == len(payloads)
    finally:
        backend.shutdown(drain_timeout=10.0)


#: a cell text the poisoned candidate generator below refuses to resolve
POISON_CELL = "poison cell"


def test_poisoned_batchmate_counts_one_fallback(
    loaded_bundle, table_payloads, solo_responses, monkeypatch
):
    """A table that fails inside annotation takes its fused bucket down;
    the bucket reruns table by table, the rerun is counted exactly once in
    the pipeline's ``fusion`` counters, and every batchmate's response stays
    byte-identical to a solo ``annotate``."""
    state = ServeState(loaded_bundle)
    generator = state.pipeline().annotator.candidate_generator
    resolve = generator.cell_candidates_batch

    def poisoned(texts):
        if POISON_CELL in texts:
            raise RuntimeError("candidate index corrupted")
        return resolve(texts)

    monkeypatch.setattr(generator, "cell_candidates_batch", poisoned)
    twin = copy.deepcopy(table_payloads[0])
    twin["table"]["table_id"] = "poisoned"
    twin["table"]["cells"][0][0] = POISON_CELL
    # the poisoned table shares a shape bucket with its twin
    assert table_signature(Table.from_dict(twin["table"])) == table_signature(
        Table.from_dict(table_payloads[0]["table"])
    )

    before = state.cache_stats()["fusion"]["fallbacks"]
    results = state.handle_batch("annotate", table_payloads + [twin])["results"]
    assert state.cache_stats()["fusion"]["fallbacks"] == before + 1
    assert [encode_json(outcome["ok"]) for outcome in results[:-1]] == (
        solo_responses
    )
    assert results[-1]["error"]["error"]["code"] == "internal_error"
