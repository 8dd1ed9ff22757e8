"""Serving faults in interleavings: a hypothesis state machine over a pool.

``tests/serve/test_pool.py`` covers each fault of the pre-fork tier in
isolation.  Here hypothesis interleaves them on one live 2-worker
:class:`Dispatcher` with a one-slot queue: concurrent annotate bursts
carrying one poisoned payload, ``_sleep`` requests, a killed worker, a hot
swap onto the good bundle, a swap attempt onto a bit-flipped copy, and
overload past capacity.  After every step:

* every admitted request has resolved exactly once — byte-identical to
  :meth:`ServeState.handle`, or as ``overloaded`` / ``worker_failed``;
* the dispatcher's ``in_flight`` gauge is back to 0;
* the generation number never went down;

and after teardown every worker pid the pool ever had is reaped.
"""

from __future__ import annotations

import os
import shutil
import threading

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.api.config import ServeConfig, SessionConfig
from repro.api.errors import ApiError
from repro.api.types import encode_json
from repro.serve import dispatcher as dispatcher_module
from repro.serve.dispatcher import Dispatcher
from repro.serve.errors import BundleError
from repro.serve.state import ServeState

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the pre-fork tier requires fork"
)

#: a payload the wire layer rejects deterministically (missing table_id)
POISON_PAYLOAD = {"table": {"cells": "not-a-grid"}, "include_timing": False}

#: 2 workers + 1 queued request = capacity 3
MACHINE_CONFIG = SessionConfig(
    serve=ServeConfig(
        workers=2,
        queue_depth=1,
        shed_timeout_seconds=0.2,
        request_timeout_seconds=15.0,
        health_interval_seconds=0.1,
        drain_timeout_seconds=10.0,
    )
)

#: failures a request may meet through no fault of its own payload
RETRYABLE = ("overloaded", "worker_failed")


@pytest.fixture(scope="module")
def corrupt_bundle_dir(bundle_dir, tmp_path_factory):
    """A copy of the bundle with one bit flipped inside a numpy array."""
    target = tmp_path_factory.mktemp("corrupt") / "bundle"
    shutil.copytree(bundle_dir, target)
    array = sorted(target.rglob("*.npy"))[0]
    raw = bytearray(array.read_bytes())
    raw[-1] ^= 0x01
    array.write_bytes(bytes(raw))
    return target


@pytest.fixture(scope="module")
def references(loaded_bundle, serve_corpus):
    """Annotate payloads with their solo bytes, plus the poison's error."""
    state = ServeState(loaded_bundle)
    payloads = [
        {"table": labeled.table.to_dict(), "include_timing": False}
        for labeled in serve_corpus
    ]
    bodies = [encode_json(state.handle("annotate", p)) for p in payloads]
    with pytest.raises(ApiError) as excinfo:
        state.handle("annotate", POISON_PAYLOAD)
    poison = ("error", excinfo.value.code, str(excinfo.value))
    return payloads, bodies, poison


def _call_all(dispatcher: Dispatcher, calls: list[tuple[str, dict]]) -> list:
    """Run every call on its own thread; ``("ok", body)`` or ``("error",
    code, message)`` per call, in order."""
    outcomes: list = [None] * len(calls)

    def client(index: int) -> None:
        endpoint, payload = calls[index]
        try:
            outcomes[index] = ("ok", dispatcher.call(endpoint, payload))
        except ApiError as error:
            outcomes[index] = ("error", error.code, str(error))

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(len(calls))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(outcome is not None for outcome in outcomes), outcomes
    return outcomes


def test_pool_survives_interleaved_faults(
    bundle_dir, corrupt_bundle_dir, references, monkeypatch
):
    payloads, bodies, poison = references
    # every resolve/fail of every request, and every worker ever forked;
    # holding the requests keeps their ids unique
    resolved: list = []
    spawned: list[int] = []

    def recording(method):
        def wrapper(request, value):
            resolved.append(request)
            method(request, value)

        return wrapper

    request_class = dispatcher_module._Request
    monkeypatch.setattr(request_class, "resolve", recording(request_class.resolve))
    monkeypatch.setattr(request_class, "fail", recording(request_class.fail))
    spawn_worker = dispatcher_module.spawn_worker

    def recording_spawn(*args, **kwargs):
        worker = spawn_worker(*args, **kwargs)
        spawned.append(worker.pid)
        return worker

    monkeypatch.setattr(dispatcher_module, "spawn_worker", recording_spawn)

    class PoolMachine(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            resolved.clear()
            spawned.clear()
            self.admitted = 0
            self.dispatcher = Dispatcher(bundle_dir, config=MACHINE_CONFIG)
            self.generation = self.dispatcher.healthz()["generation"]

        def _run(self, calls: list[tuple[str, dict]]) -> list:
            outcomes = _call_all(self.dispatcher, calls)
            # a request shed at admission never enters the queue
            self.admitted += sum(
                1
                for outcome in outcomes
                if not (
                    outcome[0] == "error"
                    and outcome[1] == "overloaded"
                    and "server overloaded" in outcome[2]
                )
            )
            return outcomes

        # -- rules -------------------------------------------------------
        @rule(
            indices=st.lists(
                st.integers(min_value=0, max_value=len(payloads) - 1),
                min_size=1,
                max_size=4,
            ),
            poison_slot=st.integers(min_value=0, max_value=4),
        )
        def annotate_burst(self, indices, poison_slot):
            poison_slot = min(poison_slot, len(indices))
            calls = [("annotate", payloads[i]) for i in indices]
            calls.insert(poison_slot, ("annotate", POISON_PAYLOAD))
            outcomes = self._run(calls)
            for slot, outcome in enumerate(outcomes):
                if outcome[0] == "error" and outcome[1] in RETRYABLE:
                    continue
                if slot == poison_slot:
                    assert outcome == poison
                else:
                    index = indices[slot if slot < poison_slot else slot - 1]
                    assert outcome[0] == "ok", outcome
                    assert encode_json(outcome[1]) == bodies[index]

        @rule(seconds=st.sampled_from([0.0, 0.05, 0.15]))
        def sleep(self, seconds):
            (outcome,) = self._run([("_sleep", {"seconds": seconds})])
            if outcome[0] == "ok":
                assert outcome[1]["slept"] == seconds
            else:
                assert outcome[1] in RETRYABLE, outcome

        @rule(index=st.integers(min_value=0, max_value=1))
        def kill_worker(self, index):
            with self.dispatcher._lock:
                workers = list(self.dispatcher._active.workers)
            if not workers:
                return
            victim = workers[index % len(workers)]
            victim.process.kill()
            victim.process.join(timeout=10.0)

        @rule()
        def reload_good_bundle(self):
            report = self.dispatcher.reload({"bundle": str(bundle_dir)})
            assert report["generation"] == self.generation + 1
            assert report["previous_generation_drained"] is True
            self.generation = report["generation"]

        @rule()
        def reload_corrupt_bundle(self):
            with pytest.raises(BundleError):
                self.dispatcher.reload({"bundle": str(corrupt_bundle_dir)})
            assert self.dispatcher.healthz()["generation"] == self.generation

        @rule()
        def overload(self):
            capacity = self.dispatcher._current().capacity
            outcomes = self._run(
                [("_sleep", {"seconds": 0.3})] * (capacity + 2)
            )
            for outcome in outcomes:
                assert outcome[0] == "ok" or outcome[1] in RETRYABLE, outcome

        # -- invariants --------------------------------------------------
        @invariant()
        def every_admitted_request_resolved_once(self):
            assert len(resolved) == self.admitted
            assert len({id(request) for request in resolved}) == len(resolved)

        @invariant()
        def nothing_left_in_flight(self):
            assert self.dispatcher.dispatch_metrics.snapshot()["in_flight"] == 0

        @invariant()
        def generations_only_increase(self):
            generation = self.dispatcher.healthz()["generation"]
            assert generation >= self.generation
            self.generation = generation

        def teardown(self) -> None:
            self.dispatcher.shutdown(drain_timeout=5.0)
            assert spawned
            for pid in spawned:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)

    run_state_machine_as_test(
        PoolMachine,
        settings=settings(
            max_examples=4,
            stateful_step_count=8,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        ),
    )
