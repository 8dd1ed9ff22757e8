"""The multi-process serving tier: pool, dispatcher, hot-swap, drain.

Three layers of coverage:

* dispatcher semantics against a live 2-worker pool — byte parity with
  in-process ``ServeState.handle``, load shedding, dead-worker
  replacement, generational hot-swap (in-flight requests finish on the old
  bundle, new requests land on the new generation), graceful drain;
* the HTTP front end over a 2-worker dispatcher — ``/admin/reload``, the
  per-worker ``/metrics`` split, 503 envelopes;
* the CLI process end to end — ``repro serve --workers 2`` answering
  requests and draining on SIGTERM within the configured timeout.

The ``_sleep`` endpoint used throughout is a dispatcher-only test aid
(never routed over HTTP): it parks a worker for a chosen duration, which
makes overload and drain timing deterministic without tuning real
annotation workloads.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.api.config import ServeConfig, SessionConfig
from repro.api.errors import ApiError
from repro.api.types import encode_json
from repro.cli import main
from repro.serve import server as server_module
from repro.serve.dispatcher import Dispatcher
from repro.serve.server import create_server
from repro.serve.state import ServeState

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the pre-fork tier requires fork"
)

#: small, fast pool: 2 workers + 1 queued request = capacity 3
POOL_CONFIG = SessionConfig(
    serve=ServeConfig(
        workers=2,
        queue_depth=1,
        shed_timeout_seconds=0.2,
        request_timeout_seconds=15.0,
        health_interval_seconds=0.2,
        drain_timeout_seconds=10.0,
    )
)


@pytest.fixture(scope="module")
def dispatcher(bundle_dir):
    """One live 2-worker dispatcher shared by this module's tests.

    Tests that kill workers rely on the health sweep healing the pool, so
    cumulative counters (restarts, reloads) are asserted with ``>=``.
    """
    d = Dispatcher(bundle_dir, config=POOL_CONFIG)
    yield d
    d.shutdown(drain_timeout=5.0)


def annotate_payload(serve_corpus, index: int = 0) -> dict:
    return {
        "table": serve_corpus[index].table.to_dict(),
        "include_timing": False,
    }


def fire(dispatcher: Dispatcher, endpoint: str, payload: dict, out: list):
    try:
        out.append(("ok", dispatcher.call(endpoint, payload)))
    except ApiError as error:
        out.append((error.code, None))


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestDispatcher:
    def test_concurrent_requests_take_different_idle_workers(self, dispatcher):
        """No worker takes a second request while another is idle: two
        concurrent requests on a 2-worker pool run on two pids, one
        request per round trip."""
        before = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
        results: list = []
        threads = [
            threading.Thread(
                target=fire, args=(dispatcher, "_sleep", {"seconds": 0.3}, results)
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [code for code, _ in results] == ["ok", "ok"]
        assert len({body["pid"] for _, body in results}) == 2
        after = dispatcher.dispatch_metrics.snapshot()["batch_size_histogram"]
        shipped = {
            size: count - before.get(size, 0)
            for size, count in after.items()
            if count > before.get(size, 0)
        }
        assert shipped == {"1": 2}

    def test_annotate_byte_identical_to_inline(
        self, dispatcher, serve_state, serve_corpus
    ):
        """A pool worker's response is in-process ``ServeState.handle``'s."""
        for index in range(3):
            payload = annotate_payload(serve_corpus, index)
            pooled = dispatcher.call("annotate", payload)
            inline = serve_state.handle("annotate", payload)
            assert encode_json(pooled) == encode_json(inline)

    def test_search_and_errors_cross_the_pipe(self, dispatcher, serve_state):
        query = {"query_type": "type", "type_id": "missing-type", "top_k": 3}
        with pytest.raises(ApiError) as pooled_error:
            dispatcher.call("search", query)
        with pytest.raises(ApiError) as inline_error:
            serve_state.handle("search", query)
        assert pooled_error.value.code == inline_error.value.code

    def test_overload_sheds_beyond_capacity(self, dispatcher):
        """capacity = workers + queue_depth; the rest shed as 503s."""
        results: list = []
        threads = [
            threading.Thread(
                target=fire, args=(dispatcher, "_sleep", {"seconds": 1.0}, results)
            )
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcomes = Counter(code for code, _ in results)
        capacity = dispatcher._current().capacity
        assert outcomes["ok"] == capacity == 3
        assert outcomes["overloaded"] == 6 - capacity
        snapshot = dispatcher.dispatch_metrics.snapshot()
        assert snapshot["shed_total"] >= 3
        assert snapshot["in_flight"] == 0

    def test_dead_idle_worker_is_replaced(self, dispatcher):
        generation = dispatcher._current()
        victim = generation.workers[0]
        victim.process.terminate()
        assert wait_until(lambda: not victim.process.is_alive())
        assert wait_until(
            lambda: dispatcher.dispatch_metrics.snapshot()["worker_restarts"]
            >= 1
        ), "health sweep did not notice the dead worker"
        assert wait_until(
            lambda: dispatcher.healthz()["workers"]["alive"] == 2
        ), "health sweep did not replace the dead worker"
        # the pool still serves
        assert dispatcher.call("_sleep", {"seconds": 0.0})["pid"] > 0

    def test_worker_death_mid_request_fails_that_request_only(
        self, dispatcher
    ):
        results: list = []
        threads = [
            threading.Thread(
                target=fire, args=(dispatcher, "_sleep", {"seconds": 2.0}, results)
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        assert wait_until(
            lambda: dispatcher.dispatch_metrics.snapshot()["in_flight"] == 2
        )
        with dispatcher._lock:
            victim = dispatcher._active.workers[0]
        victim.process.terminate()
        for thread in threads:
            thread.join()
        outcomes = Counter(code for code, _ in results)
        assert outcomes["worker_failed"] == 1
        assert outcomes["ok"] == 1
        assert wait_until(
            lambda: dispatcher.healthz()["workers"]["alive"] == 2
        )

    def test_hot_swap_preserves_in_flight_and_moves_new_traffic(
        self, dispatcher, bundle_dir, serve_corpus
    ):
        old_generation = dispatcher._current()
        old_pids = {worker.pid for worker in old_generation.workers}
        results: list = []
        in_flight = threading.Thread(
            target=fire, args=(dispatcher, "_sleep", {"seconds": 1.5}, results)
        )
        in_flight.start()
        assert wait_until(
            lambda: dispatcher.dispatch_metrics.snapshot()["in_flight"] >= 1
        )
        report = dispatcher.reload({"bundle": str(bundle_dir)})
        in_flight.join()
        # the in-flight request finished on the old generation...
        assert results[0][0] == "ok"
        assert results[0][1]["pid"] in old_pids
        assert report["previous_generation_drained"] is True
        assert report["generation"] == old_generation.id + 1
        # ...new traffic lands on the new one, and still annotates correctly
        fresh = dispatcher.call("_sleep", {"seconds": 0.0})
        new_pids = {w.pid for w in dispatcher._current().workers}
        assert fresh["pid"] in new_pids
        assert not new_pids & old_pids
        assert dispatcher.call(
            "annotate", annotate_payload(serve_corpus)
        )["table_id"] == serve_corpus[0].table.table_id
        # the old workers are gone
        assert wait_until(
            lambda: all(not w.process.is_alive() for w in old_generation.workers)
        )

    def test_reload_with_bad_bundle_keeps_serving(self, dispatcher):
        from repro.serve.errors import BundleError

        before = dispatcher.healthz()["generation"]
        with pytest.raises((BundleError, OSError)):
            dispatcher.reload({"bundle": "/nonexistent/bundle"})
        health = dispatcher.healthz()
        assert health["status"] == "ok"
        assert health["generation"] == before
        assert dispatcher.call("_sleep", {"seconds": 0.0})["pid"] > 0

    def test_metrics_split_per_worker_plus_aggregate(self, dispatcher):
        dispatcher.observe("annotate", 0.01, error=False)
        snapshot = dispatcher.metrics_snapshot()
        assert "endpoints" in snapshot  # the aggregate section survives
        assert snapshot["dispatcher"]["reloads"] >= 1
        workers = snapshot["workers"]
        assert len(workers) == 2
        for name, entry in workers.items():
            assert re.fullmatch(r"g\d+\.w\d+", name)
            assert entry["generation"] == snapshot["dispatcher"]["generation"]
            assert {"pid", "alive", "requests", "errors", "handler_seconds"} <= (
                set(entry)
            )
            assert {"p50", "p90", "p99", "max", "window"} == set(
                entry["handler_seconds"]
            )
        # at least one worker answered something by this point in the module
        assert sum(entry["requests"] for entry in workers.values()) >= 1
        assert "queue_wait_seconds" in snapshot["dispatcher"]


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight(self, bundle_dir):
        d = Dispatcher(bundle_dir, config=POOL_CONFIG)
        try:
            results: list = []
            in_flight = threading.Thread(
                target=fire, args=(d, "_sleep", {"seconds": 1.0}, results)
            )
            in_flight.start()
            assert wait_until(
                lambda: d.dispatch_metrics.snapshot()["in_flight"] >= 1
            )
            assert d.shutdown(drain_timeout=10.0) is True
            in_flight.join()
            assert results[0][0] == "ok"
        finally:
            d.shutdown(drain_timeout=1.0)

    def test_shutdown_force_stops_past_drain_timeout(self, bundle_dir):
        d = Dispatcher(bundle_dir, config=POOL_CONFIG)
        results: list = []
        wedged = threading.Thread(
            target=fire, args=(d, "_sleep", {"seconds": 30.0}, results)
        )
        wedged.start()
        assert wait_until(
            lambda: d.dispatch_metrics.snapshot()["in_flight"] >= 1
        )
        assert d.shutdown(drain_timeout=0.5) is False


class TestDispatcherOverHttp:
    @pytest.fixture(scope="class")
    def pool_server(self, bundle_dir):
        dispatcher = Dispatcher(bundle_dir, config=POOL_CONFIG)
        server = create_server(dispatcher, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield host, port
        server.shutdown()
        server.server_close()
        dispatcher.shutdown(drain_timeout=5.0)

    @staticmethod
    def request(host, port, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", data=data, method=method
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_annotate_and_metrics(self, pool_server, serve_corpus):
        host, port = pool_server
        status, payload = self.request(
            host, port, "POST", "/annotate", annotate_payload(serve_corpus)
        )
        assert status == 200
        assert payload["table_id"] == serve_corpus[0].table.table_id
        status, metrics = self.request(host, port, "GET", "/metrics")
        assert status == 200
        assert metrics["endpoints"]["annotate"]["requests"] >= 1
        assert len(metrics["workers"]) == 2
        assert metrics["dispatcher"]["generation"] >= 1
        assert "candidate_cache" in metrics["caches"]
        assert metrics["caches"]["fusion"]["fallbacks"] == 0

    def test_admin_reload_over_http(self, pool_server, bundle_dir, serve_corpus):
        host, port = pool_server
        status, before = self.request(host, port, "GET", "/healthz")
        assert status == 200
        status, report = self.request(
            host, port, "POST", "/admin/reload", {"bundle": str(bundle_dir)}
        )
        assert status == 200
        assert report["status"] == "ok"
        assert report["generation"] == before["generation"] + 1
        status, payload = self.request(
            host, port, "POST", "/annotate", annotate_payload(serve_corpus)
        )
        assert status == 200
        assert payload["table_id"] == serve_corpus[0].table.table_id

    def test_admin_reload_rejects_get(self, pool_server):
        host, port = pool_server
        status, payload = self.request(host, port, "GET", "/admin/reload")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_healthz_reports_pool(self, pool_server):
        host, port = pool_server
        status, health = self.request(host, port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"]["configured"] == 2
        assert health["workers"]["alive"] == 2


class TestServeCliSigterm:
    def test_sigterm_drains_within_timeout(self, bundle_dir, serve_corpus):
        """`repro serve --workers 2` exits 0 on SIGTERM after draining."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--bundle",
                str(bundle_dir),
                "--port",
                "0",
                "--workers",
                "2",
                "--drain-timeout",
                "10",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            match = None
            for _ in range(20):  # tolerate warnings before the banner
                line = process.stderr.readline()
                if not line:
                    break
                match = re.search(r"http://([\d.]+):(\d+)", line)
                if match:
                    break
            assert match, "no serving banner on stderr"
            host, port = match.group(1), int(match.group(2))
            status, payload = TestDispatcherOverHttp.request(
                host, port, "POST", "/annotate", annotate_payload(serve_corpus)
            )
            assert status == 200
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert process.returncode == 0
            remainder = process.stderr.read()
            assert "drained" in remainder
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestServeStartupFailures:
    """A `repro serve` that cannot start its workers prints one
    ``error [code]: message`` line, exits 1 and leaves no socket bound."""

    @staticmethod
    def serve_stderr(bundle_dir, capsys, monkeypatch) -> str:
        def refuse(*args, **kwargs):
            raise AssertionError("an HTTP server was bound")

        # a server bound here would serve forever instead of failing
        monkeypatch.setattr(server_module, "create_server", refuse)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        argv = ["serve", "--bundle", str(bundle_dir), "--port", str(port)]
        assert main(argv) == 1
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))  # raises if the port is held
        return capsys.readouterr().err

    def test_worker_dying_in_warm_up(self, bundle_dir, capsys, monkeypatch):
        def die(self, *args, **kwargs):
            raise RuntimeError("warm-up failed")

        # the forked worker inherits the patch and dies before its ping
        monkeypatch.setattr(ServeState, "__init__", die)
        assert self.serve_stderr(bundle_dir, capsys, monkeypatch) == (
            "error [worker_failed]: worker g1.w0 died during warm-up "
            "(exit code 1)\n"
        )

    def test_missing_fork(self, bundle_dir, capsys, monkeypatch):
        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert self.serve_stderr(bundle_dir, capsys, monkeypatch) == (
            "error [worker_failed]: repro serve needs the 'fork' start "
            "method, which this platform does not provide\n"
        )


class TestWireProtocol:
    """The framed protocol-5 pipe messaging (PEP-574 out-of-band buffers)."""

    @staticmethod
    def _roundtrip_with_frames(message):
        """send_message → raw frame sizes + the decoded reply."""
        import pickle
        import struct
        from multiprocessing import Pipe

        from repro.serve.pool import send_message

        parent, child = Pipe(duplex=True)
        captured: dict = {}

        def reader() -> None:
            (n_buffers,) = struct.unpack("<I", child.recv_bytes())
            payload = child.recv_bytes()
            buffers = [child.recv_bytes() for _ in range(n_buffers)]
            captured["payload"] = payload
            captured["buffer_sizes"] = [len(frame) for frame in buffers]
            captured["decoded"] = pickle.loads(payload, buffers=buffers)

        thread = threading.Thread(target=reader)
        thread.start()
        send_message(parent, message)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        parent.close()
        child.close()
        return captured

    def test_numpy_payload_travels_out_of_band(self):
        """Wire-size regression: an 8 MB array must cross the pipe as a raw
        buffer frame, with the in-band pickle staying tiny — the default
        pickler used to copy the whole array through the pickle stream."""
        import numpy as np

        array = np.arange(1_000_000, dtype=np.float64)  # 8 MB raw
        captured = self._roundtrip_with_frames(("ok", {"x": array}, 0.5))
        assert len(captured["payload"]) < 16_384, (
            f"in-band pickle grew to {len(captured['payload'])} bytes — "
            "the array is being copied through the pickle stream again"
        )
        assert sum(captured["buffer_sizes"]) >= array.nbytes
        kind, result, seconds = captured["decoded"]
        assert kind == "ok" and seconds == 0.5
        assert np.array_equal(result["x"], array)

    def test_messages_pickle_at_highest_protocol(self):
        """The payload frame must be a protocol-5 pickle (PEP 574), not the
        interpreter default."""
        import pickle

        captured = self._roundtrip_with_frames(("ping",))
        # a pickle stream opens with PROTO <version>
        assert captured["payload"][:2] == bytes([0x80, pickle.HIGHEST_PROTOCOL])
        assert pickle.HIGHEST_PROTOCOL >= 5
        assert captured["decoded"] == ("ping",)

    def test_plain_payload_roundtrip_has_no_buffers(self):
        captured = self._roundtrip_with_frames(("ok", {"n": 3}, 0.0))
        assert captured["buffer_sizes"] == []
        assert captured["decoded"] == ("ok", {"n": 3}, 0.0)
