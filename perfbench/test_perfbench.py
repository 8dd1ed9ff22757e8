"""Self-tests of the benchmark's own machinery, at smoke scale.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import http.server
import json
import math
import os
import threading
import time

import pytest

import layers
import reference
import serve
import spans
import stats


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    assert stats.percentile(values, 0.95) == 190.0
    assert stats.percentile(values, 0.50) == 100.0
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:199], 0.95)


def test_failures_count_as_infinite_latency():
    values = [0.01] * 185 + [math.inf] * 15
    # 15 of 200 failed: more than 5%, so p95 is a failure
    assert stats.percentile(values, 0.95) == math.inf
    assert stats.percentile(values, 0.50) == 0.01
    values = [0.01] * 195 + [math.inf] * 5
    assert stats.percentile(values, 0.95) == 0.01


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(span_id, start, end, parent=None, name="x"):
    return spans.Span(span_id, name, start, end, parent, None)


def test_self_time_subtracts_nested_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 6.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_merges_overlapping_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 3.0, 7.0, parent=0),  # overlaps child 1 on [3, 5]
        _span(3, 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_fold_charges_nested_relation_searches_to_the_join():
    tracer = spans.Tracer()
    tracer.spans = [
        _span(0, 0.0, 10.0, name="search.join"),
        _span(1, 1.0, 5.0, parent=0, name="search.relation"),
        _span(2, 20.0, 22.0, name="search.relation"),
    ]
    own = layers.self_time_by_layer(tracer)
    assert own == pytest.approx({"search.join": 10.0, "search.relation": 2.0})


# ----------------------------------------------------------------------
# wrapping by dotted name
# ----------------------------------------------------------------------
class Sample:
    def method(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return cls(), value

    def stream(self, count):
        for index in range(count):
            yield index


def test_missing_wrap_target_is_absent_not_fatal():
    tracer = spans.Tracer()
    targets = [
        spans.WrapTarget("ok", f"{__name__}.Sample.method"),
        spans.WrapTarget("gone", f"{__name__}.Sample.deleted_method"),
        spans.WrapTarget("gone", f"{__name__}.NoSuchClass.method"),
        spans.WrapTarget("gone", "no_such_package.module.function"),
    ]
    tracer.install(targets)
    try:
        assert Sample().method(1) == 2
    finally:
        tracer.uninstall()
    assert tracer.absent == [target.dotted for target in targets[1:]]
    assert [span.name for span in tracer.spans] == ["ok"]


def test_wrap_and_restore_methods_classmethods_and_generators():
    original = Sample.__dict__["build"]
    tracer = spans.Tracer()
    tracer.install(
        [
            spans.WrapTarget("build", f"{__name__}.Sample.build"),
            spans.WrapTarget("stream", f"{__name__}.Sample.stream"),
        ]
    )
    try:
        instance, value = Sample.build(3)
        assert isinstance(instance, Sample) and value == 3
        items = []
        for item in Sample().stream(3):
            time.sleep(0.01)  # consumer work between items is not the span's
            items.append(item)
        assert items == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert Sample.__dict__["build"] is original
    names = [span.name for span in tracer.spans]
    assert names.count("build") == 1
    assert names.count("stream") == 4  # three items plus the final resume
    stream_time = sum(s.end - s.start for s in tracer.spans if s.name == "stream")
    assert stream_time < 0.01


def test_disabled_tracer_calls_straight_through():
    tracer = spans.Tracer()
    tracer.install(
        [
            spans.WrapTarget("method", f"{__name__}.Sample.method"),
            spans.WrapTarget("stream", f"{__name__}.Sample.stream"),
        ]
    )
    try:
        tracer.enabled = False
        assert Sample().method(1) == 2
        assert list(Sample().stream(2)) == [0, 1]
        tracer.enabled = True
        assert Sample().method(1) == 2
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.spans] == ["method"]


def test_every_layer_target_resolves_on_this_tree():
    tracer = spans.Tracer()
    tracer.install(layers.targets())
    tracer.uninstall()
    assert tracer.absent == []


# ----------------------------------------------------------------------
# open-loop timing
# ----------------------------------------------------------------------
class _StallingHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_on = 3
    stall_seconds = 0.3
    seen = 0

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).seen += 1
        if type(self).seen == self.stall_on:
            time.sleep(self.stall_seconds)
        # one write: a separate body segment would wait on delayed ACKs
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

    def log_message(self, *args):
        pass


class _StubServer:
    def __init__(self, port):
        self.port = port

    def pids(self):
        return [os.getpid()]


def test_due_time_latency_charges_a_stall_to_later_requests():
    httpd = http.server.HTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        requests = [("/annotate", json.dumps({"i": i}).encode()) for i in range(30)]
        # one connection against a single-threaded server: the stall on the
        # third request holds every request due during it
        phase = serve.open_loop(_StubServer(httpd.server_address[1]), requests, 40.0, 1)
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert phase.failed == 0
    due = stats.due_latencies(
        [o.due for o in phase.outcomes], [o.done for o in phase.outcomes]
    )
    sent = [o.done - o.sent for o in phase.outcomes]
    late = [o.sent - o.due for o in phase.outcomes]
    # the request after the stall was sent late, and its due-time latency
    # carries the wait that its send-time latency hides
    assert late[3] > 0.2
    assert due[3] > 0.2 > sent[3]
    assert due[0] < 0.1 and due[-1] < 0.1  # the backlog drained
    assert stats.due_latencies([0.0, 1.0], [0.5, None]) == [0.5, math.inf]


# ----------------------------------------------------------------------
# rounds and reference scaling
# ----------------------------------------------------------------------
def test_rounds_keep_order():
    import run

    parts = run.rounds(list(range(11)), 5)
    assert [len(part) for part in parts] == [2, 2, 3, 2, 2]
    assert sum(parts, []) == list(range(11))


def test_scaling_cancels_machine_speed_and_keeps_failures():
    ref = reference.REFERENCE_SECONDS
    # the same work on a machine twice as slow: twice the time, twice the probe
    assert reference.scale(0.010, [ref, ref]) == pytest.approx(0.010)
    assert reference.scale(0.020, [2 * ref, 2 * ref]) == pytest.approx(0.010)
    assert reference.scale(0.015, [ref, 2 * ref]) == pytest.approx(0.010)
    assert reference.scale(math.inf, [ref]) == math.inf
    assert serve.Outcome(due=0.0, sent=1.0).latency == math.inf
    assert serve.Outcome(due=0.0, sent=1.0, done=1.5).latency == 0.5
    assert reference.probe(2) > 0.0
