"""Drive ``repro serve`` over HTTP: launch, sequential and open-loop
sending, memory.

The generator runs in the benchmark process: the timed phases send one
request at a time over one connection, and the traced run's open loop uses
at most two sender threads, each with at most one open connection.
"""

from __future__ import annotations

import http.client
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

READY_LINE = re.compile(r"on http://[^:]+:(\d+)")
#: request ceiling for the generator's sockets (a request past it failed)
REQUEST_TIMEOUT = 60.0
#: PSS sampling cadence while a phase runs
MEMORY_INTERVAL = 0.5


class Server:
    """One ``repro serve --bundle`` process with default settings."""

    def __init__(self, root: Path, env: dict, bundle: Path, log: Path) -> None:
        self.log = log
        self._log_handle = log.open("wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--bundle", str(bundle),
                "--port", "0",
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log_handle,
        )
        self.port = 0

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the server prints its listening line."""
        deadline = time.perf_counter() + timeout
        while True:
            match = READY_LINE.search(self.log.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                return
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.process.returncode}: "
                    f"{self.log.read_text(errors='replace')[-2000:]}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.002)

    def pids(self) -> list[int]:
        """The server process and its pre-fork workers."""
        pids = [self.process.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            # the ppid is the second field after the parenthesised command
            fields = stat.rsplit(")", 1)[-1].split()
            if len(fields) > 1 and int(fields[1]) == self.process.pid:
                pids.append(int(entry))
        return pids

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log_handle.close()


def pss_mb(pids: list[int]) -> float:
    """Proportional set size of ``pids`` in MB: pages shared between them
    (the mmapped bundle, forked copy-on-write state) are split, not summed."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class Client:
    """An HTTP client holding at most one connection.

    Every request opens a fresh connection and asks the server to close
    it.  The server writes a response's headers and body in two segments,
    so on a reused connection the body waits for the client's delayed ACK
    (about 40 ms on Linux) whenever the kernel's quick-ACK heuristics do
    not fire; fresh connections start in quick-ACK mode and keep that
    stall out of the numbers.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection: http.client.HTTPConnection | None = None

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
        headers = {"Content-Type": "application/json", "Connection": "close"}
        try:
            self.connection.request("POST", path, body=body, headers=headers)
            response = self.connection.getresponse()
            data = response.read()
        finally:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


@dataclass
class Outcome:
    due: float
    sent: float = 0.0
    done: float | None = None  # None: failed or refused
    status: int = 0
    body: bytes = b""


    @property
    def latency(self) -> float:
        """Seconds from send to answer; +inf for a failed request."""
        return math.inf if self.done is None else self.done - self.sent


@dataclass
class Phase:
    outcomes: list[Outcome] = field(default_factory=list)
    elapsed: float = 0.0
    peak_mb: float = 0.0

    @property
    def failed(self) -> int:
        return sum(outcome.done is None for outcome in self.outcomes)


def _send(client: Client, request: tuple[str, bytes], outcome: Outcome) -> None:
    outcome.sent = time.perf_counter()
    try:
        status, body = client.post(*request)
    except (OSError, http.client.HTTPException):
        return
    outcome.status = status
    outcome.body = body
    if status == 200:
        outcome.done = time.perf_counter()


def _run_threads(targets, server: Server, connections: int) -> float:
    """Run sender threads while the main thread samples server memory."""
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    peak = 0.0
    pids = server.pids()
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        peak = max(peak, pss_mb(pids))
        for thread in threads:
            thread.join(timeout=MEMORY_INTERVAL / connections)
    return max(peak, pss_mb(pids))


def open_loop(
    server: Server,
    requests: list[tuple[str, bytes]],
    rate: float,
    connections: int = 2,
) -> Phase:
    """Send ``requests`` at a fixed ``rate`` over ``connections`` sockets.

    Request ``i`` is due at ``start + i / rate``; a sender free at that
    moment sends it then, otherwise the next free sender sends it late.
    Latency is measured from the due time.
    """
    start = time.perf_counter() + 0.05
    phase = Phase([Outcome(due=start + index / rate) for index in range(len(requests))])
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def sender() -> None:
        client = Client(server.port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                outcome = phase.outcomes[index]
                delay = outcome.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                _send(client, requests[index], outcome)
        finally:
            client.close()

    phase.peak_mb = _run_threads([sender] * connections, server, connections)
    phase.elapsed = time.perf_counter() - start
    return phase


def sequential(
    port: int,
    requests: list[tuple[str, bytes]],
    probe: Callable[[], float] | None = None,
) -> tuple[list[Outcome], list[float]]:
    """One request at a time (service times only, no queueing).

    With ``probe``, each request is sent right after one machine-speed
    probe; returns the outcomes and the probe times.
    """
    client = Client(port)
    outcomes, probes = [], []
    try:
        for request in requests:
            if probe is not None:
                probes.append(probe())
            outcome = Outcome(due=time.perf_counter())
            _send(client, request, outcome)
            outcomes.append(outcome)
    finally:
        client.close()
    return outcomes, probes
