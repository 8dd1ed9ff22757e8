"""Tests for batched execution: chunking, ordering, parallelism."""

import threading
import time

import pytest

from repro.pipeline.executor import BatchExecutor, iter_batches


def execute(batches, worker, max_workers):
    """One ``map_ordered`` stream on an executor that lives as long as it."""
    with BatchExecutor(max_workers) as executor:
        yield from executor.map_ordered(batches, worker)


class TestIterBatches:
    def test_chunks_evenly(self):
        assert list(iter_batches(range(6), 2)) == [[0, 1], [2, 3], [4, 5]]

    def test_ragged_tail(self):
        assert list(iter_batches(range(5), 2)) == [[0, 1], [2, 3], [4]]

    def test_empty(self):
        assert list(iter_batches([], 3)) == []

    def test_lazy(self):
        def forever():
            i = 0
            while True:
                yield i
                i += 1

        batches = iter_batches(forever(), 4)
        assert next(batches) == [0, 1, 2, 3]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(iter_batches([1], 0))


class TestExecuteBatches:
    """Executing a batch stream through :meth:`BatchExecutor.map_ordered`."""

    def test_serial_preserves_order(self):
        batches = iter_batches(range(10), 3)
        results = list(execute(batches, lambda b: sum(b), max_workers=1))
        assert results == [3, 12, 21, 9]

    def test_threaded_preserves_order(self):
        # later batches finish first; results must still come back in order
        def slow_reverse(batch):
            time.sleep(0.02 * (4 - batch[0]))
            return batch[0]

        batches = [[i] for i in range(4)]
        results = list(execute(batches, slow_reverse, max_workers=4))
        assert results == [0, 1, 2, 3]

    def test_threaded_actually_overlaps(self):
        active = []
        peak = []
        lock = threading.Lock()

        def worker(batch):
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.05)
            with lock:
                active.pop()
            return batch

        list(execute([[i] for i in range(4)], worker, max_workers=4))
        assert max(peak) > 1

    def test_worker_exception_propagates(self):
        def explode(batch):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            list(execute([[1]], explode, max_workers=2))

    def test_early_break_returns_promptly(self):
        # abandoning the stream must not block on queued batches: the pool
        # is shut down with cancel_futures, so only batches already running
        # when the consumer breaks can still be executing
        started = []

        def slow(batch):
            started.append(batch[0])
            time.sleep(0.25)
            return batch[0]

        stream = execute([[i] for i in range(20)], slow, max_workers=2)
        begin = time.perf_counter()
        for result in stream:
            assert result == 0
            break
        stream.close()
        elapsed = time.perf_counter() - begin
        # 20 batches x 0.25s on 2 workers would be ~2.5s if the exit waited
        # for the queue; breaking must cost at most the in-flight batches
        assert elapsed < 1.0
        assert len(started) < 20

    def test_bounded_in_flight(self):
        # an infinite batch stream must not be drained eagerly
        consumed = []

        def counting():
            i = 0
            while True:
                consumed.append(i)
                yield [i]
                i += 1

        stream = execute(counting(), lambda b: b[0], max_workers=2)
        for _ in range(3):
            next(stream)
        assert len(consumed) <= 3 + 2 * 2 + 1


class TestBatchExecutor:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(0)

    def test_serial_runs_inline(self):
        caller = threading.get_ident()
        with BatchExecutor(1) as executor:
            results = list(executor.map_ordered([[1, 2], [3]], sum))
            threads = set(
                executor.map_ordered([[1]], lambda _: threading.get_ident())
            )
            assert executor._pool is None
        assert results == [3, 3]
        assert threads == {caller}

    def test_thread_pool_persists_across_calls(self):
        thread_ids: set[int] = set()

        def record(batch):
            thread_ids.add(threading.get_ident())
            return batch

        with BatchExecutor(max_workers=2) as executor:
            for _ in range(3):
                list(executor.map_ordered([[1]], record))
            first_pool = executor._pool
            assert first_pool is not None
            list(executor.map_ordered([[2]], record))
            assert executor._pool is first_pool
        assert executor._pool is None

    def test_close_is_idempotent(self):
        executor = BatchExecutor(max_workers=2)
        list(executor.map_ordered([[1]], sum))
        executor.close()
        executor.close()
