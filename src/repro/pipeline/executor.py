"""Batched execution for the annotation pipeline.

Tables are chunked into batches and each batch runs as one unit of work:
inline, one after another, when ``max_workers == 1`` (zero overhead,
easiest to reason about), or on a persistent :class:`ThreadPoolExecutor`
otherwise.  NumPy releases the GIL inside the dense factor-potential and
message-passing kernels, so threads overlap real work while sharing every
cache in-process.

Results stream back **in submission order** — callers observe exactly the
sequence a serial loop would have produced — and at most
``2 × max_workers`` batches are in flight, so corpora never materialise in
memory.

:class:`BatchExecutor` owns one pool for its whole lifetime: repeated
``map_ordered`` calls reuse it, so many-small-corpus callers (the serving
layer, benchmark loops) stop paying pool construction and teardown per call.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def iter_batches(items: Iterable[ItemT], batch_size: int) -> Iterator[list[ItemT]]:
    """Chunk ``items`` into lists of at most ``batch_size`` (lazily)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batch: list[ItemT] = []
    for item in items:
        batch.append(item)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


class BatchExecutor:
    """A reusable executor: one thread pool, many ``map_ordered`` calls.

    The pool is created lazily on first parallel use and lives until
    :meth:`close`; a consumer abandoning a ``map_ordered`` stream early
    cancels the not-yet-started batches but leaves the pool intact for the
    next call.
    """

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def close(self) -> None:
        """Shut the pool down without waiting; queued batches are dropped."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def map_ordered(
        self,
        batches: Iterable[ItemT],
        worker: Callable[[ItemT], ResultT],
    ) -> Iterator[ResultT]:
        """Run ``worker`` over every batch, yielding results in batch order.

        One worker runs inline; otherwise up to ``2 × max_workers`` batches
        are in flight and results come back strictly in submission order.
        Abandoning the stream early cancels the batches that have not
        started; batches already executing finish in the background and the
        pool survives for the next call.
        """
        if self.max_workers == 1:
            for batch in batches:
                yield worker(batch)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        pool = self._pool
        in_flight: deque = deque()
        max_in_flight = 2 * self.max_workers
        try:
            for batch in batches:
                in_flight.append(pool.submit(worker, batch))
                if len(in_flight) >= max_in_flight:
                    yield in_flight.popleft().result()
            while in_flight:
                yield in_flight.popleft().result()
        finally:
            for future in in_flight:
                future.cancel()
