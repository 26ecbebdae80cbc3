"""Worker pool: execute dispatched batches and fan results back out.

The last stage of the service pipeline.  Each worker coroutine pulls
the most urgent batch from the dispatch queue and hands its coalesced
solve to the configured :class:`WorkerTransport`:

* :class:`ThreadTransport` runs ``measure_batch`` on a thread-pool
  executor in-process -- the original behavior, zero serialization
  cost, but batch formation and the solve's Python layers share one
  GIL.
* :class:`ProcessTransport` ships the batch to a long-lived worker
  *process* of the shared pool substrate
  (:mod:`repro.service.procworker`): the engine travels as a picklable
  :class:`~repro.core.engines.registry.EngineSpec` that the worker
  rehydrates through the per-process
  :func:`~repro.core.engines.registry.process_engine_cache`, the
  request list and the results travel through the executor's pickle
  pipe, and the round trip minus the worker's own solve time is
  reported as the ``transport`` latency stage.

Failure semantics are *retry-once by decomposition* on either
transport: when a coalesced solve raises, the batch is split and every
member is retried as a singleton ``measure_batch`` call.  That is not
just damage control -- the stepper's convergence fallbacks (global
step bisection, the DC gmin ladder) are the one place where batch
composition can influence a corner's result, so a member that fails
inside a batch can legitimately succeed alone.  A singleton that still
raises is answered ``FAILED`` with the exception text; nothing
propagates out of the worker.  The one exception to retrying is a dead
worker process: its batch is answered ``FAILED`` at once, because a
request that killed its worker would kill the rebuilt pool as well.

Deadlines are enforced by the watchdog timers armed at submission: a
request whose deadline fires mid-solve is answered ``EXPIRED``
immediately (the solve's late result is discarded on arrival, even
when a worker process is still computing it), so a slow or hung engine
can never turn a deadline into a hang.  Workers additionally shed
already-expired entries *before* paying for their solve.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Protocol, Sequence, Tuple

from repro.core.engines.base import MeasurementRequest, MeasurementResult
from repro.core.engines.registry import (
    EngineCache,
    EngineSpec,
    process_engine_cache,
)
from repro.service.batcher import Batch, DispatchQueue
from repro.service.procworker import process_pool, traced
from repro.service.request import (
    PendingEntry,
    ResponseStatus,
    ScreenResponse,
)
from repro.telemetry import get_telemetry

__all__ = [
    "EngineCache",
    "ProcessTransport",
    "ThreadTransport",
    "WorkerPool",
    "WorkerTransport",
    "make_transport",
]


class WorkerTransport(Protocol):
    """Where a dispatched batch's ``measure_batch`` actually runs.

    ``solve`` returns the per-entry results *plus* the transport's own
    shipping seconds (zero for in-process backends), so the pool can
    itemize solve time and shipping cost separately.  ``close`` joins
    the backend's executor; it is called after the worker coroutines
    joined.
    """

    name: str

    async def solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        """Run one coalesced solve for ``entries``."""
        ...

    async def close(self) -> None:
        """Shut the backend down (off-loop)."""
        ...


class ThreadTransport:
    """In-process solves on a thread-pool executor (the default)."""

    name = "thread"

    def __init__(self, *, num_workers: int):
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers,
            thread_name_prefix="repro-service",
        )

    async def solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        engine = entries[0].engine
        requests = [e.measurement for e in entries]
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            self._executor, engine.measure_batch, requests
        )
        return results, 0.0

    async def close(self) -> None:
        # Joining worker threads can take a full solve; do it off-loop
        # so concurrent submitters see timely rejections (AIO002).
        await asyncio.to_thread(self._executor.shutdown, True)


def _solve_batch(
    spec: EngineSpec, requests: List[MeasurementRequest]
) -> Tuple[List[MeasurementResult], float]:
    """Worker-process half of a process solve; returns its own seconds.

    Rehydrates the engine through the per-process cache, so repeated
    batches for one recipe reuse one warm engine per worker.
    """
    start = time.perf_counter()
    engine = process_engine_cache().resolve(spec)
    results = engine.measure_batch(requests)
    return results, time.perf_counter() - start


class ProcessTransport:
    """Solves on long-lived worker processes of the shared pool substrate.

    Each batch crosses the executor's pickle pipe as plain arguments --
    the request's :class:`~repro.core.engines.registry.EngineSpec` and
    the request list -- and comes back as
    :class:`~repro.core.engines.base.MeasurementResult` objects, the
    worker's telemetry snapshot (merged here) and the worker's own
    solve seconds.  The transport stage is the round trip minus that
    solve time: pickling, the pipe and the executor's queueing.

    A worker process that dies breaks the whole executor.  The
    transport then rebuilds the pool once and re-raises
    :class:`~concurrent.futures.process.BrokenProcessPool`; the worker
    pool answers the batch ``FAILED`` and later batches run on the
    fresh workers.
    """

    name = "process"

    def __init__(
        self,
        *,
        num_workers: int,
        clock: Callable[[], float],
        engine_cache_size: int,
    ):
        self._clock = clock
        self._num_workers = num_workers
        self._engine_cache_size = engine_cache_size
        self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        # The initializer applies the parent's engine-cache bound.
        pool = process_pool(
            self._num_workers, process_engine_cache,
            (self._engine_cache_size,),
        )
        # Workers start on the pool's first submits; start them now so
        # no request's transport stage is billed for the fork.
        for _ in range(self._num_workers):
            pool.submit(int)
        return pool

    async def solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        spec = entries[0].spec
        if spec is None:
            raise RuntimeError(
                "process transport dispatched an entry without an "
                "EngineSpec (enqueue should have rejected it)"
            )
        requests = [e.measurement for e in entries]
        loop = asyncio.get_running_loop()
        pool = self._pool
        start = self._clock()
        try:
            (results, solve_s), snapshot = await loop.run_in_executor(
                pool, traced, _solve_batch, spec, requests,
            )
        except BrokenProcessPool:
            self._rebuild(pool)
            raise
        round_trip = self._clock() - start
        get_telemetry().merge(snapshot)
        return results, max(round_trip - solve_s, 0.0)

    def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        """Replace ``broken`` with a fresh pool, once per broken pool.

        Every solve in flight on a dead pool fails together; only the
        first to get here rebuilds.
        """
        if self._pool is not broken:
            return
        broken.shutdown(wait=False)
        self._pool = self._new_pool()
        get_telemetry().incr("service.pool_rebuilds")

    async def close(self) -> None:
        """Join the worker processes (off-loop)."""
        await asyncio.to_thread(self._pool.shutdown, True)


def make_transport(
    kind: str,
    *,
    num_workers: int,
    clock: Callable[[], float],
    engine_cache_size: int,
) -> WorkerTransport:
    """Build the transport for a resolved (non-``auto``) kind."""
    if kind == "thread":
        return ThreadTransport(num_workers=num_workers)
    if kind == "process":
        return ProcessTransport(
            num_workers=num_workers,
            clock=clock,
            engine_cache_size=engine_cache_size,
        )
    raise ValueError(f"unknown transport kind {kind!r}")


class WorkerPool:
    """N worker coroutines draining the dispatch queue until closed."""

    def __init__(
        self,
        dispatch: DispatchQueue,
        transport: WorkerTransport,
        *,
        num_workers: int,
        clock: Callable[[], float],
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._dispatch = dispatch
        self._transport = transport
        self.num_workers = num_workers
        self._clock = clock
        self._tasks: List["asyncio.Task[None]"] = []

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker(), name=f"repro-service-worker-{i}")
            for i in range(self.num_workers)
        ]

    async def join(self) -> None:
        if self._tasks:
            await asyncio.gather(*self._tasks)
            self._tasks = []

    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            batch = await self._dispatch.get()
            if batch is None:
                return
            await self._execute(batch)

    async def _solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        for entry in entries:
            entry.attempts += 1
        return await self._transport.solve(entries)

    async def _execute(self, batch: Batch) -> None:
        live = [e for e in batch.entries if not e.future.done()]
        if not live:
            return
        tele = get_telemetry()
        now = self._clock()
        for entry in live:
            entry.solve_started_at = now
        tele.incr("service.batches")
        tele.observe("service.batch_occupancy", len(live))
        # How many exact-key groups this (possibly family-keyed) batch
        # spans: >1 means the coalescing the exact key alone would miss.
        span = len({e.exact_key for e in live if e.exact_key is not None})
        tele.observe("service.family_span", max(span, 1))
        if len(live) > 1:
            tele.incr("service.coalesced", len(live))
        solve_start = now
        try:
            results, transport_s = await self._solve(live)
        except BrokenProcessPool as exc:
            for entry in live:
                self._fail(entry, exc, batch_size=len(live))
            return
        except Exception:
            # Retry-once by decomposition: a fresh singleton solve per
            # member; batch-composition-dependent failures recover here.
            tele.incr("service.batch_retries")
            for entry in live:
                try:
                    singleton, single_t = await self._solve([entry])
                except Exception as exc:
                    self._fail(entry, exc, batch_size=1)
                else:
                    elapsed = self._clock() - solve_start
                    self._deliver(
                        entry, singleton[0], batch_size=1,
                        solve_s=max(elapsed - single_t, 0.0),
                        transport_s=single_t,
                    )
                    if single_t:
                        tele.observe("service.transport_s", single_t)
            return
        elapsed = self._clock() - solve_start
        solve_s = max(elapsed - transport_s, 0.0)
        for entry, result in zip(live, results):
            self._deliver(
                entry, result, batch_size=len(live),
                solve_s=solve_s, transport_s=transport_s,
            )
        tele.observe("service.solve_s", solve_s)
        if transport_s:
            tele.observe("service.transport_s", transport_s)
        tele.observe(
            "service.post_s", self._clock() - solve_start - elapsed
        )

    # ------------------------------------------------------------------
    def _deliver(
        self,
        entry: PendingEntry,
        result: MeasurementResult,
        *,
        batch_size: int,
        solve_s: float,
        transport_s: float = 0.0,
    ) -> None:
        now = self._clock()
        latency = entry.stage_latency(
            now, solve_s=solve_s,
            post_s=max(
                now - entry.solve_started_at - solve_s - transport_s, 0.0
            ),
            transport_s=transport_s,
        )
        response = ScreenResponse(
            status=ResponseStatus.OK,
            request=entry.request,
            delta_t=result.delta_t,
            samples=result.samples,
            engine=result.engine,
            vdd=result.vdd,
            batch_size=batch_size,
            attempts=entry.attempts,
            latency=latency,
        )
        if entry.finish(response):
            tele = get_telemetry()
            tele.incr("service.completed")
            if latency.cascade_stage:
                tele.incr(f"service.cascade.{latency.cascade_stage}")
            tele.observe("service.queue_wait_s", latency.queue_wait_s)
            tele.observe("service.batch_form_s", latency.batch_form_s)
            tele.observe("service.total_s", latency.total_s)
        # else: the deadline watchdog answered first; the late result
        # is discarded (already accounted as expired).

    def _fail(
        self, entry: PendingEntry, exc: Exception, *, batch_size: int
    ) -> None:
        now = self._clock()
        response = ScreenResponse(
            status=ResponseStatus.FAILED,
            request=entry.request,
            batch_size=batch_size,
            attempts=entry.attempts,
            reason=f"{type(exc).__name__}: {exc}",
            latency=entry.stage_latency(now),
        )
        if entry.finish(response):
            tele = get_telemetry()
            tele.incr("service.failed")
            tele.observe("service.total_s", response.latency.total_s)
