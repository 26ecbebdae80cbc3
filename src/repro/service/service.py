"""The asyncio screening service: admission -> micro-batcher -> workers.

:class:`ScreeningService` turns the repo's batch-mode measurement stack
into an online request/response system.  One instance owns the whole
pipeline::

    submit() --> AdmissionQueue --> MicroBatcher --> DispatchQueue
                 (bounded;          (coalesce by      (priority +
                  block or shed)     compatibility     earliest-deadline
                                     key, window)      order)
                                                          |
                 response future  <--  WorkerPool  <------+
                                       (thread or process transport,
                                        retry-once, telemetry)

The worker pool solves through a configurable transport
(:attr:`ServiceConfig.transport`): ``"thread"`` keeps every solve
in-process on a thread pool; ``"process"`` pickles batches to
long-lived worker processes, buying GIL-free parallelism for
Python-heavy engines; ``"auto"`` picks ``"process"`` when the
machine has the cores for it and the configured engine is
spec-resolvable, else ``"thread"``.

Every request is answered exactly once with a structured
:class:`~repro.service.request.ScreenResponse`; overload, deadlines,
and engine failures are response statuses, never exceptions leaking out
of the pipeline.  ``close()`` (or leaving the ``async with`` block)
drains in-flight work gracefully before stopping the workers.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.engines.base import supports_batching
from repro.core.engines.registry import (
    EngineLike,
    EngineSpec,
    as_engine_factory,
)
from repro.service.admission import AdmissionPolicy, AdmissionQueue
from repro.service.batcher import DispatchQueue, MicroBatcher
from repro.service.request import (
    PendingEntry,
    ResponseStatus,
    ScreenRequest,
    ScreenResponse,
)
from repro.service.worker import (
    EngineCache,
    WorkerPool,
    WorkerTransport,
    make_transport,
)
from repro.telemetry import get_telemetry

__all__ = [
    "COALESCE_POLICIES",
    "TRANSPORTS",
    "ScreeningService",
    "ServiceConfig",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`ScreeningService` instance.

    Attributes:
        engine: Default measurement backend (registry name, spec, or
            instance); individual requests may override it.
        max_queue_depth: Admission-queue bound -- the service's entire
            standing backlog.
        admission: Full-queue policy: ``"block"`` (backpressure) or
            ``"shed"`` (structured rejection).
        batch_window_s: How long a forming batch waits for coalescing
            partners before it is dispatched anyway.
        max_batch_size: Corner-stacking cap per dispatched batch.
        num_workers: Concurrent batch solves (worker coroutines and
            executor threads or processes).
        deadline_slack_s: Dispatch a batch early when a member deadline
            comes within this margin.
        transport: Where solves run: ``"thread"`` (default) keeps them
            in-process; ``"process"`` pickles batches to worker
            processes (requests must resolve to
            picklable :class:`~repro.core.engines.registry.EngineSpec`
            recipes -- raw engine instances are rejected); ``"auto"``
            picks ``"process"`` when the machine has more than one core
            and the configured engine is spec-resolvable.
        engine_cache_size: LRU bound of the engine rehydration caches
            (the service's own and each worker process's).
        coalesce: Request-grouping policy: ``"family"`` (default) groups
            by the engine's coarse topology-family key, so requests that
            differ only in circuit content -- distinct fault values on a
            mixed wafer -- reach one ``measure_batch`` call, which stacks
            same-structure circuits into one solve pair; ``"exact"``
            groups by the exact batch key (circuit fingerprint included,
            the pre-family behavior); ``"none"`` disables coalescing
            entirely (every request solves alone).
        clock: Monotonic time source (overridable for tests).
    """

    engine: EngineLike = "stagedelay"
    max_queue_depth: int = 256
    admission: Union[AdmissionPolicy, str] = AdmissionPolicy.BLOCK
    batch_window_s: float = 0.005
    max_batch_size: int = 32
    num_workers: int = 2
    deadline_slack_s: float = 0.0
    coalesce: str = "family"
    transport: str = "thread"
    engine_cache_size: int = 64
    clock: Callable[[], float] = time.monotonic


#: Valid :attr:`ServiceConfig.coalesce` policies.
COALESCE_POLICIES = ("family", "exact", "none")

#: Valid :attr:`ServiceConfig.transport` kinds.
TRANSPORTS = ("thread", "process", "auto")


class ScreeningService:
    """In-process asyncio screening service over the engine registry.

    Use as an async context manager::

        async with ScreeningService(engine="stagedelay") as service:
            response = await service.submit(ScreenRequest(tsv=Tsv()))

    Construction accepts a full :class:`ServiceConfig`, field overrides
    as keyword arguments, or both (overrides win).
    """

    def __init__(
        self, config: Optional[ServiceConfig] = None, **overrides: Any
    ):
        base = config if config is not None else ServiceConfig()
        if overrides:
            base = replace(base, **overrides)
        self.config = base
        if base.coalesce not in COALESCE_POLICIES:
            raise ValueError(
                f"unknown coalesce policy {base.coalesce!r}; "
                f"expected one of {COALESCE_POLICIES}"
            )
        if base.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {base.transport!r}; "
                f"expected one of {TRANSPORTS}"
            )
        self._policy = AdmissionPolicy.coerce(base.admission)
        self._clock = base.clock
        self._engines = EngineCache(max_entries=base.engine_cache_size)
        self._inflight: Dict[int, PendingEntry] = {}
        self._seq = 0
        self._started = False
        self._closing = False
        self._admission: Optional[AdmissionQueue] = None
        self._dispatch: Optional[DispatchQueue] = None
        self._batcher_task: Optional["asyncio.Task[None]"] = None
        self._workers: Optional[WorkerPool] = None
        self._transport: Optional[WorkerTransport] = None
        self._transport_kind = ""

    @property
    def transport(self) -> str:
        """The resolved transport kind (``"auto"`` resolves at start)."""
        return self._transport_kind or self.config.transport

    def _resolve_transport_kind(self) -> str:
        """Resolve ``"auto"`` against the machine and the engine.

        ``"process"`` only pays for its serialization when solves can
        actually run in parallel, so auto requires more than one core
        -- and an engine that survives the process boundary (i.e. one
        that normalizes to a picklable spec).
        """
        kind = self.config.transport
        if kind != "auto":
            return kind
        if (os.cpu_count() or 1) <= 1:
            return "thread"
        try:
            factory = as_engine_factory(self.config.engine)
        except (KeyError, TypeError):
            return "thread"
        return "process" if isinstance(factory, EngineSpec) else "thread"

    def _spec_for(self, engine_like: EngineLike) -> Optional[EngineSpec]:
        """The picklable recipe for ``engine_like``, or None."""
        try:
            factory = as_engine_factory(engine_like)
        except (KeyError, TypeError):
            return None
        return factory if isinstance(factory, EngineSpec) else None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Start the pipeline (idempotent)."""
        if self._started:
            return
        cfg = self.config
        self._admission = AdmissionQueue(cfg.max_queue_depth, self._policy)
        self._dispatch = DispatchQueue()
        batcher = MicroBatcher(
            self._admission,
            self._dispatch,
            batch_window_s=cfg.batch_window_s,
            max_batch_size=cfg.max_batch_size,
            deadline_slack_s=cfg.deadline_slack_s,
            clock=self._clock,
        )
        self._transport_kind = self._resolve_transport_kind()
        self._transport = make_transport(
            self._transport_kind,
            num_workers=cfg.num_workers,
            clock=self._clock,
            engine_cache_size=cfg.engine_cache_size,
        )
        self._workers = WorkerPool(
            self._dispatch,
            self._transport,
            num_workers=cfg.num_workers,
            clock=self._clock,
        )
        loop = asyncio.get_running_loop()
        self._batcher_task = loop.create_task(
            batcher.run(), name="repro-service-batcher"
        )
        self._workers.start()
        self._closing = False
        self._started = True

    async def close(self, drain: bool = True) -> None:
        """Stop the pipeline.

        With ``drain`` (the default), everything already admitted is
        batched, solved, and answered before the workers exit --
        graceful shutdown.  Without it, every request still in flight is
        answered ``REJECTED`` (reason ``"service shutdown"``) instead of
        solved; a solve already running on the executor finishes but its
        results are discarded.

        Either way the transport is closed last, which joins its
        executor -- thread or worker process -- so nothing the service
        started outlives it.
        """
        if not self._started:
            return
        assert self._admission is not None
        assert self._dispatch is not None
        assert self._workers is not None
        assert self._transport is not None
        self._closing = True
        self._admission.close()
        if not drain:
            for entry in list(self._inflight.values()):
                self._reject(entry, "service shutdown")
        if self._batcher_task is not None:
            await self._batcher_task
            self._batcher_task = None
        self._dispatch.close(self._workers.num_workers)
        await self._workers.join()
        await self._transport.close()
        self._started = False

    async def __aenter__(self) -> "ScreeningService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- submission ------------------------------------------------------
    async def enqueue(
        self, request: ScreenRequest
    ) -> "asyncio.Future[ScreenResponse]":
        """Admit ``request``; returns the future carrying its response.

        The future is already resolved (with a structured ``REJECTED``
        response) when admission turns the request away; it never
        raises service-side exceptions.
        """
        if not self._started:
            raise RuntimeError("service not started (use 'async with')")
        assert self._admission is not None
        tele = get_telemetry()
        tele.incr("service.submitted")
        loop = asyncio.get_running_loop()
        now = self._clock()
        self._seq += 1
        engine_like = (
            request.engine if request.engine is not None else
            self.config.engine
        )
        engine = self._engines.resolve(engine_like)
        spec: Optional[EngineSpec] = None
        if self._transport_kind == "process":
            # The process transport ships specs, never engines; a
            # request whose engine cannot be spec-normalized gets a
            # structured rejection here rather than a pickle error
            # (or silent divergence) deep in the pipeline.
            spec = self._spec_for(engine_like)
        measurement = request.to_measurement()
        exact: Optional[str] = None
        key: Optional[str] = None
        if self.config.coalesce != "none" and supports_batching(engine):
            exact = engine.batch_key(measurement)
            if exact is not None:
                # Family grouping widens the coalescing pool: requests
                # whose exact keys differ (distinct fault values) still
                # share one measure_batch call when the engine supports
                # it; the engine splits it by structure internally.
                key = (
                    engine.family_key(measurement) or exact
                    if self.config.coalesce == "family" else exact
                )
        entry = PendingEntry(
            seq=self._seq,
            request=request,
            measurement=measurement,
            engine=engine,
            key=key if key is not None else f"!solo:{self._seq}",
            exact_key=exact,
            spec=spec,
            future=loop.create_future(),
            submitted_at=now,
            deadline_at=(
                now + request.deadline_s
                if request.deadline_s is not None else math.inf
            ),
        )
        self._inflight[entry.seq] = entry
        entry.future.add_done_callback(
            lambda _f, seq=entry.seq: self._inflight.pop(seq, None)
        )
        if self._transport_kind == "process" and spec is None:
            self._reject(
                entry,
                "engine is not spec-resolvable under the process "
                "transport (pass a registry name, an EngineSpec, or a "
                "registered engine instance)",
            )
            return entry.future
        if self._closing:
            self._reject(entry, "service shutting down")
            return entry.future
        if request.deadline_s is not None:
            entry.watchdog = loop.call_later(
                request.deadline_s, self._expire, entry
            )
        admitted = await self._admission.put(entry)
        if not admitted:
            reason = (
                "service shutting down" if self._admission.closed
                else f"admission queue full "
                     f"(depth {self.config.max_queue_depth})"
            )
            self._reject(entry, reason)
        return entry.future

    async def submit(self, request: ScreenRequest) -> ScreenResponse:
        """Admit ``request`` and await its response."""
        future = await self.enqueue(request)
        return await future

    async def submit_many(
        self, requests: Sequence[ScreenRequest]
    ) -> List[ScreenResponse]:
        """Admit all ``requests`` and await every response, in order.

        Under the ``BLOCK`` admission policy this is a closed-loop
        producer: admission of request k+1 waits until the queue has
        room, while earlier requests batch and solve concurrently.
        """
        futures = [await self.enqueue(request) for request in requests]
        return list(await asyncio.gather(*futures))

    # -- terminal paths --------------------------------------------------
    def _reject(self, entry: PendingEntry, reason: str) -> None:
        now = self._clock()
        response = ScreenResponse(
            status=ResponseStatus.REJECTED,
            request=entry.request,
            reason=reason,
            latency=entry.stage_latency(now),
        )
        if entry.finish(response):
            tele = get_telemetry()
            tele.incr("service.rejected")
            tele.observe("service.total_s", response.latency.total_s)

    def _expire(self, entry: PendingEntry) -> None:
        """Deadline watchdog: answer EXPIRED the moment time runs out.

        Runs as a ``call_later`` callback, so it fires even while the
        entry's solve is still occupying an executor thread -- deadlines
        are timeouts, not hangs.  The late solve result (if any) is
        discarded when it arrives.
        """
        now = self._clock()
        response = ScreenResponse(
            status=ResponseStatus.EXPIRED,
            request=entry.request,
            attempts=entry.attempts,
            reason=f"deadline of {entry.request.deadline_s}s exceeded",
            latency=entry.stage_latency(now),
        )
        if entry.finish(response):
            tele = get_telemetry()
            tele.incr("service.expired")
            tele.observe("service.total_s", response.latency.total_s)
