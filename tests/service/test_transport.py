"""Worker transports: thread/process parity, failure semantics, leaks.

The process transport must be *observationally identical* to the thread
transport -- bit-identical measurements, the same retry-once and
deadline semantics -- while leaving no worker process behind once the
service closes, and surviving a worker process that dies mid-solve.
Engines used here are registered through a fixture (and unregistered
afterwards) so specs resolve in forked workers without perturbing the
registry-content assertions elsewhere in the suite.
"""

import asyncio
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.core.engines import registry
from repro.core.engines.base import (
    Engine,
    EngineCapabilities,
    MeasurementRequest,
    MeasurementResult,
)
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Tsv
from repro.service import (
    ProcessTransport,
    ResponseStatus,
    ScreenRequest,
    ScreeningService,
    ServiceConfig,
)
from repro.telemetry import use_telemetry


@dataclass
class NapEngine(Engine):
    """Answers with a fixed value after a fixed delay (registered)."""

    engine_name = "testnap"
    capabilities = EngineCapabilities(batched_requests=True)

    config: RingOscillatorConfig = field(
        default_factory=RingOscillatorConfig
    )
    delay_s: float = 0.0
    value: float = 1e-10

    def period(self, tsvs, enabled, sample=None):
        return self.value

    def delta_t(self, tsv, m=1, variation=None, seed=0):
        return self.value

    def batch_key(self, request: MeasurementRequest) -> Optional[str]:
        return self.engine_name

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        return self.measure_batch([request])[0]

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        if self.delay_s:
            time.sleep(self.delay_s)
        return [
            MeasurementResult(
                delta_t=self.value, engine=self.engine_name,
                vdd=self.config.vdd, m=r.m, seed=r.seed,
            )
            for r in requests
        ]


@dataclass
class SplitterEngine(NapEngine):
    """Raises on coalesced (multi-request) solves; singletons work."""

    engine_name = "testsplit"

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        if len(requests) > 1:
            raise RuntimeError("coalesced solve diverged")
        return super().measure_batch(requests)


#: The request seed :class:`KillerEngine` dies on.
KILL_SEED = 13


@dataclass
class KillerEngine(NapEngine):
    """SIGKILLs its own worker process when asked to solve ``KILL_SEED``."""

    engine_name = "testkiller"

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        if any(r.seed == KILL_SEED for r in requests):
            os.kill(os.getpid(), signal.SIGKILL)
        return super().measure_batch(requests)


@dataclass
class UnregisteredEngine(NapEngine):
    """Never registered: not spec-resolvable across processes."""

    engine_name = "testunregistered"


@dataclass
class LateEngine(NapEngine):
    """Registered only after the worker processes forked."""

    engine_name = "testlate"


@pytest.fixture
def test_engines():
    """Register the stub engines for the test, then scrub the registry."""
    stubs = (NapEngine, SplitterEngine, KillerEngine)
    for cls in stubs:
        registry.register(cls.engine_name)(cls)
    try:
        yield
    finally:
        for cls in stubs:
            registry._REGISTRY.pop(cls.engine_name, None)


def request(**kwargs) -> ScreenRequest:
    kwargs.setdefault("tsv", Tsv())
    return ScreenRequest(**kwargs)


def run_service(config: ServiceConfig, requests: List[ScreenRequest]):
    async def scenario():
        async with ScreeningService(config) as service:
            return await service.submit_many(requests)

    return asyncio.run(scenario())


class TestThreadProcessParity:
    def test_bit_identical_responses_at_64_concurrent(self):
        """64 concurrent Monte-Carlo requests: same bits either way."""
        requests = [
            request(
                tsv=Tsv(), m=1 + (i % 3), seed=i, vdd=0.7 + 0.1 * (i % 4),
                num_samples=8,
            )
            for i in range(64)
        ]
        by_transport = {}
        for transport in ("thread", "process"):
            responses = run_service(
                ServiceConfig(
                    engine="analytic", transport=transport, num_workers=2,
                    max_queue_depth=64,
                ),
                requests,
            )
            assert all(r.status is ResponseStatus.OK for r in responses)
            by_transport[transport] = responses
        for t, p in zip(by_transport["thread"], by_transport["process"]):
            assert t.delta_t == p.delta_t
            assert t.vdd == p.vdd
            assert t.engine == p.engine
            assert np.array_equal(t.samples, p.samples)
        assert multiprocessing.active_children() == []

    def test_transport_stage_is_itemized(self):
        requests = [request(seed=i, num_samples=4) for i in range(8)]
        thread = run_service(
            ServiceConfig(engine="analytic", transport="thread"), requests
        )
        process = run_service(
            ServiceConfig(engine="analytic", transport="process"), requests
        )
        assert all(r.latency.transport_s == 0.0 for r in thread)
        assert any(r.latency.transport_s > 0.0 for r in process)


class TestProcessFailureSemantics:
    def test_deadline_expires_mid_process_solve(self, test_engines):
        """A 50 ms deadline against a 500 ms worker-process solve."""

        async def scenario():
            async with ScreeningService(
                engine=NapEngine(delay_s=0.5), transport="process",
                batch_window_s=0.0, num_workers=1,
            ) as service:
                start = time.monotonic()
                response = await service.submit(request(deadline_s=0.05))
                waited = time.monotonic() - start
            return response, waited

        response, waited = asyncio.run(scenario())
        assert response.status is ResponseStatus.EXPIRED
        # Answered at the deadline, not after the 0.5 s solve; the
        # late worker-process result is discarded on arrival.
        assert waited < 0.4
        assert multiprocessing.active_children() == []

    def test_decomposition_retry_across_processes(self, test_engines):
        with use_telemetry() as telemetry:
            responses = run_service(
                ServiceConfig(
                    engine=SplitterEngine(), transport="process",
                    batch_window_s=0.05, num_workers=1,
                ),
                [request(seed=i) for i in range(4)],
            )
        assert all(r.status is ResponseStatus.OK for r in responses)
        assert all(r.attempts == 2 for r in responses)
        assert all(r.batch_size == 1 for r in responses)
        counters = telemetry.snapshot()["counters"]
        assert counters["service.batch_retries"] == 1
        assert multiprocessing.active_children() == []

    def test_unresolvable_engine_is_rejected_structurally(self):
        responses = run_service(
            ServiceConfig(
                engine=UnregisteredEngine(), transport="process",
            ),
            [request(seed=0)],
        )
        assert responses[0].status is ResponseStatus.REJECTED
        assert "spec-resolvable" in responses[0].reason


    def test_worker_that_cannot_rehydrate_its_spec(self, test_engines):
        """A spec registered after the pool forked: the workers cannot
        build it, so its batch answers FAILED naming the spec, and the
        same workers go on serving later batches."""

        async def scenario():
            async with ScreeningService(
                engine=NapEngine(), transport="process", num_workers=1,
                batch_window_s=0.0,
            ) as service:
                registry.register(LateEngine.engine_name)(LateEngine)
                late = await service.submit_many([
                    request(seed=i, engine=registry.spec("testlate"))
                    for i in range(2)
                ])
                later = await service.submit_many(
                    [request(seed=i) for i in range(3)]
                )
            return late, later

        try:
            with use_telemetry() as telemetry:
                late, later = asyncio.run(
                    asyncio.wait_for(scenario(), timeout=60.0)
                )
        finally:
            registry._REGISTRY.pop(LateEngine.engine_name, None)
        for response in late:
            assert response.status is ResponseStatus.FAILED
            assert "testlate" in response.reason
        assert all(r.status is ResponseStatus.OK for r in later)
        counters = telemetry.snapshot()["counters"]
        assert counters["service.failed"] == 2
        assert "service.pool_rebuilds" not in counters
        assert multiprocessing.active_children() == []


class TestProcessHammer:
    def test_four_process_sweep_leaves_no_workers(self):
        """4 worker processes, 48 Monte-Carlo solves, zero leftovers."""
        with use_telemetry() as telemetry:
            responses = run_service(
                ServiceConfig(
                    engine="analytic", transport="process", num_workers=4,
                    max_queue_depth=48, batch_window_s=0.002,
                ),
                [
                    request(seed=i, num_samples=16, vdd=0.7 + 0.1 * (i % 3))
                    for i in range(48)
                ],
            )
        assert all(r.status is ResponseStatus.OK for r in responses)
        # Worker telemetry crosses back and merges into the parent's.
        assert telemetry.snapshot()["counters"]["measure.analytic"] == 48
        assert multiprocessing.active_children() == []


class TestBrokenPool:
    def test_dead_worker_fails_its_batch_and_pool_is_rebuilt(
        self, test_engines
    ):
        async def scenario():
            async with ScreeningService(
                engine=KillerEngine(), transport="process",
                num_workers=2, batch_window_s=0.0,
            ) as service:
                killed = await service.submit(request(seed=KILL_SEED))
                later = await service.submit_many(
                    [request(seed=i) for i in range(4)]
                )
            return killed, later

        with use_telemetry() as telemetry:
            killed, later = asyncio.run(
                asyncio.wait_for(scenario(), timeout=60.0)
            )
        assert killed.status is ResponseStatus.FAILED
        assert "BrokenProcessPool" in killed.reason
        assert all(r.status is ResponseStatus.OK for r in later)
        counters = telemetry.snapshot()["counters"]
        assert counters["service.pool_rebuilds"] == 1
        assert multiprocessing.active_children() == []


class TestWarmPool:
    """Worker processes start with the pool, not on the first request."""

    def test_start_forks_every_worker_before_any_request(self):
        async def scenario():
            async with ScreeningService(
                engine="analytic", transport="process", num_workers=2,
            ):
                return len(multiprocessing.active_children())

        assert asyncio.run(asyncio.wait_for(scenario(), timeout=60.0)) == 2
        assert multiprocessing.active_children() == []

    def test_rebuilt_pool_is_warm(self):
        async def scenario():
            transport = ProcessTransport(
                num_workers=2, clock=time.monotonic, engine_cache_size=4,
            )
            old = set(multiprocessing.active_children())
            transport._rebuild(transport._pool)
            fresh = set(multiprocessing.active_children()) - old
            await transport.close()
            return old, fresh

        old, fresh = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        assert len(old) == 2
        assert len(fresh) == 2
        for proc in old:
            proc.join(timeout=30.0)
        assert multiprocessing.active_children() == []


class TestTransportConfig:
    def test_thread_remains_the_default(self):
        assert ServiceConfig().transport == "thread"

    def test_unknown_transport_is_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ScreeningService(transport="carrier-pigeon")

    def test_auto_resolves_by_cores_and_engine(self):
        async def scenario(config):
            async with ScreeningService(config) as service:
                return service.transport

        expected = "process" if (os.cpu_count() or 1) > 1 else "thread"
        assert asyncio.run(
            scenario(ServiceConfig(engine="analytic", transport="auto"))
        ) == expected
        # An engine that cannot survive the process boundary pins auto
        # to the thread transport no matter the core count.
        assert asyncio.run(
            scenario(ServiceConfig(
                engine=UnregisteredEngine(), transport="auto",
            ))
        ) == "thread"
