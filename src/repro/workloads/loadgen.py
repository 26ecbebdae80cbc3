"""Deterministic request streams and load models for the service.

:class:`ServiceLoadGenerator` turns a seeded
:class:`~repro.workloads.generator.DiePopulation` into reproducible
:class:`~repro.service.request.ScreenRequest` streams and drives a
:class:`~repro.service.service.ScreeningService` under the two classic
load models:

* **closed-loop** -- a fixed number of concurrent clients, each
  submitting its next request only after the previous answer arrives.
  Throughput adapts to the service (this is how a tester rig with N
  probe stations behaves).
* **open-loop** -- requests arrive on a seeded Poisson process at a
  configured rate regardless of how the service is doing.  Excess load
  surfaces as queueing, deadline expiry, or shed requests instead of a
  slowed-down generator (this is how overload actually happens).

Both runs return a :class:`LoadReport` summarizing outcome counts,
throughput, the latency distribution, and batch occupancy -- the same
numbers the ``service-smoke`` CI job publishes as ``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.service.request import ScreenRequest, ScreenResponse
from repro.service.service import ScreeningService
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import Histogram, Telemetry, get_telemetry
from repro.workloads.generator import DiePopulation

__all__ = ["LoadReport", "ServiceLoadGenerator"]


@dataclass
class LoadReport:
    """What one load-generator run did and how the service coped.

    Latency quantiles come from the ``service.total_s`` histogram
    (submit-to-response, all statuses) and are conservative upper
    bounds; ``batch_occupancy_*`` summarize how many requests shared
    each solve.
    """

    offered: int
    completed: int
    ok: int
    rejected: int
    expired: int
    failed: int
    wall_s: float
    throughput_rps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    latency_max_s: float
    batch_occupancy_mean: float
    batch_occupancy_max: float
    num_batches: int
    #: Mean/max distinct exact-key groups per dispatched batch; >1 only
    #: under family coalescing (``service.family_span``).
    family_span_mean: float = 1.0
    family_span_max: float = 1.0
    #: Value-stacked on/bypassed pairs the stage-delay engine ran for
    #: same-structure request groups (``stagedelay.stacked_pairs``).
    stacked_pairs: int = 0
    occupancy_buckets: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_run(
        cls,
        responses: Sequence[ScreenResponse],
        wall_s: float,
        telemetry: Telemetry,
    ) -> "LoadReport":
        statuses = [r.status.value for r in responses]
        total = telemetry.histograms.get("service.total_s", Histogram())
        occupancy = telemetry.histograms.get(
            "service.batch_occupancy", Histogram()
        )
        span = telemetry.histograms.get("service.family_span", Histogram())
        return cls(
            offered=len(responses),
            completed=len(responses),
            ok=statuses.count("ok"),
            rejected=statuses.count("rejected"),
            expired=statuses.count("expired"),
            failed=statuses.count("failed"),
            wall_s=wall_s,
            throughput_rps=len(responses) / wall_s if wall_s > 0 else 0.0,
            latency_mean_s=total.mean if total.count else 0.0,
            latency_p50_s=total.quantile(0.5) if total.count else 0.0,
            latency_p99_s=total.quantile(0.99) if total.count else 0.0,
            latency_max_s=total.max if total.count else 0.0,
            batch_occupancy_mean=(
                occupancy.mean if occupancy.count else 0.0
            ),
            batch_occupancy_max=(
                occupancy.max if occupancy.count else 0.0
            ),
            num_batches=occupancy.count,
            family_span_mean=span.mean if span.count else 1.0,
            family_span_max=span.max if span.count else 1.0,
            stacked_pairs=int(telemetry.count("stagedelay.stacked_pairs")),
            occupancy_buckets=dict(occupancy.buckets),
        )

    def as_json_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (histogram bucket keys become strings)."""
        payload = {
            "offered": self.offered,
            "completed": self.completed,
            "ok": self.ok,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_max_s": self.latency_max_s,
            "batch_occupancy_mean": self.batch_occupancy_mean,
            "batch_occupancy_max": self.batch_occupancy_max,
            "num_batches": self.num_batches,
            "family_span_mean": self.family_span_mean,
            "family_span_max": self.family_span_max,
            "stacked_pairs": self.stacked_pairs,
            "occupancy_buckets": {
                str(k): v for k, v in sorted(self.occupancy_buckets.items())
            },
        }
        return payload


class ServiceLoadGenerator:
    """Seeded, reproducible screening-request streams.

    Requests walk the population's TSVs round-robin, crossed with the
    configured voltage plan; request seeds derive deterministically from
    ``seed`` and the request index, so the same generator configuration
    always produces the identical stream -- and therefore bit-identical
    measurements, whatever the arrival timing does to batching.

    Args:
        population: TSV source; defaults to a seeded
            :class:`DiePopulation` of ``num_tsvs``.
        num_tsvs: Population size when ``population`` is not given.
        seed: Master seed for the stream (population seed derives from
            it too when one is generated here).
        voltages: Voltage plan crossed with the TSVs (``None`` entries
            keep the engine default supply).
        m: Segments per measurement (paper's M).
        num_samples: Monte-Carlo draw per request (the default 1 is the
            coalescible production path).
        variation: Process-variation model applied to every request.
        deadline_s: Optional per-request deadline.
        priority: Scheduling class for every generated request.
    """

    def __init__(
        self,
        population: Optional[DiePopulation] = None,
        *,
        num_tsvs: int = 64,
        seed: int = 0,
        voltages: Sequence[Optional[float]] = (None,),
        m: int = 1,
        num_samples: Optional[int] = 1,
        variation: Optional[ProcessVariation] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
    ):
        if not voltages:
            raise ValueError("voltages must be non-empty")
        self.population = (
            population if population is not None
            else DiePopulation(num_tsvs=num_tsvs, seed=seed + 1)
        )
        self.seed = seed
        self.voltages = tuple(voltages)
        self.m = m
        self.num_samples = num_samples
        self.variation = (
            variation if variation is not None else ProcessVariation()
        )
        self.deadline_s = deadline_s
        self.priority = priority

    def requests(self, n: int) -> List[ScreenRequest]:
        """The first ``n`` requests of the stream (deterministic)."""
        records = self.population.records
        out: List[ScreenRequest] = []
        for i in range(n):
            record = records[i % len(records)]
            vdd = self.voltages[(i // len(records)) % len(self.voltages)]
            out.append(ScreenRequest(
                tsv=record.tsv,
                m=self.m,
                vdd=vdd,
                seed=self.seed * 1_000_003 + i,
                variation=self.variation,
                num_samples=self.num_samples,
                deadline_s=self.deadline_s,
                priority=self.priority,
                tags={"tsv_index": str(record.index)},
            ))
        return out

    # -- load models -----------------------------------------------------
    async def run_closed_loop(
        self,
        service: ScreeningService,
        num_requests: int,
        concurrency: int = 8,
    ) -> LoadReport:
        """``concurrency`` clients, each waiting for its answer."""
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        stream = self.requests(num_requests)
        responses: List[Optional[ScreenResponse]] = [None] * num_requests
        next_index = 0

        async def client() -> None:
            nonlocal next_index
            while next_index < num_requests:
                i = next_index
                next_index += 1
                responses[i] = await service.submit(stream[i])

        start = time.perf_counter()
        await asyncio.gather(
            *(client() for _ in range(min(concurrency, num_requests)))
        )
        wall_s = time.perf_counter() - start
        done = [r for r in responses if r is not None]
        return LoadReport.from_run(done, wall_s, get_telemetry())

    async def run_open_loop(
        self,
        service: ScreeningService,
        num_requests: int,
        rate_hz: float,
    ) -> LoadReport:
        """Poisson arrivals at ``rate_hz``, regardless of service pace.

        Inter-arrival gaps are drawn from a seeded exponential, so the
        arrival pattern is as reproducible as the requests themselves
        (modulo scheduler jitter).  Requests are *enqueued*, never
        awaited inline -- a slow service cannot slow the generator down.
        """
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(1.0 / rate_hz, size=num_requests)
        futures = []
        start = time.perf_counter()
        for request, gap in zip(self.requests(num_requests), gaps):
            futures.append(await service.enqueue(request))
            await asyncio.sleep(gap)
        responses = list(await asyncio.gather(*futures))
        wall_s = time.perf_counter() - start
        return LoadReport.from_run(responses, wall_s, get_telemetry())
