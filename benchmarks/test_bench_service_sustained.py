"""E16 -- sustained serving throughput: thread vs process transport.

E14 measures a single closed burst; this bench measures what the
serving tier *sustains*.  For each transport it first probes capacity
with a closed-loop pass (16 clients over a mixed-topology population
crossed with three supplies), then drives an open-loop Poisson arrival
stream at ~2x the thread transport's measured capacity -- deliberate
overload -- and checks the service degrades structurally:

* **zero lost requests**: every offered request gets exactly one typed
  response (OK or a structured rejection), even past saturation;
* **bounded p99**: admission shedding keeps latency from growing with
  the backlog;
* **bit-identical transports**: the process transport returns exactly
  the bytes the thread transport does, request for request;
* **no surviving workers**: every worker process the process transport
  started is joined when the service closes.

The >= 2x sustained-throughput claim for the process transport is a
multicore claim (worker processes escape the GIL that serializes the
thread transport's Python solver layers), so it is asserted only when
the machine has >= 4 cores; below that the ratio is recorded in the
JSON payload without gating.

Results land in ``BENCH_service_sustained.json`` for the
``service-smoke`` CI job to publish.

Environment knobs:

* ``REPRO_BENCH_SERVICE_TIMESTEP_PS`` -- stage-delay engine timestep in
  ps (default 20), shared with E14.
"""

import asyncio
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import Table, format_seconds
from repro.core.engines.registry import spec as engine_spec
from repro.service import ScreeningService, ServiceConfig
from repro.telemetry import use_telemetry
from repro.workloads import DiePopulation, ServiceLoadGenerator

NUM_TSVS = 4
VOLTAGES = (0.6, 0.8, 1.0)
IDENTITY_REQUESTS = 24
CAPACITY_REQUESTS = 36
OVERLOAD_REQUESTS = 36
TRANSPORTS = ("thread", "process")


def service_timestep() -> float:
    return float(
        os.environ.get("REPRO_BENCH_SERVICE_TIMESTEP_PS", "20")
    ) * 1e-12


def generator() -> ServiceLoadGenerator:
    population = DiePopulation(num_tsvs=NUM_TSVS, seed=7)
    return ServiceLoadGenerator(population, seed=42, voltages=VOLTAGES)


def service_config(transport: str, **overrides) -> ServiceConfig:
    spec = engine_spec("stagedelay", timestep=service_timestep())
    defaults = dict(
        engine=spec,
        transport=transport,
        num_workers=min(4, os.cpu_count() or 1),
        batch_window_s=0.01,
        max_batch_size=8,
        max_queue_depth=64,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_closed(transport: str, num_requests: int):
    async def scenario():
        gen = generator()
        async with ScreeningService(service_config(transport)) as service:
            return await gen.run_closed_loop(
                service, num_requests, concurrency=16
            )

    with use_telemetry():
        return asyncio.run(scenario())


def run_open(transport: str, num_requests: int, rate_hz: float):
    async def scenario():
        gen = generator()
        config = service_config(
            transport, admission="shed", max_queue_depth=16
        )
        async with ScreeningService(config) as service:
            return await gen.run_open_loop(service, num_requests, rate_hz)

    with use_telemetry():
        return asyncio.run(scenario())


def run_identity(transport: str):
    async def scenario():
        gen = generator()
        async with ScreeningService(service_config(transport)) as service:
            return await service.submit_many(
                gen.requests(IDENTITY_REQUESTS)
            )

    return asyncio.run(scenario())


def same_measurement(a, b) -> bool:
    """Bit-equality where NaN == NaN (a stuck oscillator *is* the
    measurement at sub-threshold supplies, on either transport)."""
    scalars = (
        (a.delta_t == b.delta_t
         or (np.isnan(a.delta_t) and np.isnan(b.delta_t)))
        and a.vdd == b.vdd
        and a.engine == b.engine
    )
    if a.samples is None or b.samples is None:
        return scalars and a.samples is None and b.samples is None
    return scalars and np.array_equal(a.samples, b.samples, equal_nan=True)


def test_bench_service_sustained(benchmark):
    cores = os.cpu_count() or 1

    # Phase 1: bit-identity across transports on the same stream.
    reference = run_identity("thread")
    candidate = run_identity("process")
    identical = all(
        same_measurement(t, p)
        for t, p in zip(reference, candidate)
    )

    # Phase 2: closed-loop capacity probe per transport.
    capacity = {t: run_closed(t, CAPACITY_REQUESTS) for t in TRANSPORTS}

    # Phase 3: open-loop Poisson overload at ~2x thread capacity.
    overload_rate = max(2.0 * capacity["thread"].throughput_rps, 4.0)
    overload = {
        t: run_open(t, OVERLOAD_REQUESTS, overload_rate)
        for t in TRANSPORTS
    }

    speedup = (
        capacity["process"].throughput_rps
        / capacity["thread"].throughput_rps
    )
    leftover_workers = multiprocessing.active_children()

    table = Table(
        ["transport", "capacity rps", "overload p99", "answered", "ok"],
        title=(f"E16: sustained serving throughput "
               f"({cores} core(s), {NUM_TSVS} TSVs x "
               f"{len(VOLTAGES)} supplies)"),
    )
    for t in TRANSPORTS:
        table.add_row([
            t,
            f"{capacity[t].throughput_rps:.1f}",
            format_seconds(overload[t].latency_p99_s),
            f"{overload[t].completed}/{overload[t].offered}",
            str(overload[t].ok),
        ])
    table.print()
    print(f"\nprocess/thread sustained ratio: {speedup:.2f}x "
          f"(gated at >= 4 cores; this machine has {cores})")
    print(f"bit-identical transports: {identical}")

    payload = {
        "cores": cores,
        "timestep_ps": service_timestep() * 1e12,
        "num_tsvs": NUM_TSVS,
        "voltages": list(VOLTAGES),
        "overload_rate_hz": overload_rate,
        "bit_identical": identical,
        "speedup_process_over_thread": speedup,
        "speedup_asserted": cores >= 4,
        "capacity": {
            t: capacity[t].as_json_dict() for t in TRANSPORTS
        },
        "overload": {
            t: overload[t].as_json_dict() for t in TRANSPORTS
        },
    }
    Path("BENCH_service_sustained.json").write_text(
        json.dumps(payload, indent=2)
    )
    print(f"wrote BENCH_service_sustained.json "
          f"(ratio {speedup:.2f}x, overload p99 "
          f"{format_seconds(overload['process'].latency_p99_s)})")

    # Structural claims hold on any machine:
    assert identical, "process transport diverged from thread transport"
    for t in TRANSPORTS:
        report = overload[t]
        assert report.completed == report.offered, (
            f"{t}: lost {report.offered - report.completed} request(s) "
            "under overload"
        )
        assert report.ok >= 1, f"{t}: nothing served under overload"
        # Shed admission bounds the backlog, so p99 cannot grow with
        # the arrival count; 30 s is a generous absolute ceiling even
        # for coarse-timestep CI machines.
        assert report.latency_p99_s < 30.0, (
            f"{t}: overload p99 {report.latency_p99_s:.1f}s unbounded"
        )
    assert leftover_workers == [], (
        f"worker processes survived drain: {leftover_workers}"
    )

    # The throughput claim is a multicore claim: assert it only where
    # the worker processes actually get their own cores.
    if cores >= 4:
        assert speedup >= 2.0, (
            f"process transport sustained only {speedup:.2f}x of the "
            f"thread transport on {cores} cores (expected >= 2x)"
        )

    # Registered timing: one small closed-loop pass per transport.
    benchmark.pedantic(
        lambda: [run_closed(t, 8) for t in TRANSPORTS],
        rounds=1, iterations=1,
    )
