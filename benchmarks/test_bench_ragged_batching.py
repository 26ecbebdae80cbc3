"""E15 -- ragged family coalescing vs exact-fingerprint batching.

Exact-key coalescing (the pre-family service) can only merge requests
whose netlist fingerprints match bit-for-bit.  On a defective die that
fragments the load: every resistive open and every pinhole draws its own
log-normal resistance, so each faulty TSV is a singleton fingerprint and
rides a tiny batch of its own re-measure seeds.  Family coalescing keys
on the engine knobs + supply only and lets the stage-delay engine
ragged-pack the mixed topologies into one shared time loop.

This bench offers the same request stream -- ``NUM_TSVS`` defect-heavy
TSVs x ``SEEDS_PER_TSV`` measurement seeds, all at one supply -- to two
service configurations:

* **exact** -- ``coalesce="exact"``: batches only within identical
  netlist fingerprints (one group per TSV);
* **family** -- ``coalesce="family"``: one batch per engine family,
  ragged-packed across the defect topologies.

Asserted claims: family coalescing widens the mean batch by >= 2x,
ragged packs actually ran, and every answer is *bit-identical* between
the two policies.  Wall-clock speedup, coalesce widths and family span
land in ``BENCH_ragged.json`` for the ``ragged-smoke`` CI job to
publish.

Environment knobs:

* ``REPRO_BENCH_RAGGED_TIMESTEP_PS`` -- stage-delay engine timestep in
  ps (default 20; parity between the policies is exact at any
  timestep, so CI spends its seconds on coalescing, not resolution).
"""

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import Table, format_seconds
from repro.core.engines.registry import spec as engine_spec
from repro.service import ScreeningService
from repro.spice.cache import cache_disabled
from repro.telemetry import use_telemetry
from repro.workloads import DefectStatistics, DiePopulation, ServiceLoadGenerator

NUM_TSVS = 8
SEEDS_PER_TSV = 4
NUM_REQUESTS = NUM_TSVS * SEEDS_PER_TSV  # 32 concurrent requests
MAX_BATCH = NUM_REQUESTS

#: Defect-heavy on purpose: most TSVs draw a unique fault resistance,
#: so exact-fingerprint coalescing degenerates toward singletons.
DEFECT_STATS = DefectStatistics(void_rate=0.3, pinhole_rate=0.3)


def ragged_timestep() -> float:
    return float(
        os.environ.get("REPRO_BENCH_RAGGED_TIMESTEP_PS", "20")
    ) * 1e-12


def run_policy(engine, requests, coalesce):
    """One timed pass of the full stream under a coalesce policy."""
    with use_telemetry() as telemetry:
        async def full():
            async with ScreeningService(
                engine=engine, coalesce=coalesce,
                max_queue_depth=NUM_REQUESTS,
                batch_window_s=0.05, max_batch_size=MAX_BATCH,
            ) as service:
                futures = [await service.enqueue(r) for r in requests]
                return list(await asyncio.gather(*futures))

        t0 = time.perf_counter()
        responses = asyncio.run(full())
        wall_s = time.perf_counter() - t0
        snapshot = telemetry.snapshot()
    return responses, wall_s, snapshot


def policy_stats(snapshot):
    occupancy = snapshot["histograms"]["service.batch_occupancy"]
    span = snapshot["histograms"].get("service.family_span", {})
    return {
        "num_batches": occupancy["count"],
        "coalesce_width_mean": occupancy["total"] / occupancy["count"],
        "coalesce_width_max": occupancy["max"],
        "family_span_max": span.get("max", 1.0),
        "ragged_packs": int(
            snapshot["counters"].get("ragged.packs", 0)
        ),
    }


def test_bench_ragged_family_coalescing(benchmark):
    spec = engine_spec("stagedelay", timestep=ragged_timestep())
    engine = spec.build()
    population = DiePopulation(
        num_tsvs=NUM_TSVS, stats=DEFECT_STATS, seed=7
    )
    kinds = {r.tsv.fault.kind for r in population}
    assert len(kinds) >= 2, f"load is not mixed-topology: {kinds}"
    gen = ServiceLoadGenerator(population, seed=42)
    requests = gen.requests(NUM_REQUESTS)

    with cache_disabled():
        engine.measure(requests[0].to_measurement())  # warm the code paths
        exact_resp, t_exact, exact_snap = run_policy(
            engine, requests, "exact"
        )
        family_resp, t_family, family_snap = run_policy(
            engine, requests, "family"
        )

    exact = policy_stats(exact_snap)
    family = policy_stats(family_snap)
    width_ratio = (
        family["coalesce_width_mean"] / exact["coalesce_width_mean"]
    )
    speedup = t_exact / t_family
    identical = all(
        a.delta_t == b.delta_t
        and a.vdd == b.vdd
        and np.array_equal(a.samples, b.samples)
        for a, b in zip(exact_resp, family_resp)
    )

    table = Table(
        ["policy", "wall time", "batches", "mean width", "speedup"],
        title=(f"E15: {NUM_REQUESTS} requests over {NUM_TSVS} "
               f"defect-heavy TSVs x {SEEDS_PER_TSV} seeds"),
    )
    table.add_row(["exact fingerprint", format_seconds(t_exact),
                   str(exact["num_batches"]),
                   f"{exact['coalesce_width_mean']:.1f}", "1.0x"])
    table.add_row(["family (ragged)", format_seconds(t_family),
                   str(family["num_batches"]),
                   f"{family['coalesce_width_mean']:.1f}",
                   f"{speedup:.1f}x"])
    table.print()
    print(f"\ncoalesce width ratio: {width_ratio:.1f}x | ragged packs: "
          f"{family['ragged_packs']} | bit-identical: {identical}")

    payload = {
        "num_requests": NUM_REQUESTS,
        "num_tsvs": NUM_TSVS,
        "seeds_per_tsv": SEEDS_PER_TSV,
        "fault_kinds": sorted(kinds),
        "timestep_ps": ragged_timestep() * 1e12,
        "exact": {"wall_s": t_exact, **exact},
        "family": {"wall_s": t_family, **family},
        "coalesce_width_ratio": width_ratio,
        "speedup": speedup,
        "bit_identical": identical,
    }
    Path("BENCH_ragged.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote BENCH_ragged.json (width ratio {width_ratio:.2f}x, "
          f"speedup {speedup:.2f}x)")

    # The packing claim: family coalescing at least doubles the mean
    # batch width on a fingerprint-fragmented load, ragged packs really
    # ran, and not one bit of the answers moved.
    assert identical, "family answers diverged from exact-key batching"
    assert width_ratio >= 2.0, (
        f"mean coalesce width ratio {width_ratio:.2f}x < 2x"
    )
    assert family["ragged_packs"] >= 1, "no ragged packs were built"
    assert family["family_span_max"] >= 2, "family batches never spanned"
    assert exact["ragged_packs"] == 0, "exact policy should never pack"
    assert all(r.ok for r in family_resp)

    # Registered timing: one family-coalesced pass through the service.
    benchmark.pedantic(
        lambda: run_policy(engine, requests[:8], "family"),
        rounds=1, iterations=1,
    )
