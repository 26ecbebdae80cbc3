"""Solver-stack throughput: 500-corner Monte Carlo step-loop wall time.

Not a paper figure -- an infrastructure bench for the unified
StampPlan / linalg / stepper stack.  It times the workhorse measurement
of the Monte Carlo experiments (``StageDelayEngine.delta_t_mc`` with a
1 kOhm resistive open, the Fig. 7 configuration) and reports wall time,
per-corner-step throughput, and the condensed-space dimensions the
transient loop actually solves.  The throughput counts the steps the
two transients took: each stops once every corner's delays are read,
so it is the window's steps minus ``spice.steps_skipped``.

Environment knobs:

* ``REPRO_BENCH_MC_CORNERS`` -- Monte Carlo corners (default 500, the
  acceptance configuration; lower it for quick smoke runs).
"""

import os
import time

import numpy as np

from benchmarks.conftest import bench_timestep
from repro.analysis.reporting import Table, format_si
from repro.core.engines import StageDelayEngine
from repro.core.tsv import ResistiveOpen, Tsv
from repro.spice.mna import MnaSystem
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import use_telemetry

FAULT = Tsv(fault=ResistiveOpen(1000.0, 0.5))


def bench_corners() -> int:
    return int(os.environ.get("REPRO_BENCH_MC_CORNERS", "500"))


def test_bench_mc_step_loop_wall_time():
    corners = bench_corners()
    engine = StageDelayEngine(timestep=bench_timestep())
    variation = ProcessVariation()

    with use_telemetry() as tele:
        t0 = time.perf_counter()
        samples = engine.delta_t_mc(FAULT, variation, corners, seed=1)
        elapsed = time.perf_counter() - t0

    # Two batched transients (TSV in loop / bypassed) over the same
    # window; each stops early once its delays are read.
    window = 2 * int(round(engine.stop_time() / engine.timestep))
    steps = window - int(tele.count("spice.steps_skipped"))
    circuit, _ = engine._segment_circuit(FAULT, bypassed=False)
    plan = MnaSystem(circuit).plan
    corner_steps = corners * steps

    table = Table(
        ["corners", "steps/corner", "window steps", "wall time",
         "corner-steps/s", "full size", "reduced dim", "condensed dim"],
        title="Solver stack: batched MC step-loop throughput",
    )
    table.add_row([
        corners,
        steps,
        window,
        f"{elapsed:.2f} s",
        format_si(corner_steps / elapsed, ""),
        plan.size,
        plan.reduced.dim,
        plan.condensed.dim,
    ])
    table.print()

    # Shape claims: the run completes, most dies yield a finite DeltaT,
    # and the condensed space really is smaller than the classical
    # ground-reduced system (that shrink is where the speedup lives).
    assert np.isfinite(samples).mean() > 0.5
    assert 0 < steps < window
    assert plan.condensed.dim < plan.reduced.dim
    assert elapsed > 0
