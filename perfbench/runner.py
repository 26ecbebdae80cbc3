"""One benchmark run: set-ups, rounds, checks, metrics.

``run_workload`` returns the final JSON object of the run plus a
diagnostics record (environment, every round, every set-up).  With
``trace`` the run alternates untraced and traced rounds and reports
the per-layer metrics; without it, the end-to-end metrics.
"""

from __future__ import annotations

import importlib
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.harness import (
    Round,
    by_median,
    counter_mismatches,
    fastest,
    host_reference,
    median_items_per_s,
    percentile,
    pooled_latencies,
    result_line,
    run_schedule,
)
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import WORKLOADS, Workload

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Telemetry counters reported per layer: metric name -> counter name.
COUNTERS = {
    "spice.batched_solves": "batched_solves",
    "spice.woodbury_updates": "woodbury_updates",
    "spice.woodbury_fallbacks": "woodbury_fallbacks",
    "spice.lu_refactorizations": "lu_refactorizations",
    "spice.dense_solves": "dense_solves",
    "spice.newton_iterations": "newton_iterations",
    "spice.ragged_bucket_solves": "ragged.bucket_solves",
    "spice.step_halvings": "step_halvings",
    "cache.hits": "cache_hits",
    "cache.misses": "cache_misses",
    "cascade.escalations.near_band": "cascade.escalations.near_band",
    "cascade.escalations.low_agreement": "cascade.escalations.low_agreement",
    "cascade.escalations.novel": "cascade.escalations.novel",
    "cascade.escalations.preflight": "cascade.escalations.preflight",
    "service.batches": "service.batches",
    "service.retries": "service.batch_retries",
}

#: Spans whose self time (``<name>_s``) and calls (``<name>_calls``) are
#: reported.
SPANS = (
    "spice.batched_transient",
    "spice.scalar_transient",
    "spice.ragged_transient",
    "staticcheck.check_die",
    "engines.analytic.measure",
    "engines.stagedelay.measure",
    "engines.stagedelay.measure_batch",
    "engines.stagedelay.delta_t_mc",
)

#: Per-layer numbers the workloads compute themselves (0 where absent).
WORKLOAD_LAYERS = {
    "cascade.stage0_resolved_ratio": "ratio",
    "cascade.top_stage_measurements": "count",
    "escape_rate": "ratio",
    "overkill_rate": "ratio",
    "service.queue_wait_p50_s": "s",
    "service.batch_form_p50_s": "s",
    "service.solve_p50_s": "s",
    "service.post_p50_s": "s",
    "service.batch_occupancy_mean": "count",
}


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    for span in SPANS:
        names += [(f"{span}_s", "s"), (f"{span}_calls", "count")]
    names += [(name, "count") for name in COUNTERS]
    names += [
        ("cache.hit_ratio", "ratio"),
        ("flow.characterize_s", "s"),
        ("cascade.prepare_s", "s"),
        ("cascade.classify_die_self_s", "s"),
    ]
    names += list(WORKLOAD_LAYERS.items())
    names += [
        ("failed_frac", "ratio"),
        ("host.ref_s", "s"),
        ("host.nproc", "count"),
        ("bench.round_best_items_per_s", "1/s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


def install_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.cascade.cascade import CascadeScreen
    from repro.core.engines import AnalyticEngine, StageDelayEngine
    from repro.spice.batch import BatchedSimulation
    from repro.spice.ragged import RaggedPack
    from repro.workloads.flow import ScreeningFlow

    # Imported by module path: the package attribute
    # ``repro.spice.transient`` is the function, shadowing its module.
    scalar = importlib.import_module("repro.spice.transient")
    staticcheck = importlib.import_module("repro.spice.staticcheck")
    tracer.patch_method(BatchedSimulation, "transient", "spice.batched_transient")
    tracer.patch_function(scalar, "transient", "spice.scalar_transient")
    tracer.patch_method(RaggedPack, "transient", "spice.ragged_transient")
    tracer.patch_function(staticcheck, "check_die", "staticcheck.check_die")
    tracer.patch_method(AnalyticEngine, "measure", "engines.analytic.measure")
    tracer.patch_method(StageDelayEngine, "measure", "engines.stagedelay.measure")
    tracer.patch_method(StageDelayEngine, "measure_batch",
                        "engines.stagedelay.measure_batch")
    tracer.patch_method(StageDelayEngine, "delta_t_mc",
                        "engines.stagedelay.delta_t_mc")
    tracer.patch_method(ScreeningFlow, "screen_die", "flow.screen_die")
    tracer.patch_method(CascadeScreen, "prepare", "cascade.prepare")
    tracer.patch_method(CascadeScreen, "classify_die", "cascade.classify_die")


@dataclass
class Setup:
    seconds: float
    window: Tuple[float, float]
    phases: Dict[str, float] = field(default_factory=dict)


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    spans_path: Optional[Path] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns ``(result_line, diagnostics)``."""
    from repro.telemetry import use_telemetry

    workload: Workload = WORKLOADS[name](seed, size)
    tracer = Tracer(clock=clock)
    ref_s = [host_reference()]

    setups: List[Setup] = []
    state: Any = None

    def setup() -> None:
        nonlocal state
        if state is not None:
            workload.teardown(state)
            state = None
        if trace:
            install_spans(tracer)
        try:
            with use_telemetry() as tele:
                start = clock()
                state = workload.setup()
                end = clock()
        finally:
            tracer.unpatch()
        setups.append(Setup(end - start, (start, end), dict(tele.phase_seconds)))

    def one_round(traced: bool) -> Round:
        if traced:
            install_spans(tracer)
        try:
            with use_telemetry() as tele:
                r = workload.round(state, clock)
        finally:
            tracer.unpatch()
        r.counters = dict(tele.counters)
        r.traced = traced
        return r

    try:
        rounds = run_schedule(setup, one_round, workload.setup_repeats, seconds,
                              workload.min_rounds, workload.max_rounds,
                              traced_too=trace, clock=clock)
        problems = counter_mismatches([r.counters for r in rounds],
                                      workload.guarded)
        problems += workload.check(state, rounds)
    finally:
        if state is not None:
            workload.teardown(state)
    ref_s.append(host_reference())

    attempted = sum(r.items + r.failed for r in rounds)
    failed = sum(r.failed for r in rounds)
    if failed:
        problems.append(f"{failed} of {attempted} items failed")
    plain = [r for r in rounds if not r.traced]
    diagnostics = {
        "workload": name,
        "seed": seed,
        "size": size,
        "item": workload.item,
        "latency_unit": workload.unit,
        "environment": environment(),
        "host.ref_s": ref_s,
        "setup_s": [s.seconds for s in setups],
        "rounds": [
            {"items": r.items, "seconds": r.seconds, "traced": r.traced,
             "latency_samples": len(r.latencies),
             "newton_iterations": r.counters.get("newton_iterations", 0)}
            for r in rounds
        ],
        "problems": problems,
    }
    if trace and spans_path is not None:
        tracer.dump(spans_path)
    if problems:
        return result_line(False, attempted, failed, {}), diagnostics

    if not trace:
        latencies = pooled_latencies(plain, workload.latency_pool)
        p50, _ = percentile(latencies, 0.5)
        p90, beyond = percentile(latencies, 0.9)
        diagnostics["latency_samples"] = len(latencies)
        diagnostics["latency_p90_samples_beyond"] = beyond
        values = {
            "setup_s": min(s.seconds for s in setups),
            "items_per_s": median_items_per_s(plain),
            "latency_p50_s": p50,
            "latency_p90_s": p90,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {n: (values[n], unit) for n, unit in END_TO_END.items()}
        return result_line(True, attempted, failed, metrics), diagnostics

    traced = [r for r in rounds if r.traced]
    best_setup = min(setups, key=lambda s: s.seconds)
    values = layer_values(tracer, by_median(traced)[0], best_setup)
    values.update({
        "failed_frac": failed / attempted,
        "host.ref_s": min(ref_s),
        "host.nproc": float(diagnostics["environment"]["nproc"] or 0),
        "bench.round_best_items_per_s": fastest(plain).items_per_s,
        "trace.overhead_frac":
            median_items_per_s(plain) / median_items_per_s(traced) - 1.0,
    })
    metrics = {n: (values.get(n, 0.0), unit) for n, unit in per_layer_names()}
    return result_line(True, attempted, failed, metrics), diagnostics


def layer_values(tracer: Tracer, typical: Round, setup: Setup) -> Dict[str, float]:
    """Per-layer numbers of the median traced round and the fastest set-up."""
    values: Dict[str, float] = {}
    in_round = self_times(tracer.spans, typical.window)
    for span in SPANS:
        entry = in_round.get(span, {})
        values[f"{span}_s"] = entry.get("self_s", 0.0)
        values[f"{span}_calls"] = entry.get("calls", 0)
    for metric, counter in COUNTERS.items():
        values[metric] = float(typical.counters.get(counter, 0))
    lookups = values["cache.hits"] + values["cache.misses"]
    values["cache.hit_ratio"] = values["cache.hits"] / lookups if lookups else 0.0
    values["cascade.classify_die_self_s"] = (
        in_round.get("cascade.classify_die", {}).get("self_s", 0.0))
    in_setup = self_times(tracer.spans, setup.window)
    values["flow.characterize_s"] = setup.phases.get("characterize", 0.0)
    values["cascade.prepare_s"] = in_setup.get("cascade.prepare", {}).get("total_s", 0.0)
    for name in WORKLOAD_LAYERS:
        values[name] = float(typical.layers.get(name, 0.0))
    return values

