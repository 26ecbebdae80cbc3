"""The three benchmark workloads.

Each workload turns ``--seed`` into its inputs, sets itself up from
cold (timed, repeated), runs equal timed rounds on what the set-up
built, and checks every round's outputs.  The program only ever sees
the generated inputs.

* ``mc_fig7`` -- the Fig. 7 Monte Carlo on the batched ``repro.spice``
  path (``BatchedSimulation`` / ``BatchedDense``).  Item: one MC corner.
* ``cascade_die`` -- ``ScreeningFlow(fidelity="cascade")`` screening
  100-TSV dies: cascade routing, the analytic engine, scalar
  stage-delay transients for escalated TSVs, solve-cache writes and
  ``check_die``.  Item: one TSV screened.
* ``serve_closed`` -- ``ScreeningService`` on the thread transport with
  family coalescing, driven by a closed loop of waiting clients: ragged
  packs, admission, the micro-batcher and the worker pool.  Item: one
  request answered.

Every workload has a ``"full"`` size (what the benchmark runs) and a
``"tiny"`` size (the smoke tests); recorded references exist for both.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from perfbench.harness import Round

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(name: str) -> Dict[str, Any]:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def clone_cache(cache: Any) -> Any:
    """An independent copy of a solve cache, so rounds start alike."""
    return copy.deepcopy(cache)


class Workload:
    """One workload; subclasses fill in the hooks below."""

    name = ""
    #: What one item is; ``items_per_s`` counts these.
    item = ""
    #: What one latency sample is.
    unit = ""
    #: Cold set-ups per run; ``setup_s`` is the fastest.
    setup_repeats = 3
    min_rounds = 3
    max_rounds = 12
    #: Latency samples wanted: the rounds nearest the median are pooled
    #: until there are this many (1: the median round alone).
    latency_pool = 1
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = size
        self.knobs = self.SIZES[size]

    def setup(self) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` built."""

    def round(self, state: Any, clock: Callable[[], float]) -> Round:
        raise NotImplementedError

    def check(self, state: Any, rounds: Sequence[Round]) -> List[str]:
        raise NotImplementedError

    def guarded(self, counter: str) -> bool:
        """Whether the round-equality guard compares ``counter``."""
        return True


# ----------------------------------------------------------------------
# mc_fig7
# ----------------------------------------------------------------------
class McFig7(Workload):
    """Fig. 7: ``StageDelayEngine.delta_t_mc`` on a 1 kOhm open at 1.1 V.

    The seed picks one of the Monte Carlo seeds recorded in
    ``reference/mc_fig7.json``, so every run's samples are checked
    against recorded values.  A round is one ``delta_t_mc`` call with a
    fresh solve cache; set-up is a fresh engine plus its first samples
    (time to first DeltaT).
    """

    name = "mc_fig7"
    item = "MC corner"
    unit = "delta_t_mc call"
    setup_repeats = 4
    min_rounds = 5
    max_rounds = 16
    SIZES = {"full": {"corners": 50}, "tiny": {"corners": 4}}

    TIMESTEP_S = 2e-12
    VDD = 1.1
    R_OPEN = 1000.0
    X_OPEN = 0.5
    WARMUP_CORNERS = 2
    #: The golden DeltaT tolerance of the repo's parity tests
    #: (``GOLDEN_TOL`` beside ``tests/data/delta_t_parity.json``).
    TOLERANCE_S = 0.05e-12
    #: Monte Carlo seeds with recorded samples; ``--seed`` picks one.
    MC_SEEDS = tuple(range(7001, 7011))

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        self.mc_seed = self.MC_SEEDS[seed % len(self.MC_SEEDS)]
        self.corners = self.knobs["corners"]

    def fault(self) -> Any:
        from repro.core.tsv import ResistiveOpen, Tsv

        return Tsv(fault=ResistiveOpen(self.R_OPEN, self.X_OPEN))

    def engine(self) -> Any:
        from repro.core.engines import StageDelayEngine
        from repro.core.segments import RingOscillatorConfig

        return StageDelayEngine(config=RingOscillatorConfig(vdd=self.VDD),
                                timestep=self.TIMESTEP_S)

    def samples(self, engine: Any, corners: int, mc_seed: int) -> np.ndarray:
        from repro.spice.montecarlo import ProcessVariation

        return engine.delta_t_mc(self.fault(), ProcessVariation(), corners,
                                 seed=mc_seed)

    def setup(self) -> Any:
        from repro.spice.cache import SolveCache, use_cache

        engine = self.engine()
        with use_cache(SolveCache()):
            self.samples(engine, self.WARMUP_CORNERS, self.mc_seed)
        return engine

    def round(self, engine: Any, clock: Callable[[], float]) -> Round:
        from repro.spice.cache import SolveCache, use_cache

        with use_cache(SolveCache()):
            start = clock()
            samples = self.samples(engine, self.corners, self.mc_seed)
            end = clock()
        stuck = int(np.count_nonzero(~np.isfinite(samples)))
        return Round(
            items=self.corners - stuck, seconds=end - start, failed=stuck,
            latencies=[end - start], outputs=samples, window=(start, end),
        )

    def check(self, engine: Any, rounds: Sequence[Round]) -> List[str]:
        problems = [
            f"round {i}: DeltaT samples differ from round 0"
            for i, r in enumerate(rounds[1:], start=1)
            if not np.array_equal(r.outputs, rounds[0].outputs, equal_nan=True)
        ]
        recorded = load_reference(self.name)["samples"][str(self.corners)]
        want = np.asarray(recorded[str(self.mc_seed)], dtype=float)
        got = rounds[0].outputs
        off = np.flatnonzero(~(np.abs(got - want) <= self.TOLERANCE_S))
        if len(off):
            k = int(off[0])
            problems.append(
                f"{len(off)} DeltaT samples differ from the reference by more "
                f"than {self.TOLERANCE_S:.3g} s (corner {k}: {got[k]!r} vs "
                f"{want[k]!r})"
            )
        return problems

    def record(self) -> Dict[str, Any]:
        """Reference samples for every recorded seed at this size."""
        engine = self.engine()
        return {str(mc_seed): self.samples(engine, self.corners, mc_seed).tolist()
                for mc_seed in self.MC_SEEDS}


# ----------------------------------------------------------------------
# cascade_die
# ----------------------------------------------------------------------
class CascadeDie(Workload):
    """Cascade die screen: analytic stage 0, stage-delay top stage.

    Set-up is the flow's construction plus ``cascade.prepare()`` -- the
    ladder characterization (batched MC bands and the calibration
    table of scalar top-stage solves) -- into a fresh solve cache.  A
    round screens the die from a copy of that post-set-up cache.

    The die is fixed (``die_seed``): its cost is set by how many of its
    TSVs escalate to the top stage, and four seeded dies took 0.9-2.3 s,
    so seeded dies would bury a code change in input variance.  The
    seed instead shuffles the die's TSV order and sets the measurement
    seed; verdicts must not depend on either.
    """

    name = "cascade_die"
    item = "TSV screened"
    unit = "die screen"
    setup_repeats = 2
    min_rounds = 5
    max_rounds = 16
    SIZES = {
        "full": {"num_tsvs": 100, "die_seed": 2000, "samples": 48,
                 "top_timestep_s": 20e-12},
        "tiny": {"num_tsvs": 12, "die_seed": 2000, "samples": 8,
                 "top_timestep_s": 40e-12},
    }
    VOLTAGES = (1.1, 0.8)
    VOID_RATE = 0.02
    PINHOLE_RATE = 0.02
    FLOW_SEED = 11

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        from repro.workloads.generator import DefectStatistics, DiePopulation

        stats = DefectStatistics(void_rate=self.VOID_RATE,
                                 pinhole_rate=self.PINHOLE_RATE)
        self.die = DiePopulation(num_tsvs=self.knobs["num_tsvs"], stats=stats,
                                 seed=self.knobs["die_seed"])
        rng = np.random.default_rng(seed)
        self.die.records = [self.die.records[i]
                            for i in rng.permutation(len(self.die.records))]
        self.measure_seed = int(rng.integers(0, 2**31))

    def setup(self) -> Any:
        from repro.cascade import CascadeConfig
        from repro.core.engines.registry import spec as engine_spec
        from repro.spice.cache import SolveCache, use_cache
        from repro.workloads.flow import ScreeningFlow

        top = engine_spec("stagedelay", timestep=self.knobs["top_timestep_s"])
        config = CascadeConfig(
            escalation=(top,),
            stage_characterization_samples=self.knobs["samples"],
        )
        with use_cache(SolveCache()) as cache:
            flow = ScreeningFlow(
                "analytic", voltages=self.VOLTAGES, cascade=config,
                characterization_samples=self.knobs["samples"],
                measurement_variation=None, preflight=True,
                seed=self.FLOW_SEED,
            )
            flow.cascade.prepare()
        return flow, cache

    def round(self, state: Any, clock: Callable[[], float]) -> Round:
        from repro.spice.cache import use_cache

        flow, cache = state
        screen = flow.cascade
        decisions: List[Any] = []

        def capture(*args: Any, **kwargs: Any) -> Any:
            decision = type(screen).classify_die(screen, *args, **kwargs)
            decisions.append(decision)
            return decision

        screen.classify_die = capture
        try:
            with use_cache(clone_cache(cache)):
                start = clock()
                metrics = flow.screen_die(self.die, measure_seed=self.measure_seed)
                end = clock()
        finally:
            del screen.classify_die
        (decision,) = decisions
        healthy = metrics.num_tsvs - metrics.true_faulty
        top_name = screen.stage_names[-1]
        return Round(
            items=metrics.num_tsvs, seconds=end - start, latencies=[end - start],
            window=(start, end),
            outputs={
                "flagged": sorted(d.index for d in decision.tsv_decisions if d.flagged),
                "escapes": metrics.escapes,
                "overkill": metrics.overkill,
            },
            layers={
                "escape_rate": metrics.escapes / max(metrics.true_faulty, 1),
                "overkill_rate": metrics.overkill / max(healthy, 1),
                "cascade.stage0_resolved_ratio":
                    1.0 - metrics.escalated / metrics.num_tsvs,
                "cascade.top_stage_measurements":
                    float(metrics.stage_measurements.get(top_name, 0)),
            },
        )

    def check(self, state: Any, rounds: Sequence[Round]) -> List[str]:
        problems = [
            f"round {i}: verdicts differ from round 0"
            for i, r in enumerate(rounds[1:], start=1)
            if r.outputs != rounds[0].outputs
        ]
        want = load_reference(self.name)[self.size]
        got = rounds[0].outputs
        for key in ("flagged", "escapes", "overkill"):
            if got[key] != want[key]:
                problems.append(f"{key} {got[key]} differ from the reference {want[key]}")
        return problems

    def record(self) -> Dict[str, Any]:
        state = self.setup()
        return self.round(state, clock=lambda: 0.0).outputs


# ----------------------------------------------------------------------
# serve_closed
# ----------------------------------------------------------------------
class ServeClosed(Workload):
    """Closed-loop screening service: waiting clients, family coalescing.

    ``ServiceLoadGenerator`` requests over ``num_tsvs`` fixed TSVs x 2
    supplies on the stage-delay engine at 20 ps, one Monte Carlo draw
    each.  ``clients`` coroutines each submit a request and wait for its
    answer before sending the next -- how a tester host behaves.  A
    round answers every request once from a copy of the post-set-up
    solve cache.  Set-up starts the service and answers one warm-up
    request per supply.

    A round is short (20 requests, two packs) so that a run holds many
    rounds; the latency percentiles pool the rounds nearest the median
    until ``latency_pool`` samples are in, so p90 has >= 10 samples
    beyond it.

    Which requests share a batch depends on arrival timing, so the
    round-equality guard compares only the request accounting and the
    solve-cache lookups, not the batch or solver counters.
    """

    name = "serve_closed"
    item = "request answered"
    unit = "request"
    setup_repeats = 4
    min_rounds = 6
    max_rounds = 24
    latency_pool = 100
    SIZES = {
        "full": {"num_tsvs": 10, "clients": 10},
        "tiny": {"num_tsvs": 2, "clients": 2},
    }
    VOLTAGES = (1.1, 0.8)
    TIMESTEP_S = 20e-12
    #: The TSVs are fixed, like the die of ``cascade_die``: with a few
    #: dozen TSVs, which of them are faulty moves the cost of a round.
    #: The seed draws every request's Monte Carlo seed.
    POPULATION_SEED = 1
    GUARDED = ("service.submitted", "service.completed", "service.rejected",
               "service.expired", "service.failed", "service.batch_retries",
               "cache_hits", "cache_misses")

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        from repro.workloads import DiePopulation, ServiceLoadGenerator

        n = self.knobs["num_tsvs"]
        population = DiePopulation(num_tsvs=n, seed=self.POPULATION_SEED)
        generator = ServiceLoadGenerator(population, seed=seed,
                                         voltages=self.VOLTAGES)
        # The generator walks every TSV at one supply, then the next.
        # With the TSV count a multiple of the client count, every burst
        # of clients is one supply family and fills one pack, so every
        # request waits for exactly one pack: two families in flight at
        # once would contend for the interpreter lock and split the
        # latency distribution in two.
        self.requests = generator.requests(n * len(self.VOLTAGES))
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def spec(self) -> Any:
        from repro.core.engines.registry import spec as engine_spec

        return engine_spec("stagedelay", timestep=self.TIMESTEP_S)

    def setup(self) -> Any:
        from repro.service import ScreeningService
        from repro.spice.cache import SolveCache, use_cache

        loop = asyncio.new_event_loop()
        service = ScreeningService(
            engine=self.spec(), num_workers=self.workers,
            coalesce="family", transport="thread",
        )
        warmup = self.requests[:len(self.VOLTAGES)]  # one per supply

        async def start() -> None:
            await service.start()
            for request in warmup:
                await service.submit(request)

        with use_cache(SolveCache()) as cache:
            loop.run_until_complete(start())
        return loop, service, cache

    def teardown(self, state: Any) -> None:
        loop, service, _ = state
        loop.run_until_complete(service.close())
        loop.close()

    def round(self, state: Any, clock: Callable[[], float]) -> Round:
        from repro.spice.cache import use_cache
        from repro.telemetry import get_telemetry

        loop, service, cache = state
        requests = self.requests
        responses: List[Any] = [None] * len(requests)
        latencies: List[float] = [0.0] * len(requests)
        cursor = iter(range(len(requests)))

        async def client() -> None:
            for i in cursor:
                sent = clock()
                responses[i] = await service.submit(requests[i])
                latencies[i] = clock() - sent

        async def closed_loop() -> None:
            await asyncio.gather(*(client() for _ in range(self.knobs["clients"])))

        with use_cache(clone_cache(cache)):
            start = clock()
            loop.run_until_complete(closed_loop())
            end = clock()
        ok = [r for r in responses if r.ok]
        tele = get_telemetry()
        occupancy = tele.histogram("service.batch_occupancy")
        layers = {
            f"service.{stage}_p50_s": statistics.median(
                getattr(r.latency, f"{stage}_s") for r in ok) if ok else 0.0
            for stage in ("queue_wait", "batch_form", "solve", "post")
        }
        layers["service.batch_occupancy_mean"] = occupancy.mean if occupancy.count else 0.0
        return Round(
            items=len(ok), seconds=end - start,
            failed=len(requests) - len(ok), latencies=latencies,
            window=(start, end), outputs=responses, layers=layers,
        )

    def check(self, state: Any, rounds: Sequence[Round]) -> List[str]:
        """Every response of every round is OK and bit-identical to
        serial ``engine.measure`` of the same request."""
        engine = self.spec().build()
        problems = []
        for i, request in enumerate(self.requests):
            want = engine.measure(request.to_measurement())
            for k, r in enumerate(rounds):
                got = r.outputs[i]
                if not got.ok:
                    problems.append(f"round {k} request {i}: {got.status} {got.reason}")
                elif not same_answer(got, want):
                    problems.append(f"round {k} request {i}: DeltaT {got.delta_t!r} "
                                    f"differs from serial {want.delta_t!r}")
        return problems

    def guarded(self, counter: str) -> bool:
        return counter in self.GUARDED or counter.startswith("measure.")


def same_answer(a: Any, b: Any) -> bool:
    """Bit-identical DeltaT and samples (NaN equal to NaN)."""
    return bool(np.array_equal(a.delta_t, b.delta_t, equal_nan=True)
                and np.array_equal(a.samples, b.samples, equal_nan=True))


WORKLOADS = {w.name: w for w in (McFig7, CascadeDie, ServeClosed)}
