"""Sharded wafer-scale screening engine.

One wafer carries hundreds of dies; the paper's production story is a
test program that screens *every* pre-bond TSV on every one of them at
multiple supply voltages.  :class:`WaferScreeningEngine` serves that
workload:

* **One characterization, many dies.**  The fault-free DeltaT bands and
  the bypass-path T2 reference period depend only on the engine, supply
  set, and process model -- never on the die.  The parent process
  characterizes once (through the content-addressed
  :mod:`repro.spice.cache`) and hands the finished
  :class:`~repro.core.session.ReferenceBand` objects to every worker, so
  no worker re-simulates them.
* **Deterministic sharding.**  Per-die defect populations and per-die
  measurement-noise seeds are derived from one
  :class:`numpy.random.SeedSequence` tree (``wafer seed -> die ->
  {generation, measurement}``), so a sharded run is **bit-identical** to
  the serial run: the same dies, the same simulated measurements, the
  same :class:`~repro.workloads.flow.FlowMetrics`, regardless of worker
  count or chunking.
* **Telemetry.**  Every run returns a merged
  :class:`repro.telemetry.Telemetry` snapshot -- Newton iterations, step
  retries, solver-backend paths, cache hits, per-phase wall time --
  collected in the parent *and* inside every worker process.

Worker processes rebuild their :class:`ScreeningFlow` from pickled
constructor arguments; the engine crosses the process boundary as a
picklable :class:`~repro.core.engines.registry.EngineSpec` (registry
names, specs, and engine instances are normalized to one via
:func:`~repro.core.engines.registry.as_engine_factory`; ad-hoc closures
only survive on fork-based platforms).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from contextlib import ExitStack
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport, PreflightError
from repro.cascade.cascade import CascadeState
from repro.cascade.policy import CascadeConfig
from repro.core.engines.registry import (
    as_engine_factory,
    process_engine_cache,
)
from repro.core.session import ReferenceBand
from repro.core.tsv import TsvParameters
from repro.dft.control import MeasurementPlan
from repro.service.procworker import process_pool, traced
from repro.spice.cache import (
    PersistentSolveCache,
    SolveCache,
    get_cache,
    install_cache,
)
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import Telemetry, get_telemetry, use_telemetry
from repro.workloads.flow import FlowMetrics, ScreeningFlow
from repro.workloads.generator import DefectStatistics, DiePopulation


class WaferPopulation:
    """Many :class:`DiePopulation`s with a deterministic seed tree.

    The wafer seed spawns one :class:`~numpy.random.SeedSequence` child
    per die; each die child spawns ``(generation, measurement)``
    grandchildren.  Generation seeds drive defect injection; measurement
    seeds drive the simulated measurement noise during screening.  The
    tree -- not the iteration order -- defines every stream, which is
    what makes sharded screening reproduce serial results exactly.

    Example:
        >>> wafer = WaferPopulation(num_dies=4, tsvs_per_die=100, seed=7)
        >>> len(wafer), wafer.num_tsvs
        (4, 400)
    """

    def __init__(
        self,
        num_dies: int = 10,
        tsvs_per_die: int = 1000,
        stats: DefectStatistics = DefectStatistics(),
        params: TsvParameters = TsvParameters(),
        seed: int = 0,
    ):
        if num_dies < 1:
            raise ValueError("num_dies must be positive")
        self.num_dies = num_dies
        self.tsvs_per_die = tsvs_per_die
        self.stats = stats
        self.params = params
        self.seed = seed
        root = np.random.SeedSequence(seed)
        self.dies: List[DiePopulation] = []
        self.measure_seeds: List[int] = []
        for die_seq in root.spawn(num_dies):
            gen_seq, measure_seq = die_seq.spawn(2)
            self.dies.append(DiePopulation(
                num_tsvs=tsvs_per_die, stats=stats, params=params,
                seed=gen_seq,
            ))
            self.measure_seeds.append(int(measure_seq.generate_state(1)[0]))

    def __len__(self) -> int:
        return self.num_dies

    def __iter__(self) -> Iterator[DiePopulation]:
        return iter(self.dies)

    def __getitem__(self, idx: int) -> DiePopulation:
        return self.dies[idx]

    @property
    def num_tsvs(self) -> int:
        return sum(len(die) for die in self.dies)

    def defect_summary(self) -> Dict[str, float]:
        per_die = [die.defect_summary() for die in self.dies]
        voids = sum(s["voids"] for s in per_die)
        pinholes = sum(s["pinholes"] for s in per_die)
        total = self.num_tsvs
        return {
            "num_dies": self.num_dies,
            "num_tsvs": total,
            "voids": voids,
            "pinholes": pinholes,
            "defect_rate": (voids + pinholes) / total if total else 0.0,
        }


def aggregate_metrics(per_die: Sequence[FlowMetrics]) -> FlowMetrics:
    """Fold per-die :class:`FlowMetrics` into wafer totals."""
    total = FlowMetrics()
    for m in per_die:
        total.num_tsvs += m.num_tsvs
        total.true_faulty += m.true_faulty
        total.detected += m.detected
        total.escapes += m.escapes
        total.overkill += m.overkill
        total.measurements += m.measurements
        total.test_time += m.test_time
        total.escalated += m.escalated
        for kind, count in m.detected_by_kind.items():
            total.detected_by_kind[kind] = (
                total.detected_by_kind.get(kind, 0) + count
            )
        for kind, count in m.escaped_by_kind.items():
            total.escaped_by_kind[kind] = (
                total.escaped_by_kind.get(kind, 0) + count
            )
        for name, count in m.stage_measurements.items():
            total.stage_measurements[name] = (
                total.stage_measurements.get(name, 0) + count
            )
        for reason, count in m.escalations.items():
            total.escalations[reason] = (
                total.escalations.get(reason, 0) + count
            )
    return total


@dataclass
class WaferScreenResult:
    """Outcome of one wafer screen: per-die metrics plus run accounting.

    Attributes:
        per_die: One :class:`FlowMetrics` per die, in wafer order --
            identical between serial and sharded runs.  A die rejected
            by the pre-flight check keeps its slot with a placeholder
            ``FlowMetrics(num_tsvs=...)`` so per-die indexing and
            serial/sharded parity are preserved.
        rejected: Die index -> the pre-flight
            :class:`~repro.analysis.diagnostics.DiagnosticReport` that
            disqualified it, for dies rejected before dispatch.
        failed: Indices of sharded dies whose worker process died
            while screening them (their chunk failed twice, see
            :meth:`WaferScreeningEngine._screen_sharded`); like rejected
            dies they keep a placeholder slot in ``per_die``.
        telemetry: Merged telemetry snapshot (parent + every worker).
        wall_time: Wall-clock seconds of the whole screen.
        workers: Worker processes used (1 = serial in-process).
    """

    per_die: List[FlowMetrics] = field(default_factory=list)
    rejected: Dict[int, DiagnosticReport] = field(default_factory=dict)
    failed: List[int] = field(default_factory=list)
    telemetry: Dict[str, Dict[str, float]] = field(default_factory=dict)
    wall_time: float = 0.0
    workers: int = 1

    @property
    def totals(self) -> FlowMetrics:
        return aggregate_metrics(self.per_die)

    @property
    def dies_rejected(self) -> int:
        """Dies disqualified by the pre-flight check (never screened)."""
        return len(self.rejected)

    @property
    def dies_per_second(self) -> float:
        return len(self.per_die) / self.wall_time if self.wall_time else 0.0

    def counter(self, name: str) -> float:
        return self.telemetry.get("counters", {}).get(name, 0)

    @property
    def cache_hit_rate(self) -> float:
        hits = self.counter("cache_hits")
        total = hits + self.counter("cache_misses")
        return hits / total if total else 0.0


# ----------------------------------------------------------------------
# Worker-side machinery (module level so it pickles by reference)
# ----------------------------------------------------------------------
#: ``(die index, die, measurement seed)`` triples, one worker task's worth.
_Chunk = List[Tuple[int, DiePopulation, int]]

_WORKER_FLOW: Optional[ScreeningFlow] = None


def _worker_init(
    flow_kwargs: Dict,
    bands: Dict[float, ReferenceBand],
    cascade_state: Optional[CascadeState] = None,
    cache: Optional[SolveCache] = None,
) -> None:
    """Build this worker's flow once, from the parent's bands.

    ``cascade_state`` carries the parent's cascade characterization
    (stage bands plus the signature-calibration table); ``cache`` is
    the parent's :class:`PersistentSolveCache`
    (pickled as its path), installed process-wide so every worker shares
    the same on-disk characterization and escalated-solve entries.

    The shipped engine factory is rebound through this process's
    :func:`~repro.core.engines.registry.process_engine_cache` -- the
    same audited rehydration boundary the service's process transport
    uses -- so the flow's per-supply engines are built once per worker
    and shared with any other spec consumer in the process.
    """
    global _WORKER_FLOW
    if cache is not None:
        install_cache(cache)
    flow_kwargs = dict(flow_kwargs)
    flow_kwargs["engine_factory"] = process_engine_cache().cached_factory(
        flow_kwargs["engine_factory"]
    )
    _WORKER_FLOW = ScreeningFlow(
        bands=bands, cascade_state=cascade_state, **flow_kwargs
    )


def _screen_chunk(chunk: _Chunk) -> List[Tuple[int, FlowMetrics]]:
    """Screen a chunk of dies; returns ``(index, metrics)`` pairs."""
    return [
        (index, _WORKER_FLOW.screen_die(die, measure_seed=seed))
        for index, die, seed in chunk
    ]


class WaferScreeningEngine:
    """Screens whole wafers, serially or across a process pool.

    Construction mirrors :class:`~repro.workloads.flow.ScreeningFlow`
    (same knobs, same defaults); the flow itself is built lazily on the
    first :meth:`screen` so characterization cost lands inside the
    first run's accounting.

    Args:
        engine_factory: Registry name (``"analytic"``), picklable
            :class:`~repro.core.engines.registry.EngineSpec`, engine
            instance, or ``vdd -> engine`` callable; normalized to a
            picklable spec wherever possible so workers can rehydrate
            bit-identical engines.
        chunk_size: Dies per worker task (default: balanced at roughly
            four tasks per worker, so stragglers even out).
        preflight: Statically check every die in the parent process and
            reject un-screenable ones (NaN capacitance, out-of-range
            fault parameters) *before* pool dispatch, so a bad die costs
            a dictionary lookup instead of a worker round-trip.  Workers
            run with the flow-level gate off: the parent already checked
            everything they receive, and double-checking would
            double-count the per-rule telemetry.
    """

    def __init__(
        self,
        engine_factory: object,
        voltages: Sequence[float] = (1.1, 0.95, 0.8, 0.75),
        variation: ProcessVariation = ProcessVariation(),
        group_size: int = 5,
        plan: Optional[MeasurementPlan] = None,
        characterization_samples: int = 200,
        group_screen_first: bool = False,
        tsv_cap_variation_rel: float = 0.02,
        seed: int = 2024,
        chunk_size: Optional[int] = None,
        preflight: bool = True,
        fidelity: str = "full",
        cascade: Optional[CascadeConfig] = None,
        measurement_variation: object = "inherit",
    ):
        self._flow_kwargs = dict(
            engine_factory=as_engine_factory(engine_factory),
            voltages=tuple(voltages),
            variation=variation,
            group_size=group_size,
            plan=plan,
            characterization_samples=characterization_samples,
            group_screen_first=group_screen_first,
            tsv_cap_variation_rel=tsv_cap_variation_rel,
            seed=seed,
            preflight=False,  # the engine pre-checks dies itself
            fidelity=fidelity,
            cascade=cascade,
            measurement_variation=measurement_variation,
        )
        self.preflight = preflight
        self.chunk_size = chunk_size
        self._flow: Optional[ScreeningFlow] = None

    # ------------------------------------------------------------------
    @property
    def flow(self) -> ScreeningFlow:
        """The master flow (characterizes on first access, via the cache)."""
        if self._flow is None:
            self._flow = ScreeningFlow(**self._flow_kwargs)
        return self._flow

    def _chunks(self, items: _Chunk, workers: int) -> List[_Chunk]:
        size = self.chunk_size or max(1, -(-len(items) // (workers * 4)))
        return [items[k:k + size] for k in range(0, len(items), size)]

    def _preflight_dies(
        self,
        flow: ScreeningFlow,
        wafer: WaferPopulation,
        rejected: Dict[int, DiagnosticReport],
    ) -> List[Tuple[int, DiePopulation, int]]:
        """Check every die; return the screenable ``(index, die, seed)``.

        Rejections land in ``rejected`` (die index -> report) and bump
        the ``dies_rejected`` telemetry counter.  Ran in the parent so a
        bad die never reaches the worker pool.
        """
        kept: List[Tuple[int, DiePopulation, int]] = []
        tele = get_telemetry()
        for i, (die, seed) in enumerate(
            zip(wafer.dies, wafer.measure_seeds)
        ):
            try:
                flow.preflight_die(die, label=f"die[{i}]")
            except PreflightError as exc:
                rejected[i] = exc.report
                tele.incr("dies_rejected")
            else:
                kept.append((i, die, seed))
        return kept

    # ------------------------------------------------------------------
    def screen(
        self, wafer: WaferPopulation, workers: int = 1
    ) -> WaferScreenResult:
        """Screen every die of ``wafer`` on ``workers`` processes.

        ``workers=1`` runs serially in-process.  Results are
        bit-identical across worker counts; only the wall time and the
        process attribution of the telemetry change.  Dies the
        pre-flight check rejects are dropped before dispatch -- on the
        serial path and the sharded path alike -- and keep a placeholder
        slot in ``per_die``, as do dies of a sharded chunk that failed
        (:attr:`WaferScreenResult.failed`).
        """
        if workers < 1:
            raise ValueError("workers must be positive")
        start = time.perf_counter()
        tele = Telemetry()
        rejected: Dict[int, DiagnosticReport] = {}
        failed: List[int] = []
        with use_telemetry(tele):
            flow = self.flow  # characterize (cached) before any fork
            items = [
                (i, wafer.dies[i], wafer.measure_seeds[i])
                for i in range(len(wafer))
            ]
            if self.preflight:
                items = self._preflight_dies(flow, wafer, rejected)
            if workers == 1:
                indexed = {
                    i: flow.screen_die(die, measure_seed=seed)
                    for i, die, seed in items
                }
            else:
                indexed = self._screen_sharded(
                    flow, items, workers, tele, failed
                )
            for i in [*rejected, *failed]:
                indexed[i] = FlowMetrics(num_tsvs=len(wafer.dies[i]))
        get_telemetry().merge(tele)
        return WaferScreenResult(
            per_die=[indexed[i] for i in range(len(wafer))],
            rejected=rejected,
            failed=sorted(failed),
            telemetry=tele.snapshot(),
            wall_time=time.perf_counter() - start,
            workers=workers,
        )

    def _screen_sharded(
        self,
        flow: ScreeningFlow,
        items: _Chunk,
        workers: int,
        tele: Telemetry,
        failed: List[int],
    ) -> Dict[int, FlowMetrics]:
        """Screen ``items`` across a process pool, in chunks.

        A worker process that dies breaks the whole pool, so every
        chunk still in it is re-run in a one-worker pool of its own,
        ``workers`` pools at a time; a chunk whose worker dies there
        too is re-run die by die the same way.  A die whose worker
        dies alone does not fail the screen: it lands in ``failed`` and
        the ``wafer.dies_failed`` counter, and every other die's
        results are kept.  Each retry pays one pool start-up per chunk
        (then per die), so a crash costs a few pool start-ups per
        ``workers`` chunks it took down.
        """
        chunks = self._chunks(items, workers)
        indexed: Dict[int, FlowMetrics] = {}
        cascade_state = None
        if flow.cascade is not None:
            # One cascade characterization in the parent, shared by all
            # workers (stage bands are solve-cache-memoized, so repeat
            # preparations with a persistent cache are free).
            cascade_state = flow.cascade.prepare()
        current = get_cache()
        shared_cache = (
            current if isinstance(current, PersistentSolveCache) else None
        )
        initargs = (self._flow_kwargs, flow.bands, cascade_state, shared_cache)

        def collect(future: Future[Any]) -> bool:
            """Fold one chunk's results in; False when its pool broke."""
            try:
                results, snapshot = future.result()
            except BrokenProcessPool:
                return False
            tele.merge(snapshot)
            for index, metrics in results:
                indexed[index] = metrics
            return True

        def isolated(parts: List[_Chunk]) -> List[_Chunk]:
            """Re-run each part in a one-worker pool; those that die again."""
            lost: List[_Chunk] = []
            for start in range(0, len(parts), workers):
                batch = parts[start:start + workers]
                with ExitStack() as stack:
                    futures = [
                        stack.enter_context(
                            process_pool(1, _worker_init, initargs)
                        ).submit(traced, _screen_chunk, part)
                        for part in batch
                    ]
                    lost.extend(
                        part for part, future in zip(batch, futures)
                        if not collect(future)
                    )
            return lost

        with process_pool(workers, _worker_init, initargs) as pool:
            submitted = [
                (chunk, pool.submit(traced, _screen_chunk, chunk))
                for chunk in chunks
            ]
            broken = [
                chunk for chunk, future in submitted if not collect(future)
            ]
        if broken:
            dies = [[item] for chunk in isolated(broken) for item in chunk]
            for (index, _, _), in isolated(dies):
                failed.append(index)
                tele.incr("wafer.dies_failed")
        return indexed
