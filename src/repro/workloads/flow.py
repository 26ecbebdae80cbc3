"""Production screening flow: multi-voltage group test plus diagnosis.

Runs the paper's method over a :class:`DiePopulation` the way a test
program would:

1. characterize fault-free DeltaT bands per supply voltage (Monte Carlo
   plus the counter quantization guard band);
2. optionally screen each ring-oscillator group with all M = N TSVs
   enabled (cheap), escalating to per-TSV isolation only on failure;
3. measure each suspect TSV at every planned voltage; a TSV fails if its
   DeltaT leaves the band (below -> open, above -> leakage) or the
   oscillator sticks at any voltage;
4. account escapes, overkill, detection-by-kind, measurement counts and
   test time.

The engine is pluggable; the analytic engine makes die-scale runs
instant, while the stage engine gives circuit-accurate spot checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import DiagnosticReport, record_diagnostics
from repro.cascade.cascade import CascadeScreen, CascadeState
from repro.cascade.characterize import (
    characterization_cap_factors,
    characterization_samples,
    measure_pending,
    quant_guard,
)
from repro.cascade.policy import CascadeConfig
from repro.core.engines.base import supports
from repro.core.engines.registry import as_engine_factory
from repro.core.session import ReferenceBand
from repro.core.tsv import Tsv
from repro.dft.control import MeasurementPlan
from repro.spice.montecarlo import ProcessVariation
from repro.spice.staticcheck import check_die
from repro.telemetry import get_telemetry, telemetry_phase
from repro.workloads.generator import DiePopulation, TsvRecord


@dataclass
class FlowMetrics:
    """Outcome accounting for one screened die."""

    num_tsvs: int = 0
    true_faulty: int = 0
    detected: int = 0
    escapes: int = 0
    overkill: int = 0
    detected_by_kind: Dict[str, int] = field(default_factory=dict)
    escaped_by_kind: Dict[str, int] = field(default_factory=dict)
    measurements: int = 0
    test_time: float = 0.0
    #: TSVs routed past stage 0 (cascade fidelity only; 0 otherwise).
    escalated: int = 0
    #: Measurement counts per cascade stage name.
    stage_measurements: Dict[str, int] = field(default_factory=dict)
    #: Escalation counts per reason (``near_band`` / ``low_agreement``
    #: / ``novel`` / ``preflight``).
    escalations: Dict[str, int] = field(default_factory=dict)

    @property
    def escape_rate(self) -> float:
        """Escapes per truly faulty TSV; 0.0 on an all-healthy die."""
        return self.escapes / self.true_faulty if self.true_faulty else 0.0

    @property
    def overkill_rate(self) -> float:
        """Overkill per healthy TSV; 0.0 on an all-faulty (or empty) die."""
        healthy = self.num_tsvs - self.true_faulty
        return self.overkill / healthy if healthy else 0.0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.true_faulty if self.true_faulty else 1.0

    @property
    def escalation_rate(self) -> float:
        """Escalated TSVs per screened TSV; 0.0 on an empty population."""
        return self.escalated / self.num_tsvs if self.num_tsvs else 0.0

    def as_row(self) -> Dict[str, float]:
        return {
            "num_tsvs": self.num_tsvs,
            "true_faulty": self.true_faulty,
            "detected": self.detected,
            "escapes": self.escapes,
            "overkill": self.overkill,
            "detection_rate": self.detection_rate,
            "escape_rate": self.escape_rate,
            "overkill_rate": self.overkill_rate,
            "measurements": self.measurements,
            "test_time_s": self.test_time,
            "escalated": self.escalated,
            "escalation_rate": self.escalation_rate,
        }


class ScreeningFlow:
    """Multi-voltage pre-bond TSV screening over a die population.

    Args:
        engine_factory: Anything engine-shaped: a registry name
            (``"analytic"``), a picklable
            :class:`~repro.core.engines.registry.EngineSpec`, an
            :class:`~repro.core.engines.base.Engine` instance, or a bare
            ``vdd -> engine`` callable whose engines provide
            ``delta_t_mc(tsv, variation, n, seed=...)``.
        voltages: Supply voltages of the plan (paper: Fig. 8 set).
        variation: Process-variation model (shared by characterization
            and the simulated measurements).
        group_size: N, TSVs per ring oscillator.
        plan: Measurement timing plan for the test-time accounting.
        characterization_samples: MC samples per voltage for the band.
        group_screen_first: Measure the whole group (M = N) before
            isolating TSVs; saves time on healthy groups at the price of
            the M-fold aliasing growth of Fig. 10 (handled by escalating
            on *any* group anomaly).
        bands: Precomputed fault-free bands per voltage, skipping
            characterization entirely -- how the sharded wafer engine
            hands one parent characterization to its worker processes.
        preflight: Run :func:`repro.spice.staticcheck.check_die` over
            every die before measuring it and reject dies with
            error-severity diagnostics (NaN capacitance, out-of-range
            fault parameters) via
            :class:`~repro.analysis.diagnostics.PreflightError`.  The
            wafer engine turns this off here and pre-checks dies itself,
            before pool dispatch.
        fidelity: ``"full"`` (default) measures every TSV with this
            flow's engine at every voltage; ``"cascade"`` routes TSVs
            through the multi-fidelity ladder of
            :class:`~repro.cascade.cascade.CascadeScreen` -- cheap
            stage-0 screening with statistical escalation of ambiguous
            TSVs.  Cascade fidelity ignores ``group_screen_first`` (the
            cascade always isolates per TSV).
        cascade: :class:`~repro.cascade.policy.CascadeConfig` knobs;
            passing one implies ``fidelity="cascade"``.  ``None`` with
            cascade fidelity uses the defaults.
        cascade_state: Precomputed per-(stage, voltage) bands from a
            parent process's :meth:`CascadeScreen.prepare` -- how wafer
            workers inherit one cascade characterization.
        cascade_signatures: Override the cascade's fault-signature
            probe sets (name -> TSVs along a severity grid) used to
            build the predictive calibration table; ``None`` keeps
            :func:`~repro.cascade.characterize.default_calibration_signatures`.
        measurement_variation: Process variation applied to the
            simulated *measurements* (characterization always uses
            ``variation``).  The default ``"inherit"`` reuses
            ``variation``; ``None`` makes every measurement a
            deterministic nominal solve, memoized under seed-free keys
            -- the mode the cascade's statistical escape harness runs
            in, so repeated measurements of identical TSVs cost one
            solve fleet-wide.
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
        bands: Optional[Dict[float, ReferenceBand]] = None,
        preflight: bool = True,
        fidelity: str = "full",
        cascade: Optional[CascadeConfig] = None,
        cascade_state: Optional[CascadeState] = None,
        cascade_signatures: Optional[Dict[str, Sequence[object]]] = None,
        measurement_variation: object = "inherit",
    ):
        if fidelity not in ("full", "cascade"):
            raise ValueError(
                f"fidelity must be 'full' or 'cascade', got {fidelity!r}"
            )
        self.engine_factory = as_engine_factory(engine_factory)
        self.preflight = preflight
        self.voltages = list(voltages)
        self.variation = variation
        self.group_size = group_size
        self.plan = plan or MeasurementPlan()
        self.characterization_samples = characterization_samples
        self.group_screen_first = group_screen_first
        self.tsv_cap_variation_rel = tsv_cap_variation_rel
        self.seed = seed
        self.fidelity = "cascade" if cascade is not None else fidelity
        self.measurement_variation: Optional[ProcessVariation] = (
            self.variation
            if isinstance(measurement_variation, str)
            and measurement_variation == "inherit"
            else measurement_variation  # type: ignore[assignment]
        )
        self._engines = {v: self.engine_factory(v) for v in self.voltages}
        self._stop_floor: Optional[float] = None
        self._stop_floor_known = False
        self._bands: Dict[float, ReferenceBand] = {}
        if bands is not None:
            missing = [v for v in self.voltages if v not in bands]
            if missing:
                raise ValueError(
                    f"precomputed bands missing voltages {missing}"
                )
            self._bands = {v: bands[v] for v in self.voltages}
        else:
            self._characterize()
        self._cascade: Optional[CascadeScreen] = None
        if self.fidelity == "cascade":
            self._cascade = CascadeScreen(
                stage0=self.engine_factory,
                config=cascade if cascade is not None else CascadeConfig(),
                voltages=self.voltages,
                variation=self.variation,
                group_size=self.group_size,
                window=self.plan.window,
                characterization_samples=self.characterization_samples,
                tsv_cap_variation_rel=self.tsv_cap_variation_rel,
                seed=self.seed,
                state=cascade_state,
                signatures=cascade_signatures,
                measurement_variation=self.measurement_variation,
            )

    @property
    def cascade(self) -> Optional[CascadeScreen]:
        """The cascade router, when ``fidelity="cascade"``."""
        return self._cascade

    @property
    def bands(self) -> Dict[float, ReferenceBand]:
        """Fault-free acceptance bands per voltage (picklable)."""
        return dict(self._bands)

    # ------------------------------------------------------------------
    def _characterize(self) -> None:
        """Fault-free DeltaT bands per voltage.

        The band absorbs three nuisance sources a production program has
        to tolerate: transistor mismatch (Monte Carlo), healthy TSV
        capacitance variation (geometry), and the counter quantization
        guard of Sec. IV-C.

        Every Monte Carlo chunk and the T2 guard period go through the
        content-addressed solve cache: dies, wafers, and repeated flow
        constructions with identical engine/variation parameters share
        one characterization instead of re-simulating it.
        """
        with telemetry_phase("characterize"):
            cap_factors = characterization_cap_factors(
                self.seed, self.tsv_cap_variation_rel,
                self.characterization_samples,
            )
            for vdd, engine in self._engines.items():
                samples = characterization_samples(
                    engine, self.variation,
                    self.characterization_samples, self.seed, cap_factors,
                )
                guard = self._quant_guard(engine)
                self._bands[vdd] = ReferenceBand.from_samples(
                    samples, guard=guard
                )

    def _quant_guard(self, engine) -> float:
        """Counter error on DeltaT: two estimates, each off by E=T^2/t.

        The all-bypassed T2 reference period is shared by every die
        tested with the same engine and group size, so it is served from
        the solve cache (see :func:`repro.cascade.characterize.quant_guard`).
        """
        return quant_guard(engine, self.group_size, self.plan.window)

    def band(self, vdd: float) -> ReferenceBand:
        return self._bands[vdd]

    # ------------------------------------------------------------------
    @property
    def stop_floor(self) -> Optional[float]:
        """Worst-case oscillation-stop leakage floor across the plan.

        The floor rises as the supply drops, so the maximum over the
        planned voltages marks every ``R_L`` that will stick the ring at
        *some* voltage of the plan.  ``None`` when no engine declares
        the ``oscillation_stop`` capability (numeric backends, ad-hoc
        stubs in tests).
        """
        if not self._stop_floor_known:
            floors = []
            for engine in self._engines.values():
                if not supports(engine, "oscillation_stop"):
                    continue
                try:
                    floor = float(engine.oscillation_stop_r_leak())
                except Exception:
                    continue
                if math.isfinite(floor) and floor > 0.0:
                    floors.append(floor)
            self._stop_floor = max(floors) if floors else None
            self._stop_floor_known = True
        return self._stop_floor

    def preflight_die(
        self,
        population: DiePopulation,
        label: str = "die",
        fail: bool = True,
    ) -> DiagnosticReport:
        """Static die check: reject un-screenable dies before measuring.

        Error diagnostics (NaN/non-positive TSV capacitance, fault
        parameters outside their physical ranges) raise
        :class:`~repro.analysis.diagnostics.PreflightError`; injected
        defects themselves never rise above info severity -- they are
        what the screen exists to find.
        """
        report = check_die(population, stop_floor=self.stop_floor,
                           label=label)
        record_diagnostics(report)
        if fail:
            report.raise_if_errors(label)
        elif report.has_errors:
            tele = get_telemetry()
            for diagnostic in report.errors:
                tele.incr(f"diag_suppressed.{diagnostic.rule}")
        return report

    # ------------------------------------------------------------------
    def _measure(
        self, vdd: float, pending: Sequence[Tuple[Tsv, int]]
    ) -> List[float]:
        """Simulated DeltaTs of pending ``(tsv, seed)``s at one supply.

        One :func:`~repro.cascade.characterize.measure_pending` call, so
        same-structure TSVs share one stacked solve pair.  With
        ``measurement_variation=None`` each measurement is a
        deterministic nominal solve, memoized under a seed-free key
        shared with :meth:`CascadeScreen._measure` -- identical TSVs
        cost one solve per engine regardless of die, seed, or caller.
        """
        return measure_pending(
            self._engines[vdd], pending, self.measurement_variation
        )

    def _flagged(self, delta_t: float, vdd: float) -> bool:
        if not math.isfinite(delta_t):
            return True  # stuck oscillator
        return not self._bands[vdd].contains(delta_t)

    # ------------------------------------------------------------------
    def screen_die(
        self,
        population: DiePopulation,
        measure_seed: Optional[int] = None,
    ) -> FlowMetrics:
        """Screen every TSV of ``population``; returns the metrics.

        Args:
            population: The die's TSVs with ground truth attached.
            measure_seed: Base seed of this die's simulated measurement
                noise (default: the flow seed).  The wafer engine derives
                one per die via ``SeedSequence`` so sharded and serial
                screens draw identical measurements.

        Raises:
            repro.analysis.diagnostics.PreflightError: When the flow's
                pre-flight check is on and the die carries
                error-severity diagnostics.
        """
        preflight_warned = False
        if self.preflight:
            report = self.preflight_die(population)
            preflight_warned = bool(report.warnings)
        elif (
            self._cascade is not None
            and self._cascade.config.escalate_on_preflight
        ):
            # Workers run with the rejecting gate off (the wafer parent
            # already checked the die), but the cascade still needs the
            # warning signal -- recomputed here, identically on serial
            # and sharded paths, without re-recording diagnostics.
            report = check_die(population, stop_floor=self.stop_floor,
                               label="die")
            preflight_warned = bool(report.warnings)
        with telemetry_phase("screen"):
            if self._cascade is not None:
                metrics = self._screen_die_cascade(
                    population, measure_seed, preflight_warned
                )
            else:
                metrics = self._screen_die(population, measure_seed)
        tele = get_telemetry()
        tele.incr("dies_screened")
        tele.incr("measurements", metrics.measurements)
        return metrics

    def _screen_die(
        self,
        population: DiePopulation,
        measure_seed: Optional[int] = None,
    ) -> FlowMetrics:
        base_seed = self.seed if measure_seed is None else measure_seed
        metrics = FlowMetrics(num_tsvs=len(population))
        flagged: Dict[int, bool] = {}
        measurement_count = 0

        isolate: List[Dict[int, TsvRecord]] = []
        for group in population.groups(self.group_size):
            if self.group_screen_first and len(group) > 1:
                # One T1 with all M TSVs enabled plus one T2, per voltage.
                # The group DeltaT is the sum of the members' individual
                # contributions (the M-segment superposition of Fig. 10).
                group_anomaly = False
                for vdd in self.voltages:
                    measurement_count += 2
                    group_dt = 0.0
                    for dt in self._measure(vdd, [
                        (rec.tsv, base_seed + 31 * rec.index) for rec in group
                    ]):
                        group_dt += dt
                    band = self._bands[vdd]
                    scale = len(group)
                    if not math.isfinite(group_dt) or not (
                        band.low * scale <= group_dt <= band.high * scale
                    ):
                        group_anomaly = True
                        break
                if not group_anomaly:
                    for rec in group:
                        flagged[rec.index] = False
                    continue
            isolate.append({rec.index: rec for rec in group})
            for rec in group:
                flagged[rec.index] = False
        # Per-TSV isolation, breadth-first over the die: at each voltage
        # one shared T2 per group, then one T1 per still-unresolved TSV,
        # all measured at once (a TSV flagged at an earlier voltage needs
        # no further measurements).
        for vdd in self.voltages:
            isolate = [pending for pending in isolate if pending]
            if not isolate:
                break
            entries = [
                (pending, rec) for pending in isolate
                for rec in pending.values()
            ]
            measurement_count += len(isolate) + len(entries)  # T2s + T1s
            values = self._measure(vdd, [
                (rec.tsv, base_seed + 31 * rec.index) for _, rec in entries
            ])
            for (pending, rec), dt in zip(entries, values):
                if self._flagged(dt, vdd):
                    flagged[rec.index] = True
                    del pending[rec.index]

        self._account(population, flagged, metrics)
        metrics.measurements = measurement_count
        metrics.test_time = measurement_count * self.plan.measurement_time()
        return metrics

    @staticmethod
    def _account(
        population: DiePopulation,
        flagged: Dict[int, bool],
        metrics: FlowMetrics,
    ) -> None:
        """Fold verdicts against ground truth into ``metrics``."""
        for rec in population:
            got = flagged.get(rec.index, False)
            if rec.truly_faulty:
                metrics.true_faulty += 1
                if got:
                    metrics.detected += 1
                    metrics.detected_by_kind[rec.fault_kind] = (
                        metrics.detected_by_kind.get(rec.fault_kind, 0) + 1
                    )
                else:
                    metrics.escapes += 1
                    metrics.escaped_by_kind[rec.fault_kind] = (
                        metrics.escaped_by_kind.get(rec.fault_kind, 0) + 1
                    )
            elif got:
                metrics.overkill += 1

    def _screen_die_cascade(
        self,
        population: DiePopulation,
        measure_seed: Optional[int],
        preflight_warned: bool,
    ) -> FlowMetrics:
        """Cascade fidelity: route every TSV through the fidelity ladder."""
        assert self._cascade is not None
        base_seed = self.seed if measure_seed is None else measure_seed
        metrics = FlowMetrics(num_tsvs=len(population))
        decision = self._cascade.classify_die(
            population, base_seed, preflight_warned=preflight_warned
        )
        flagged = {d.index: d.flagged for d in decision.tsv_decisions}
        self._account(population, flagged, metrics)
        for d in decision.tsv_decisions:
            metrics.measurements += d.measurements
            if d.stage > 0:
                metrics.escalated += 1
            for name, count in d.stage_measurements.items():
                metrics.stage_measurements[name] = (
                    metrics.stage_measurements.get(name, 0) + count
                )
            for reason in d.reasons:
                metrics.escalations[reason] = (
                    metrics.escalations.get(reason, 0) + 1
                )
        metrics.test_time = (
            metrics.measurements * self.plan.measurement_time()
        )
        return metrics
