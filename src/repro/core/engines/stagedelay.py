"""Per-stage transient engine -- the batched Monte Carlo workhorse."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells import CellKit
from repro.core.engines.base import (
    DEFAULT_STOP_POLICY,
    Engine,
    EngineCapabilities,
    MeasurementRequest,
    MeasurementResult,
    StopTimePolicy,
)
from repro.core.engines.montecarlo import same_seed_samples
from repro.core.engines.registry import register
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice import Pulse, transient
from repro.spice.batch import BatchedResult, BatchParameters, BatchedSimulation
from repro.spice.cache import (
    circuit_fingerprint,
    fingerprint,
    memoize,
    structure_fingerprint,
)
from repro.spice.mna import ConvergenceError
from repro.spice.montecarlo import ProcessSample, ProcessVariation
from repro.spice.netlist import Circuit, GROUND
from repro.spice.waveform import NoOscillationError
from repro.telemetry import get_telemetry


def _element_value(circuit: Circuit, name: str) -> float:
    """The value of the resistor or capacitor ``name`` in ``circuit``."""
    for r in circuit.resistors:
        if r.name == name:
            return float(r.resistance)
    for c in circuit.capacitors:
        if c.name == name:
            return float(c.capacitance)
    raise KeyError(f"no resistor or capacitor named {name!r} in circuit")


def _crossing_mask(traces: np.ndarray, level: float, direction: str) -> np.ndarray:
    """``(..., T - 1)`` mask of the sample pairs crossing ``level``."""
    below = traces < level
    if direction == "rise":
        return below[..., :-1] & ~below[..., 1:]
    return ~below[..., :-1] & below[..., 1:]


def _first_crossings_after(
    time: np.ndarray,
    traces: np.ndarray,
    level: float,
    direction: str,
    t_min: float,
) -> np.ndarray:
    """Per-corner first interpolated crossing at/after ``t_min``.

    Vectorized equivalent of ``Waveform.crossings(level, direction)``
    followed by taking the first crossing ``>= t_min``; ``traces`` is the
    stacked ``(S, T)`` voltage array and the return value is ``(S,)``
    with NaN where a corner never crosses (stuck path).
    """
    mask = _crossing_mask(traces, level, direction)
    v1 = traces[:, :-1]
    v2 = traces[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (level - v1) / (v2 - v1)
    t_cross = time[:-1] + frac * (time[1:] - time[:-1])
    cand = np.where(mask & (t_cross >= t_min), t_cross, np.inf)
    first = cand.min(axis=1)
    return np.where(np.isfinite(first), first, np.nan)


class _CrossingWatch:
    """Early-stop predicate: every delay the extraction reads is in.

    A stage transient's delays are the first 50% ``din`` crossings
    (corner 0) and, per corner and input edge, the first output
    crossing of the matching direction at or after it.  Called after
    each accepted step, the watch reports True once every corner has
    both output crossings, so the time loop stops there: cutting the
    traces after that sample leaves each crossing the extraction reads
    -- and so each delay -- bit-identical.  A corner that never crosses
    keeps the loop running over the full window.

    Each step reads only the newest sample pair, through the arithmetic
    of :func:`_first_crossings_after` and only where a trace switched:
    O(S) per step.  (The step that finds an input edge also reads the
    pair before, since a crossing there may still follow the edge.)
    """

    def __init__(self, level: float, out_node: str, inverting: bool):
        self.level = level
        self.out_node = out_node
        out_edges = ("fall", "rise") if inverting else ("rise", "fall")
        #: Per input edge: (input direction, output direction).
        self.edges = tuple(zip(("rise", "fall"), out_edges))
        self.t_in: List[Optional[float]] = [None, None]
        self.crossed: List[np.ndarray] = [np.zeros(0, bool)] * 2

    def __call__(
        self, k: int, times: np.ndarray, traces: Dict[str, np.ndarray]
    ) -> bool:
        level = self.level
        seg = slice(k - 1, k + 1)
        din = np.atleast_2d(traces["din"])[:1, seg]
        out = np.atleast_2d(traces[self.out_node])
        done = True
        for e, (edge_in, edge_out) in enumerate(self.edges):
            t_in = self.t_in[e]
            crossed = self.crossed[e]
            if t_in is None:
                if not _crossing_mask(din, level, edge_in).any():
                    done = False
                    continue
                self.t_in[e] = t_in = float(_first_crossings_after(
                    times[seg], din, level, edge_in, -np.inf
                )[0])
                # t_in >= t[k-1], so no output crossing before sample
                # k - 2 can count.
                back = slice(max(k - 2, 0), k + 1)
                crossed = ~np.isnan(_first_crossings_after(
                    times[back], out[:, back], level, edge_out, t_in
                ))
            elif not crossed.all() and _crossing_mask(
                out[:, seg], level, edge_out
            ).any():
                crossed |= ~np.isnan(_first_crossings_after(
                    times[seg], out[:, seg], level, edge_out, t_in
                ))
            self.crossed[e] = crossed
            done = done and bool(crossed.all())
        return done


@register("stagedelay", "stage", "stage-delay")
@dataclass
class StageDelayEngine(Engine):
    """Per-stage transient simulation; the workhorse engine.

    The segment test circuit is one I/O segment exactly as it appears in
    the ring (I/O cell, TSV network, bypass mux) with a pulse input and a
    receiver-sized load.  Stage delays are measured 50%-to-50%; the loop
    period is the sum of stage delays plus the loop-closer (inverter +
    TE mux) delays.

    Monte Carlo runs are batched: all corners are simulated in one stacked
    MNA run (:mod:`repro.spice.batch`).  :meth:`measure_batch` stacks
    by value as well: requests whose segment circuits differ only in the
    TSV's own element values run as corners of one on/bypassed pair,
    bit-identical to measuring them one at a time.
    """

    config: RingOscillatorConfig = RingOscillatorConfig()
    timestep: float = 1e-12
    input_slew: float = 20e-12
    pulse_width: float = 1.0e-9
    stop_policy: StopTimePolicy = field(default=DEFAULT_STOP_POLICY)

    capabilities: ClassVar[EngineCapabilities] = EngineCapabilities(
        batched_mc=True,
        batched_requests=True,
        family_requests=True,
        parameter_sweeps=True,
        preflight_circuits=True,
        oscillation_stop=False,
        picklable=True,
    )

    def _pulse_width(self) -> float:
        return self.pulse_width

    # -- circuit builders ------------------------------------------------
    def _input_pulse(self) -> Pulse:
        return Pulse(
            0.0, self.config.vdd, delay=self.stop_policy.input_delay,
            rise=self.input_slew, fall=self.input_slew,
            width=self.pulse_width,
        )

    def _segment_circuit(
        self,
        tsv: Tsv,
        bypassed: bool,
        sample: Optional[ProcessSample] = None,
        sweepable: bool = False,
    ) -> Tuple[Circuit, Dict[str, str]]:
        cfg = self.config
        vdd = cfg.vdd
        circuit = Circuit("segment")
        circuit.add_vsource("vdd", "vdd", GROUND, vdd)
        circuit.add_vsource("v_oe", "OE", GROUND, vdd)
        circuit.add_vsource(
            "v_by", "BY", GROUND, vdd if bypassed else 0.0
        )
        circuit.add_vsource("vin", "din", GROUND, self._input_pulse())
        kit = CellKit(circuit, vdd="vdd", tech=cfg.tech, sample=sample)
        kit.io_cell("io", "din", "OE", "pad", "rx",
                    driver_strength=cfg.driver_strength)
        if sweepable:
            elements = tsv.build_sweepable(circuit, "tsv", "pad")
        else:
            elements = tsv.build(circuit, "tsv", "pad")
        kit.mux2("bymux", "rx", "din", "BY", "dout")
        # Load: the next segment's driver input inverter (X2-equivalent).
        kit.inverter("load", "dout", "load_out", strength=2.0)
        return circuit, elements

    def _closer_circuit(
        self, sample: Optional[ProcessSample] = None
    ) -> Circuit:
        """Loop inverter + TE mux, as seen between segment N and segment 1."""
        cfg = self.config
        vdd = cfg.vdd
        circuit = Circuit("closer")
        circuit.add_vsource("vdd", "vdd", GROUND, vdd)
        circuit.add_vsource("v_te", "TE", GROUND, vdd)
        circuit.add_vsource("v_func", "func_in", GROUND, 0.0)
        circuit.add_vsource("vin", "din", GROUND, self._input_pulse())
        kit = CellKit(circuit, vdd="vdd", tech=cfg.tech, sample=sample)
        kit.inverter("loop_inv", "din", "osc", strength=1.0)
        kit.mux2("te_mux", "func_in", "osc", "TE", "loop_in")
        kit.inverter("load", "loop_in", "load_out", strength=2.0)
        return circuit

    def preflight_circuits(
        self, tsv: Optional[Tsv] = None
    ) -> Dict[str, Circuit]:
        """The circuit shapes this engine simulates, built but not run.

        For the static analyzer (:mod:`repro.spice.staticcheck`) and the
        ``python -m repro.spice.staticcheck`` CLI: one entry per distinct
        topology a measurement touches, keyed by a stable label.
        """
        probe = tsv if tsv is not None else Tsv()
        return {
            "segment": self._segment_circuit(probe, bypassed=False)[0],
            "segment-bypassed": self._segment_circuit(probe, bypassed=True)[0],
            "segment-sweepable": self._segment_circuit(
                probe, bypassed=False, sweepable=True
            )[0],
            "closer": self._closer_circuit(),
        }

    # -- scalar measurements ----------------------------------------------
    def _edge_delays(
        self, circuit: Circuit, out_node: str, inverting: bool
    ) -> Tuple[float, float]:
        """(delay after input rise, delay after input fall) at 50%/50%."""
        half = self.config.vdd / 2.0
        result = transient(
            circuit, self.stop_time(), self.timestep,
            record=["din", out_node],
            done=_CrossingWatch(half, out_node, inverting),
        )
        win = result.waveform("din")
        wout = result.waveform(out_node)
        rise_out = "fall" if inverting else "rise"
        fall_out = "rise" if inverting else "fall"
        d_rise = win.propagation_delay_to(wout, half, edge_in="rise",
                                          edge_out=rise_out)
        d_fall = win.propagation_delay_to(wout, half, edge_in="fall",
                                          edge_out=fall_out)
        return d_rise, d_fall

    def segment_delays(
        self,
        tsv: Tsv,
        bypassed: bool = False,
        sample: Optional[ProcessSample] = None,
    ) -> Tuple[float, float]:
        """(tpLH, tpHL) of one I/O segment (non-inverting path).

        Raises:
            NoOscillationError: If the segment output never switches
                within the observation window (stuck path).
        """
        circuit, _ = self._segment_circuit(tsv, bypassed, sample)
        return self._edge_delays(circuit, "dout", inverting=False)

    def closer_delays(
        self, sample: Optional[ProcessSample] = None
    ) -> Tuple[float, float]:
        """(input-rise, input-fall) delays of the inverter + TE mux path."""
        circuit = self._closer_circuit(sample)
        return self._edge_delays(circuit, "loop_in", inverting=True)

    def period(
        self,
        tsvs: Sequence[Tsv],
        enabled: Sequence[bool],
        sample: Optional[ProcessSample] = None,
    ) -> float:
        """Loop period as the sum of per-stage delays."""
        n = self.config.num_segments
        if len(tsvs) != n or len(enabled) != n:
            raise ValueError("tsvs and enabled must match num_segments")
        total = 0.0
        for tsv, on in zip(tsvs, enabled):
            d_rise, d_fall = self.segment_delays(tsv, bypassed=not on,
                                                 sample=sample)
            total += d_rise + d_fall
        c_rise, c_fall = self.closer_delays(sample)
        return total + c_rise + c_fall

    def delta_t(
        self,
        tsv: Tsv,
        m: int = 1,
        variation: Optional[ProcessVariation] = None,
        seed: int = 0,
    ) -> float:
        """DeltaT = T1 - T2; shared stages cancel exactly by construction."""
        if not 1 <= m <= self.config.num_segments:
            raise ValueError("invalid m")
        total = 0.0
        for i in range(m):
            s_on, s_off = same_seed_samples(variation, seed * 1000003 + i)
            on_r, on_f = self.segment_delays(tsv, bypassed=False, sample=s_on)
            off_r, off_f = self.segment_delays(tsv, bypassed=True, sample=s_off)
            total += (on_r + on_f) - (off_r + off_f)
        return total

    # -- batched Monte Carlo ----------------------------------------------
    def _delays_from_result(
        self, result: BatchedResult
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-corner (tpLH, tpHL) from a recorded din/dout transient."""
        half = self.config.vdd / 2.0
        win = result.waveform("din", 0)
        t_rise_in = win.crossings(half, "rise")
        t_fall_in = win.crossings(half, "fall")
        if len(t_rise_in) == 0 or len(t_fall_in) == 0:
            raise NoOscillationError("input pulse malformed")
        tr, tf = t_rise_in[0], t_fall_in[0]
        vout = result.voltages["dout"]
        d_rise = _first_crossings_after(result.time, vout, half, "rise", tr) - tr
        d_fall = _first_crossings_after(result.time, vout, half, "fall", tf) - tf
        return d_rise, d_fall

    def _circuit_delays(
        self, circuit: Circuit, params: BatchParameters, max_retries: int = 4
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-corner (tpLH, tpHL) arrays; NaN where the path is stuck.

        The transient stops once every corner's delays are read.
        """
        result = BatchedSimulation(circuit, params).transient(
            self.stop_time(), self.timestep, record=["din", "dout"],
            max_retries=max_retries,
            done=_CrossingWatch(self.config.vdd / 2.0, "dout", False),
        )
        return self._delays_from_result(result)

    def _batched_segment_delays(
        self,
        tsv: Tsv,
        bypassed: bool,
        params: BatchParameters,
        sweepable: bool = False,
        resistor_overrides: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One segment circuit + corner overrides, run and measured."""
        circuit, elements = self._segment_circuit(
            tsv, bypassed, sample=None, sweepable=sweepable
        )
        for short_name, values in (resistor_overrides or {}).items():
            params = params.with_resistor(elements[short_name], values)
        return self._circuit_delays(circuit, params)

    def delta_t_mc(
        self,
        tsv: Tsv,
        variation: ProcessVariation,
        num_samples: int,
        m: int = 1,
        seed: int = 0,
    ) -> np.ndarray:
        """Monte Carlo DeltaT samples (batched).

        Each sample models one die: ``m`` segments under test with
        independent mismatch, measured once with TSVs in the loop (T1)
        and once bypassed (T2).  The same mismatch is applied to both
        measurements (same die), so only the segment-internal variation
        that the paper says cannot cancel remains.

        Returns:
            Array of length ``num_samples``; NaN marks dies where the
            TSV path did not switch (oscillation stop / stuck-at-0).
        """
        corners = num_samples * m
        circuit_probe, _ = self._segment_circuit(tsv, bypassed=False)
        params = BatchParameters.monte_carlo(
            circuit_probe, variation, corners, seed=seed
        )
        # Identical topology and build order for both runs -> the same
        # BatchParameters apply corner-for-corner.
        on_r, on_f = self._batched_segment_delays(tsv, False, params)
        off_r, off_f = self._batched_segment_delays(tsv, True, params)
        per_corner = (on_r + on_f) - (off_r + off_f)
        return per_corner.reshape(num_samples, m).sum(axis=1)

    # -- request coalescing (screening service) ---------------------------
    def _rebound(self, request: MeasurementRequest) -> "StageDelayEngine":
        """This engine with the request's supply/stop-policy overrides."""
        engine = self
        if request.vdd is not None:
            engine = engine.at_vdd(request.vdd)
        if request.stop_policy is not None:
            engine = replace(engine, stop_policy=request.stop_policy)
        return engine

    def _knobs_key(self) -> str:
        """Fingerprint of everything but the netlist that shapes a solve."""
        return fingerprint(
            "stagedelay.family_key",
            type(self).__name__,
            self.config,
            self.timestep,
            self.input_slew,
            self.pulse_width,
            self.stop_policy,
        )

    def batch_key(self, request: MeasurementRequest) -> Optional[str]:
        """Compatibility key: engine knobs + effective supply + netlist.

        Only Monte Carlo requests get a key, so only they coalesce in
        the screening service; nominal requests stack only when a
        caller hands several to :meth:`measure_batch` at once (the
        cascade, its calibration and the screening flow do).  The key
        is memoized through the solve cache -- repeated request shapes
        skip the netlist build and fingerprint walk.
        """
        if request.num_samples is None:
            return None
        engine = self._rebound(request)

        def compute() -> str:
            circuit, _ = engine._segment_circuit(request.tsv, bypassed=False)
            return fingerprint(
                "stagedelay.batch_key",
                type(engine).__name__,
                circuit_fingerprint(circuit),
                engine.timestep,
                engine.input_slew,
                engine.pulse_width,
                engine.stop_policy,
            )

        return memoize(
            fingerprint(
                "stagedelay.batch_key.inputs", type(engine).__name__,
                engine.config, engine.timestep, engine.input_slew,
                engine.pulse_width, engine.stop_policy, request.tsv,
            ),
            compute,
        )

    def family_key(self, request: MeasurementRequest) -> Optional[str]:
        """Coarse key: engine knobs + effective supply, *no* netlist.

        Where :meth:`batch_key` fingerprints the circuit content (so
        every distinct fault resistance is its own group), the family
        key only fingerprints the engine parameters, the effective
        :class:`~repro.core.segments.RingOscillatorConfig` (which
        carries the supply) and the stop policy.  All same-supply Monte
        Carlo requests therefore reach :meth:`measure_batch` together
        regardless of their TSV fault values -- the realistic
        mixed-wafer load the exact key fragments into singletons -- and
        it splits them by structure there.
        """
        if request.num_samples is None:
            return None
        return self._rebound(request)._knobs_key()

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        """Execute requests; same-structure ones run as one stacked pair.

        Requests split by rebound engine (supply, stop policy), by
        structure key -- the segment circuit's
        :func:`~repro.spice.cache.structure_fingerprint` with the TSV's
        own element values masked -- and by Monte Carlo versus nominal.
        Each group runs as one on/bypassed :class:`BatchedSimulation`
        pair: every member's TSV element values go in as per-corner
        overrides over that member's corners; Monte Carlo members
        bring their own mismatch draws
        (exactly as :meth:`measure` draws them), nominal members one
        nominal corner.  The per-corner arithmetic is the serial
        path's, so every result is bit-identical to :meth:`measure`.

        Step bisection and the DC gmin ladder act on every corner of a
        stacked run at once, so the pair runs without them
        (``max_retries=0``): a group whose DC solve or time loop would
        need either is re-measured member by member through
        :meth:`measure` and counted in ``stagedelay.stack_fallbacks``.
        Nominal requests with ``m > 1`` and nominal requests with a
        process variation (a sample baked into the netlist) go to
        :meth:`measure` alone.
        """
        results: List[Optional[MeasurementResult]] = [None] * len(requests)
        groups: Dict[Tuple[str, str, bool], List[int]] = {}
        circuits: Dict[int, Tuple[Circuit, Dict[str, str]]] = {}
        for i, request in enumerate(requests):
            sampled = request.num_samples is not None
            if not sampled and (request.m != 1 or request.variation is not None):
                results[i] = self.measure(request)
                continue
            engine = self._rebound(request)
            circuit, elements = engine._segment_circuit(request.tsv, bypassed=False)
            circuits[i] = (circuit, elements)
            key = (
                engine._knobs_key(),
                structure_fingerprint(circuit, elements.values()),
                sampled,
            )
            groups.setdefault(key, []).append(i)
        for indices in groups.values():
            group = [requests[i] for i in indices]
            try:
                grouped = self._measure_stacked(
                    group, [circuits[i] for i in indices]
                )
            except ConvergenceError:
                get_telemetry().incr("stagedelay.stack_fallbacks")
                grouped = [self.measure(request) for request in group]
            for i, result in zip(indices, grouped):
                results[i] = result
        return [r for r in results if r is not None]

    def _measure_stacked(
        self,
        requests: Sequence[MeasurementRequest],
        circuits: Sequence[Tuple[Circuit, Dict[str, str]]],
    ) -> List[MeasurementResult]:
        """One on/bypassed pair for same-structure requests, no fallbacks.

        ``circuits`` are the members' own (on-path) segment circuits.
        Raises :class:`~repro.spice.mna.ConvergenceError` where a step
        would need halving or a DC solve the gmin ladder.
        """
        first = requests[0]
        engine = self._rebound(first)
        probe, elements = circuits[0]
        if first.num_samples is None:
            parts = [BatchParameters.nominal(1)] * len(requests)
        else:
            parts = engine._mc_parts(probe, requests)
        params = BatchParameters.concat(parts)
        counts = [part.num_corners for part in parts]
        resistors = {r.name for r in probe.resistors}
        for name in elements.values():
            values = np.repeat(
                [_element_value(circuit, name) for circuit, _ in circuits],
                counts,
            )
            if name in resistors:
                params = params.with_resistor(name, values)
            else:
                params = params.with_capacitor(name, values)
        get_telemetry().incr("stagedelay.stacked_pairs")
        bypassed, _ = engine._segment_circuit(first.tsv, bypassed=True)
        on_r, on_f = engine._circuit_delays(probe, params, max_retries=0)
        off_r, off_f = engine._circuit_delays(bypassed, params, max_retries=0)
        per_corner = (on_r + on_f) - (off_r + off_f)
        if first.num_samples is not None:
            return engine._slice_results(requests, parts, per_corner)
        results: List[MeasurementResult] = []
        for request, delta_t in zip(requests, per_corner):
            get_telemetry().incr(f"measure.{self.engine_name}")
            results.append(MeasurementResult(
                delta_t=float(delta_t),
                engine=self.engine_name,
                vdd=engine.config.vdd,
                m=request.m,
                seed=request.seed,
                tags=dict(request.tags),
            ))
        return results

    def _mc_parts(
        self, circuit_probe: Circuit, requests: Sequence[MeasurementRequest]
    ) -> List[BatchParameters]:
        """Per-request independent mismatch draws, in request order."""
        parts = []
        for request in requests:
            assert request.num_samples is not None
            corners = request.num_samples * request.m
            parts.append(BatchParameters.monte_carlo(
                circuit_probe,
                request.variation or ProcessVariation(),
                corners,
                seed=request.seed,
            ))
        return parts

    def _slice_results(
        self,
        requests: Sequence[MeasurementRequest],
        parts: Sequence[BatchParameters],
        per_corner: np.ndarray,
    ) -> List[MeasurementResult]:
        """Split a stacked per-corner DeltaT array back into results."""
        results: List[MeasurementResult] = []
        offset = 0
        for request, part in zip(requests, parts):
            assert request.num_samples is not None
            samples = (
                per_corner[offset:offset + part.num_corners]
                .reshape(request.num_samples, request.m)
                .sum(axis=1)
            )
            offset += part.num_corners
            get_telemetry().incr(f"measure.{self.engine_name}")
            results.append(MeasurementResult(
                delta_t=float(samples[0]) if len(samples) else math.nan,
                engine=self.engine_name,
                vdd=self.config.vdd,
                m=request.m,
                seed=request.seed,
                samples=samples,
                tags=dict(request.tags),
            ))
        return results

    def delta_t_sweep_ro(
        self,
        r_open_values: Sequence[float],
        x: float = 0.5,
        tsv: Optional[Tsv] = None,
    ) -> np.ndarray:
        """Batched DeltaT sweep over open-resistance values (Fig. 6).

        ``r_open`` of ~0 reproduces the fault-free point the paper plots
        at R_O = 0.
        """
        base = tsv or Tsv()
        probe = base.with_fault(ResistiveOpen(r_open=1.0, x=x))
        values = np.maximum(np.asarray(r_open_values, dtype=float), 1e-2)
        n = len(values)
        params = self._sweep_params(probe, n)
        on_r, on_f = self._batched_segment_delays(
            probe, False, params, sweepable=True,
            resistor_overrides={"ro": values},
        )
        params2 = self._sweep_params(probe, n)
        off_r, off_f = self._batched_segment_delays(
            probe, True, params2, sweepable=True,
            resistor_overrides={"ro": values},
        )
        return (on_r + on_f) - (off_r + off_f)

    def delta_t_sweep_rl(
        self,
        r_leak_values: Sequence[float],
        tsv: Optional[Tsv] = None,
    ) -> np.ndarray:
        """Batched DeltaT sweep over leakage resistance (Fig. 8).

        NaN entries mark leakage strong enough to stop the oscillation.
        """
        base = tsv or Tsv()
        probe = base.with_fault(Leakage(r_leak=1e6))
        values = np.asarray(r_leak_values, dtype=float)
        n = len(values)
        params = self._sweep_params(probe, n)
        on_r, on_f = self._batched_segment_delays(
            probe, False, params, sweepable=True,
            resistor_overrides={"rl": values},
        )
        params2 = self._sweep_params(probe, n)
        off_r, off_f = self._batched_segment_delays(
            probe, True, params2, sweepable=True,
            resistor_overrides={"rl": values},
        )
        return (on_r + on_f) - (off_r + off_f)

    def _sweep_params(self, probe: Tsv, n: int) -> BatchParameters:
        return BatchParameters.nominal(n)
