"""Stage-delay transients stop at their last needed crossing, bit-identically.

Every stage-delay transient ends once each corner's output has crossed
50% after both input edges.  Each delay below is compared with the same
extraction run over the full window -- a plain
``BatchedSimulation.transient`` or ``transient`` without the early-stop
predicate -- with ``np.array_equal(..., equal_nan=True)``.
"""

import numpy as np
import pytest

import repro.core.engines.stagedelay as stagedelay
from repro.core.engines import StageDelayEngine
from repro.core.engines.base import MeasurementRequest
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv, TsvParameters
from repro.spice import transient
from repro.spice.batch import BatchedSimulation, BatchParameters
from repro.spice.cache import cache_disabled
from repro.spice.montecarlo import ProcessVariation
from repro.spice.waveform import NoOscillationError
from repro.telemetry import use_telemetry

TIMESTEP = 20e-12

#: Just above the 0.8 V oscillation-stop threshold (1.3-1.45 kOhm at
#: 20 ps): the on-path output rises more than 1 ns after its input.
LATE_LEAK = 1450.0

TSVS = {
    "fault-free": Tsv(),
    "open-1k": Tsv(fault=ResistiveOpen(1e3, x=0.5)),
    "open-8k": Tsv(fault=ResistiveOpen(8e3, x=0.2)),
    "open-inf": Tsv(fault=ResistiveOpen(float("inf"), x=0.7)),
    "leak-50k": Tsv(fault=Leakage(5e4)),
    "leak-2k": Tsv(fault=Leakage(2e3)),
    "leak-300": Tsv(fault=Leakage(300.0)),  # stuck: reads NaN
}


def engine_at(vdd):
    return StageDelayEngine(
        config=RingOscillatorConfig(vdd=vdd), timestep=TIMESTEP
    )


def full_window(monkeypatch):
    """Run every stage transient over the whole window from now on."""
    batched = BatchedSimulation.transient
    monkeypatch.setattr(
        BatchedSimulation, "transient",
        lambda sim, *args, done=None, **kw: batched(sim, *args, **kw),
    )
    monkeypatch.setattr(
        stagedelay, "transient",
        lambda *args, done=None, **kw: transient(*args, **kw),
    )


def scalar_or_stuck(fn, *args):
    try:
        return np.array(fn(*args))
    except NoOscillationError:
        return np.array([np.nan, np.nan])


class TestBatchedDelays:
    @pytest.mark.parametrize("name", sorted(TSVS))
    def test_mc_matches_full_window(self, name, monkeypatch):
        engine = engine_at(1.1)
        args = (TSVS[name], ProcessVariation(), 4)
        with use_telemetry() as tele:
            stopped = engine.delta_t_mc(*args, seed=5)
        full_window(monkeypatch)
        with use_telemetry() as full_tele:
            full = engine.delta_t_mc(*args, seed=5)
        assert np.array_equal(stopped, full, equal_nan=True)
        assert np.isnan(full).all() == (name == "leak-300")
        # The bypassed run always stops early; a stuck on-path keeps the
        # window, so it skips fewer steps.
        assert tele.count("spice.steps_skipped") > 0
        assert full_tele.count("spice.steps_skipped") == 0
        assert (
            tele.count("newton_iterations")
            < full_tele.count("newton_iterations")
        )

    def test_stuck_corner_keeps_the_full_window(self):
        engine = engine_at(1.1)
        circuit, _ = engine._segment_circuit(TSVS["leak-300"], bypassed=False)
        with use_telemetry() as tele:
            rise, fall = engine._circuit_delays(
                circuit, BatchParameters.nominal(2)
            )
        assert np.isnan(rise).all() or np.isnan(fall).all()
        assert tele.count("spice.steps_skipped") == 0

    def test_late_crossing_near_the_oscillation_stop(self, monkeypatch):
        engine = engine_at(0.8)
        tsv = Tsv(fault=Leakage(LATE_LEAK))
        args = (tsv, ProcessVariation(), 6)
        nominal = engine.segment_delays(tsv)
        assert nominal[0] > 1e-9  # the output crosses late
        stopped = engine.delta_t_mc(*args, seed=2)
        sweep = engine.delta_t_sweep_rl([1300.0, LATE_LEAK, 1600.0, 1e4])
        full_window(monkeypatch)
        assert np.array_equal(
            stopped, engine.delta_t_mc(*args, seed=2), equal_nan=True
        )
        assert np.array_equal(
            sweep,
            engine.delta_t_sweep_rl([1300.0, LATE_LEAK, 1600.0, 1e4]),
            equal_nan=True,
        )
        assert np.array_equal(nominal, engine.segment_delays(tsv))

    def test_sweeps_match_full_window(self, monkeypatch):
        engine = engine_at(1.1)
        r_open = [0.0, 1e3, 1e5, float("inf")]
        r_leak = [300.0, 2e3, 1e5]
        stopped = (
            engine.delta_t_sweep_ro(r_open), engine.delta_t_sweep_rl(r_leak)
        )
        full_window(monkeypatch)
        full = (
            engine.delta_t_sweep_ro(r_open), engine.delta_t_sweep_rl(r_leak)
        )
        for got, want in zip(stopped, full):
            assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(full[1][0])

    @pytest.mark.parametrize("vdd", [1.1, 0.8])
    def test_stacked_pairs_match_full_window(self, vdd, monkeypatch):
        engine = engine_at(1.1)
        requests = [
            MeasurementRequest(tsv=tsv, vdd=vdd) for tsv in TSVS.values()
        ] + [
            MeasurementRequest(
                tsv=tsv, vdd=vdd, seed=3, variation=ProcessVariation(),
                num_samples=2,
            )
            for tsv in TSVS.values()
        ]
        with cache_disabled():
            stopped = engine.measure_batch(requests)
            full_window(monkeypatch)
            full = engine.measure_batch(requests)
        for a, b in zip(stopped, full):
            assert np.array_equal(a.delta_t, b.delta_t, equal_nan=True)
            if b.samples is not None:
                assert np.array_equal(a.samples, b.samples, equal_nan=True)

    def test_stop_after_a_bisected_step(self, monkeypatch):
        """``delta_t_mc`` keeps step bisection on; a run that halves a
        step before its stop still matches the full window."""
        import repro.spice.stepper as stepper
        from repro.spice.mna import ConvergenceError

        engine = engine_at(1.1)
        edge = 10 * TIMESTEP
        original = stepper._step

        def forced(steppers, states, t_new, mats, use_trap, guesses):
            if use_trap and abs(t_new - edge) < TIMESTEP / 4:
                raise ConvergenceError("forced step failure")
            return original(steppers, states, t_new, mats, use_trap, guesses)

        monkeypatch.setattr(stepper, "_step", forced)
        tsv = Tsv(params=TsvParameters(capacitance=70e-15))
        with use_telemetry() as tele:
            stopped = engine.delta_t_mc(tsv, ProcessVariation(), 3, seed=9)
        assert tele.count("step_halvings") > 0
        assert tele.count("spice.steps_skipped") > 0
        full_window(monkeypatch)
        full = engine.delta_t_mc(tsv, ProcessVariation(), 3, seed=9)
        assert np.array_equal(stopped, full, equal_nan=True)


class TestScalarDelays:
    @pytest.mark.parametrize("vdd", [1.1, 0.8])
    def test_segment_and_closer_delays_match_full_window(
        self, vdd, monkeypatch
    ):
        engine = engine_at(vdd)
        tsvs = list(TSVS.values()) + [Tsv(fault=Leakage(LATE_LEAK))]
        with use_telemetry() as tele:
            stopped = [
                scalar_or_stuck(engine.segment_delays, tsv, bypassed)
                for tsv in tsvs for bypassed in (False, True)
            ]
        assert tele.count("spice.steps_skipped") > 0
        with use_telemetry() as closer_tele:
            stopped.append(np.array(engine.closer_delays()))
        # The inverting closer waits for the opposite output edges.
        assert closer_tele.count("spice.steps_skipped") > 0
        full_window(monkeypatch)
        full = [
            scalar_or_stuck(engine.segment_delays, tsv, bypassed)
            for tsv in tsvs for bypassed in (False, True)
        ] + [np.array(engine.closer_delays())]
        for got, want in zip(stopped, full):
            assert np.array_equal(got, want, equal_nan=True)
        # The stuck 300 Ohm leak raises on both; the closer inverts.
        assert np.isnan(full[2 * list(TSVS).index("leak-300")]).all()
        assert np.isfinite(full[-1]).all()

    def test_stuck_segment_raises_after_the_full_window(self):
        engine = engine_at(1.1)
        with use_telemetry() as tele:
            with pytest.raises(NoOscillationError):
                engine.segment_delays(TSVS["leak-300"])
        assert tele.count("spice.steps_skipped") == 0
