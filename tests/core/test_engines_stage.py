"""Integration tests for the stage-delay engine (real transistor sims).

Each test costs a fraction of a second to a few seconds; they cover the
paper's orderings on the circuit-accurate engine.  Module-scoped caches
keep the total runtime modest.
"""

import math

import numpy as np
import pytest

from repro.core.engines import StageDelayEngine
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv, TsvParameters
from repro.spice.montecarlo import ProcessVariation
from repro.spice.waveform import NoOscillationError


@pytest.fixture(scope="module")
def engine():
    return StageDelayEngine(config=RingOscillatorConfig(vdd=1.1),
                            timestep=2e-12)


@pytest.fixture(scope="module")
def engine_low():
    return StageDelayEngine(config=RingOscillatorConfig(vdd=0.75),
                            timestep=2e-12)


@pytest.fixture(scope="module")
def ff_delta(engine):
    return engine.delta_t(Tsv())


@pytest.fixture(scope="module")
def ff_delta_low(engine_low):
    return engine_low.delta_t(Tsv())


class TestSegmentDelays:
    def test_tsv_path_slower_than_bypass(self, engine):
        on = engine.segment_delays(Tsv(), bypassed=False)
        off = engine.segment_delays(Tsv(), bypassed=True)
        assert sum(on) > sum(off)

    def test_delays_are_positive_picoseconds(self, engine):
        rise, fall = engine.segment_delays(Tsv())
        assert 10e-12 < rise < 2e-9
        assert 10e-12 < fall < 2e-9

    def test_heavier_tsv_slower(self, engine):
        light = engine.segment_delays(Tsv())
        heavy = engine.segment_delays(
            Tsv(params=Tsv().params.scaled(1.5))
        )
        assert sum(heavy) > sum(light)


class TestResistiveOpenOrdering:
    def test_open_reduces_delta_t(self, engine, ff_delta):
        faulty = engine.delta_t(Tsv(fault=ResistiveOpen(1000.0, 0.5)))
        assert faulty < ff_delta

    def test_one_kohm_open_is_roughly_ten_percent(self, engine, ff_delta):
        """Fig. 6's headline number: ~10% DeltaT reduction at 1 kOhm."""
        faulty = engine.delta_t(Tsv(fault=ResistiveOpen(1000.0, 0.5)))
        reduction = (ff_delta - faulty) / ff_delta
        assert 0.03 < reduction < 0.2

    def test_larger_open_larger_shift(self, engine, ff_delta):
        small = engine.delta_t(Tsv(fault=ResistiveOpen(500.0, 0.5)))
        large = engine.delta_t(Tsv(fault=ResistiveOpen(3000.0, 0.5)))
        assert large < small < ff_delta


class TestLeakageOrdering:
    def test_near_threshold_leak_increases_delta_t(self, engine, ff_delta):
        """At 1.1 V the stop threshold is below 1 kOhm; a 700 Ohm leak
        sits in the sensitive window and slows the loop."""
        faulty = engine.delta_t(Tsv(fault=Leakage(700.0)))
        assert faulty > ff_delta

    def test_strong_leak_sticks(self, engine):
        with pytest.raises(NoOscillationError):
            engine.delta_t(Tsv(fault=Leakage(200.0)))

    def test_low_voltage_sensitive_to_moderate_leak(self, engine_low,
                                                    ff_delta_low):
        """Fig. 9: a 3 kOhm leak separates clearly at 0.75 V."""
        faulty = engine_low.delta_t(Tsv(fault=Leakage(3000.0)))
        assert faulty - ff_delta_low > 20e-12

    def test_moderate_leak_invisible_at_nominal_voltage(self, engine,
                                                        ff_delta):
        """Fig. 9's counterpart: at 1.1 V the 3 kOhm signature is tiny
        (and slightly negative in our circuit -- see EXPERIMENTS.md)."""
        faulty = engine.delta_t(Tsv(fault=Leakage(3000.0)))
        assert abs(faulty - ff_delta) < 0.10 * ff_delta


class TestBatchedSweeps:
    def test_ro_sweep_monotonic(self, engine):
        values = [1.0, 500.0, 1500.0, 3000.0]
        dts = engine.delta_t_sweep_ro(values, x=0.5)
        assert np.all(np.isfinite(dts))
        assert all(b < a for a, b in zip(dts, dts[1:]))

    def test_ro_sweep_matches_scalar_at_point(self, engine, ff_delta):
        dts = engine.delta_t_sweep_ro([1.0])
        assert dts[0] == pytest.approx(ff_delta, rel=0.05)

    def test_rl_sweep_shows_stuck_region(self, engine):
        dts = engine.delta_t_sweep_rl([100.0, 50000.0])
        assert math.isnan(dts[0])       # strong leak: stuck
        assert math.isfinite(dts[1])    # weak leak: oscillates


class TestBatchedMonteCarlo:
    def test_mc_spread_and_reproducibility(self, engine, variation):
        a = engine.delta_t_mc(Tsv(), variation, 6, seed=11)
        b = engine.delta_t_mc(Tsv(), variation, 6, seed=11)
        assert np.array_equal(a, b)
        assert np.std(a) > 0

    def test_mc_mean_tracks_nominal(self, engine, ff_delta, variation):
        samples = engine.delta_t_mc(Tsv(), variation, 8, seed=3)
        assert np.mean(samples) == pytest.approx(ff_delta, rel=0.15)

    def test_mc_m_greater_one_scales_mean(self, engine, variation):
        m1 = engine.delta_t_mc(Tsv(), variation, 6, m=1, seed=9)
        m2 = engine.delta_t_mc(Tsv(), variation, 6, m=2, seed=9)
        assert np.mean(m2) == pytest.approx(2 * np.mean(m1), rel=0.2)


class TestFamilyKeyPartition:
    """The family/batch key matrix: what coalesces at which tier.

    ``batch_key`` partitions by everything including circuit content;
    ``family_key`` only by engine configuration + effective supply.  The
    matrix below pins which request pairs share which key -- the
    contract the service's ``coalesce="family"`` policy relies on.
    """

    def engine(self):
        return StageDelayEngine(timestep=40e-12)

    def req(self, **kw):
        from repro.core.engines.base import MeasurementRequest

        kw.setdefault("tsv", Tsv())
        kw.setdefault("num_samples", 1)
        return MeasurementRequest(**kw)

    def test_scalar_requests_have_no_keys(self):
        engine = self.engine()
        scalar = self.req(num_samples=None)
        assert engine.batch_key(scalar) is None
        assert engine.family_key(scalar) is None

    def test_different_faults_same_family_different_exact(self):
        engine = self.engine()
        a = self.req(tsv=Tsv())
        b = self.req(tsv=Tsv(fault=Leakage(5e4)))
        c = self.req(tsv=Tsv(fault=ResistiveOpen(2e3)))
        exact = {engine.batch_key(r) for r in (a, b, c)}
        family = {engine.family_key(r) for r in (a, b, c)}
        assert len(exact) == 3
        assert len(family) == 1

    def test_supply_splits_both_keys(self):
        engine = self.engine()
        a, b = self.req(vdd=1.1), self.req(vdd=0.8)
        assert engine.batch_key(a) != engine.batch_key(b)
        assert engine.family_key(a) != engine.family_key(b)

    def test_stop_policy_splits_both_keys(self):
        from repro.core.engines.base import StopTimePolicy

        engine = self.engine()
        a = self.req()
        b = self.req(stop_policy=StopTimePolicy(settle=2.0e-9))
        assert engine.batch_key(a) != engine.batch_key(b)
        assert engine.family_key(a) != engine.family_key(b)

    def test_engine_knobs_split_both_keys(self):
        a = StageDelayEngine(timestep=40e-12)
        b = StageDelayEngine(timestep=20e-12)
        request = self.req()
        assert a.batch_key(request) != b.batch_key(request)
        assert a.family_key(request) != b.family_key(request)

    def test_identical_requests_share_exact_key(self):
        engine = self.engine()
        assert engine.batch_key(self.req(seed=1)) == \
            engine.batch_key(self.req(seed=2))

    def test_base_class_family_degenerates_to_batch_key(self):
        from repro.core.engines import AnalyticEngine

        engine = AnalyticEngine()
        request = self.req()
        assert engine.family_key(request) == engine.batch_key(request)


def count_batched_transients(monkeypatch):
    """Record the corner count of every ``BatchedSimulation.transient``."""
    from repro.spice.batch import BatchedSimulation

    corners = []
    original = BatchedSimulation.transient

    def counting(sim, *args, **kwargs):
        corners.append(sim.num_corners)
        return original(sim, *args, **kwargs)

    monkeypatch.setattr(BatchedSimulation, "transient", counting)
    return corners


def same_results(got, want):
    """Bit-identical DeltaT and samples (NaN equal to NaN)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.delta_t, b.delta_t, equal_nan=True)
        assert a.vdd == b.vdd and a.seed == b.seed and a.m == b.m
        if b.samples is None:
            assert a.samples is None
        else:
            assert np.array_equal(a.samples, b.samples, equal_nan=True)


class TestFamilyPackedMeasureBatch:
    """Value-stacked family batches == serial measurement, bit for bit."""

    def test_mixed_faults_pack_and_match_serial(self, monkeypatch):
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        variation = ProcessVariation()
        requests = [
            MeasurementRequest(
                tsv=tsv, seed=seed, variation=variation, num_samples=1
            )
            for tsv in (
                Tsv(),
                Tsv(params=Tsv().params.scaled(1.1)),
                Tsv(fault=Leakage(5e4)),
                Tsv(fault=Leakage(8e4)),
                Tsv(fault=ResistiveOpen(2e3)),
                Tsv(fault=ResistiveOpen(5e3, x=0.3)),
            )
            for seed in (1, 2)
        ]
        with cache_disabled():
            serial = [engine.measure(r) for r in requests]
            corners = count_batched_transients(monkeypatch)
            with use_telemetry() as tele:
                batched = engine.measure_batch(requests)
        same_results(batched, serial)
        # The equality must have been earned through one on/bypassed
        # pair per structure (fault-free, leak, open), each stacking the
        # structure's four requests as corners -- not a ragged pack.
        assert tele.count("stagedelay.stacked_pairs") == 3
        assert corners == [4] * 6
        assert tele.count("ragged.packs") == 0
        assert tele.count("stagedelay.stack_fallbacks") == 0

    def test_single_group_families_keep_the_concat_path(self, monkeypatch):
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        requests = [
            MeasurementRequest(
                tsv=Tsv(), seed=seed, variation=ProcessVariation(),
                num_samples=1,
            )
            for seed in (1, 2)
        ]
        with cache_disabled():
            corners = count_batched_transients(monkeypatch)
            with use_telemetry() as tele:
                engine.measure_batch(requests)
        assert tele.count("ragged.packs") == 0
        assert tele.count("stagedelay.stacked_pairs") == 1
        assert corners == [2, 2]


#: A TSV capacitance no other element of the segment circuit carries:
#: the forced step failure below fires only in systems simulating it.
POISON_CAP = 61e-15


class TestStackedMeasureBatch:
    """Every fault kind, both supplies: stacked == one-by-one, bit for bit."""

    TSVS = (
        Tsv(),
        Tsv(params=Tsv().params.scaled(0.85)),
        Tsv(params=Tsv().params.scaled(1.15)),
        Tsv(fault=ResistiveOpen(1e3, x=0.5)),
        Tsv(fault=ResistiveOpen(8e3, x=0.2)),
        Tsv(fault=ResistiveOpen(float("inf"), x=0.7)),
        Tsv(fault=Leakage(5e4)),
        Tsv(fault=Leakage(2e3)),
        Tsv(fault=Leakage(300.0)),  # below the oscillation-stop threshold
    )

    @pytest.mark.parametrize("vdd", [1.1, 0.8])
    def test_every_fault_kind_matches_delta_t(self, vdd, monkeypatch):
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        requests = [MeasurementRequest(tsv=tsv, vdd=vdd) for tsv in self.TSVS]
        with cache_disabled():
            corners = count_batched_transients(monkeypatch)
            with use_telemetry() as tele:
                stacked = engine.measure_batch(requests)
            rebound = engine.at_vdd(vdd)
            serial = []
            for tsv in self.TSVS:
                try:
                    serial.append(rebound.delta_t(tsv))
                except RuntimeError:
                    serial.append(math.nan)
        got = np.array([r.delta_t for r in stacked])
        assert np.array_equal(got, np.array(serial), equal_nan=True)
        assert math.isnan(got[-1]) and np.isfinite(got[:-1]).all()
        assert tele.count("stagedelay.stacked_pairs") == 3
        assert corners == [3] * 6

    @pytest.mark.parametrize("vdd", [1.1, 0.8])
    def test_nominal_and_sampled_mix_matches_measure(self, vdd):
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        requests = []
        for k, tsv in enumerate(self.TSVS):
            requests.append(MeasurementRequest(tsv=tsv, vdd=vdd, seed=k))
            requests.append(MeasurementRequest(
                tsv=tsv, vdd=vdd, seed=k, variation=ProcessVariation(),
                num_samples=1,
            ))
        with cache_disabled():
            with use_telemetry() as tele:
                stacked = engine.measure_batch(requests)
            serial = [engine.measure(r) for r in requests]
        same_results(stacked, serial)
        # Nominal and Monte Carlo requests never share a pair.
        assert tele.count("stagedelay.stacked_pairs") == 6

    def test_step_halving_falls_back_to_one_by_one(self, monkeypatch):
        """A group in which one corner forces a halving is re-measured
        member by member, and every member still equals its own serial
        ``measure`` -- including the one whose serial run bisected."""
        import repro.spice.stepper as stepper
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.spice.mna import ConvergenceError
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        edge = 10 * engine.timestep
        original = stepper._step

        def forced(steppers, states, t_new, mats, use_trap, guesses):
            # The full trapezoidal step onto ``edge`` fails for any
            # system carrying the poisoned capacitance; its backward-
            # Euler half steps go through.
            if use_trap and abs(t_new - edge) < engine.timestep / 4 and any(
                np.any(s.cap_c == POISON_CAP) for s in steppers
            ):
                raise ConvergenceError("forced step failure")
            return original(steppers, states, t_new, mats, use_trap, guesses)

        monkeypatch.setattr(stepper, "_step", forced)
        poisoned = Tsv(params=TsvParameters(capacitance=POISON_CAP))
        requests = [
            MeasurementRequest(tsv=tsv)
            for tsv in (Tsv(), poisoned, Tsv(params=Tsv().params.scaled(1.1)))
        ]
        with cache_disabled():
            with use_telemetry() as tele:
                serial = [engine.measure(r) for r in requests]
            assert tele.count("step_halvings") > 0
            with use_telemetry() as tele:
                stacked = engine.measure_batch(requests)
        assert tele.count("stagedelay.stack_fallbacks") == 1
        assert tele.count("stagedelay.stacked_pairs") == 1
        same_results(stacked, serial)

    def test_dc_failure_falls_back_to_one_by_one(self, monkeypatch):
        """A group in which one member's first DC Newton fails is
        re-measured member by member: the gmin ladder restarts every
        corner of a stacked run, so only the failing member may take it,
        exactly as its own serial ``measure`` does."""
        import repro.spice.stepper as stepper
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.spice.mna import ConvergenceError
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        poison_g = 1.0 / 4321.0
        original = stepper.newton_iterate
        ladders = []

        def forced(systems, options, label=""):
            # The open resistor is the only conductance between the pad
            # and the TSV's bottom node, so its -g entry marks a system
            # that simulates the poisoned open.
            poisoned = any(np.any(s.a_base == -poison_g) for s in systems)
            if poisoned and label == "dc":
                raise ConvergenceError("forced DC failure")
            if label.startswith("dc gmin"):
                ladders.append(label)
            return original(systems, options, label=label)

        monkeypatch.setattr(stepper, "newton_iterate", forced)
        requests = [
            MeasurementRequest(tsv=Tsv(fault=ResistiveOpen(r, x=0.5)))
            for r in (2e3, 4321.0, 8e3)
        ]
        with cache_disabled():
            serial = [engine.measure(r) for r in requests]
            serial_ladders = list(ladders)
            assert serial_ladders  # the poisoned member's DC took the ladder
            ladders.clear()
            with use_telemetry() as tele:
                stacked = engine.measure_batch(requests)
        assert tele.count("stagedelay.stack_fallbacks") == 1
        assert tele.count("stagedelay.stacked_pairs") == 1
        # The stacked pair never climbed the ladder; only the poisoned
        # member's own one-by-one runs did, as in the serial pass.
        assert ladders == serial_ladders
        same_results(stacked, serial)
