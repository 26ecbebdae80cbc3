"""Ragged cross-topology packing: bit-identity, families, validation.

The contract under test is the one the screening service's family
coalescing rests on: packing mixed-topology :class:`BatchedSimulation`
members into one shared time loop must reproduce every member's
standalone ``transient()`` traces *bit-for-bit* -- not approximately --
because dimension-bucketed stacked LAPACK solves are per-corner
transparent.
"""

import numpy as np
import pytest

from repro.spice import (
    Circuit,
    DC,
    NMOS_45LP,
    PMOS_45LP,
    RaggedPack,
    Step,
    TopologyFamily,
    ragged_transient,
)
from repro.spice.batch import BatchParameters, BatchedSimulation
from repro.spice.mna import ConvergenceError, NewtonOptions
from repro.spice.montecarlo import ProcessVariation
from repro.spice.netlist import GROUND
from repro.telemetry import use_telemetry


def rc_circuit(r=1000.0):
    c = Circuit("rc")
    c.add_vsource("vin", "in", GROUND, Step(0.0, 1.0, t0=20e-12, rise=1e-13))
    c.add_resistor("r1", "in", "out", r)
    c.add_capacitor("c1", "out", GROUND, 100e-15)
    return c


def inverter_circuit(vdd=1.1, series_r=None):
    """CMOS inverter; an optional series resistor adds a node (new dim)."""
    c = Circuit("inv")
    drain = "mid" if series_r is not None else "out"
    c.add_vsource("vdd", "vdd", GROUND, DC(vdd))
    c.add_vsource("vin", "in", GROUND, Step(0.0, vdd, t0=50e-12, rise=20e-12))
    c.add_mosfet("mp", drain, "in", "vdd", "vdd", PMOS_45LP, w=0.8e-6)
    c.add_mosfet("mn", drain, "in", GROUND, GROUND, NMOS_45LP, w=0.4e-6)
    if series_r is not None:
        c.add_resistor("ro", "mid", "out", series_r)
    c.add_capacitor("cl", "out", GROUND, 2e-15)
    return c


def mixed_sims():
    """Four members spanning linear/nonlinear, three distinct dims."""
    var = ProcessVariation()
    sims = []
    for i, circuit in enumerate([
        rc_circuit(),
        inverter_circuit(),
        inverter_circuit(series_r=5e3),
        inverter_circuit(vdd=0.9),
    ]):
        params = (
            BatchParameters.monte_carlo(circuit, var, 3, seed=11 + i)
            if circuit.mosfets else BatchParameters.nominal(2)
        )
        sims.append(BatchedSimulation(circuit, params))
    return sims


class TestBucketBitIdentity:
    def test_mixed_topologies_match_standalone_exactly(self):
        sims = mixed_sims()
        solo = [s.transient(400e-12, 1e-12, record=["out"]) for s in sims]
        packed = ragged_transient(sims, 400e-12, 1e-12, record=["out"])
        assert len(packed) == len(sims)
        for a, b in zip(solo, packed):
            assert np.array_equal(a.time, b.time)
            assert np.array_equal(a.voltages["out"], b.voltages["out"])
            assert a.num_corners == b.num_corners

    def test_per_corner_resistor_overrides_pack_bit_identically(self):
        # A stacked (S, m, m) base matrix member next to shared-base ones.
        values = np.array([500.0, 1000.0, 2000.0])
        params = BatchParameters.nominal(3).with_resistor("r1", values)
        sims = [
            BatchedSimulation(rc_circuit(), params),
            BatchedSimulation(inverter_circuit(),
                              BatchParameters.nominal(2)),
        ]
        solo = [s.transient(300e-12, 1e-12, record=["out"]) for s in sims]
        packed = ragged_transient(sims, 300e-12, 1e-12, record=["out"])
        for a, b in zip(solo, packed):
            assert np.array_equal(a.voltages["out"], b.voltages["out"])

    def test_single_member_pack_is_standalone(self):
        sim = BatchedSimulation(rc_circuit(), BatchParameters.nominal(2))
        solo = sim.transient(200e-12, 1e-12, record=["out"])
        packed = ragged_transient([sim], 200e-12, 1e-12, record=["out"])
        assert np.array_equal(
            solo.voltages["out"], packed[0].voltages["out"]
        )

    def test_backward_euler_method_matches(self):
        sims = [
            BatchedSimulation(rc_circuit(), BatchParameters.nominal(2)),
            BatchedSimulation(rc_circuit(500.0), BatchParameters.nominal(1)),
        ]
        solo = [
            s.transient(200e-12, 1e-12, record=["out"], method="be")
            for s in sims
        ]
        packed = ragged_transient(
            sims, 200e-12, 1e-12, record=["out"], method="be"
        )
        for a, b in zip(solo, packed):
            assert np.array_equal(a.voltages["out"], b.voltages["out"])


def edge_rc(capacitance, vstep):
    """An RC driven by a near-instant step.  With a 1 ps step and a
    two-iteration Newton budget, a 1 fF load makes the output jump too
    far to converge in one full step; a 100 fF load does not."""
    c = Circuit("edge rc")
    c.add_vsource(
        "vin", "in", GROUND, Step(0.0, vstep, t0=20e-12, rise=1e-15)
    )
    c.add_resistor("r1", "in", "out", 1000.0)
    c.add_capacitor("c1", "out", GROUND, capacitance)
    return c


#: Shared Newton budget small enough that the fast edge fails a step.
TIGHT = NewtonOptions(max_iterations=2)


class TestFailurePaths:
    def _sims(self):
        return [
            BatchedSimulation(edge_rc(100e-15, 1.0),
                              BatchParameters.nominal(2), options=TIGHT),
            BatchedSimulation(edge_rc(1e-15, 2.0),
                              BatchParameters.nominal(3), options=TIGHT),
        ]

    def test_failing_pack_reports_like_a_failing_batch(self):
        with pytest.raises(ConvergenceError) as excinfo:
            ragged_transient(self._sims(), 100e-12, 1e-12, record=["out"],
                             max_retries=0)
        err = excinfo.value
        # Member 1's corners follow member 0's two.
        assert err.corners == [2, 3, 4]
        assert err.max_dv is not None and err.max_dv.shape == (3,)
        assert (err.max_dv > 0).all()
        assert err.nodes == ["out", "out", "out"]
        assert "corner 2: max_dv=" in str(err)
        assert "3 of 5 corners unconverged" in str(err)

    def test_bisection_inside_a_pack(self):
        sims = self._sims()
        with use_telemetry() as tele:
            alone = sims[1].transient(100e-12, 1e-12, record=["out"])
        halvings_alone = tele.count("step_halvings")
        assert halvings_alone > 0
        with use_telemetry() as tele:
            sims[0].transient(100e-12, 1e-12, record=["out"])
        assert tele.count("step_halvings") == 0

        with use_telemetry() as tele:
            packed = ragged_transient(sims, 100e-12, 1e-12, record=["out"])
        assert tele.count("step_halvings") == halvings_alone
        assert np.array_equal(alone.voltages["out"],
                              packed[1].voltages["out"])


class TestTopologyFamily:
    def test_values_do_not_split_families(self):
        a = TopologyFamily.of(rc_circuit(500.0))
        b = TopologyFamily.of(rc_circuit(2000.0))
        assert a == b
        assert hash(a) == hash(b)

    def test_supply_does_not_split_families(self):
        a = TopologyFamily.of(inverter_circuit(1.1))
        b = TopologyFamily.of(inverter_circuit(0.9))
        assert a == b

    def test_structure_splits_families(self):
        a = TopologyFamily.of(inverter_circuit())
        b = TopologyFamily.of(inverter_circuit(series_r=5e3))
        assert a != b
        assert b.num_resistors == a.num_resistors + 1
        assert b.dim > a.dim

    def test_of_accepts_precompiled_plan(self):
        sim = BatchedSimulation(rc_circuit(), BatchParameters.nominal(1))
        assert TopologyFamily.of(sim.circuit, sim.plan) == \
            TopologyFamily.of(rc_circuit())

    def test_pack_exposes_member_families(self):
        sims = mixed_sims()
        families = RaggedPack(sims).families
        assert len(families) == len(sims)
        assert families[1] != families[2]


class TestValidation:
    def test_empty_pack_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RaggedPack([])

    def test_mismatched_newton_options_rejected(self):
        sims = [
            BatchedSimulation(rc_circuit(), BatchParameters.nominal(1)),
            BatchedSimulation(
                rc_circuit(), BatchParameters.nominal(1),
                options=NewtonOptions(damping=0.2),
            ),
        ]
        with pytest.raises(ValueError, match="member 1.*Newton options"):
            RaggedPack(sims)

    def test_missing_record_node_names_the_member(self):
        sims = [
            BatchedSimulation(inverter_circuit(series_r=5e3),
                              BatchParameters.nominal(1)),
            BatchedSimulation(rc_circuit(), BatchParameters.nominal(1)),
        ]
        with pytest.raises(ValueError, match=r"member 1.*\['mid'\]"):
            ragged_transient(sims, 100e-12, 1e-12, record=["out", "mid"])

    def test_default_record_rejected(self):
        sims = [BatchedSimulation(rc_circuit(), BatchParameters.nominal(1))]
        with pytest.raises(ValueError, match="node names"):
            ragged_transient(sims, 100e-12, 1e-12)


class TestTelemetry:
    def test_pack_counters_are_reported(self):
        sims = mixed_sims()
        with use_telemetry() as tele:
            ragged_transient(sims, 100e-12, 1e-12, record=["out"])
        assert tele.count("ragged.packs") == 1
        assert tele.histogram("ragged.pack_members").max == len(sims)
        assert tele.histogram("ragged.pack_corners").max == sum(
            s.num_corners for s in sims
        )
        assert tele.count("ragged.bucket_solves") > 0
