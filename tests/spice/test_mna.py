"""Unit tests for MNA assembly and Newton solver behaviour."""

import numpy as np
import pytest

from repro.spice import Circuit, DC, NMOS_45LP, PMOS_45LP, transient
from repro.spice.mna import ConvergenceError, MnaSystem, NewtonOptions
from repro.spice.dc import dc_operating_point, solve_dc
from repro.spice.netlist import GROUND
from repro.spice.stepper import NewtonSystem, newton_iterate


def inverter_circuit(vin=0.55):
    c = Circuit()
    c.add_vsource("vdd", "vdd", GROUND, DC(1.1))
    c.add_vsource("vin", "in", GROUND, DC(vin))
    c.add_mosfet("mp", "out", "in", "vdd", "vdd", PMOS_45LP, w=0.8e-6)
    c.add_mosfet("mn", "out", "in", GROUND, GROUND, NMOS_45LP, w=0.4e-6)
    return c


class TestSystemStructure:
    def test_unknown_vector_size(self):
        c = Circuit()
        c.add_vsource("v1", "a", GROUND, DC(1.0))
        c.add_resistor("r1", "a", "b", 10.0)
        system = MnaSystem(c)
        # ground + a + b + one source current
        assert system.size == 4

    def test_linear_matrix_is_symmetric_for_rc(self):
        c = Circuit()
        c.add_resistor("r1", "a", "b", 10.0)
        c.add_resistor("r2", "b", GROUND, 20.0)
        system = MnaSystem(c)
        a = system.plan.reduced.assemble_linear()
        assert a.shape == (2, 2)
        assert np.allclose(a, a.T)

    def test_gmin_on_diagonal(self):
        c = Circuit()
        c.add_resistor("r1", "a", GROUND, 1e6)
        system = MnaSystem(c, NewtonOptions(gmin=1e-6))
        space = system.plan.reduced
        idx = space.col_map[c.node_index("a")]
        a = space.assemble_linear()
        assert a[idx, idx] == pytest.approx(1e-6 + 1e-6)

    def test_mosfet_index_arrays(self):
        c = inverter_circuit()
        system = MnaSystem(c)
        assert len(system.plan.fet_d) == 2
        assert len(system.plan.fet_rows) == 2 * 8
        assert len(system.plan.fet_cols) == 2 * 8
        assert len(system.plan.fet_rhs_rows) == 2 * 2


class TestNewtonBehaviour:
    def test_insufficient_iterations_raise(self):
        c = inverter_circuit(vin=0.55)
        options = NewtonOptions(max_iterations=1, damping=0.05)
        system = MnaSystem(c, options)
        space = system.plan.reduced
        b = np.zeros((1, space.dim))
        space.source_rhs_into(b, 0.0)
        newton_input = NewtonSystem(
            space, space.assemble_linear(), system.plan.nominal_fets(), b,
            np.zeros((1, system.size)),
        )
        with pytest.raises(ConvergenceError):
            newton_iterate([newton_input], options)

    def test_damping_still_converges(self):
        """Heavy damping slows Newton but must not change the answer."""
        loose = dc_operating_point(inverter_circuit(0.3))
        tight = dc_operating_point(
            inverter_circuit(0.3),
            options=NewtonOptions(damping=0.05, max_iterations=500),
        )
        assert loose["out"] == pytest.approx(tight["out"], abs=1e-4)

    def test_gmin_stepping_fallback(self):
        """A deliberately hard start (huge drive, midpoint bias) must be
        rescued by gmin stepping rather than erroring out."""
        c = inverter_circuit(vin=0.55)
        system = MnaSystem(c, NewtonOptions(max_iterations=12))
        x = solve_dc(system)
        out = x[c.node_index("out")]
        assert 0.0 <= out <= 1.1


class TestSourceStamping:
    def test_vsource_current_is_reported(self):
        c = Circuit()
        c.add_vsource("v1", "a", GROUND, DC(2.0))
        c.add_resistor("r1", "a", GROUND, 100.0)
        system = MnaSystem(c)
        x = solve_dc(system)
        # Branch current unknown: V/R = 20 mA flowing out of the source.
        i_src = x[system.num_nodes]
        assert abs(i_src) == pytest.approx(0.02, rel=1e-3)

    def test_two_sources_share_a_node(self):
        c = Circuit()
        c.add_vsource("v1", "a", GROUND, DC(1.0))
        c.add_vsource("v2", "b", GROUND, DC(2.0))
        c.add_resistor("r1", "a", "b", 100.0)
        op = dc_operating_point(c)
        assert op["a"] == pytest.approx(1.0, rel=1e-6)
        assert op["b"] == pytest.approx(2.0, rel=1e-6)


class TestTransientRobustness:
    def test_local_bisection_rescues_sharp_edges(self):
        """A near-instant source edge forces the per-step retry path.

        The circuit is linear, so the default Newton budget converges
        every step; a two-iteration budget with 50 mV damping cannot
        follow the edge in one step, only in bisected half steps.
        """
        from repro.spice import Step
        from repro.telemetry import use_telemetry

        c = Circuit()
        c.add_vsource("vin", "in", GROUND, Step(0.0, 1.1, t0=0.5e-9,
                                                rise=1e-15))
        c.add_resistor("r1", "in", "out", 1000.0)
        c.add_capacitor("c1", "out", GROUND, 50e-15)
        options = NewtonOptions(max_iterations=2, damping=0.05)
        with use_telemetry() as tele:
            res = transient(c, 1e-9, 10e-12, options=options)
        assert tele.count("step_halvings") > 0
        assert res["out"][-1] == pytest.approx(1.1, abs=0.01)
