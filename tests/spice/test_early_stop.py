"""The time loop's early-stop predicate (``done``).

A run that stops after step ``k`` must return exactly the first
``k + 1`` samples of the same run without a predicate -- bit for bit,
also when a step bisected before the stop -- and a predicate that never
fires must leave the full window untouched.
"""

import numpy as np
import pytest

from repro.spice import DC, NMOS_45LP, PMOS_45LP, Circuit, Step, transient
from repro.spice.batch import BatchParameters, BatchedSimulation
from repro.spice.mna import NewtonOptions
from repro.spice.montecarlo import ProcessVariation
from repro.spice.netlist import GROUND
from repro.telemetry import use_telemetry


def inverter_circuit(vdd=1.1):
    c = Circuit()
    c.add_vsource("vdd", "vdd", GROUND, DC(vdd))
    c.add_vsource("vin", "in", GROUND, Step(0.0, vdd, t0=50e-12, rise=20e-12))
    c.add_mosfet("mp", "out", "in", "vdd", "vdd", PMOS_45LP, w=0.8e-6)
    c.add_mosfet("mn", "out", "in", GROUND, GROUND, NMOS_45LP, w=0.4e-6)
    c.add_capacitor("cl", "out", GROUND, 2e-15)
    return c


def sharp_rc_circuit():
    """A near-instant edge a tight Newton budget can only take bisected."""
    c = Circuit()
    c.add_vsource("vin", "in", GROUND, Step(0.0, 1.1, t0=0.5e-9, rise=1e-15))
    c.add_resistor("r1", "in", "out", 1000.0)
    c.add_capacitor("c1", "out", GROUND, 50e-15)
    return c


#: Two Newton iterations with 50 mV damping cannot follow the sharp edge
#: in one step, only in bisected half steps.
TIGHT = NewtonOptions(max_iterations=2, damping=0.05)


def settled_below(node, level):
    """Stop once every corner's ``node`` has fallen below ``level``."""
    calls = []

    def done(k, times, voltages):
        calls.append(k)
        v = np.atleast_2d(voltages[node])
        assert v.shape[-1] == len(times)
        return bool((v[:, k] < level).all())

    return done, calls


def assert_prefix(stopped, full, nodes):
    """``stopped`` is the first samples of ``full``, bit for bit."""
    n = len(stopped.time)
    assert n < len(full.time)
    assert np.array_equal(stopped.time, full.time[:n])
    for node in nodes:
        assert np.array_equal(
            stopped.voltages[node], full.voltages[node][..., :n]
        )


class TestBatchedEarlyStop:
    def params(self):
        return BatchParameters.monte_carlo(
            inverter_circuit(), ProcessVariation(), 5, seed=3
        )

    def test_stopped_run_is_the_prefix_of_the_full_run(self):
        full = BatchedSimulation(inverter_circuit(), self.params()).transient(
            400e-12, 1e-12, record=["in", "out"]
        )
        done, calls = settled_below("out", 0.1)
        with use_telemetry() as tele:
            stopped = BatchedSimulation(
                inverter_circuit(), self.params()
            ).transient(400e-12, 1e-12, record=["in", "out"], done=done)
        assert_prefix(stopped, full, ["in", "out"])
        k = len(stopped.time) - 1
        # Called once per accepted step, stopped at the first True.
        assert calls == list(range(1, k + 1))
        assert (stopped.voltages["out"][:, k] < 0.1).all()
        assert (full.voltages["out"][:, k - 1] >= 0.1).any()
        assert tele.count("spice.steps_skipped") == len(full.time) - 1 - k

    def test_predicate_that_never_fires_keeps_the_full_window(self):
        full = BatchedSimulation(inverter_circuit(), self.params()).transient(
            400e-12, 1e-12, record=["out"]
        )
        done, calls = settled_below("out", -1.0)
        with use_telemetry() as tele:
            kept = BatchedSimulation(
                inverter_circuit(), self.params()
            ).transient(400e-12, 1e-12, record=["out"], done=done)
        assert np.array_equal(kept.time, full.time)
        assert np.array_equal(kept.voltages["out"], full.voltages["out"])
        assert len(calls) == len(full.time) - 2
        assert tele.count("spice.steps_skipped") == 0

    def test_stop_after_a_bisected_step(self):
        params = BatchParameters.nominal(3).with_resistor(
            "r1", np.array([800.0, 1000.0, 1200.0])
        )
        full = BatchedSimulation(sharp_rc_circuit(), params, TIGHT).transient(
            1e-9, 10e-12, record=["out"]
        )

        def risen(k, times, voltages):
            return bool((voltages["out"][:, k] > 0.9).all())

        with use_telemetry() as tele:
            stopped = BatchedSimulation(
                sharp_rc_circuit(), params, TIGHT
            ).transient(1e-9, 10e-12, record=["out"], done=risen)
        assert tele.count("step_halvings") > 0
        assert tele.count("spice.steps_skipped") > 0
        assert_prefix(stopped, full, ["out"])


class TestScalarEarlyStop:
    def test_stop_after_a_bisected_step(self):
        full = transient(sharp_rc_circuit(), 1e-9, 10e-12, options=TIGHT)

        def risen(k, times, voltages):
            assert voltages["out"].ndim == 1
            return bool(voltages["out"][k] > 0.9)

        with use_telemetry() as tele:
            stopped = transient(
                sharp_rc_circuit(), 1e-9, 10e-12, options=TIGHT, done=risen
            )
        assert tele.count("step_halvings") > 0
        assert_prefix(stopped, full, ["in", "out"])
        assert stopped["out"][-1] > 0.9 >= stopped["out"][-2]

    def test_predicate_that_never_fires_keeps_the_full_window(self):
        full = transient(inverter_circuit(), 200e-12, 1e-12)
        kept = transient(
            inverter_circuit(), 200e-12, 1e-12, done=lambda k, t, v: False
        )
        assert np.array_equal(kept.time, full.time)
        for node in full.voltages:
            assert np.array_equal(kept[node], full[node])

    @pytest.mark.parametrize("stop_at", [1, 37])
    def test_stop_at_step_k_keeps_k_plus_one_samples(self, stop_at):
        full = transient(inverter_circuit(), 200e-12, 1e-12, record=["out"])
        stopped = transient(
            inverter_circuit(), 200e-12, 1e-12, record=["out"],
            done=lambda k, t, v: k == stop_at,
        )
        assert len(stopped.time) == stop_at + 1
        assert np.array_equal(stopped["out"], full["out"][:stop_at + 1])
