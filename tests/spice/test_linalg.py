"""Contracts of the MNA solver stack's single linear-solve path.

Every Newton system -- scalar, batched, DC, ragged -- is assembled by
:func:`repro.spice.linalg.stamped_matrix` and solved by
:func:`repro.spice.linalg.batched_dense_solve`.  The module pins that
path against a per-corner reference solve, pins that a scalar transient
is bit-identical to a one-corner batched run, and keeps the structural
claims of the stack: scalar and S=1 batched assemblies are
bit-identical, the scalar/batched wrappers carry no integrator logic of
their own, and :class:`ConvergenceError` reports per-corner diagnostics.
"""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.spice.batch as batch_module
import repro.spice.ragged as ragged_module
import repro.spice.stepper as stepper_module
import repro.spice.transient as transient_module
from repro.core.segments import RingOscillatorConfig, build_ring_oscillator
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice import (
    BatchParameters,
    BatchedSimulation,
    Circuit,
    StampPlan,
    transient,
)
from repro.spice.elements import Pulse
from repro.spice.linalg import batched_dense_solve, stamped_matrix
from repro.spice.mna import ConvergenceError, NewtonOptions
from repro.spice.mosfet import NMOS_45LP, PMOS_45LP
from repro.spice.stamping import FetLinearization
from repro.spice.stepper import NewtonSystem, newton_iterate


def reference_solve(space, base, lin, active, b):
    """Per-corner oracle for the stacked path.

    Assembles each active corner's dense matrix on its own (its row of
    a shared ``(m, m)`` base, or its slice of a stacked ``(S, m, m)``
    base, plus that corner's MOSFET stamps) and solves it alone with
    ``np.linalg.solve``.
    """
    sols = []
    for i, corner in enumerate(active):
        a = (base if base.ndim == 2 else base[corner]).copy()
        if lin is not None:
            space.stamp_fet_matrix(a, FetLinearization(
                g_d=lin.g_d[i], g_g=lin.g_g[i], g_s=lin.g_s[i],
                g_b=lin.g_b[i], ieq=lin.ieq[i],
            ))
        sols.append(np.linalg.solve(a, b[i]))
    return np.array(sols).reshape(b.shape)


def _build_oscillator():
    config = RingOscillatorConfig(num_segments=2)
    return build_ring_oscillator([Tsv()] * 2, config)


def _leakage_stage():
    """One enabled segment with a leaky TSV (the Fig. 8 configuration)."""
    from repro.core.engines import StageDelayEngine

    engine = StageDelayEngine(timestep=2e-12)
    circuit, _ = engine._segment_circuit(
        Tsv(fault=Leakage(20e3)), bypassed=False
    )
    return engine, circuit


class TestScalarBatchedAssemblyParity:
    """StampPlan must serve (n, n) and (S, n, n) shapes bit-identically."""

    @settings(max_examples=25, deadline=None)
    @given(
        scales=st.lists(
            st.floats(min_value=0.05, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8,
        )
    )
    def test_linear_assembly_bit_identical(self, scales):
        engine, circuit = _leakage_stage()
        plan = StampPlan(circuit, gmin=1e-9)
        res_g = plan.res_g0 * np.resize(scales, plan.num_resistors)
        for space in (plan.reduced, plan.condensed):
            scalar = space.assemble_linear(res_g)
            stacked = space.assemble_linear(res_g[None, :])
            assert stacked.shape == (1,) + scalar.shape
            assert np.array_equal(scalar, stacked[0])
            bp_scalar = space.bpin_linear(res_g)
            bp_stacked = space.bpin_linear(res_g[None, :])
            assert np.array_equal(bp_scalar, bp_stacked[0])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fet_stamps_bit_identical(self, data):
        engine, circuit = _leakage_stage()
        plan = StampPlan(circuit, gmin=1e-9)
        fets = plan.nominal_fets()
        volts = data.draw(
            st.lists(
                st.floats(min_value=-1.5, max_value=1.5,
                          allow_nan=False, allow_infinity=False),
                min_size=plan.size, max_size=plan.size,
            )
        )
        x = np.array(volts)
        lin_scalar = plan.linearize_fets(fets, x)
        lin_stacked = plan.linearize_fets(fets, x[None, :])
        space = plan.condensed
        a1 = np.zeros((space.dim, space.dim))
        a2 = np.zeros((1, space.dim, space.dim))
        space.stamp_fet_matrix(a1, lin_scalar)
        space.stamp_fet_matrix(a2, lin_stacked)
        assert np.array_equal(a1, a2[0])
        b1 = np.zeros(space.dim)
        b2 = np.zeros((1, space.dim))
        space.stamp_fet_rhs(b1, lin_scalar)
        space.stamp_fet_rhs(b2, lin_stacked)
        assert np.array_equal(b1, b2[0])


def _inverter_ladder():
    """One inverter driving an 8-segment RC ladder: 2 MOSFETs on many
    unknowns, the shape a low-rank update would be tempted by."""
    circuit = Circuit("inverter ladder")
    circuit.add_vsource("vdd", "vdd", "0", 1.1)
    circuit.add_vsource(
        "vin", "in", "0",
        Pulse(0.0, 1.1, delay=0.1e-9, rise=20e-12, fall=20e-12, width=1e-9),
    )
    circuit.add_mosfet("mp", "out0", "in", "vdd", "vdd", PMOS_45LP, w=0.4e-6)
    circuit.add_mosfet("mn", "out0", "in", "0", "0", NMOS_45LP, w=0.2e-6)
    prev = "out0"
    for k in range(8):
        node = f"n{k}"
        circuit.add_resistor(f"r{k}", prev, node, 500.0)
        circuit.add_capacitor(f"c{k}", node, "0", 5e-15)
        prev = node
    return circuit


class TestStackedSolveMatchesReference:
    """The stacked path equals the per-corner reference bit for bit."""

    @pytest.fixture(scope="class")
    def plan(self):
        return StampPlan(_leakage_stage()[1], gmin=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_active_subsets(self, plan, data):
        space = plan.condensed
        num_corners = data.draw(st.integers(1, 6), label="corners")
        stacked = data.draw(st.booleans(), label="stacked")
        active = np.array(sorted(data.draw(
            st.sets(st.integers(0, num_corners - 1), min_size=1),
            label="active",
        )))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)

        geq = stepper_module.companion_geq(plan.cap_c0, 2e-12, True)
        if stacked:
            res_g = plan.res_g0 * rng.uniform(
                0.1, 10.0, (num_corners, plan.num_resistors)
            )
            base = space.assemble_linear(res_g)
            space.stamp_capacitor_matrix(
                base, np.broadcast_to(geq, (num_corners, plan.num_caps))
            )
        else:
            base = space.assemble_linear()
            space.stamp_capacitor_matrix(base, geq)
        before = base.copy()

        fets = plan.fet_params(
            rng.normal(0.0, 0.02, (num_corners, plan.num_fets)), None
        )
        x = rng.uniform(-0.2, 1.3, (len(active), plan.size))
        x[:, 0] = 0.0
        lin = plan.linearize_fets(fets.select(active), x)
        b = rng.normal(0.0, 1e-3, (len(active), space.dim))

        got = batched_dense_solve(stamped_matrix(space, base, lin, active), b)
        want = reference_solve(space, base, lin, active, b)
        assert np.array_equal(got, want)
        assert np.array_equal(base, before), "assembly wrote into the base"


class TestScalarBatchedTransientParity:
    """A scalar transient is an S = 1 batched run, bit for bit."""

    @staticmethod
    def _assert_identical(circuit, stop, step, record, ics=None):
        scalar = transient(circuit, stop, step, ics=ics, record=record)
        sim = BatchedSimulation(circuit, BatchParameters.nominal(1))
        batched = sim.transient(stop, step, ics=ics, record=record)
        assert np.array_equal(scalar.time, batched.time)
        for node in record:
            assert np.array_equal(scalar.voltages[node],
                                  batched.voltages[node][0]), node

    def test_leakage_stage(self):
        engine, circuit = _leakage_stage()
        self._assert_identical(circuit, engine.stop_time(), engine.timestep,
                               ["din", "dout"])

    def test_fig4_oscillator(self):
        ro = _build_oscillator()
        self._assert_identical(ro.circuit, 6e-9, 2e-12, [ro.osc_node],
                               ics=ro.startup_ics)


class TestInverterLadderMatchesReference:
    def test_transient_through_reference_solve(self, monkeypatch):
        circuit = _inverter_ladder()
        stacked = transient(circuit, 2e-9, 2e-12, record=["n7"])

        # Re-run with every Newton solve answered by the reference.
        pending = []

        def record_assembly(space, base, lin, active):
            pending.append((space, base, lin, active))

        def solve_by_reference(a, b):
            return reference_solve(*pending.pop(), b)

        monkeypatch.setattr(stepper_module, "stamped_matrix", record_assembly)
        monkeypatch.setattr(stepper_module, "batched_dense_solve",
                            solve_by_reference)
        reference = transient(circuit, 2e-9, 2e-12, record=["n7"])

        v = stacked.voltages["n7"]
        assert v.max() - v.min() > 0.5, "ladder output never switched"
        assert np.abs(v - reference.voltages["n7"]).max() < 1e-9


class TestConvergenceDiagnostics:
    def _nonlinear_system(self):
        circuit = Circuit("diag")
        circuit.add_vsource("vdd", "vdd", "0", 1.1)
        circuit.add_mosfet("mp", "out", "0", "vdd", "vdd",
                           PMOS_45LP, w=0.4e-6)
        circuit.add_mosfet("mn", "out", "vdd", "0", "0",
                           NMOS_45LP, w=0.2e-6)
        plan = StampPlan(circuit, gmin=NewtonOptions().gmin)
        space = plan.reduced
        b = np.zeros((1, space.dim))
        space.source_rhs_into(b, 0.0)
        return NewtonSystem(
            space, space.assemble_linear(), plan.nominal_fets(), b,
            np.zeros((1, plan.size)),
        )

    def test_error_reports_corner_indices_and_max_dv(self):
        with pytest.raises(ConvergenceError) as excinfo:
            newton_iterate([self._nonlinear_system()],
                           NewtonOptions(max_iterations=1), label="diag")
        err = excinfo.value
        assert err.corners == [0]
        assert err.max_dv is not None and err.max_dv.shape == (1,)
        assert err.max_dv[0] > 0
        assert "corner 0" in str(err)
        assert "max_dv" in str(err)
        # The worst node is reported by *name*, not MNA index.
        assert len(err.nodes) == 1
        assert err.nodes[0] in ("vdd", "out")
        assert f"at node {err.nodes[0]!r}" in str(err)


class TestGoldenDeltaTParity:
    """Scalar and batched DeltaT paths must keep reproducing the goldens.

    ``tests/data/delta_t_parity.json`` pins the StageDelayEngine's DeltaT
    at nominal process for a grid of resistive-open and leakage faults,
    computed once through the scalar ``transient()`` path and once
    through the batched ``BatchedSimulation`` sweeps.  The regression
    tolerance is well below the paper's 0.1 ps measurement resolution
    but loose enough to absorb BLAS/LAPACK reduction-order differences
    across platforms (observed cross-path deviation: ~2e-16 s).
    """

    #: Fresh recomputation vs the checked-in goldens.
    GOLDEN_TOL = 0.05e-12
    #: Freshly computed scalar vs batched values.
    PARITY_TOL = 0.01e-12

    @pytest.fixture(scope="class")
    def golden(self):
        path = Path(__file__).parent.parent / "data" / "delta_t_parity.json"
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def engine(self, golden):
        from repro.core.engines import StageDelayEngine

        assert golden["engine"]["vdd"] == pytest.approx(1.1)
        return StageDelayEngine(timestep=golden["engine"]["timestep_s"])

    def test_scalar_path_reproduces_goldens(self, golden, engine):
        x = golden["x_open"]
        for r_open, want in zip(golden["r_open_ohm"],
                                golden["scalar"]["open"]):
            got = engine.delta_t(Tsv(fault=ResistiveOpen(r_open, x)))
            assert got == pytest.approx(want, abs=self.GOLDEN_TOL)
        for r_leak, want in zip(golden["r_leak_ohm"],
                                golden["scalar"]["leak"]):
            got = engine.delta_t(Tsv(fault=Leakage(r_leak)))
            assert got == pytest.approx(want, abs=self.GOLDEN_TOL)
        ff = engine.delta_t(Tsv())
        assert ff == pytest.approx(golden["scalar"]["fault_free"],
                                   abs=self.GOLDEN_TOL)

    def test_batched_path_reproduces_goldens(self, golden, engine):
        got_open = engine.delta_t_sweep_ro(golden["r_open_ohm"],
                                           x=golden["x_open"])
        np.testing.assert_allclose(got_open, golden["batched"]["open"],
                                   atol=self.GOLDEN_TOL, rtol=0)
        got_leak = engine.delta_t_sweep_rl(golden["r_leak_ohm"])
        np.testing.assert_allclose(got_leak, golden["batched"]["leak"],
                                   atol=self.GOLDEN_TOL, rtol=0)

    def test_scalar_and_batched_goldens_agree(self, golden):
        scalar = golden["scalar"]["open"] + golden["scalar"]["leak"]
        batched = golden["batched"]["open"] + golden["batched"]["leak"]
        for s, b in zip(scalar, batched):
            assert s == pytest.approx(b, abs=self.PARITY_TOL)

    def test_goldens_are_physical(self, golden):
        """Open DeltaT below fault-free, window leakage above (Fig. 6/8)."""
        ff = golden["scalar"]["fault_free"]
        assert all(v < ff for v in golden["scalar"]["open"])
        opens = golden["scalar"]["open"]
        assert all(a > b for a, b in zip(opens, opens[1:]))


class TestNoDuplicatedIntegratorLogic:
    """The scalar/batched wrappers must not re-implement the stepper."""

    @pytest.mark.parametrize("module", [transient_module, batch_module])
    def test_wrappers_delegate_to_shared_stepper(self, module):
        source = inspect.getsource(module)
        assert "TransientStepper" in source
        # No inner linear solves or companion-model math of their own.
        for token in ("np.linalg.solve", "geq", "ieq", "lu_factor"):
            assert token not in source, (
                f"{module.__name__} re-implements integrator logic "
                f"(found {token!r})"
            )

    def test_ragged_pack_carries_no_integrator(self):
        source = inspect.getsource(ragged_module)
        assert "integrate" in source
        for token in ("newton_update", "stamped_matrix",
                      "batched_dense_solve", "geq", "ieq",
                      "step_halvings"):
            assert token not in source, (
                f"repro.spice.ragged re-implements integrator logic "
                f"(found {token!r})"
            )
