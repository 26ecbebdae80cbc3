"""Transient analysis with backward-Euler and trapezoidal integration.

The timestep is fixed (supplied by the caller or derived from the stop
time); this keeps runs deterministic and reproducible, which matters for
the Monte Carlo experiments where we compare small period differences.
Trapezoidal integration is the default (second-order accurate, which the
oscillation-period measurements need); backward Euler is available for
stiff startup phases and is automatically used for the first step.

The initial state comes from a DC solve, optionally with ``.IC`` node
clamps -- the mechanism used to start ring oscillators away from their
metastable equilibrium.

The integration loop itself is the shared
:func:`repro.spice.stepper.integrate`; this function is the scalar
wrapper (one :class:`~repro.spice.stepper.TransientStepper` of one
corner), so its steps take the same stacked dense solve as the batched
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.spice.dc import solve_dc
from repro.spice.mna import MnaSystem, NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.staticcheck import preflight_circuit
from repro.spice.stepper import TraceDone, TransientStepper, integrate
from repro.spice.waveform import Waveform


@dataclass
class TransientResult:
    """Raw transient solution: time points and per-node voltage traces."""

    time: np.ndarray
    voltages: Dict[str, np.ndarray]

    def waveform(self, node: str) -> Waveform:
        """Extract a single-node :class:`Waveform` for post-processing."""
        return Waveform(self.time, self.voltages[node], name=node)

    def __getitem__(self, node: str) -> np.ndarray:
        return self.voltages[node]


def transient(
    circuit: Circuit,
    stop_time: float,
    timestep: float,
    ics: Optional[Dict[str, float]] = None,
    method: str = "trap",
    record: Optional[Iterable[str]] = None,
    options: Optional[NewtonOptions] = None,
    max_retries: int = 4,
    preflight: bool = True,
    done: Optional[TraceDone] = None,
) -> TransientResult:
    """Run a transient analysis of ``circuit``.

    Args:
        circuit: Circuit to simulate.
        stop_time: Simulation end time in seconds.
        timestep: Fixed integration step in seconds.
        ics: Optional node -> voltage initial-condition clamps for the
            starting DC solve.
        method: ``"trap"`` (default) or ``"be"``.
        record: Node names to record; defaults to all nodes.
        options: Newton solver options.
        max_retries: On a non-convergent step, the step is retried with a
            locally halved timestep up to this many times.
        preflight: Run the :mod:`repro.spice.staticcheck` analyzer and
            reject ill-posed circuits (floating nodes, source loops,
            structural singularities) with a named-element
            :class:`~repro.analysis.diagnostics.PreflightError` before
            any Newton iteration runs.
        done: Optional early-stop predicate ``done(k, times, voltages)``,
            called after each accepted step with the recorded 1-D traces
            (samples ``0 .. k`` written); returning True ends the run
            there (see :func:`repro.spice.stepper.integrate`).

    Returns:
        A :class:`TransientResult` with voltages sampled on the uniform
        time grid ``0, h, 2h, ... <= stop_time``, cut after step ``k``
        when ``done`` stopped the run.
    """
    system = MnaSystem(circuit, options)
    plan = system.plan
    if preflight:
        preflight_circuit(circuit, plan, context=f"transient of "
                          f"{circuit.title or 'circuit'}",
                          ics=ics)
    x = solve_dc(system, t=0.0, ics=ics)

    record_nodes = list(record) if record is not None else circuit.nodes
    record_idx = {node: circuit.node_index(node) for node in record_nodes}

    # Stepping runs in the condensed space: source-driven rails and
    # inputs are eliminated, shrinking every per-step linear solve.
    space = plan.condensed
    stepper = TransientStepper(
        space=space,
        fets=plan.nominal_fets(),
        cap_c=plan.cap_c0,
        a_linear=space.assemble_linear(),
        options=system.options,
        num_corners=1,
    )
    times, (traces,) = integrate(
        [stepper], [x[None, :]], [record_idx], stop_time, timestep,
        method=method, max_retries=max_retries,
        done=None if done is None else (
            lambda k, t, traces: done(
                k, t, {node: tr[0] for node, tr in traces[0].items()}
            )
        ),
    )
    return TransientResult(
        time=times,
        voltages={node: tr[0] for node, tr in traces.items()},
    )
