"""Modified nodal analysis: compiled system facade and Newton options.

The unknown vector is ``x = [v_0, v_1, ..., v_{N-1}, i_src_0, ...]`` where
``v_0`` is ground.  :class:`MnaSystem` compiles a circuit into a
:class:`~repro.spice.stamping.StampPlan` (the *assembly layer*) and
carries the Newton options; analyses assemble in the plan's solve spaces
(:attr:`~repro.spice.stamping.StampPlan.reduced` for DC,
:attr:`~repro.spice.stamping.StampPlan.condensed` for transients), never
in the full ground-included space.

The Newton-Raphson iteration itself lives in :mod:`repro.spice.stepper`
(the *stepper layer*) over the stacked dense solve of
:mod:`repro.spice.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.spice.netlist import Circuit
from repro.spice.stamping import StampPlan


class ConvergenceError(RuntimeError):
    """Raised when the Newton iteration fails to converge.

    Attributes:
        corners: Indices of the corners that had not converged when the
            iteration gave up (``[0]`` for scalar solves).
        max_dv: Final maximum node-voltage update per failing corner
            (same order as ``corners``), or ``None`` when unavailable
            (e.g. a singular-matrix failure).
        nodes: Name of the worst-updating circuit node per failing
            corner (same order as ``corners``), when known.  Names come
            from the circuit's ``node_index`` reverse map so failures
            are reported in netlist terms, never as matrix indices.
    """

    def __init__(
        self,
        message: str,
        corners: Optional[Sequence[int]] = None,
        max_dv: Optional[np.ndarray] = None,
        nodes: Optional[Sequence[str]] = None,
    ):
        super().__init__(message)
        self.corners = list(corners) if corners is not None else []
        self.max_dv = max_dv
        self.nodes = list(nodes) if nodes is not None else []


@dataclass
class NewtonOptions:
    """Tuning knobs for the Newton-Raphson loop."""

    max_iterations: int = 100
    vntol: float = 1e-6          # absolute voltage tolerance (V)
    reltol: float = 1e-4         # relative tolerance
    damping: float = 0.4         # max voltage change per iteration (V)
    gmin: float = 1e-9           # conductance from every node to ground (S)


class MnaSystem:
    """Compiled form of a :class:`Circuit`, ready for numerical analyses."""

    def __init__(self, circuit: Circuit, options: Optional[NewtonOptions] = None):
        self.circuit = circuit
        self.options = options or NewtonOptions()
        self.plan = StampPlan(circuit, gmin=self.options.gmin)
        self.num_nodes = self.plan.num_nodes
        self.num_vsrc = self.plan.num_vsrc
        self.size = self.plan.size
