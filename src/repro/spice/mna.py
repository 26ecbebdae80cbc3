"""Modified nodal analysis: compiled system facade and Newton options.

The unknown vector is ``x = [v_0, v_1, ..., v_{N-1}, i_src_0, ...]`` where
``v_0`` is ground.  Assembly is delegated to the compiled
:class:`~repro.spice.stamping.StampPlan` (the *assembly layer*), which
precomputes flat scatter indices for every element family and serves both
scalar ``(n, n)`` and stacked ``(S, n, n)`` systems from the same index
structures.  :class:`MnaSystem` remains the public entry point and keeps
its historical attribute surface (``a_linear``, ``fet_d``, ``source_rhs``,
``newton_solve``, ...) as thin views over the plan.

The Newton-Raphson iteration itself lives in :mod:`repro.spice.stepper`
(the *stepper layer*) over the stacked dense solve of
:mod:`repro.spice.linalg`; :meth:`MnaSystem.newton_solve` wraps it for the
scalar full-matrix call signature older code and tests use.
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
        plan = self.plan
        self.num_nodes = plan.num_nodes
        self.num_vsrc = plan.num_vsrc
        self.size = plan.size

        # Historical attribute surface, now views over the plan.
        self.a_linear = plan.assemble_linear()
        self.cap_n1 = plan.cap_n1
        self.cap_n2 = plan.cap_n2
        self.cap_c = plan.cap_c0
        self.fet_d = plan.fet_d
        self.fet_g = plan.fet_g
        self.fet_s = plan.fet_s
        self.fet_b = plan.fet_b
        self.fet_polarity = plan.fet_polarity
        self.fet_vth = plan.fet_vth0
        self.fet_n = plan.fet_n
        self.fet_lam = plan.fet_lam
        self._nominal_fets = plan.nominal_fets() if plan.num_fets else None
        self.fet_is = (
            self._nominal_fets.i_s if self._nominal_fets is not None
            else np.empty(0)
        )
        self._jac_rows = plan.fet_rows
        self._jac_cols = plan.fet_cols
        self._rhs_rows = plan.fet_rhs_rows

    # ------------------------------------------------------------------
    # Assembly pieces (delegating to the plan)
    # ------------------------------------------------------------------
    def source_rhs(self, t: float, b: np.ndarray) -> None:
        """Add independent-source contributions at time ``t`` into ``b``."""
        self.plan.source_rhs_into(b, t)

    def stamp_capacitors_conductance(self, a: np.ndarray, geq: np.ndarray) -> None:
        """Stamp companion conductances ``geq`` (per capacitor) into ``a``."""
        self.plan.stamp_capacitor_matrix(a, geq)

    def stamp_capacitors_current(self, b: np.ndarray, ieq: np.ndarray) -> None:
        """Stamp companion currents ``ieq`` (flowing into n1) into ``b``."""
        self.plan.stamp_capacitor_rhs(b, ieq)

    def stamp_mosfets(self, a: np.ndarray, b: np.ndarray, v: np.ndarray) -> None:
        """Linearize all MOSFETs around node voltages ``v`` and stamp."""
        if self._nominal_fets is None:
            return
        lin = self.plan.linearize_fets(self._nominal_fets, v)
        self.plan.stamp_fet_matrix(a, lin)
        self.plan.stamp_fet_rhs(b, lin)

    # ------------------------------------------------------------------
    # Newton solve
    # ------------------------------------------------------------------
    def newton_solve(
        self,
        a_base: np.ndarray,
        b_base: np.ndarray,
        v_guess: np.ndarray,
        label: str = "",
    ) -> np.ndarray:
        """Solve the nonlinear system ``A(x) x = b(x)`` by damped Newton.

        Args:
            a_base: Linear part of the matrix (size x size), not modified.
            b_base: Linear part of the RHS, not modified.
            v_guess: Initial full solution vector (size,).
            label: Context string for error messages.

        Returns:
            The converged solution vector (node voltages + source currents).
        """
        # Deferred import: the stepper layer imports NewtonOptions and
        # ConvergenceError from this module.
        from repro.spice.stepper import newton_iterate

        # The reduced space keeps all unknowns except ground, ordered as
        # in the full vector, so ``a_base[1:, 1:]`` matches its layout.
        x = newton_iterate(
            np.ascontiguousarray(a_base[1:, 1:]),
            self.plan.reduced,
            self._nominal_fets,
            np.ascontiguousarray(b_base[1:])[None, :],
            np.asarray(v_guess, dtype=float)[None, :],
            self.options,
            label=label,
        )
        return x[0]
