"""Shared Newton iteration, DC solve, and trap/BE transient stepper.

This is the *stepper layer* of the solver stack: one implementation of
the damped Newton-Raphson loop, the gmin-stepping DC fallback, and the
trapezoidal / backward-Euler integrator with local step bisection.  Both
:func:`repro.spice.transient.transient` (scalar, as a batch of one) and
:class:`repro.spice.batch.BatchedSimulation` are thin wrappers around
:class:`TransientStepper`; neither carries integrator logic of its own.

All state is batched: the solution ``x`` is ``(S, size)`` in *full*
coordinates (ground row included, pinned nodes held at their known
voltages), while matrices and RHS vectors handed to the
:mod:`repro.spice.linalg` solve live in the coordinates of a
:class:`~repro.spice.stamping.SolveSpace`.  DC analysis runs in the
:attr:`~repro.spice.stamping.StampPlan.reduced` space (branch currents
kept, so operating points report source currents); the transient loop
runs in the :attr:`~repro.spice.stamping.StampPlan.condensed` space,
where rail/input nodes driven by voltage sources are eliminated and the
per-step LAPACK solve shrinks accordingly.  The Newton loop maintains a
per-corner active set -- corners that have converged drop out of
subsequent linearization, stamping, and solve work instead of being
re-solved until the slowest corner finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.spice.linalg import batched_dense_solve, stamped_matrix
from repro.spice.mna import ConvergenceError, NewtonOptions
from repro.spice.stamping import FetParams, SolveSpace
from repro.telemetry import get_telemetry

#: Conductance used to clamp .IC nodes (siemens); standard SPICE ``.IC``.
CLAMP_G = 1e3


def companion_geq(cap_c: np.ndarray, h: float, use_trap: bool) -> np.ndarray:
    """Companion-model conductance per capacitor for a step of ``h``."""
    return (2.0 if use_trap else 1.0) * cap_c / h


def newton_update(
    xa: np.ndarray,
    x_new: np.ndarray,
    num_nodes: int,
    opts: NewtonOptions,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One damped Newton acceptance step over the active corners.

    The single implementation of the damping/convergence arithmetic,
    shared by :func:`newton_iterate` and the ragged pack stepper
    (:mod:`repro.spice.ragged`) so packed solves accept iterates with
    bit-identical arithmetic to standalone solves.

    Args:
        xa: Current iterates, ``(A, size)`` full coordinates.
        x_new: Undamped solver proposals, same shape.
        num_nodes: Number of node unknowns (leading block of ``x``).
        opts: Newton tuning knobs.

    Returns:
        ``(xa_next, max_dv, worst_node, converged)``: the damped (or,
        where converged with a small step, undamped) next iterates, the
        per-corner max node-voltage update, the node index realizing it,
        and the per-corner convergence mask.
    """
    delta = x_new - xa
    if num_nodes > 1:
        dv_nodes = np.abs(delta[:, :num_nodes])
        max_dv = dv_nodes.max(axis=1)
        worst = dv_nodes.argmax(axis=1)
    else:
        max_dv = np.zeros(len(xa))
        worst = np.zeros(len(xa), dtype=np.intp)
    xa = xa + np.clip(delta, -opts.damping, opts.damping)
    vmax = np.abs(xa[:, :num_nodes]).max(axis=1) + 1e-12
    converged = max_dv < opts.vntol + opts.reltol * vmax
    if converged.any():
        # Take the undamped final solution where the step was small.
        undamped = (np.abs(delta) <= opts.damping + 1e-15).all(axis=1)
        take = converged & undamped
        if take.any():
            xa[take] = x_new[take]
    return xa, max_dv, worst, converged


def newton_iterate(
    a_base: np.ndarray,
    space: SolveSpace,
    fets: Optional[FetParams],
    b_base: np.ndarray,
    x_guess: np.ndarray,
    options: NewtonOptions,
    label: str = "",
    pinned: Optional[np.ndarray] = None,
    fet_vpin: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Damped Newton-Raphson over a batch of corners.

    Args:
        a_base: Base matrix of the solve space, shared ``(dim, dim)``
            or stacked ``(S, dim, dim)`` (see
            :func:`~repro.spice.linalg.stamped_matrix`).
        space: Solve space of ``a_base``.
        fets: MOSFET parameters (``None`` or empty for linear circuits).
        b_base: Linear part of the solve-space RHS, shape ``(S, dim)``
            (pinned-column corrections already applied).
        x_guess: Initial full solution vectors, shape ``(S, size)``.
        options: Newton tuning knobs.
        label: Context string for error messages.
        pinned: Known voltages of the space's pinned nodes (``(P,)``);
            written into ``x`` before iterating.
        fet_vpin: Per-Jacobian-entry pinned voltages (from
            :meth:`SolveSpace.fet_pin_values`) for the nonlinear RHS
            correction; only needed when the space pins MOSFET terminals.

    Returns:
        Converged full solution vectors ``(S, size)``.

    Raises:
        ConvergenceError: If any corner fails to converge; carries the
            failing corner indices and their final ``max_dv``.
    """
    opts = options
    num_corners = x_guess.shape[0]
    plan = space.plan
    num_nodes = plan.num_nodes
    has_fets = fets is not None and plan.num_fets > 0
    tele = get_telemetry()
    tele.incr("newton_solves")

    x = x_guess.copy()
    x[:, 0] = 0.0
    if pinned is not None and space.num_pinned:
        x[:, space.pinned_nodes] = pinned
    if space.dim == 0:
        # Every node is pinned; nothing to solve.
        return x
    active = np.arange(num_corners)
    last_dv = np.zeros(num_corners)
    last_node = np.zeros(num_corners, dtype=np.intp)

    for _ in range(opts.max_iterations):
        tele.incr("newton_iterations")
        xa = x[active]
        if has_fets:
            fa = fets.select(active) if len(active) < num_corners else fets
            lin = plan.linearize_fets(fa, xa)
        else:
            lin = None
        b = b_base[active]
        if lin is not None:
            space.stamp_fet_rhs(b, lin)
            if fet_vpin is not None:
                space.stamp_fet_pin_rhs(b, lin, fet_vpin)
        tele.incr("batched_solves")
        a = stamped_matrix(space, a_base, lin, active)
        try:
            sol = batched_dense_solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix during Newton solve ({label or 'unnamed'})",
                corners=active.tolist(),
            ) from exc

        x_new = xa.copy()
        x_new[:, space.kept] = sol
        xa, max_dv, worst, converged = newton_update(xa, x_new, num_nodes, opts)
        last_node[active] = worst
        x[active] = xa
        last_dv[active] = max_dv
        if converged.all():
            return x
        active = active[~converged]

    tele.incr("newton_failures")
    # Report the worst-updating unknown by its netlist *name* (node via
    # the circuit's reverse map) so the failure is actionable without
    # decoding MNA indices, and keep the failing corner ids attached.
    node_names = plan.circuit.nodes
    worst_nodes = [node_names[int(last_node[c])] for c in active]
    failing = ", ".join(
        f"corner {c}: max_dv={last_dv[c]:.3e} V at node {name!r}"
        for c, name in zip(active[:8], worst_nodes[:8])
    )
    more = "" if len(active) <= 8 else f" (+{len(active) - 8} more)"
    raise ConvergenceError(
        f"Newton failed to converge after {opts.max_iterations} iterations "
        f"({label or 'unnamed solve'}): {len(active)} of {num_corners} "
        f"corners unconverged [{failing}{more}]",
        corners=active.tolist(),
        max_dv=last_dv[active].copy(),
        nodes=worst_nodes,
    )


def solve_dc_plan(
    space: SolveSpace,
    fets: Optional[FetParams],
    options: NewtonOptions,
    num_corners: int,
    t: float = 0.0,
    ics: Optional[Dict[str, float]] = None,
    guess: Optional[np.ndarray] = None,
    a_linear: Optional[np.ndarray] = None,
    bpin: Optional[np.ndarray] = None,
) -> np.ndarray:
    """DC operating point with ``.IC`` clamps and gmin-stepping fallback.

    ``a_linear``/``bpin`` are the space's linear assembly (shared
    ``(dim, dim)`` or stacked ``(S, dim, dim)``) and pinned-column
    correction matrix; both are assembled from the space when omitted.
    Returns full vectors ``(S, size)``.
    """
    plan = space.plan
    if a_linear is None:
        a_linear = space.assemble_linear()
    a = a_linear.copy()
    b = np.zeros((num_corners, space.dim))
    space.source_rhs_into(b, t)
    vpin = None
    fet_vpin = None
    if space.num_pinned:
        vpin = space.pinned_voltages(t)
        if bpin is None:
            bpin = space.bpin_linear()
        b -= bpin @ vpin
        if space.has_fet_pins:
            fet_vpin = space.fet_pin_values(vpin)
    if ics:
        for node, voltage in ics.items():
            idx = space.col_map[plan.circuit.node_index(node)]
            if idx < 0:
                # Ground or a source-pinned node: the source wins anyway.
                continue
            a[..., idx, idx] += CLAMP_G
            b[..., idx] += CLAMP_G * voltage
    x0 = guess.copy() if guess is not None else np.zeros((num_corners, plan.size))
    try:
        return newton_iterate(
            a, space, fets, b, x0, options,
            label="dc", pinned=vpin, fet_vpin=fet_vpin,
        )
    except ConvergenceError:
        pass

    # gmin stepping: solve a sequence of increasingly stiff problems,
    # reusing each solution as the next starting point.
    x = np.zeros((num_corners, plan.size))
    diag = np.arange(space.num_kept_nodes)
    for gstep in np.logspace(0, -9, 19):
        a_step = a.copy()
        a_step[..., diag, diag] += gstep
        x = newton_iterate(
            a_step, space, fets, b, x, options,
            label=f"dc gmin={gstep:.1e}", pinned=vpin, fet_vpin=fet_vpin,
        )
    return newton_iterate(
        a, space, fets, b, x, options,
        label="dc final", pinned=vpin, fet_vpin=fet_vpin,
    )


@dataclass
class SteppedResult:
    """Raw batched stepper output: uniform time grid and ``(S, T)`` traces."""

    time: np.ndarray
    traces: Dict[str, np.ndarray]


class TransientStepper:
    """Generic trap/BE integrator over the stacked dense Newton solve.

    One instance simulates one compiled system: a
    :class:`~repro.spice.stamping.SolveSpace` plus (possibly per-corner)
    element values.  The integration scheme matches the historical
    scalar engine: trapezoidal by default with a backward-Euler first
    step, damped Newton with linear prediction of the next time point,
    and local step bisection (backward Euler) on convergence failure.
    """

    def __init__(
        self,
        space: SolveSpace,
        fets: Optional[FetParams],
        cap_c: np.ndarray,
        a_linear: np.ndarray,
        options: NewtonOptions,
        num_corners: int,
        bpin_linear: Optional[np.ndarray] = None,
    ):
        self.space = space
        self.plan = space.plan
        self.fets = fets
        self.cap_c = cap_c
        self.a_linear = a_linear
        if bpin_linear is None:
            bpin_linear = space.bpin_linear()
        self.bpin_linear = bpin_linear
        self.options = options
        self.num_corners = num_corners

    # -- assembly helpers ------------------------------------------------
    def _companion_matrix(
        self, h: float, use_trap: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(base matrix, geq, B_pin): linear assembly plus companions."""
        space = self.space
        geq = companion_geq(self.cap_c, h, use_trap)
        batched = self.a_linear.ndim == 3 or geq.ndim == 2
        if batched:
            m = space.dim
            a = np.broadcast_to(self.a_linear, (self.num_corners, m, m)).copy()
            geq_a = np.broadcast_to(geq, (self.num_corners, self.plan.num_caps))
        else:
            a = self.a_linear.copy()
            geq_a = geq
        space.stamp_capacitor_matrix(a, geq_a)
        if space.num_pinned:
            bpin = self.bpin_linear + space.bpin_capacitors(geq)
        else:
            bpin = self.bpin_linear
        return a, geq, bpin

    # -- stepping --------------------------------------------------------
    def _assemble_rhs(
        self,
        geq: np.ndarray,
        bpin: np.ndarray,
        use_trap: bool,
        t_new: float,
        vc: np.ndarray,
        ic: np.ndarray,
    ) -> Tuple[
        np.ndarray, Optional[np.ndarray], Optional[np.ndarray], np.ndarray
    ]:
        """Linear RHS of one time step: sources, pinned columns, companions.

        Returns ``(b, vpin, fet_vpin, ieq)``; also the reuse point for
        the ragged pack stepper, which assembles each member through its
        own :class:`TransientStepper` and shares only the Newton loop.
        """
        space = self.space
        b = np.zeros((self.num_corners, space.dim))
        space.source_rhs_into(b, t_new)
        vpin = None
        fet_vpin = None
        if space.num_pinned:
            vpin = space.pinned_voltages(t_new)
            b -= bpin @ vpin
            if space.has_fet_pins:
                fet_vpin = space.fet_pin_values(vpin)
        ieq = geq * vc + ic if use_trap else geq * vc
        space.stamp_capacitor_rhs(b, ieq)
        return b, vpin, fet_vpin, ieq

    def _cap_state(
        self,
        x_new: np.ndarray,
        geq: np.ndarray,
        ieq: np.ndarray,
        vc: np.ndarray,
        use_trap: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Next capacitor state ``(vc, ic)`` after an accepted step."""
        plan = self.plan
        vc_new = x_new[:, plan.cap_n1] - x_new[:, plan.cap_n2]
        ic_new = geq * vc_new - ieq if use_trap else geq * (vc_new - vc)
        return vc_new, ic_new

    def _single_step(
        self,
        a_base: np.ndarray,
        geq: np.ndarray,
        bpin: np.ndarray,
        use_trap: bool,
        t_new: float,
        x_guess: np.ndarray,
        vc: np.ndarray,
        ic: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        b, vpin, fet_vpin, ieq = self._assemble_rhs(
            geq, bpin, use_trap, t_new, vc, ic
        )
        x_new = newton_iterate(
            a_base, self.space, self.fets, b, x_guess, self.options,
            label=f"tran t={t_new:.3e}", pinned=vpin, fet_vpin=fet_vpin,
        )
        vc_new, ic_new = self._cap_state(x_new, geq, ieq, vc, use_trap)
        return x_new, vc_new, ic_new

    def _advance(
        self,
        x: np.ndarray,
        vc: np.ndarray,
        ic: np.ndarray,
        t_from: float,
        t_to: float,
        a_base: np.ndarray,
        geq: np.ndarray,
        bpin: np.ndarray,
        use_trap: bool,
        x_guess: np.ndarray,
        max_retries: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one step, bisecting locally on convergence failure."""
        try:
            return self._single_step(
                a_base, geq, bpin, use_trap, t_to, x_guess, vc, ic
            )
        except ConvergenceError:
            if max_retries <= 0:
                raise
            # Retry with two half steps using backward Euler (robust).
            tele = get_telemetry()
            tele.incr("step_retries")
            tele.incr("step_halvings", 2)
            h_half = (t_to - t_from) / 2.0
            a_h, geq_h, bpin_h = self._companion_matrix(h_half, use_trap=False)
            t_mid = t_from + h_half
            x, vc, ic = self._advance(
                x, vc, ic, t_from, t_mid, a_h, geq_h, bpin_h,
                use_trap=False, x_guess=x, max_retries=max_retries - 1,
            )
            return self._advance(
                x, vc, ic, t_mid, t_to, a_h, geq_h, bpin_h,
                use_trap=False, x_guess=x, max_retries=max_retries - 1,
            )

    def run(
        self,
        stop_time: float,
        timestep: float,
        x0: np.ndarray,
        record_idx: Dict[str, int],
        method: str = "trap",
        max_retries: int = 4,
    ) -> SteppedResult:
        """Integrate from the initial state ``x0`` (``(S, size)``).

        Records the node voltages named by ``record_idx`` on the uniform
        grid ``0, h, ..., <= stop_time`` as ``(S, T)`` arrays.
        """
        if method not in ("trap", "be"):
            raise ValueError(f"unknown integration method {method!r}")
        if timestep <= 0 or stop_time <= 0:
            raise ValueError("stop_time and timestep must be positive")
        plan = self.plan
        num_steps = int(round(stop_time / timestep))
        times = np.arange(num_steps + 1) * timestep

        traces = {
            node: np.empty((self.num_corners, num_steps + 1))
            for node in record_idx
        }
        x = x0
        for node, idx in record_idx.items():
            traces[node][:, 0] = x[:, idx]

        vc = x[:, plan.cap_n1] - x[:, plan.cap_n2]
        ic = np.zeros_like(vc)

        use_trap_default = method == "trap"
        a_be, geq_be, bpin_be = self._companion_matrix(timestep, use_trap=False)
        if use_trap_default:
            a_trap, geq_trap, bpin_trap = self._companion_matrix(
                timestep, use_trap=True
            )

        x_prev = x
        for k in range(1, num_steps + 1):
            t_new = times[k]
            # First step uses BE to avoid trapezoidal ringing from DC.
            trap_now = use_trap_default and k > 1
            if trap_now:
                a_base, geq, bpin = a_trap, geq_trap, bpin_trap
            else:
                a_base, geq, bpin = a_be, geq_be, bpin_be
            # Linear prediction of the next time point speeds Newton up.
            x_guess = 2.0 * x - x_prev if k > 1 else x
            x_prev = x
            x, vc, ic = self._advance(
                x, vc, ic, times[k - 1], t_new, a_base, geq, bpin,
                use_trap=trap_now, x_guess=x_guess, max_retries=max_retries,
            )
            for node, idx in record_idx.items():
                traces[node][:, k] = x[:, idx]

        return SteppedResult(time=times, traces=traces)
