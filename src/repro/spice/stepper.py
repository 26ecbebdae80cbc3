"""The one Newton loop, DC solve, and trap/BE time loop of the stack.

This is the *stepper layer* of the solver stack.  :func:`newton_iterate`
is the damped Newton-Raphson loop over a list of systems, and
:func:`integrate` is the trapezoidal / backward-Euler time loop with
step bisection over a list of :class:`TransientStepper` systems.  A
scalar transient (:func:`repro.spice.transient.transient`), a batched
one (:class:`repro.spice.batch.BatchedSimulation`) and a ragged pack of
mixed circuits (:class:`repro.spice.ragged.RaggedPack`) all call
:func:`integrate`: a scalar run is a one-corner system, a batch is one
system, and a pack is several.  None of them carries integrator logic
of its own.  An optional ``done`` predicate ends the time loop once the
caller has read what it needs; everything before the stop is
bit-identical to the full run.

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
per-system, per-corner active set -- corners that have converged drop
out of subsequent linearization, stamping, and solve work instead of
being re-solved until the slowest corner finishes -- and solves the
active corners of all systems with one stacked call per matrix
dimension.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.spice.linalg import batched_dense_solve, stamped_matrix
from repro.spice.mna import ConvergenceError, NewtonOptions
from repro.spice.stamping import FetParams, SolveSpace
from repro.telemetry import Telemetry, get_telemetry

#: Conductance used to clamp .IC nodes (siemens); standard SPICE ``.IC``.
CLAMP_G = 1e3

#: One system's ``(base matrix, geq, B_pin)`` for a step size and method.
_Companions = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: One system's integration state ``(x, vc, ic)``.
_State = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Early-stop predicate of :func:`integrate`: ``done(k, times, traces)``
#: with one node -> trace dict per system.
DonePredicate = Callable[[int, np.ndarray, List[Dict[str, np.ndarray]]], bool]
#: The one-system form the transient wrappers take: ``done(k, times,
#: voltages)``.
TraceDone = Callable[[int, np.ndarray, Dict[str, np.ndarray]], bool]


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

    The damping/convergence arithmetic of :func:`newton_iterate`,
    applied per system.

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


class NewtonSystem(NamedTuple):
    """One system's inputs to :func:`newton_iterate`.

    Attributes:
        space: Solve space of ``a_base``.
        a_base: Base matrix, shared ``(dim, dim)`` or stacked
            ``(S, dim, dim)`` (see
            :func:`~repro.spice.linalg.stamped_matrix`).
        fets: MOSFET parameters (``None`` for linear circuits).
        b_base: Linear part of the solve-space RHS, ``(S, dim)``
            (pinned-column corrections already applied).
        x_guess: Initial full solution vectors, ``(S, size)``.
        pinned: Known voltages of the space's pinned nodes (``(P,)``);
            written into ``x`` before iterating.
        fet_vpin: Per-Jacobian-entry pinned voltages (from
            :meth:`SolveSpace.fet_pin_values`) for the nonlinear RHS
            correction; only needed when the space pins MOSFET terminals.
    """

    space: SolveSpace
    a_base: np.ndarray
    fets: Optional[FetParams]
    b_base: np.ndarray
    x_guess: np.ndarray
    pinned: Optional[np.ndarray] = None
    fet_vpin: Optional[np.ndarray] = None


def _stamp(
    system: NewtonSystem, x: np.ndarray, active: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x_active, A, b)``: one system's Newton linearization."""
    space = system.space
    xa = x[active]
    fets = system.fets
    if fets is not None and space.plan.num_fets > 0:
        fa = fets.select(active) if len(active) < len(x) else fets
        lin = space.plan.linearize_fets(fa, xa)
    else:
        lin = None
    b = system.b_base[active]
    if lin is not None:
        space.stamp_fet_rhs(b, lin)
        if system.fet_vpin is not None:
            space.stamp_fet_pin_rhs(b, lin, system.fet_vpin)
    return xa, stamped_matrix(space, system.a_base, lin, active), b


def _bucketed_solve(
    stamped: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    num_systems: int,
    tele: Telemetry,
) -> List[np.ndarray]:
    """Solve every stamped system, one stacked call per dimension.

    Stacking same-shape systems is bit-transparent per corner, so each
    system's solution equals solving it alone.
    """
    if num_systems == 1:
        tele.incr("batched_solves")
        (_, a, b), = stamped
        return [batched_dense_solve(a, b)]
    by_dim: Dict[int, List[int]] = {}
    for i, (_, a, _) in enumerate(stamped):
        by_dim.setdefault(a.shape[-1], []).append(i)
    tele.incr("ragged.bucket_solves", len(by_dim))
    sols: Dict[int, np.ndarray] = {}
    for idxs in by_dim.values():
        if len(idxs) == 1:
            _, a, b = stamped[idxs[0]]
            sols[idxs[0]] = batched_dense_solve(a, b)
            continue
        sol = batched_dense_solve(
            np.concatenate([stamped[i][1] for i in idxs], axis=0),
            np.concatenate([stamped[i][2] for i in idxs], axis=0),
        )
        offset = 0
        for i in idxs:
            count = len(stamped[i][2])
            sols[i] = sol[offset:offset + count]
            offset += count
    return [sols[i] for i in range(len(stamped))]


def newton_iterate(
    systems: Sequence[NewtonSystem],
    options: NewtonOptions,
    label: str = "",
) -> List[np.ndarray]:
    """Damped Newton-Raphson over the corners of one or more systems.

    Each system keeps its own active set: corners that have converged
    drop out of linearization, stamping and solving.  Per iteration the
    active corners of all systems are solved together, one stacked
    LAPACK call per matrix dimension, and accepted through
    :func:`newton_update`, so a system's iterates are bit-identical
    whatever it is solved next to.

    Args:
        systems: Per-system Newton inputs.
        options: Newton tuning knobs (shared by every system).
        label: Context string for error messages.

    Returns:
        Converged full solution vectors, ``(S, size)`` per system.

    Raises:
        ConvergenceError: If any corner fails to converge.  Corners are
            numbered across systems in order (system ``j``'s corner
            ``c`` is ``c`` plus the corners of systems ``0 .. j-1``);
            the error carries each failing corner's final ``max_dv``
            and worst node name.
    """
    opts = options
    tele = get_telemetry()
    tele.incr("newton_solves")

    xs: List[np.ndarray] = []
    actives: List[np.ndarray] = []
    last_dv: List[np.ndarray] = []
    last_node: List[np.ndarray] = []
    work: List[int] = []
    for j, system in enumerate(systems):
        space = system.space
        x = system.x_guess.copy()
        x[:, 0] = 0.0
        if system.pinned is not None and space.num_pinned:
            x[:, space.pinned_nodes] = system.pinned
        num_corners = len(x)
        xs.append(x)
        actives.append(np.arange(num_corners))
        last_dv.append(np.zeros(num_corners))
        last_node.append(np.zeros(num_corners, dtype=np.intp))
        # A space with every node pinned has nothing to solve.
        if space.dim:
            work.append(j)

    for _ in range(opts.max_iterations):
        if not work:
            return xs
        tele.incr("newton_iterations")
        stamped = [_stamp(systems[j], xs[j], actives[j]) for j in work]
        try:
            sols = _bucketed_solve(stamped, len(systems), tele)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix during Newton solve ({label or 'unnamed'})",
                corners=_numbered(xs, actives, work),
            ) from exc
        unconverged = []
        for j, (xa, _, _), sol in zip(work, stamped, sols):
            space = systems[j].space
            active = actives[j]
            x_new = xa.copy()
            x_new[:, space.kept] = sol
            xa, max_dv, worst, converged = newton_update(
                xa, x_new, space.plan.num_nodes, opts
            )
            last_node[j][active] = worst
            xs[j][active] = xa
            last_dv[j][active] = max_dv
            if not converged.all():
                actives[j] = active[~converged]
                unconverged.append(j)
        work = unconverged
    if not work:
        return xs

    tele.incr("newton_failures")
    # Report the worst-updating unknown by its netlist *name* (node via
    # the circuit's reverse map) so the failure is actionable without
    # decoding MNA indices, and keep the failing corner ids attached.
    corners = _numbered(xs, actives, work)
    max_dv = np.concatenate([last_dv[j][actives[j]] for j in work])
    worst_nodes = [
        systems[j].space.plan.circuit.nodes[int(last_node[j][c])]
        for j in work for c in actives[j]
    ]
    failing = ", ".join(
        f"corner {c}: max_dv={dv:.3e} V at node {name!r}"
        for c, dv, name in zip(corners[:8], max_dv[:8], worst_nodes[:8])
    )
    more = "" if len(corners) <= 8 else f" (+{len(corners) - 8} more)"
    raise ConvergenceError(
        f"Newton failed to converge after {opts.max_iterations} iterations "
        f"({label or 'unnamed solve'}): {len(corners)} of "
        f"{sum(len(x) for x in xs)} corners unconverged [{failing}{more}]",
        corners=corners,
        max_dv=max_dv,
        nodes=worst_nodes,
    )


def _numbered(
    xs: List[np.ndarray], actives: List[np.ndarray], work: List[int]
) -> List[int]:
    """The ``work`` systems' active corners, numbered across systems."""
    offsets = np.cumsum([0] + [len(x) for x in xs])
    return [int(offsets[j] + c) for j in work for c in actives[j]]


def solve_dc_plan(
    space: SolveSpace,
    fets: Optional[FetParams],
    options: NewtonOptions,
    num_corners: int,
    t: float = 0.0,
    ics: Optional[Dict[str, float]] = None,
    guess: Optional[np.ndarray] = None,
    a_linear: Optional[np.ndarray] = None,
    gmin_stepping: bool = True,
) -> np.ndarray:
    """DC operating point with ``.IC`` clamps and gmin-stepping fallback.

    ``a_linear`` is the space's linear assembly (shared ``(dim, dim)``
    or stacked ``(S, dim, dim)``), assembled from the space when
    omitted.  Returns full vectors ``(S, size)``.  The gmin ladder
    restarts every corner from zeros, so a caller whose corners must
    each match their own solo solve passes ``gmin_stepping=False`` and
    gets the first Newton failure as a
    :class:`~repro.spice.mna.ConvergenceError` instead.
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
        b -= space.bpin_linear() @ vpin
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

    def solve(a_dc: np.ndarray, x: np.ndarray, label: str) -> np.ndarray:
        system = NewtonSystem(space, a_dc, fets, b, x, vpin, fet_vpin)
        return newton_iterate([system], options, label=label)[0]

    x0 = guess.copy() if guess is not None else np.zeros((num_corners, plan.size))
    try:
        return solve(a, x0, "dc")
    except ConvergenceError:
        if not gmin_stepping:
            raise

    # gmin stepping: solve a sequence of increasingly stiff problems,
    # reusing each solution as the next starting point.
    x = np.zeros((num_corners, plan.size))
    diag = np.arange(space.num_kept_nodes)
    for gstep in np.logspace(0, -9, 19):
        a_step = a.copy()
        a_step[..., diag, diag] += gstep
        x = solve(a_step, x, f"dc gmin={gstep:.1e}")
    return solve(a, x, "dc final")


class TransientStepper:
    """One compiled system's transient assembly for :func:`integrate`.

    Holds a :class:`~repro.spice.stamping.SolveSpace` plus (possibly
    per-corner) element values, and builds what each time step needs:
    companion matrices for a step size, the step's linear RHS and
    Newton inputs, and the capacitor state after an accepted step.
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

    def companions(self, h: float, use_trap: bool) -> _Companions:
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

    def newton_system(
        self,
        companions: _Companions,
        use_trap: bool,
        t_new: float,
        state: _State,
        x_guess: np.ndarray,
    ) -> Tuple[NewtonSystem, np.ndarray]:
        """Newton inputs of one time step, and the companion currents.

        The linear RHS holds the sources, the pinned-column correction
        and the capacitor companion currents ``ieq``.
        """
        space = self.space
        a_base, geq, bpin = companions
        _, vc, ic = state
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
        system = NewtonSystem(
            space, a_base, self.fets, b, x_guess, vpin, fet_vpin
        )
        return system, ieq

    def accept(
        self,
        x_new: np.ndarray,
        companions: _Companions,
        ieq: np.ndarray,
        state: _State,
        use_trap: bool,
    ) -> _State:
        """State ``(x, vc, ic)`` after an accepted step to ``x_new``."""
        plan = self.plan
        _, geq, _ = companions
        _, vc, _ = state
        vc_new = x_new[:, plan.cap_n1] - x_new[:, plan.cap_n2]
        ic_new = geq * vc_new - ieq if use_trap else geq * (vc_new - vc)
        return x_new, vc_new, ic_new


def _step(
    steppers: Sequence[TransientStepper],
    states: List[_State],
    t_new: float,
    mats: List[_Companions],
    use_trap: bool,
    guesses: List[np.ndarray],
) -> List[_State]:
    """One accepted time step for every system (or ConvergenceError)."""
    built = [
        stepper.newton_system(comp, use_trap, t_new, state, guess)
        for stepper, comp, state, guess in zip(steppers, mats, states, guesses)
    ]
    x_new = newton_iterate(
        [system for system, _ in built], steppers[0].options,
        label=f"tran t={t_new:.3e}",
    )
    return [
        stepper.accept(xn, comp, ieq, state, use_trap)
        for stepper, xn, comp, (_, ieq), state
        in zip(steppers, x_new, mats, built, states)
    ]


def _advance(
    steppers: Sequence[TransientStepper],
    states: List[_State],
    t_from: float,
    t_to: float,
    mats: List[_Companions],
    use_trap: bool,
    guesses: List[np.ndarray],
    max_retries: int,
) -> List[_State]:
    """Advance one step, bisecting on convergence failure.

    The bisection is global to the call: a step that fails for any
    system is halved for all of them.
    """
    try:
        return _step(steppers, states, t_to, mats, use_trap, guesses)
    except ConvergenceError:
        if max_retries <= 0:
            raise
        # Retry with two half steps using backward Euler (robust).
        tele = get_telemetry()
        tele.incr("step_retries")
        tele.incr("step_halvings", 2)
        h_half = (t_to - t_from) / 2.0
        mats_h = [s.companions(h_half, use_trap=False) for s in steppers]
        t_mid = t_from + h_half
        for t_a, t_b in ((t_from, t_mid), (t_mid, t_to)):
            states = _advance(
                steppers, states, t_a, t_b, mats_h, False,
                [x for x, _, _ in states], max_retries - 1,
            )
        return states


def integrate(
    steppers: Sequence[TransientStepper],
    x0s: Sequence[np.ndarray],
    record_idxs: Sequence[Dict[str, int]],
    stop_time: float,
    timestep: float,
    method: str = "trap",
    max_retries: int = 4,
    done: Optional[DonePredicate] = None,
) -> Tuple[np.ndarray, List[Dict[str, np.ndarray]]]:
    """Integrate one or more systems over one shared time loop.

    The scheme matches the historical scalar engine: trapezoidal by
    default with a backward-Euler first step, damped Newton with linear
    prediction of the next time point, and step bisection (backward
    Euler) on convergence failure.  All systems share the time grid,
    the trap/BE schedule, the bisection ladder and each Newton loop;
    every system's trajectory is bit-identical to integrating it alone
    unless a step fails.

    Args:
        steppers: One :class:`TransientStepper` per system.
        x0s: Initial full states, ``(S, size)`` per system.
        record_idxs: Per system, node name -> full index to record.
        stop_time: Simulation end time in seconds.
        timestep: Fixed integration step in seconds.
        method: ``"trap"`` (default) or ``"be"``.
        max_retries: Depth of the step-bisection ladder.
        done: Optional early-stop predicate, called after each accepted
            step ``k`` but the last as ``done(k, times, traces)``; only
            samples ``0 .. k`` of each trace are written yet.  When it
            returns True the loop ends and the grid and every trace are
            cut to ``k + 1`` samples.  The stop ends the whole call and
            changes nothing before it, so each returned sample is
            bit-identical to the same sample of the full run.

    Returns:
        ``(time, traces)``: the uniform grid ``0, h, ..., <= stop_time``
        (or its first ``k + 1`` points after an early stop) and, per
        system, ``(S, T)`` traces of the recorded nodes.
    """
    if method not in ("trap", "be"):
        raise ValueError(f"unknown integration method {method!r}")
    if timestep <= 0 or stop_time <= 0:
        raise ValueError("stop_time and timestep must be positive")
    num_steps = int(round(stop_time / timestep))
    times = np.arange(num_steps + 1) * timestep

    traces = [
        {node: np.empty((s.num_corners, num_steps + 1)) for node in ridx}
        for s, ridx in zip(steppers, record_idxs)
    ]
    states: List[_State] = []
    for stepper, x, trace, ridx in zip(steppers, x0s, traces, record_idxs):
        for node, idx in ridx.items():
            trace[node][:, 0] = x[:, idx]
        vc = x[:, stepper.plan.cap_n1] - x[:, stepper.plan.cap_n2]
        states.append((x, vc, np.zeros_like(vc)))

    use_trap_default = method == "trap"
    mats_be = [s.companions(timestep, use_trap=False) for s in steppers]
    mats_trap = (
        [s.companions(timestep, use_trap=True) for s in steppers]
        if use_trap_default else mats_be
    )

    x_prevs = [x for x, _, _ in states]
    for k in range(1, num_steps + 1):
        # First step uses BE to avoid trapezoidal ringing from DC.
        trap_now = use_trap_default and k > 1
        xs = [x for x, _, _ in states]
        # Linear prediction of the next time point speeds Newton up.
        guesses = (
            [2.0 * x - xp for x, xp in zip(xs, x_prevs)] if k > 1 else xs
        )
        x_prevs = xs
        states = _advance(
            steppers, states, times[k - 1], times[k],
            mats_trap if trap_now else mats_be, trap_now, guesses,
            max_retries,
        )
        for (x, _, _), trace, ridx in zip(states, traces, record_idxs):
            for node, idx in ridx.items():
                trace[node][:, k] = x[:, idx]
        if done is not None and k < num_steps and done(k, times, traces):
            get_telemetry().incr("spice.steps_skipped", num_steps - k)
            times = times[:k + 1]
            traces = [
                {node: tr[:, :k + 1] for node, tr in trace.items()}
                for trace in traces
            ]
            break

    return times, traces
