"""Ragged cross-topology batch packing: mixed circuits, one time loop.

:class:`~repro.spice.batch.BatchedSimulation` stacks corners of *one*
circuit; this module packs corners of *several* circuits -- different
TSV fault subnets, segment lengths, topology variants -- into a single
shared transient integration.  A realistic mixed wafer fragments the
exact-fingerprint batching the screening service shipped with (every
distinct fault resistance is its own circuit), so the packing layer is
what lets family-keyed service traffic share solves.

The packing is *ragged*: members keep their own
:class:`~repro.spice.stamping.SolveSpace` (different dimensions, node
layouts, element counts), their own per-corner parameter overrides, and
their own Newton active sets.  What they share is the control flow --
one time grid, one trap/BE schedule, one step-bisection ladder, one
Newton loop -- and the inner linear solves: per Newton iteration,
active corners are grouped by solve-space dimension and each group goes
through one stacked LAPACK call
(:func:`repro.spice.linalg.batched_dense_solve`).  Per-corner ``gesv``
is independent of its stack neighbours, so every member's trajectory is
**bit-identical** to running it alone through
:meth:`BatchedSimulation.transient` -- the property the screening
service's coalescing contract requires.

No integrator logic lives here: members assemble through their own
:class:`~repro.spice.stepper.TransientStepper` (companion matrices, RHS,
capacitor state) and iterate acceptance runs through the shared
:func:`~repro.spice.stepper.newton_update`, so the packed numerics are
the stepper's numerics by construction.

The stepper's documented batch-composition caveat extends to packs: the
global step-bisection retry and per-pack Newton iteration budget engage
on *any* member's convergence failure, so failure handling (only) can
couple members.  Callers needing strict per-member behaviour under
failure re-solve members individually -- exactly the service's
retry-by-decomposition path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.batch import BatchedResult, BatchedSimulation
from repro.spice.cache import fingerprint
from repro.spice.linalg import batched_dense_solve, stamped_matrix
from repro.spice.mna import ConvergenceError, NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.stamping import StampPlan
from repro.spice.stepper import TransientStepper, newton_update
from repro.telemetry import get_telemetry

__all__ = ["RaggedPack", "TopologyFamily", "ragged_transient"]


@dataclass(frozen=True)
class TopologyFamily:
    """Canonical structural descriptor of one circuit topology.

    Two circuits share a family exactly when their node layouts and
    element connectivity coincide -- element *values* (resistances,
    capacitances, device widths) are deliberately excluded, which is
    what separates a family from a circuit fingerprint: every resistive
    open of a given subnet shape is one family but a distinct exact
    fingerprint.  The descriptor also records the condensed solve
    dimension, which picks the topology's solve bucket inside a ragged
    pack.

    Attributes:
        title: The circuit's title (informational only; not part of
            equality -- ``signature`` carries the structure).
        num_nodes: Node count including ground.
        dim: Condensed solve-space dimension (the packed matrix block
            this topology contributes).
        num_resistors: Resistor count.
        num_caps: Capacitor count.
        num_fets: MOSFET count.
        signature: Content hash of the full structural layout (node
            indices of every element terminal plus source incidence).
    """

    title: str
    num_nodes: int
    dim: int
    num_resistors: int
    num_caps: int
    num_fets: int
    signature: str

    @classmethod
    def of(
        cls, circuit: Circuit, plan: Optional[StampPlan] = None
    ) -> "TopologyFamily":
        """The family of ``circuit`` (reusing a compiled ``plan`` if given)."""
        if plan is None:
            plan = StampPlan(circuit, gmin=NewtonOptions().gmin)
        signature = fingerprint(
            "spice.topology_family",
            plan.num_nodes,
            plan.num_vsrc,
            tuple(plan.res_i.tolist()),
            tuple(plan.res_j.tolist()),
            tuple(plan.cap_n1.tolist()),
            tuple(plan.cap_n2.tolist()),
            tuple(plan.fet_d.tolist()),
            tuple(plan.fet_g.tolist()),
            tuple(plan.fet_s.tolist()),
            tuple(plan.fet_b.tolist()),
            tuple(
                (circuit.node_index(src.npos), circuit.node_index(src.nneg))
                for src in circuit.vsources
            ),
        )
        return cls(
            title=circuit.title or "",
            num_nodes=plan.num_nodes,
            dim=plan.condensed.dim,
            num_resistors=plan.num_resistors,
            num_caps=plan.num_caps,
            num_fets=plan.num_fets,
            signature=signature,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopologyFamily):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)


class _PackMember:
    """One simulation inside a pack: its space, stepper, and live state."""

    def __init__(self, index: int, sim: BatchedSimulation, offset: int):
        self.index = index
        self.sim = sim
        self.plan = sim.plan
        self.space = sim.plan.condensed
        self.num_corners = sim.num_corners
        #: Global corner offset inside the pack (diagnostics only).
        self.offset = offset
        self.family = TopologyFamily.of(sim.circuit, sim.plan)
        # The member's own stepper provides assembly (companion
        # matrices, RHS, capacitor state) with standalone arithmetic;
        # only its Newton/time loops go unused in a pack.
        self.stepper = TransientStepper(
            space=self.space,
            fets=sim.fets,
            cap_c=sim.cap_c,
            a_linear=self.space.assemble_linear(sim.res_g),
            bpin_linear=self.space.bpin_linear(sim.res_g),
            options=sim.options,
            num_corners=sim.num_corners,
        )
        # Live integration state, set by RaggedPack.transient().
        self.x: np.ndarray = np.empty(0)
        self.vc: np.ndarray = np.empty(0)
        self.ic: np.ndarray = np.empty(0)
        self.x_prev: np.ndarray = np.empty(0)


class RaggedPack:
    """A compiled pack of :class:`BatchedSimulation` members.

    Construction validates that members can share one integration
    (identical Newton options) and compiles the pack layout: per-member
    corner offsets.

    Attributes:
        members: The compiled pack members, in input order.
        num_corners: Total corners across members.
    """

    def __init__(self, sims: Sequence[BatchedSimulation]):
        if not sims:
            raise ValueError("a ragged pack needs at least one simulation")
        options = sims[0].options
        for i, sim in enumerate(sims[1:], start=1):
            if sim.options != options:
                raise ValueError(
                    f"pack member {i} has different Newton options than "
                    f"member 0; members must share one solver configuration"
                )
        self.options = options
        self.members: List[_PackMember] = []
        offset = 0
        for i, sim in enumerate(sims):
            self.members.append(_PackMember(i, sim, offset))
            offset += sim.num_corners
        self.num_corners = offset

    @property
    def families(self) -> List[TopologyFamily]:
        """Per-member topology families, in member order."""
        return [m.family for m in self.members]

    # ------------------------------------------------------------------
    def transient(
        self,
        stop_time: float,
        timestep: float,
        ics: Optional[Dict[str, float]] = None,
        record: Optional[Iterable[str]] = None,
        method: str = "trap",
        max_retries: int = 4,
    ) -> List[BatchedResult]:
        """Integrate every member over one shared time loop.

        Mirrors :meth:`BatchedSimulation.transient` member-for-member:
        per-member DC start (with the same ``ics`` clamps), BE first
        step, trapezoidal after, linear prediction, and local step
        bisection -- except the bisection ladder is global (a step that
        fails for any member is halved for all, the packed analogue of
        the stepper's batch-global retry).

        Args:
            record: Node names recorded for every member; ``None``
                records the *intersection* impossible to define across
                topologies, so it is rejected -- packs must name their
                observation nodes explicitly.

        Returns:
            One :class:`BatchedResult` per member, in input order.
        """
        if method not in ("trap", "be"):
            raise ValueError(f"unknown integration method {method!r}")
        if timestep <= 0 or stop_time <= 0:
            raise ValueError("stop_time and timestep must be positive")
        if record is None:
            raise ValueError(
                "ragged packs record no default node set; pass the node "
                "names to observe (they must exist in every member)"
            )
        record_nodes = list(record)
        record_idx: List[Dict[str, int]] = []
        for member in self.members:
            known = set(member.sim.circuit.nodes)
            missing = [n for n in record_nodes if n not in known]
            if missing:
                raise ValueError(
                    f"pack member {member.index} "
                    f"({member.sim.circuit.title or 'circuit'}) has no "
                    f"node(s) {missing}; record nodes must exist in every "
                    f"member"
                )
            record_idx.append(
                {n: member.sim.circuit.node_index(n) for n in record_nodes}
            )

        tele = get_telemetry()
        tele.incr("ragged.packs")
        tele.observe("ragged.pack_members", len(self.members))
        tele.observe("ragged.pack_corners", self.num_corners)

        num_steps = int(round(stop_time / timestep))
        times = np.arange(num_steps + 1) * timestep
        traces = [
            {
                node: np.empty((m.num_corners, num_steps + 1))
                for node in record_nodes
            }
            for m in self.members
        ]

        for member, trace, ridx in zip(self.members, traces, record_idx):
            member.x = member.sim.solve_dc(ics=ics)
            member.x_prev = member.x
            member.vc = (
                member.x[:, member.plan.cap_n1]
                - member.x[:, member.plan.cap_n2]
            )
            member.ic = np.zeros_like(member.vc)
            for node, idx in ridx.items():
                trace[node][:, 0] = member.x[:, idx]

        use_trap_default = method == "trap"
        mats_be = self._companions(timestep, use_trap=False)
        mats_trap = (
            self._companions(timestep, use_trap=True)
            if use_trap_default else mats_be
        )

        for k in range(1, num_steps + 1):
            t_new = times[k]
            # First step uses BE to avoid trapezoidal ringing from DC.
            trap_now = use_trap_default and k > 1
            mats = mats_trap if trap_now else mats_be
            guesses = [
                2.0 * m.x - m.x_prev if k > 1 else m.x for m in self.members
            ]
            for member in self.members:
                member.x_prev = member.x
            self._advance(
                times[k - 1], t_new, mats, trap_now, guesses, max_retries
            )
            for member, trace, ridx in zip(self.members, traces, record_idx):
                for node, idx in ridx.items():
                    trace[node][:, k] = member.x[:, idx]

        return [
            BatchedResult(
                time=times, voltages=trace, num_corners=m.num_corners
            )
            for m, trace in zip(self.members, traces)
        ]

    # -- assembly ------------------------------------------------------
    def _companions(
        self, h: float, use_trap: bool
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-member ``(base matrix, geq, B_pin)`` for a step of ``h``."""
        return [
            m.stepper._companion_matrix(h, use_trap) for m in self.members
        ]

    # -- stepping ------------------------------------------------------
    def _advance(
        self,
        t_from: float,
        t_to: float,
        mats: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        use_trap: bool,
        guesses: List[np.ndarray],
        max_retries: int,
    ) -> None:
        """Advance all members one step, bisecting globally on failure."""
        try:
            self._packed_step(t_to, mats, use_trap, guesses)
        except ConvergenceError:
            if max_retries <= 0:
                raise
            # Retry with two half steps using backward Euler (robust).
            tele = get_telemetry()
            tele.incr("step_retries")
            tele.incr("step_halvings", 2)
            h_half = (t_to - t_from) / 2.0
            mats_h = self._companions(h_half, use_trap=False)
            t_mid = t_from + h_half
            self._advance(
                t_from, t_mid, mats_h, False,
                [m.x for m in self.members], max_retries - 1,
            )
            self._advance(
                t_mid, t_to, mats_h, False,
                [m.x for m in self.members], max_retries - 1,
            )

    def _packed_step(
        self,
        t_new: float,
        mats: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        use_trap: bool,
        guesses: List[np.ndarray],
    ) -> None:
        """One accepted time step for every member (or ConvergenceError)."""
        rhs = [
            member.stepper._assemble_rhs(
                geq, bpin, use_trap, t_new, member.vc, member.ic
            )
            for member, (_, geq, bpin) in zip(self.members, mats)
        ]
        x_new = self._packed_newton(
            t_new, mats, rhs, guesses
        )
        for member, (_, geq, _b), (_, _, _, ieq), xn in zip(
            self.members, mats, rhs, x_new
        ):
            member.vc, member.ic = member.stepper._cap_state(
                xn, geq, ieq, member.vc, use_trap
            )
            member.x = xn

    def _packed_newton(
        self,
        t_new: float,
        mats: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        rhs: List[Tuple[np.ndarray, Optional[np.ndarray],
                        Optional[np.ndarray], np.ndarray]],
        guesses: List[np.ndarray],
    ) -> List[np.ndarray]:
        """The shared damped Newton loop over every member's corners.

        Per iteration each member linearizes and stamps through its own
        solve space (standalone arithmetic); the resulting systems are
        solved together, one stacked call per dimension bucket, and
        accepted through the stepper's shared
        :func:`~repro.spice.stepper.newton_update`.  Per-member active
        sets shrink independently, exactly as standalone runs would.
        """
        opts = self.options
        tele = get_telemetry()
        tele.incr("newton_solves")

        xs: List[np.ndarray] = []
        actives: List[np.ndarray] = []
        last_dv = [np.zeros(m.num_corners) for m in self.members]
        last_node = [
            np.zeros(m.num_corners, dtype=np.intp) for m in self.members
        ]
        for member, guess, (_, vpin, _, _) in zip(
            self.members, guesses, rhs
        ):
            x = guess.copy()
            x[:, 0] = 0.0
            space = member.space
            if vpin is not None and space.num_pinned:
                x[:, space.pinned_nodes] = vpin
            xs.append(x)
            if space.dim == 0:
                # Every node pinned; nothing to solve for this member.
                actives.append(np.empty(0, dtype=np.intp))
            else:
                actives.append(np.arange(member.num_corners))

        for _ in range(opts.max_iterations):
            if all(len(a) == 0 for a in actives):
                return xs
            tele.incr("newton_iterations")
            work: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
            for j, member in enumerate(self.members):
                active = actives[j]
                if len(active) == 0:
                    continue
                space = member.space
                plan = member.plan
                xa = xs[j][active]
                fets = member.sim.fets
                if fets is not None and plan.num_fets > 0:
                    fa = (
                        fets.select(active)
                        if len(active) < member.num_corners else fets
                    )
                    lin = plan.linearize_fets(fa, xa)
                else:
                    lin = None
                b_base, _, fet_vpin, _ = rhs[j]
                b = b_base[active]
                if lin is not None:
                    space.stamp_fet_rhs(b, lin)
                    if fet_vpin is not None:
                        space.stamp_fet_pin_rhs(b, lin, fet_vpin)
                a = stamped_matrix(space, mats[j][0], lin, active)
                work.append((j, xa, a, b))

            try:
                sols = self._bucketed_solve(work)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"singular MNA matrix during packed Newton solve "
                    f"(tran t={t_new:.3e})",
                    corners=self._global_corners(actives),
                ) from exc

            for (j, xa, _, _), sol in zip(work, sols):
                member = self.members[j]
                active = actives[j]
                x_new = xa.copy()
                x_new[:, member.space.kept] = sol
                xa, max_dv, worst, converged = newton_update(
                    xa, x_new, member.plan.num_nodes, opts
                )
                xs[j][active] = xa
                last_dv[j][active] = max_dv
                last_node[j][active] = worst
                actives[j] = active[~converged]

        if all(len(a) == 0 for a in actives):
            return xs
        tele.incr("newton_failures")
        failing = []
        for j, member in enumerate(self.members):
            names = member.plan.circuit.nodes
            for c in actives[j][:4]:
                failing.append(
                    f"member {j} corner {c}: "
                    f"max_dv={last_dv[j][c]:.3e} V at node "
                    f"{names[int(last_node[j][c])]!r}"
                )
        num_failing = sum(len(a) for a in actives)
        more = "" if num_failing <= 4 else f" (+{num_failing - 4} more)"
        raise ConvergenceError(
            f"packed Newton failed to converge after {opts.max_iterations} "
            f"iterations (tran t={t_new:.3e}): {num_failing} of "
            f"{self.num_corners} corners unconverged "
            f"[{', '.join(failing[:4])}{more}]",
            corners=self._global_corners(actives),
        )

    def _global_corners(self, actives: List[np.ndarray]) -> List[int]:
        return [
            int(member.offset + c)
            for member, active in zip(self.members, actives)
            for c in active
        ]

    # -- inner solves --------------------------------------------------
    def _bucketed_solve(
        self, work: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]
    ) -> List[np.ndarray]:
        """One stacked LAPACK call per distinct solve dimension.

        Stacking same-shape systems is bit-transparent per corner, so
        this path is what keeps packed trajectories identical to
        standalone ones.
        """
        by_dim: Dict[int, List[int]] = {}
        for i, (_, _, a, _) in enumerate(work):
            by_dim.setdefault(a.shape[-1], []).append(i)
        tele = get_telemetry()
        tele.incr("ragged.bucket_solves", len(by_dim))
        sols: List[Optional[np.ndarray]] = [None] * len(work)
        for idxs in by_dim.values():
            if len(idxs) == 1:
                i = idxs[0]
                sols[i] = batched_dense_solve(work[i][2], work[i][3])
                continue
            a_cat = np.concatenate([work[i][2] for i in idxs], axis=0)
            b_cat = np.concatenate([work[i][3] for i in idxs], axis=0)
            sol = batched_dense_solve(a_cat, b_cat)
            offset = 0
            for i in idxs:
                count = len(work[i][3])
                sols[i] = sol[offset:offset + count]
                offset += count
        return [s for s in sols if s is not None]


def ragged_transient(
    sims: Sequence[BatchedSimulation],
    stop_time: float,
    timestep: float,
    ics: Optional[Dict[str, float]] = None,
    record: Optional[Iterable[str]] = None,
    method: str = "trap",
    max_retries: int = 4,
) -> List[BatchedResult]:
    """Run several batched simulations through one shared time loop.

    The functional entry point over :class:`RaggedPack`; see its
    :meth:`~RaggedPack.transient` for semantics.  Every member's traces
    are bit-identical to calling ``sim.transient(...)`` on it alone.
    """
    return RaggedPack(sims).transient(
        stop_time, timestep, ics=ics, record=record,
        method=method, max_retries=max_retries,
    )
