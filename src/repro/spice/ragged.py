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
their own Newton active sets.  A pack is the stepper's time loop,
:func:`repro.spice.stepper.integrate`, over several systems: they share
one time grid, one trap/BE schedule, one step-bisection ladder and one
Newton loop, whose inner linear solves group the active corners by
solve-space dimension into one stacked LAPACK call each.  Per-corner
``gesv`` is independent of its stack neighbours, so every member's
trajectory is **bit-identical** to running it alone through
:meth:`BatchedSimulation.transient` -- the property the screening
service's coalescing contract requires.

No integrator logic lives here: this module validates the pack, solves
each member's DC start, records telemetry and names topology families.

The stepper's documented batch-composition caveat extends to packs: the
global step-bisection retry and per-pack Newton iteration budget engage
on *any* member's convergence failure, so failure handling (only) can
couple members.  A failing pack raises one
:class:`~repro.spice.mna.ConvergenceError` whose corners are numbered
across members in order.  Callers needing strict per-member behaviour
under failure re-solve members individually -- exactly the service's
retry-by-decomposition path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.spice.batch import BatchedResult, BatchedSimulation
from repro.spice.cache import structure_fingerprint
from repro.spice.mna import NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.stamping import StampPlan
from repro.spice.stepper import integrate
from repro.telemetry import get_telemetry

__all__ = ["RaggedPack", "TopologyFamily", "ragged_transient"]


@dataclass(frozen=True)
class TopologyFamily:
    """Canonical structural descriptor of one circuit topology.

    Two circuits share a family exactly when their element names, node
    wiring and build order coincide -- element *values* (resistances,
    capacitances, device widths, source levels) are deliberately
    excluded (:func:`~repro.spice.cache.structure_fingerprint` with
    every value masked), which is what separates a family from a
    circuit fingerprint: every resistive open of a given subnet shape is
    one family but a distinct exact fingerprint.  The descriptor also
    records the condensed solve dimension, which picks the topology's
    solve bucket inside a ragged pack.

    Attributes:
        title: The circuit's title (informational only; not part of
            equality -- ``signature`` carries the structure).
        num_nodes: Node count including ground.
        dim: Condensed solve-space dimension (the packed matrix block
            this topology contributes).
        num_resistors: Resistor count.
        num_caps: Capacitor count.
        num_fets: MOSFET count.
        signature: The circuit's value-masked
            :func:`~repro.spice.cache.structure_fingerprint`.
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
        signature = structure_fingerprint(circuit)
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
    """One simulation inside a pack: its family and transient system."""

    def __init__(self, index: int, sim: BatchedSimulation):
        self.index = index
        self.sim = sim
        self.family = TopologyFamily.of(sim.circuit, sim.plan)
        self.stepper = sim.stepper()


class RaggedPack:
    """A compiled pack of :class:`BatchedSimulation` members.

    Construction validates that members can share one integration
    (identical Newton options) and compiles each member's transient
    system.

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
        self.members = [_PackMember(i, sim) for i, sim in enumerate(sims)]
        self.num_corners = sum(sim.num_corners for sim in sims)

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
        step, trapezoidal after, linear prediction, and step bisection
        -- except the bisection ladder is global (a step that fails for
        any member is halved for all, as for the corners of a batch).

        Args:
            record: Node names recorded for every member; ``None``
                records the *intersection* impossible to define across
                topologies, so it is rejected -- packs must name their
                observation nodes explicitly.

        Returns:
            One :class:`BatchedResult` per member, in input order.
        """
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

        times, traces = integrate(
            [m.stepper for m in self.members],
            [m.sim.solve_dc(ics=ics) for m in self.members],
            record_idx, stop_time, timestep,
            method=method, max_retries=max_retries,
        )
        return [
            BatchedResult(
                time=times, voltages=trace, num_corners=m.sim.num_corners
            )
            for m, trace in zip(self.members, traces)
        ]


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
