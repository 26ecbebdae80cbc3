"""Batched transient simulation: many parameter corners in one run.

The paper's Monte Carlo experiments (Figs. 7, 9, 10) simulate the same
circuit topology hundreds of times with per-transistor parameter
perturbations, and its sweeps (Figs. 6, 8) re-simulate with different
fault resistances.  Running those one at a time through the scalar engine
would be dominated by Python overhead, so this module simulates a *batch*
of S parameter corners simultaneously: the MNA matrices are stacked into
an ``(S, n, n)`` array and every Newton iteration advances all corners at
once through numpy's batched ``linalg.solve``.

Supported per-corner overrides:

* per-MOSFET threshold shifts and relative channel-length changes
  (the Monte Carlo mismatch model);
* per-resistor resistance values (fault sweeps: R_O, R_L);
* per-capacitor capacitance values (TSV capacitance variation).

The numerical method is *identical* to :mod:`repro.spice.transient` by
construction: both hand a :class:`repro.spice.stepper.TransientStepper`
to the shared :func:`repro.spice.stepper.integrate`, which handles
trapezoidal integration with a backward-Euler first step, damped Newton
with per-corner convergence masking, linear prediction of the next time
point, and step bisection on convergence failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.spice.mna import MnaSystem, NewtonOptions
from repro.spice.montecarlo import ProcessVariation, clamp_4sigma
from repro.spice.netlist import Circuit
from repro.spice.stamping import FetParams
from repro.spice.staticcheck import preflight_circuit
from repro.spice.stepper import TransientStepper, integrate, solve_dc_plan
from repro.spice.waveform import Waveform


@dataclass
class BatchParameters:
    """Per-corner parameter overrides for a :class:`BatchedSimulation`.

    All arrays are indexed ``[corner, device]`` where devices follow the
    circuit's registration order.  Missing entries mean "nominal".
    """

    num_corners: int
    mosfet_dvth: Optional[np.ndarray] = None       # (S, F) volts
    mosfet_dl_rel: Optional[np.ndarray] = None     # (S, F) relative
    resistor_values: Dict[str, np.ndarray] = field(default_factory=dict)
    capacitor_values: Dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def nominal(cls, num_corners: int) -> "BatchParameters":
        return cls(num_corners=num_corners)

    @classmethod
    def monte_carlo(
        cls,
        circuit: Circuit,
        variation: ProcessVariation,
        num_corners: int,
        seed: int = 0,
    ) -> "BatchParameters":
        """Draw per-transistor mismatch for every corner.

        Matches the distribution used by
        :class:`repro.spice.montecarlo.ProcessSample` (Gaussian, clamped
        at +-4 sigma).
        """
        rng = np.random.default_rng(seed)
        num_fets = len(circuit.mosfets)
        dvth = rng.normal(0.0, variation.sigma_vth, (num_corners, num_fets))
        dl = rng.normal(0.0, variation.sigma_leff_rel, (num_corners, num_fets))
        dvth = clamp_4sigma(dvth, variation.sigma_vth)
        dl = clamp_4sigma(dl, variation.sigma_leff_rel)
        return cls(num_corners=num_corners, mosfet_dvth=dvth, mosfet_dl_rel=dl)

    @classmethod
    def concat(cls, parts: "Sequence[BatchParameters]") -> "BatchParameters":
        """Stack parameter sets for the *same* circuit along the corner axis.

        The screening service coalesces compatible measurement requests
        by drawing each request's corners independently (exactly as the
        serial path would) and concatenating them into one stacked run;
        per-corner results are bit-identical to solving each part alone
        because the Newton masking and the batched LAPACK solve are
        per-corner independent.  (The stepper's global bisection retry
        and the DC gmin ladder are batch-composition dependent, but they
        only engage on convergence failure -- callers that need strict
        identity under failure re-solve parts individually.)

        All parts must override the same mosfet arrays and the same
        resistor/capacitor names; mixing overridden and nominal parts
        would need the circuit's nominal values to fill the gaps, which
        parameters alone cannot know.
        """
        if not parts:
            raise ValueError("concat needs at least one BatchParameters")
        first = parts[0]
        for i, p in enumerate(parts[1:], start=1):
            for attr in ("mosfet_dvth", "mosfet_dl_rel"):
                a0 = getattr(first, attr)
                ai = getattr(p, attr)
                if (ai is None) != (a0 is None):
                    raise ValueError(
                        f"part {i} {'omits' if ai is None else 'overrides'} "
                        f"{attr} while part 0 does not; parts mix overridden "
                        f"and nominal mosfets"
                    )
                if ai is not None and ai.shape[1:] != a0.shape[1:]:
                    raise ValueError(
                        f"part {i} has {attr} for {ai.shape[1]} mosfets but "
                        f"part 0 has {a0.shape[1]}; parts target different "
                        f"circuits"
                    )
            for attr, kind in (
                ("resistor_values", "resistors"),
                ("capacitor_values", "capacitors"),
            ):
                names_i = set(getattr(p, attr))
                names_0 = set(getattr(first, attr))
                if names_i != names_0:
                    delta = sorted(names_i ^ names_0)
                    raise ValueError(
                        f"part {i} overrides different {kind} than part 0 "
                        f"(mismatched: {delta}); all parts must override the "
                        f"same named elements"
                    )
        num_corners = sum(p.num_corners for p in parts)
        dvth = (
            np.concatenate([p.mosfet_dvth for p in parts], axis=0)
            if first.mosfet_dvth is not None else None
        )
        dl_rel = (
            np.concatenate([p.mosfet_dl_rel for p in parts], axis=0)
            if first.mosfet_dl_rel is not None else None
        )
        resistors = {
            name: np.concatenate([p.resistor_values[name] for p in parts])
            for name in first.resistor_values
        }
        capacitors = {
            name: np.concatenate([p.capacitor_values[name] for p in parts])
            for name in first.capacitor_values
        }
        return cls(
            num_corners=num_corners,
            mosfet_dvth=dvth,
            mosfet_dl_rel=dl_rel,
            resistor_values=resistors,
            capacitor_values=capacitors,
        )

    def _check_shape(self, name: str, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_corners,):
            raise ValueError(
                f"override for {name!r} must have shape ({self.num_corners},)"
            )
        return values

    def with_resistor(self, name: str, values: np.ndarray) -> "BatchParameters":
        """Return a copy of self with a per-corner resistor override added."""
        values = self._check_shape(name, values)
        return replace(
            self, resistor_values={**self.resistor_values, name: values}
        )

    def with_capacitor(self, name: str, values: np.ndarray) -> "BatchParameters":
        """Return a copy of self with a per-corner capacitor override added."""
        values = self._check_shape(name, values)
        return replace(
            self, capacitor_values={**self.capacitor_values, name: values}
        )


@dataclass
class BatchedResult:
    """Transient traces for every corner: ``voltages[node]`` is (S, T)."""

    time: np.ndarray
    voltages: Dict[str, np.ndarray]
    num_corners: int

    def waveform(self, node: str, corner: int) -> Waveform:
        return Waveform(self.time, self.voltages[node][corner],
                        name=f"{node}[{corner}]")

    def waveforms(self, node: str) -> List[Waveform]:
        return [self.waveform(node, s) for s in range(self.num_corners)]


class BatchedSimulation:
    """Compiles a circuit plus per-corner overrides into stacked MNA form."""

    def __init__(
        self,
        circuit: Circuit,
        params: BatchParameters,
        options: Optional[NewtonOptions] = None,
        preflight: bool = True,
    ):
        self.circuit = circuit
        self.params = params
        self.options = options or NewtonOptions()
        self.num_corners = params.num_corners
        # The scalar system provides the compiled plan.
        self.system = MnaSystem(circuit, self.options)
        self.plan = self.system.plan
        self.size = self.plan.size
        self.num_nodes = self.plan.num_nodes
        if preflight:
            # Fail fast on ill-posed netlists before any corner is
            # compiled or solved: one bad topology would otherwise burn
            # a whole stacked Newton run before surfacing.
            preflight_circuit(
                circuit, self.plan,
                context=f"batched simulation of "
                        f"{circuit.title or 'circuit'} "
                        f"({self.num_corners} corners)",
            )
        self._compile()

    # ------------------------------------------------------------------
    def _compile(self) -> None:
        plan = self.plan
        circuit = self.circuit
        params = self.params
        s = self.num_corners

        # Resistor conductances: shared across corners unless overridden
        # (the Newton solve broadcasts a shared base matrix).
        if params.resistor_values:
            res_names = [r.name for r in circuit.resistors]
            res_g = np.broadcast_to(
                plan.res_g0, (s, plan.num_resistors)
            ).copy()
            for name, values in params.resistor_values.items():
                try:
                    idx = res_names.index(name)
                except ValueError:
                    raise KeyError(f"no resistor named {name!r} in circuit")
                res_g[:, idx] = 1.0 / values
            self.res_g: Optional[np.ndarray] = res_g
        else:
            self.res_g = None

        # Capacitances: shared unless overridden.
        if params.capacitor_values:
            cap_names = [c.name for c in circuit.capacitors]
            cap_c = np.broadcast_to(plan.cap_c0, (s, plan.num_caps)).copy()
            for name, values in params.capacitor_values.items():
                try:
                    idx = cap_names.index(name)
                except ValueError:
                    raise KeyError(f"no capacitor named {name!r} in circuit")
                cap_c[:, idx] = values
            self.cap_c = cap_c
        else:
            self.cap_c = plan.cap_c0

        # MOSFET parameters (possibly per-corner).
        self.fets: Optional[FetParams] = (
            plan.fet_params(params.mosfet_dvth, params.mosfet_dl_rel)
            if plan.num_fets
            else None
        )

    # ------------------------------------------------------------------
    def solve_dc(
        self,
        ics: Optional[Dict[str, float]] = None,
        gmin_stepping: bool = True,
    ) -> np.ndarray:
        """Batched DC solve with gmin stepping fallback; returns (S, size)."""
        space = self.plan.reduced
        return solve_dc_plan(
            space,
            self.fets,
            self.options,
            num_corners=self.num_corners,
            t=0.0,
            ics=ics,
            a_linear=space.assemble_linear(self.res_g),
            gmin_stepping=gmin_stepping,
        )

    def stepper(self) -> TransientStepper:
        """This batch's transient system in the condensed space.

        Stepping runs there: source-driven rails and inputs are
        eliminated, shrinking every per-step stacked solve.
        """
        space = self.plan.condensed
        return TransientStepper(
            space=space,
            fets=self.fets,
            cap_c=self.cap_c,
            a_linear=space.assemble_linear(self.res_g),
            bpin_linear=space.bpin_linear(self.res_g),
            options=self.options,
            num_corners=self.num_corners,
        )

    def transient(
        self,
        stop_time: float,
        timestep: float,
        ics: Optional[Dict[str, float]] = None,
        record: Optional[Iterable[str]] = None,
        method: str = "trap",
        max_retries: int = 4,
    ) -> BatchedResult:
        """Run the batched transient; see :func:`repro.spice.transient.transient`.

        ``max_retries=0`` turns off both fallbacks that act on every
        corner at once -- step bisection and the DC gmin ladder -- so a
        failing corner raises :class:`~repro.spice.mna.ConvergenceError`
        rather than changing its neighbours' trajectories.
        """
        x = self.solve_dc(ics=ics, gmin_stepping=max_retries > 0)
        record_nodes = list(record) if record is not None else self.circuit.nodes
        record_idx = {n: self.circuit.node_index(n) for n in record_nodes}
        times, (traces,) = integrate(
            [self.stepper()], [x], [record_idx], stop_time, timestep,
            method=method, max_retries=max_retries,
        )
        return BatchedResult(
            time=times, voltages=traces, num_corners=self.num_corners
        )
