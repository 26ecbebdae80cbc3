"""Circuit-simulation substrate: a small SPICE-like engine built on numpy.

This package replaces the HSPICE runs of the paper.  It provides:

* :mod:`repro.spice.netlist` -- the :class:`Circuit` container.
* :mod:`repro.spice.elements` -- passive elements and independent sources.
* :mod:`repro.spice.mosfet` -- an EKV-style MOSFET model that is smooth
  across weak/moderate/strong inversion (required for the multi-voltage
  experiments of the paper, which operate gates between 0.7 V and 1.2 V
  with |Vth| around 0.46 V).
* :mod:`repro.spice.mna` -- the compiled MNA system facade and Newton
  options.
* :mod:`repro.spice.stamping` -- the assembly layer: compiled
  :class:`StampPlan` scatter indices shared by scalar and batched runs.
* :mod:`repro.spice.linalg` -- the linear-solve layer: one stacked
  dense assemble-and-solve for every Newton system, scalar (a stack of
  one) or batched.
* :mod:`repro.spice.stepper` -- the stepper layer: the one Newton loop,
  DC solve, and trap/BE time loop that scalar, batched and ragged
  transients all run through.
* :mod:`repro.spice.ragged` -- ragged cross-topology batch packing:
  mixed circuits advanced through one shared time loop with
  dimension-bucketed (bit-identical) stacked solves.  The measurement
  path stacks same-structure circuits by value in one
  :class:`~repro.spice.batch.BatchedSimulation` instead.
* :mod:`repro.spice.dc` -- DC operating-point analysis.
* :mod:`repro.spice.transient` -- backward-Euler / trapezoidal transient
  analysis.
* :mod:`repro.spice.waveform` -- waveform post-processing (crossings,
  periods, propagation delays).
* :mod:`repro.spice.montecarlo` -- the process-variation model used by the
  paper's Monte Carlo runs (3-sigma Vth and 3-sigma Leff = 10%).
* :mod:`repro.spice.cache` -- the content-addressed solve cache that
  memoizes characterization results across dies and wafers.
* :mod:`repro.spice.staticcheck` -- the pre-flight static analyzer:
  rule-based netlist checks (floating nodes, source loops, structural
  singularity) run before any Newton iteration.

Everything is expressed in SI units: volts, amperes, ohms, farads, seconds.
"""

from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    DC,
    PieceWiseLinear,
    Pulse,
    Resistor,
    Step,
    VoltageSource,
)
from repro.spice.mosfet import Mosfet, MosfetModel, NMOS_45LP, PMOS_45LP
from repro.spice.netlist import Circuit, GROUND
from repro.spice.dc import dc_operating_point
from repro.spice.transient import TransientResult, transient
from repro.spice.waveform import Waveform
from repro.spice.montecarlo import (
    MonteCarloEngine,
    ProcessSample,
    ProcessVariation,
    NOMINAL_PROCESS,
)
from repro.spice.batch import BatchParameters, BatchedSimulation
from repro.spice.cache import (
    SolveCache,
    cache_disabled,
    circuit_fingerprint,
    fingerprint,
    get_cache,
    use_cache,
)
from repro.spice.ragged import (
    RaggedPack,
    TopologyFamily,
    ragged_transient,
)
from repro.spice.stamping import StampPlan
from repro.spice.staticcheck import (
    RULES,
    RuleSpec,
    check_circuit,
    check_die,
    check_tsv,
    preflight_circuit,
    registered_rules,
)
from repro.spice.stepper import TransientStepper
from repro.spice.sweep import sweep_parameter

__all__ = [
    "BatchParameters",
    "BatchedSimulation",
    "RaggedPack",
    "StampPlan",
    "TopologyFamily",
    "TransientStepper",
    "ragged_transient",
    "Capacitor",
    "Circuit",
    "CurrentSource",
    "DC",
    "GROUND",
    "MonteCarloEngine",
    "Mosfet",
    "MosfetModel",
    "NMOS_45LP",
    "NOMINAL_PROCESS",
    "PMOS_45LP",
    "PieceWiseLinear",
    "ProcessSample",
    "ProcessVariation",
    "Pulse",
    "RULES",
    "Resistor",
    "RuleSpec",
    "SolveCache",
    "Step",
    "TransientResult",
    "VoltageSource",
    "Waveform",
    "cache_disabled",
    "check_circuit",
    "check_die",
    "check_tsv",
    "circuit_fingerprint",
    "dc_operating_point",
    "fingerprint",
    "get_cache",
    "preflight_circuit",
    "registered_rules",
    "sweep_parameter",
    "transient",
    "use_cache",
]
