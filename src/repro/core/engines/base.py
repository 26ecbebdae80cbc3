"""The formalized ``Engine`` contract every measurement backend implements.

The paper's entire evaluation reduces to one measurement -- ``DeltaT =
T1 - T2`` under a voltage plan -- so every backend (transistor-level,
stage-delay, analytic, and whatever plugs in next: sparse solver, GPU
batch, surrogate model) implements the same small surface:

* :meth:`Engine.period` and :meth:`Engine.delta_t` are required;
* everything else (Monte Carlo, parameter sweeps, pre-flight circuits,
  the oscillation-stop threshold) is a declared *capability*.  Callers
  introspect :class:`EngineCapabilities` instead of ``isinstance``- or
  ``hasattr``-probing concrete classes; an engine lacking a capability
  either delegates to a generic base-class implementation (scalar Monte
  Carlo loops, per-point sweeps) or raises a structured
  :class:`CapabilityError`.

The module also defines the shared measurement envelope:

* :class:`MeasurementRequest` / :class:`MeasurementResult` -- the
  engine-agnostic order/outcome pair (vdd, m, seed, variation,
  telemetry tags) the workload layers route through; and
* :class:`StopTimePolicy` -- one transient-window policy for every
  engine, replacing the drifted per-engine ``_stop_time`` signatures.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

if TYPE_CHECKING:
    from typing_extensions import TypeGuard

import numpy as np

from repro.core.engines.montecarlo import scalar_delta_t_mc
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice.montecarlo import ProcessSample, ProcessVariation
from repro.spice.netlist import Circuit
from repro.telemetry import get_telemetry

EngineT = TypeVar("EngineT", bound="Engine")


class DeltaTEngine(Protocol):
    """Anything that can produce DeltaT measurements for a TSV.

    The minimal duck-typed surface (kept for ad-hoc stubs in tests);
    real backends subclass :class:`Engine`, which subsumes it.
    """

    def delta_t(self, tsv: Tsv, m: int = 1) -> float: ...


@dataclass(frozen=True)
class EngineCapabilities:
    """What a backend implements natively (beyond ``period``/``delta_t``).

    Attributes:
        batched_mc: ``delta_t_mc`` is a native fast path (vectorized or
            closed-form), cheap enough for characterization loops.  When
            False the base class still provides ``delta_t_mc`` as a
            scalar per-sample loop -- correct, but workloads should not
            characterize through it.
        batched_requests: ``measure_batch`` natively *coalesces*
            compatible requests (same :meth:`Engine.batch_key`) into
            shared stacked solves, and ``batch_key`` answers non-None
            for coalescible requests.  When False the base class still
            provides ``measure_batch`` as a per-request loop, and
            ``batch_key`` answers None (nothing coalesces).
        family_requests: ``family_key`` answers a *coarse* key and
            ``measure_batch`` can share solves between requests whose
            family keys match but whose exact ``batch_key``s differ
            (the stage-delay engine stacks same-structure circuits by
            value).  When False ``family_key`` degenerates to
            ``batch_key`` (families are exact groups, nothing extra
            coalesces).
        parameter_sweeps: ``delta_t_sweep_ro``/``delta_t_sweep_rl`` are
            native batched sweeps (one stacked MNA run); otherwise the
            generic per-point fallback runs.
        preflight_circuits: the engine can emit the netlists it would
            simulate, for the static analyzer.
        oscillation_stop: the engine yields the leakage oscillation-stop
            threshold in closed form.
        picklable: instances survive ``pickle`` (required to ship an
            engine itself to worker processes; specs always pickle).
    """

    batched_mc: bool = False
    batched_requests: bool = False
    family_requests: bool = False
    parameter_sweeps: bool = False
    preflight_circuits: bool = False
    oscillation_stop: bool = False
    picklable: bool = True

    def as_dict(self) -> Dict[str, bool]:
        return {
            "batched_mc": self.batched_mc,
            "batched_requests": self.batched_requests,
            "family_requests": self.family_requests,
            "parameter_sweeps": self.parameter_sweeps,
            "preflight_circuits": self.preflight_circuits,
            "oscillation_stop": self.oscillation_stop,
            "picklable": self.picklable,
        }


class CapabilityError(RuntimeError):
    """A capability was requested from an engine that does not declare it.

    Attributes:
        engine: Registry name of the engine.
        capability: The :class:`EngineCapabilities` flag that is off.
    """

    def __init__(self, engine: str, capability: str, hint: str = ""):
        self.engine = engine
        self.capability = capability
        message = f"engine {engine!r} does not support {capability!r}"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


#: Method each capability flag promises, for duck-typed fallbacks.
_CAPABILITY_METHODS: Dict[str, str] = {
    "batched_mc": "delta_t_mc",
    "batched_requests": "measure_batch",
    "family_requests": "family_key",
    "parameter_sweeps": "delta_t_sweep_ro",
    "preflight_circuits": "preflight_circuits",
    "oscillation_stop": "oscillation_stop_r_leak",
}


def supports(engine: object, capability: str) -> bool:
    """True when ``engine`` natively provides ``capability``.

    Real :class:`Engine` subclasses answer from their declared
    :class:`EngineCapabilities`; duck-typed stubs fall back to the old
    ``hasattr`` probe so existing call sites keep working.
    """
    caps = getattr(engine, "capabilities", None)
    if isinstance(caps, EngineCapabilities):
        return bool(getattr(caps, capability))
    return hasattr(engine, _CAPABILITY_METHODS[capability])


def supports_batching(engine: object) -> bool:
    """The screening service's capability gate for request coalescing.

    True when ``engine`` can merge compatible measurement requests into
    shared stacked solves (``capabilities.batched_requests``).  Engines
    without it still serve every request correctly through the generic
    per-request ``measure_batch`` loop -- they just never coalesce.
    """
    return supports(engine, "batched_requests")


def is_engine(obj: object) -> "TypeGuard[Engine]":
    """True when ``obj`` is a real :class:`Engine` (not a duck-typed stub).

    The one sanctioned engine-type probe for code outside this package:
    workload/service/cascade layers branch between the full
    :class:`Engine` surface (capabilities, ``measure_batch``) and the
    minimal :class:`DeltaTEngine` duck type through this predicate
    instead of importing ``Engine`` for an ``isinstance`` check
    (``repro.lint`` rule CAP001).
    """
    return isinstance(obj, Engine)


@dataclass(frozen=True)
class StopTimePolicy:
    """One transient-window policy shared by every simulating engine.

    Replaces the drifted per-engine ``_stop_time`` signatures: the
    full-loop engine needs a window covering its measured cycles
    (:meth:`loop_window`), the stage engine a window covering one input
    pulse (:meth:`pulse_window`).  Both now read the same policy object,
    overridable per measurement via
    :attr:`MeasurementRequest.stop_policy`.

    Attributes:
        min_window: Floor on any loop window (gives a stuck loop time to
            prove it actually oscillates).
        extra_cycles: Safety cycles beyond the skipped + measured count.
        input_delay: Pulse start time in the stage test circuits.
        settle: Observation time past the pulse in the stage circuits.
    """

    min_window: float = 2e-9
    extra_cycles: int = 3
    input_delay: float = 0.15e-9
    settle: float = 1.0e-9

    def loop_window(self, period_estimate: float, cycles: int) -> float:
        """Window for a free-running loop measured over ``cycles``."""
        return max(self.min_window,
                   period_estimate * (cycles + self.extra_cycles))

    def pulse_window(self, pulse_width: float) -> float:
        """Window for a single-pulse stage measurement."""
        return self.input_delay + pulse_width + self.settle


#: The default policy (the calibrated values every engine shipped with).
DEFAULT_STOP_POLICY = StopTimePolicy()


@dataclass
class MeasurementRequest:
    """One engine-agnostic DeltaT measurement order.

    Attributes:
        tsv: The TSV under test.
        m: Segments carrying copies of ``tsv`` (paper's M).
        vdd: Supply override; ``None`` keeps the engine's configured
            supply.
        seed: Measurement-noise seed (same-die mismatch replay).
        variation: Process-variation model; ``None`` measures nominal.
        num_samples: ``None`` for one scalar measurement, else the Monte
            Carlo sample count.
        stop_policy: Per-measurement transient-window override.
        tags: Free-form telemetry tags carried through to the result.
    """

    tsv: Tsv
    m: int = 1
    vdd: Optional[float] = None
    seed: int = 0
    variation: Optional[ProcessVariation] = None
    num_samples: Optional[int] = None
    stop_policy: Optional[StopTimePolicy] = None
    tags: Dict[str, str] = field(default_factory=dict)


@dataclass
class MeasurementResult:
    """Outcome of one :meth:`Engine.measure` call.

    ``delta_t`` is NaN when the oscillator stuck (strong leakage /
    stuck-at-0); for Monte Carlo requests ``samples`` carries the full
    population and ``delta_t`` its first entry.
    """

    delta_t: float
    engine: str
    vdd: float
    m: int
    seed: int
    samples: Optional[np.ndarray] = None
    tags: Dict[str, str] = field(default_factory=dict)

    @property
    def stuck(self) -> bool:
        return not math.isfinite(self.delta_t)


class Engine(abc.ABC):
    """Base class of every DeltaT measurement backend.

    Subclasses are dataclasses carrying a
    :class:`~repro.core.segments.RingOscillatorConfig` plus their own
    knobs; they register under a string key with
    :func:`repro.core.engines.registry.register` and declare their
    native surface through :attr:`capabilities`.

    Required methods: :meth:`period` and :meth:`delta_t`.  The base
    class supplies generic fallbacks for Monte Carlo and parameter
    sweeps (scalar loops over the required methods) and raises
    :class:`CapabilityError` for surfaces that cannot be emulated
    (pre-flight netlists from a closed-form model, closed-form stop
    thresholds from a numeric simulator).
    """

    #: Registry key; set by the ``@register`` decorator.
    engine_name: ClassVar[str] = "engine"
    #: Declared native surface; overridden per subclass.
    capabilities: ClassVar[EngineCapabilities] = EngineCapabilities()

    #: Every engine carries a config; subclasses declare it as a field.
    config: RingOscillatorConfig
    #: Shared transient-window policy (a plain class attribute here;
    #: simulating subclasses redeclare it as a dataclass field).
    stop_policy: StopTimePolicy = DEFAULT_STOP_POLICY

    # -- required surface --------------------------------------------------
    @abc.abstractmethod
    def period(
        self,
        tsvs: Sequence[Tsv],
        enabled: Sequence[bool],
        sample: Optional[ProcessSample] = None,
    ) -> float:
        """Oscillation period in seconds for one enable mask."""

    @abc.abstractmethod
    def delta_t(
        self,
        tsv: Tsv,
        m: int = 1,
        variation: Optional[ProcessVariation] = None,
        seed: int = 0,
    ) -> float:
        """DeltaT = T1 - T2 for ``m`` copies of ``tsv`` under test."""

    # -- supply / policy rebinding -----------------------------------------
    def at_vdd(self: EngineT, vdd: float) -> EngineT:
        """This engine rebound to another supply voltage."""
        if vdd == self.config.vdd:
            return self
        rebound = replace(self, config=replace(self.config, vdd=vdd))  # type: ignore[type-var]
        return rebound

    def stop_time(self, period_estimate: Optional[float] = None) -> float:
        """Transient observation window for one measurement.

        With a period estimate the window covers the engine's measured
        cycles plus the policy margin; without one it covers a single
        input pulse.  This is the *one* stop-time entry point -- the old
        per-engine ``_stop_time`` signatures drifted apart.
        """
        if period_estimate is not None:
            return self.stop_policy.loop_window(
                period_estimate, self._measurement_cycles()
            )
        return self.stop_policy.pulse_window(self._pulse_width())

    def _measurement_cycles(self) -> int:
        """Cycles a loop window must cover (skip + measured)."""
        return 0

    def _pulse_width(self) -> float:
        """Input pulse width of the engine's stage test circuits."""
        return 0.0

    # -- unified measurement envelope --------------------------------------
    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        """Execute one :class:`MeasurementRequest` on this engine.

        Scalar requests map to :meth:`delta_t` (a stuck oscillator
        yields NaN rather than raising); Monte Carlo requests map to
        :meth:`delta_t_mc`.  Supply and stop-policy overrides rebind the
        engine for this call only.
        """
        engine: Engine = self
        if request.vdd is not None:
            engine = engine.at_vdd(request.vdd)
        if request.stop_policy is not None:
            engine = replace(engine, stop_policy=request.stop_policy)  # type: ignore[type-var]
        get_telemetry().incr(f"measure.{self.engine_name}")
        samples: Optional[np.ndarray] = None
        if request.num_samples is None:
            try:
                value = engine.delta_t(
                    request.tsv, m=request.m,
                    variation=request.variation, seed=request.seed,
                )
            except RuntimeError:
                value = math.nan  # stuck oscillator / no crossing
        else:
            samples = engine.delta_t_mc(
                request.tsv, request.variation or ProcessVariation(),
                request.num_samples, m=request.m, seed=request.seed,
            )
            value = float(samples[0]) if len(samples) else math.nan
        return MeasurementResult(
            delta_t=value,
            engine=self.engine_name,
            vdd=engine.config.vdd,
            m=request.m,
            seed=request.seed,
            samples=samples,
            tags=dict(request.tags),
        )

    def batch_key(self, request: MeasurementRequest) -> Optional[str]:
        """Compatibility key for request coalescing, or None.

        Two requests whose keys are equal (and non-None) may be answered
        from one shared stacked solve by :meth:`measure_batch` with
        bit-identical results to measuring them one at a time.  The key
        must therefore cover *everything* that shapes the solve except
        the per-request mismatch draw: the engine's own parameters, the
        effective supply and stop policy, and the circuit content (the
        service derives it from the netlist fingerprint).

        The base class answers None -- nothing coalesces -- which is
        correct for any engine that has not audited its solve path for
        batch-composition independence.
        """
        return None

    def family_key(self, request: MeasurementRequest) -> Optional[str]:
        """Coarse topology-family key for cross-topology packing, or None.

        Where :meth:`batch_key` fingerprints *everything* that shapes the
        solve -- including element values, so every distinct fault
        resistance is its own group -- the family key fingerprints only
        the engine parameters, the effective supply and stop policy, and
        the solver configuration.  Requests with equal (non-None) family
        keys but different exact keys reach one :meth:`measure_batch`
        call, which may share solves between them with results
        bit-identical to measuring each exact group alone.

        The base class degenerates to :meth:`batch_key`
        (``capabilities.family_requests`` is False here): families equal
        exact groups and nothing extra coalesces.
        """
        return self.batch_key(request)

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> "list[MeasurementResult]":
        """Execute several requests, coalescing where the engine can.

        Generic fallback: one :meth:`measure` call per request
        (``capabilities.batched_requests`` is False here).  Engines that
        can stack compatible requests into shared solves override this;
        results are bit-identical to the serial loop either way, in
        request order.
        """
        return [self.measure(request) for request in requests]

    # -- generic capability fallbacks --------------------------------------
    def delta_t_mc(
        self,
        tsv: Tsv,
        variation: ProcessVariation,
        num_samples: int,
        m: int = 1,
        seed: int = 0,
    ) -> np.ndarray:
        """Monte Carlo DeltaT samples.

        Generic fallback: one scalar :meth:`delta_t` per spawned child
        seed (``capabilities.batched_mc`` is False here).  Engines with
        a native batched or closed-form path override this.
        """
        return scalar_delta_t_mc(
            self, tsv, variation, num_samples, m=m, seed=seed
        )

    def _scalar_sweep(
        self, probes: Sequence[Tsv], m: int = 1
    ) -> np.ndarray:
        """Per-point scalar sweep; NaN marks stuck oscillators."""
        out = np.empty(len(probes))
        for i, probe in enumerate(probes):
            try:
                out[i] = self.delta_t(probe, m=m)
            except RuntimeError:
                out[i] = math.nan
        return out

    def delta_t_sweep_ro(
        self,
        r_open_values: Sequence[float],
        x: float = 0.5,
        tsv: Optional[Tsv] = None,
    ) -> np.ndarray:
        """DeltaT over a resistive-open sweep (Fig. 6).

        Generic per-point fallback; batched engines override it with a
        single stacked run.  Values are floored at 10 mOhm so ``R_O = 0``
        reproduces the paper's fault-free point.
        """
        base = tsv or Tsv()
        values = np.maximum(np.asarray(r_open_values, dtype=float), 1e-2)
        probes = [
            base.with_fault(ResistiveOpen(r_open=float(r), x=x))
            for r in values
        ]
        return self._scalar_sweep(probes)

    def delta_t_sweep_rl(
        self,
        r_leak_values: Sequence[float],
        tsv: Optional[Tsv] = None,
    ) -> np.ndarray:
        """DeltaT over a leakage sweep (Fig. 8); NaN = oscillation stop.

        Generic per-point fallback; batched engines override it.
        """
        base = tsv or Tsv()
        probes = [
            base.with_fault(Leakage(r_leak=float(r))) for r in r_leak_values
        ]
        return self._scalar_sweep(probes)

    def preflight_circuits(
        self, tsv: Optional[Tsv] = None
    ) -> Dict[str, Circuit]:
        """The netlists this engine would simulate, built but not run.

        For the static analyzer and the ``python -m repro.spice.staticcheck``
        CLI.  Only netlist-building engines can answer.
        """
        raise CapabilityError(
            self.engine_name, "preflight_circuits",
            "this backend builds no netlists to check",
        )

    def oscillation_stop_r_leak(self, vdd: Optional[float] = None) -> float:
        """Leakage below which the ring cannot oscillate at ``vdd``.

        Closed-form only; numeric engines bisect with
        :func:`repro.core.multivoltage.leakage_stop_threshold` instead.
        """
        raise CapabilityError(
            self.engine_name, "oscillation_stop",
            "use multivoltage.leakage_stop_threshold for numeric engines",
        )

    # -- misc --------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Registry row: name, class, supply, declared capabilities."""
        return {
            "name": self.engine_name,
            "class": type(self).__name__,
            "vdd": self.config.vdd,
            "capabilities": self.capabilities.as_dict(),
        }
