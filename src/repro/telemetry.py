"""Process-wide telemetry registry for the simulation stack.

The screening engine's scaling work needs visibility into *where*
simulation time goes: how many Newton iterations each transient burns,
how often the integrator bisects a step, how many stacked linear solves
the Newton loop issues, and how well the solve cache is doing.  This
module is the one place those numbers accumulate.

This module *is* the canonical import path.  It lives at the top level
(dependency-free) so the :mod:`repro.spice` solver layers can import it
without touching the :mod:`repro.core` package and its heavier import
graph.

Design constraints:

* **Cheap.**  Counter increments sit inside the Newton loop; they are
  plain dict updates, no locks, no formatting.
* **Mergeable.**  Worker processes (the sharded wafer engine, the
  service's process transport) each accumulate into their own registry
  and ship a :meth:`Telemetry.snapshot` back
  (:func:`repro.service.procworker.traced`); the parent folds them
  together with :meth:`Telemetry.merge`.
* **Scoped.**  ``use_telemetry`` swaps the process-current registry for
  a ``with`` block, so benches can isolate one run's counters without
  threading a registry argument through every call site.

Counter names used by the stack (all optional -- absent means zero):

=========================  ====================================================
``newton_solves``          Calls into the shared Newton loop.
``newton_iterations``      Newton loop passes (summed over solves).
``newton_failures``        Solves that exhausted ``max_iterations``.
``step_retries``           Transient steps that failed and were retried.
``step_halvings``          Half-steps taken by the local bisection fallback.
``spice.steps_skipped``    Window steps a transient's early-stop predicate
                           left untaken (the stage-delay engine stops
                           once every delay's crossing is in).
``batched_solves``         Stacked LAPACK solve calls of the Newton loop
                           (scalar analyses are stacks of one).
``cache_hits``             Solve-cache lookups served from memory.
``cache_misses``           Solve-cache lookups that had to compute.
``cache_evictions``        Entries evicted by a bounded solve cache.
``cache_store_errors``     Persistent-cache corruption events (checksum
                           failures, sqlite errors; the store degrades to
                           recompute instead of crashing).
``measurements``           Simulated DeltaT measurements (screening flow).
``dies_screened``          Dies completed by the screening/wafer engines.
``dies_rejected``          Dies the pre-flight check disqualified before
                           dispatch (wafer engine).
``diag_emitted.<rule>``    Static-analysis diagnostics emitted, per rule id
                           (:mod:`repro.spice.staticcheck`).
``diag_suppressed.<rule>`` Emitted diagnostics a fail-fast gate let through
                           (severity below the gate's threshold).
``service.*``              Screening-service request accounting
                           (:mod:`repro.service`): ``submitted``,
                           ``completed``, ``rejected``, ``expired``,
                           ``failed``, ``batches``, ``batch_retries``,
                           ``coalesced``, ``engine_cache_evicted``,
                           ``pool_rebuilds`` (process-transport pools
                           replaced after a worker process died).
``service.cascade.<s>``    Completed service requests tagged with cascade
                           fidelity stage ``<s>`` (the ``cascade_stage``
                           request tag).
``cascade.stage.<s>``      TSV screening passes executed at cascade stage
                           ``<s>`` (:mod:`repro.cascade`).
``cascade.escalations.*``  Cascade escalations by reason: ``near_band``,
                           ``low_agreement``, ``novel``, ``preflight``.
``compiler.*``             DfT-architecture compiler accounting
                           (:mod:`repro.compiler`): ``compiled``,
                           ``failed``, ``verified_circuits``,
                           ``sweep_variants``, ``stream_requests``.
=========================  ====================================================

Histogram names used by the screening service (latency distributions;
``*_s`` suffixed names hold seconds, the rest are unitless):

==========================  ===================================================
``service.queue_wait_s``    Admission-queue residency per request.
``service.batch_form_s``    Micro-batcher residency (batch forming + dispatch
                            queue) per request.
``service.solve_s``         Engine solve time per batch.
``service.post_s``          Post-processing (result fan-out) per batch.
``service.total_s``         Submit-to-response latency per request.
``service.transport_s``     Pickle round trip minus the worker's solve time
                            per batch (process transport; zero under
                            threads).
``service.batch_occupancy`` Requests coalesced into each dispatched batch.
==========================  ===================================================
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, NamedTuple, Optional, Union

__all__ = [
    "METRICS",
    "Histogram",
    "MetricSpec",
    "Telemetry",
    "get_telemetry",
    "metric_spec",
    "register_metric",
    "use_telemetry",
    "telemetry_phase",
]


class MetricSpec(NamedTuple):
    """Declared shape of one metric family.

    Attributes:
        name: Exact metric name, or a family pattern ending in ``.*``
            (one wildcard tail segment, e.g. ``"diag_emitted.*"``).
        kind: ``"counter"`` (incremented) or ``"histogram"`` (observed).
        table: The reporting table that renders it
            (:func:`repro.analysis.reporting.telemetry_table` renders
            ``"telemetry"``, :func:`~repro.analysis.reporting.service_table`
            renders ``"service"``).
        description: One line of documentation.
        legacy: True for pre-registry flat names that predate the
            ``layer.metric`` namespacing convention; new metrics must
            be namespaced (enforced by the ``TEL`` lint pass).
    """

    name: str
    kind: str
    table: str
    description: str
    legacy: bool = False


#: Every metric name the stack may increment or observe.  The ``TEL``
#: pass of :mod:`repro.lint` statically checks each ``incr``/``observe``
#: call site against this registry, so an unregistered (or
#: kind-colliding) metric name is a lint error, not silent drift.
METRICS: Dict[str, MetricSpec] = {}


def register_metric(
    name: str,
    kind: str,
    table: str = "telemetry",
    description: str = "",
    legacy: bool = False,
) -> MetricSpec:
    """Declare a metric family; duplicate or colliding names are errors."""
    if kind not in ("counter", "histogram"):
        raise ValueError(f"unknown metric kind {kind!r}")
    if name in METRICS:
        raise ValueError(f"metric {name!r} registered twice")
    spec = MetricSpec(name, kind, table, description, legacy)
    METRICS[name] = spec
    return spec


def metric_spec(name: str) -> Optional[MetricSpec]:
    """Resolve ``name`` against the registry, honoring ``.*`` families.

    Exact entries win; otherwise the longest registered family pattern
    whose prefix matches is returned; ``None`` for unregistered names.
    """
    spec = METRICS.get(name)
    if spec is not None:
        return spec
    best: Optional[MetricSpec] = None
    for pattern, candidate in METRICS.items():
        if not pattern.endswith(".*"):
            continue
        prefix = pattern[: -1]  # keep the trailing dot
        if name.startswith(prefix) and len(name) > len(prefix):
            if best is None or len(pattern) > len(best.name):
                best = candidate
    return best


class Histogram:
    """A sparse log-bucketed histogram for latency-style observations.

    Buckets are geometric with four per decade (bucket ``k`` covers
    ``(10^((k-1)/4), 10^(k/4)]``), which resolves quantiles to ~78%
    relative error bounds over any value range without pre-declared
    edges -- the same shape Prometheus-style native histograms use.
    Exact ``count``/``total``/``min``/``max`` are tracked alongside, so
    means are exact and only the quantiles are bucket-quantized.

    Like the counters, observations are cheap (a ``math.log10`` and two
    dict updates) and snapshots merge across process boundaries.
    """

    _BUCKETS_PER_DECADE = 4

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: bucket index -> observation count; index 'lo' collects
        #: non-positive values (log-bucketing needs value > 0).
        self.buckets: Dict[int, int] = {}

    def _bucket_index(self, value: float) -> int:
        if value <= 0.0:
            return -(10**6)  # single underflow bucket
        return math.ceil(self._BUCKETS_PER_DECADE * math.log10(value))

    def _bucket_upper_edge(self, index: int) -> float:
        if index <= -(10**6):
            return 0.0
        return 10.0 ** (index / self._BUCKETS_PER_DECADE)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = self._bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Upper bucket edge at quantile ``q`` (conservative estimate).

        NaN with no observations; the exact ``max`` for the top bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return math.nan
        target = q * self.count
        cumulative = 0
        indices = sorted(self.buckets)
        for idx in indices:
            cumulative += self.buckets[idx]
            if cumulative >= target:
                if idx == indices[-1]:
                    return self.max
                return min(self._bucket_upper_edge(idx), self.max)
        return self.max

    # -- transport -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy safe to pickle across process boundaries."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(self.buckets),
        }

    def merge(self, other: "Union[Histogram, Mapping[str, Any]]") -> None:
        """Fold another histogram (or its :meth:`snapshot`) into this one."""
        if isinstance(other, Histogram):
            other = other.snapshot()
        self.count += int(other.get("count", 0))
        self.total += float(other.get("total", 0.0))
        self.min = min(self.min, float(other.get("min", math.inf)))
        self.max = max(self.max, float(other.get("max", -math.inf)))
        for idx, n in other.get("buckets", {}).items():
            idx = int(idx)  # JSON round-trips stringify the keys
            self.buckets[idx] = self.buckets.get(idx, 0) + int(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram count={self.count} mean={self.mean:.3g} "
            f"max={self.max:.3g}>"
        )


class Telemetry:
    """A bag of named counters plus per-phase wall-clock timers.

    Example:
        >>> tele = Telemetry()
        >>> tele.incr("cache_hits")
        >>> with tele.phase("characterize"):
        ...     pass
        >>> tele.counters["cache_hits"]
        1
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.phase_seconds: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- accumulation ----------------------------------------------------
    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (creating it empty)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str) -> Histogram:
        """Histogram ``name``; an empty one when nothing was observed."""
        return self.histograms.get(name, Histogram())

    def add_phase_time(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the ``with`` body under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase_time(name, time.perf_counter() - start)

    # -- queries ---------------------------------------------------------
    def count(self, name: str) -> float:
        return self.counters.get(name, 0)

    @property
    def cache_hit_rate(self) -> float:
        """Hits / lookups of the solve cache; 0.0 with no lookups."""
        hits = self.count("cache_hits")
        total = hits + self.count("cache_misses")
        return hits / total if total else 0.0

    # -- transport -------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A plain-dict copy safe to pickle across process boundaries.

        The ``histograms`` key only appears when something was observed,
        so counter-only payloads keep their historical two-key shape.
        """
        snap: Dict[str, Dict[str, Any]] = {
            "counters": dict(self.counters),
            "phase_seconds": dict(self.phase_seconds),
        }
        if self.histograms:
            snap["histograms"] = {
                name: hist.snapshot()
                for name, hist in self.histograms.items()
            }
        return snap

    def merge(self, other: "Telemetry | Mapping") -> None:
        """Fold another registry (or a :meth:`snapshot`) into this one."""
        if isinstance(other, Telemetry):
            counters: Mapping = other.counters
            phases: Mapping = other.phase_seconds
            histograms: Mapping = other.histograms
        else:
            counters = other.get("counters", {})
            phases = other.get("phase_seconds", {})
            histograms = other.get("histograms", {})
        for name, value in counters.items():
            self.incr(name, value)
        for name, value in phases.items():
            self.add_phase_time(name, value)
        for name, hist in histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)

    def reset(self) -> None:
        self.counters.clear()
        self.phase_seconds.clear()
        self.histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Telemetry counters={self.counters!r} "
            f"phases={self.phase_seconds!r}>"
        )


# ----------------------------------------------------------------------
# Metric declarations.  Flat (un-dotted) names are grandfathered as
# legacy; everything added since the registry exists is namespaced
# ``layer.metric``.  Keep this list in sync with the docstring tables
# above -- the TEL lint pass fails on any name missing here.
# ----------------------------------------------------------------------
for _name, _desc in [
    ("newton_solves", "calls into the shared Newton loop"),
    ("newton_iterations", "Newton loop passes, summed over solves"),
    ("newton_failures", "solves that exhausted max_iterations"),
    ("step_retries", "transient steps that failed and were retried"),
    ("step_halvings", "half-steps taken by the bisection fallback"),
    ("batched_solves", "stacked LAPACK solve calls of the Newton loop"),
    ("cache_hits", "solve-cache lookups served from memory"),
    ("cache_misses", "solve-cache lookups that had to compute"),
    ("cache_evictions", "entries evicted by a bounded solve cache"),
    ("cache_store_errors", "persistent-cache corruption events"),
    ("measurements", "simulated DeltaT measurements (screening flow)"),
    ("dies_screened", "dies completed by the screening/wafer engines"),
    ("dies_rejected", "dies disqualified by the pre-flight check"),
]:
    register_metric(_name, "counter", "telemetry", _desc, legacy=True)

for _name, _desc in [
    ("diag_emitted.*", "static-analysis diagnostics emitted, per rule id"),
    ("diag_suppressed.*", "emitted diagnostics a gate or allow-comment "
                          "let through"),
    ("measure.*", "measurement-envelope calls, per engine name"),
    ("spice.steps_skipped", "window steps an early-stop predicate left "
                            "untaken"),
    ("ragged.packs", "ragged cross-topology packs built"),
    ("ragged.bucket_solves", "dimension-bucketed stacked solves"),
    ("stagedelay.stacked_pairs", "on/bypassed pairs run for same-structure "
                                 "request groups"),
    ("stagedelay.stack_fallbacks", "stacked groups re-measured one by one "
                                   "after a step or DC solve failed"),
    ("wafer.dies_failed", "sharded dies whose worker process died, on "
                          "the die-by-die retry too"),
    ("cascade.stage.*", "TSV screening passes per cascade stage"),
    ("cascade.escalations.*", "cascade escalations by reason"),
    ("compiler.compiled", "die specs compiled into verified architectures"),
    ("compiler.failed", "compiles rejected (invalid spec or preflight "
                        "errors)"),
    ("compiler.verified_circuits", "group netlists preflighted by the "
                                   "compiler's verification pass"),
    ("compiler.sweep_variants", "spec variants compiled by the "
                                "design-space explorer"),
    ("compiler.stream_requests", "service requests drawn from compiled "
                                 "scenario streams"),
]:
    register_metric(_name, "counter", "telemetry", _desc)

for _name, _desc in [
    ("ragged.pack_members", "members coalesced into each ragged pack"),
    ("ragged.pack_corners", "stacked corners per ragged pack"),
]:
    register_metric(_name, "histogram", "telemetry", _desc)

for _name, _kind, _desc in [
    ("service.submitted", "counter", "requests admitted for processing"),
    ("service.completed", "counter", "requests answered OK"),
    ("service.rejected", "counter", "requests shed or refused"),
    ("service.expired", "counter", "requests answered past deadline"),
    ("service.failed", "counter", "requests whose solve raised"),
    ("service.batches", "counter", "dispatched coalesced batches"),
    ("service.batch_retries", "counter", "batches retried by decomposition"),
    ("service.coalesced", "counter", "requests sharing a coalesced solve"),
    ("service.cascade.*", "counter", "completions per cascade stage tag"),
    ("service.queue_wait_s", "histogram", "admission-queue residency"),
    ("service.batch_form_s", "histogram", "micro-batcher residency"),
    ("service.solve_s", "histogram", "engine solve time per batch"),
    ("service.post_s", "histogram", "result fan-out time per batch"),
    ("service.total_s", "histogram", "submit-to-response latency"),
    ("service.batch_occupancy", "histogram", "requests per dispatched batch"),
    ("service.family_span", "histogram", "exact-key groups per batch"),
    ("service.engine_cache_evicted", "counter",
     "engines evicted by the bounded rehydration cache"),
    ("service.transport_s", "histogram",
     "pickle round trip minus worker solve time per batch"),
    ("service.pool_rebuilds", "counter",
     "process pools rebuilt after a worker process died"),
]:
    register_metric(_name, _kind, "service", _desc)


#: The process-current registry; swap with :func:`use_telemetry`.
_CURRENT = Telemetry()


def get_telemetry() -> Telemetry:
    """The registry instrumented code should accumulate into."""
    return _CURRENT


@contextmanager
def use_telemetry(registry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Make ``registry`` (default: a fresh one) current for the block.

    Returns the registry, so call sites can read it afterwards:

        >>> with use_telemetry() as tele:
        ...     pass
        >>> tele.counters
        {}
    """
    global _CURRENT
    registry = registry if registry is not None else Telemetry()
    previous = _CURRENT
    _CURRENT = registry
    try:
        yield registry
    finally:
        _CURRENT = previous


@contextmanager
def telemetry_phase(name: str) -> Iterator[None]:
    """Time a phase against the *current* registry."""
    with get_telemetry().phase(name):
        yield
