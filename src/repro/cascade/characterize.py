"""Shared fault-free characterization used by the flow and the cascade.

:class:`~repro.workloads.flow.ScreeningFlow` and the cascade's
escalation stages characterize the *same* way -- a Monte Carlo DeltaT
population over mismatch plus healthy TSV capacitance spread, banded
with the counter quantization guard -- and every chunk goes through the
content-addressed solve cache under the *same keys*.  Keeping the logic
here (and having the flow call it) is what makes stage-0 cascade bands
bit-identical to the plain flow's bands, and what lets a
:class:`~repro.spice.cache.PersistentSolveCache` turn a second wafer
run's characterization into pure cache hits.

Engines that do not support batched Monte Carlo (the transistor
backend: its own docstring says to characterize with a cheaper engine)
get a **transferred** band instead: the previous stage's band shifted
by the nominal DeltaT offset between the two engines, inheriting the
previous spread.  Two scalar solves instead of hundreds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engines.base import MeasurementRequest, is_engine
from repro.core.session import ReferenceBand
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice import cache as solve_cache
from repro.spice.montecarlo import ProcessVariation

from repro.cascade.predictor import TailFit

__all__ = [
    "StageBand",
    "characterization_cap_factors",
    "characterization_samples",
    "characterize_stage",
    "default_calibration_signatures",
    "measure_pending",
    "quant_guard",
    "transfer_stage",
]


@dataclass(frozen=True)
class StageBand:
    """One stage's acceptance band plus its predictive fit, per supply.

    Picklable: the wafer engine ships the parent's stage bands to its
    worker processes alongside the flow bands.
    """

    band: ReferenceBand
    fit: TailFit
    guard: float


def characterization_cap_factors(
    seed: int,
    cap_variation_rel: float,
    num_samples: int,
) -> np.ndarray:
    """Healthy TSV capacitance scale factors for the MC population.

    Deterministic in ``seed`` and shared across the plan's voltages --
    identical to what :class:`ScreeningFlow` has always drawn, so the
    solve-cache keys match between flow and cascade.
    """
    rng = np.random.default_rng(seed ^ 0x5F5F)
    factors = 1.0 + rng.normal(
        0.0, cap_variation_rel, max(num_samples // 10, 3)
    )
    return np.clip(factors, 0.8, 1.2)


def characterization_samples(
    engine: object,
    variation: ProcessVariation,
    num_samples: int,
    seed: int,
    cap_factors: np.ndarray,
) -> np.ndarray:
    """Memoized fault-free DeltaT MC population for one engine.

    Each capacitance-factor chunk is served from the current solve
    cache under the flow's historical ``characterize.delta_t_mc`` key
    schema; a persistent cache makes repeat characterizations (other
    workers, later runs) free.
    """
    chunks = []
    per_factor = max(num_samples // len(cap_factors), 1)
    for k, factor in enumerate(cap_factors):
        probe = Tsv(params=Tsv().params.scaled(float(factor)))
        chunk_seed = seed + 911 * k
        key = solve_cache.fingerprint(
            "characterize.delta_t_mc", engine, probe,
            variation, per_factor, chunk_seed,
        )
        chunks.append(solve_cache.memoize(
            key,
            lambda e=engine, p=probe, n=per_factor, s=chunk_seed:
                e.delta_t_mc(p, variation, n, seed=s),  # type: ignore[attr-defined]
        ))
    return np.concatenate(chunks)


def quant_guard(engine: object, group_size: int, window: float) -> float:
    """Counter quantization guard: two estimates, each off by E=T^2/t.

    The all-bypassed T2 reference period is shared by every die tested
    with the same engine and group size, so it is served from the solve
    cache (same key the flow has always used).
    """
    key = solve_cache.fingerprint(
        "characterize.t2_period", engine, group_size
    )

    def compute() -> float:
        try:
            return float(engine.period(  # type: ignore[attr-defined]
                [Tsv()] * group_size, [False] * group_size
            ))
        except Exception:
            return 2e-9
    typical = solve_cache.memoize(key, compute)
    if not math.isfinite(typical):
        typical = 2e-9
    return 2.0 * typical**2 / window


def characterize_stage(
    engine: object,
    variation: ProcessVariation,
    num_samples: int,
    seed: int,
    cap_factors: np.ndarray,
    group_size: int,
    window: float,
) -> StageBand:
    """Band + predictive fit via batched Monte Carlo (cheap engines)."""
    samples = characterization_samples(
        engine, variation, num_samples, seed, cap_factors
    )
    guard = quant_guard(engine, group_size, window)
    return StageBand(
        band=ReferenceBand.from_samples(samples, guard=guard),
        fit=TailFit.from_samples(samples),
        guard=guard,
    )


def default_calibration_signatures() -> Dict[str, List[Tsv]]:
    """The built-in fault-signature probe grids, severity-ordered.

    Three signatures spanning what the defect generator injects:

    * ``healthy`` -- fault-free TSVs across the capacitance-factor
      clip range, so process spread matches a calibrated curve instead
      of needing a special case;
    * ``void`` -- resistive opens over a log grid of R_O at mid-depth;
    * ``leak`` -- pinhole leakage over a log-ish grid of R_L, dense
      around the severities where the ring stops oscillating at low
      VDD (the region where engine responses diverge hardest).

    Each probe costs one memoized nominal solve per (stage, voltage);
    a persistent solve cache makes recalibration free.
    """
    nominal = Tsv().params
    return {
        "healthy": [
            Tsv(params=nominal.scaled(k))
            for k in (0.85, 0.90, 0.95, 1.0, 1.05, 1.10, 1.15)
        ],
        "void": [
            Tsv(fault=ResistiveOpen(r_open=r, x=0.5))
            for r in (100.0, 300.0, 900.0, 2700.0, 8100.0, 24300.0)
        ],
        "leak": [
            Tsv(fault=Leakage(r_leak=r))
            for r in (800.0, 1200.0, 1800.0, 2700.0, 4000.0, 6000.0,
                      9000.0, 14000.0, 20000.0)
        ],
    }


def measure_pending(
    engine: object,
    pending: Sequence[Tuple[Tsv, int]],
    variation: Optional[ProcessVariation] = None,
    memo: Optional[str] = None,
) -> List[float]:
    """DeltaT of every pending ``(tsv, seed)`` at one engine, breadth-first.

    Cache hits are served first; the misses go to the engine as one
    :meth:`~repro.core.engines.base.Engine.measure_batch` call, so
    same-structure TSVs share one stacked solve pair (engines without
    the :class:`~repro.core.engines.base.Engine` surface are measured
    one by one, as ``measure`` would).  Each result is memoized under
    the key the one-TSV path has always used:

    * deterministic measurements (``variation=None``) under
      ``("measure.deterministic", engine, tsv, 1)`` -- seed-free, and
      shared by the flow, the cascade and calibration, so identical
      TSVs cost one solve per engine regardless of die, seed or caller;
    * noisy measurements under ``(memo, engine, tsv, 1, variation,
      seed)`` when ``memo`` names a key family (the cascade's escalated
      ``"cascade.measure"``), and not at all otherwise.

    Every measurement is of one TSV (``m=1``).  A ring that cannot
    oscillate yields ``NaN``.
    """
    if variation is None:
        keys: Optional[List[str]] = [
            solve_cache.fingerprint("measure.deterministic", engine, tsv, 1)
            for tsv, _ in pending
        ]
    elif memo is not None:
        keys = [
            solve_cache.fingerprint(memo, engine, tsv, 1, variation, seed)
            for tsv, seed in pending
        ]
    else:
        keys = None

    def compute(positions: List[int]) -> List[float]:
        chosen = [pending[p] for p in positions]
        if is_engine(engine):
            results = engine.measure_batch([
                MeasurementRequest(
                    tsv=tsv, m=1, seed=seed, variation=variation,
                    num_samples=1 if variation is not None else None,
                )
                for tsv, seed in chosen
            ])
            return [float(result.delta_t) for result in results]
        return [_duck_delta_t(engine, tsv, seed, variation)
                for tsv, seed in chosen]

    if keys is None:
        return compute(list(range(len(pending))))
    return [float(v) for v in solve_cache.memoize_many(keys, compute)]


def _duck_delta_t(
    engine: object,
    tsv: Tsv,
    seed: int,
    variation: Optional[ProcessVariation],
) -> float:
    """One DeltaT from a duck-typed engine, the way ``measure`` maps it."""
    if variation is None:
        try:
            return float(engine.delta_t(tsv, m=1))  # type: ignore[attr-defined]
        except RuntimeError:
            return math.nan
    return float(engine.delta_t_mc(  # type: ignore[attr-defined]
        tsv, variation, 1, m=1, seed=seed
    )[0])


def _nominal_delta_t(engine: object, seed: int) -> float:
    """Memoized single fault-free DeltaT solve at nominal parameters."""
    key = solve_cache.fingerprint("cascade.nominal_delta_t", engine, seed)
    if is_engine(engine):
        return float(solve_cache.memoize(
            key, lambda: engine.delta_t(Tsv(), m=1, seed=seed)
        ))
    return float(solve_cache.memoize(
        key, lambda: engine.delta_t(Tsv())  # type: ignore[attr-defined]
    ))


def transfer_stage(
    engine: object,
    reference: StageBand,
    reference_engine: object,
    seed: int,
    group_size: int,
    window: float,
) -> StageBand:
    """Band transfer for engines without batched Monte Carlo.

    Shift ``reference``'s band by the nominal fault-free DeltaT offset
    between the two engines and inherit its spread: the per-engine band
    centers differ (model offsets), the mismatch-driven width barely
    does, and two memoized scalar solves replace a full MC population.
    The transferred band swaps the reference guard for this engine's
    own quantization guard.
    """
    nominal_new = _nominal_delta_t(engine, seed)
    nominal_ref = _nominal_delta_t(reference_engine, seed)
    offset = nominal_new - nominal_ref
    guard = quant_guard(engine, group_size, window)
    low = (reference.band.low + reference.guard) + offset - guard
    high = (reference.band.high - reference.guard) + offset + guard
    fit = TailFit(
        center=reference.fit.center + offset,
        sigma=reference.fit.sigma,
        num_samples=reference.fit.num_samples,
    )
    return StageBand(band=ReferenceBand(low, high), fit=fit, guard=guard)
