"""Statistical acceptance harness: cascade escape rate vs the oracle.

Screens a seeded ≥500-die wafer population twice -- once through the
multi-fidelity cascade, once with a full-fidelity flow running the
ladder's top engine on every TSV -- and asserts the exact
(Clopper-Pearson) binomial upper bound on the observed die escape rate
stays within the configured budget ``epsilon``.

An *escape* is a die the cascade ships that the top-stage oracle would
reject.  Faults below the top engine's own detection threshold are
**not** escapes -- the bound is relative to the top-stage verdict, not
to ground truth (the paper's band test has its own physical escape
floor; the cascade must not add to it).

The population runs in deterministic measurement mode with zero
population capacitance spread, so every solve is memoized under
seed-free content keys: the cascade's escalations and the oracle's
measurements of the same TSV share one solve, which is what makes a
700-die double screen affordable (~half a minute instead of hours).

Set ``REPRO_CASCADE_TRANSISTOR=1`` to also run the (much slower)
three-stage variant whose oracle is the transistor-level engine -- the
full transistor-level verdict of the issue's acceptance criteria; CI's
cascade-smoke job enables it.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.cascade import CascadeConfig, binomial_upper_bound
from repro.core.engines.registry import spec
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.workloads.flow import ScreeningFlow
from repro.workloads.generator import DefectStatistics, DiePopulation

from tests.cascade.conftest import FLOW_KWARGS, TOP_SPEC, VOLTAGES

N_DIES = 520
N_TSVS = 4
CONFIDENCE = 0.95

#: Zero healthy capacitance spread: every fault-free TSV is the same
#: circuit, so the oracle's healthy measurements collapse to one
#: memoized solve per voltage.  Characterization keeps its own spread.
POPULATION_STATS = DefectStatistics(cap_variation_rel=0.0)


def _die_seed(k: int) -> int:
    return 1000 + k


def _measure_seed(k: int) -> int:
    return 5000 + k


def _rejected(metrics) -> bool:
    return (metrics.detected + metrics.overkill) > 0


@pytest.fixture(scope="module")
def population():
    return [
        DiePopulation(
            num_tsvs=N_TSVS, stats=POPULATION_STATS, seed=_die_seed(k)
        )
        for k in range(N_DIES)
    ]


@pytest.fixture(scope="module")
def screened(cascade_flow, oracle_flow, population):
    """(cascade rejected?, oracle rejected?, cascade metrics) per die."""
    results = []
    for k, pop in enumerate(population):
        metrics = cascade_flow.screen_die(pop, measure_seed=_measure_seed(k))
        oracle = oracle_flow.screen_die(pop, measure_seed=_measure_seed(k))
        results.append((_rejected(metrics), _rejected(oracle), metrics))
    return results


def test_population_is_meaningful(population, screened):
    """The harness must exercise real rejections, not a vacuous pass."""
    assert N_DIES >= 500
    faulty_dies = sum(1 for pop in population if pop.faulty_indices())
    oracle_rejected = sum(1 for _, orc, _ in screened if orc)
    assert faulty_dies >= 20
    assert oracle_rejected >= 10


def test_escape_rate_within_epsilon(cascade_config, screened):
    """Clopper-Pearson upper bound on the escape rate stays <= epsilon."""
    shipped = sum(1 for casc, _, _ in screened if not casc)
    escapes = sum(1 for casc, orc, _ in screened if not casc and orc)
    assert shipped >= 300  # enough statistics to certify epsilon=0.01
    bound = binomial_upper_bound(escapes, shipped, confidence=CONFIDENCE)
    assert bound <= cascade_config.epsilon, (
        f"escape bound {bound:.4f} (= {escapes}/{shipped} at "
        f"{CONFIDENCE:.0%}) exceeds epsilon={cascade_config.epsilon}"
    )


def test_early_flags_rarely_disagree_with_oracle(screened):
    """Confident early flags must not invent rejections wholesale.

    Overkill against the oracle is not epsilon-bounded (it costs yield
    review time, not shipped defects), but a healthy routing policy
    keeps it near zero on this population.
    """
    rejected = sum(1 for casc, _, _ in screened if casc)
    overkill = sum(1 for casc, orc, _ in screened if casc and not orc)
    assert rejected > 0
    assert overkill <= max(1, rejected // 20)


def test_top_stage_verdicts_are_oracle_verdicts(
    cascade_flow, oracle_flow, population
):
    """A TSV resolved at the top stage gets the oracle's own verdict.

    Same engine, same band, same memoized deterministic measurement --
    escapes can only come from stages below the top, which is what the
    escape budget actually bounds.
    """
    cascade = cascade_flow.cascade
    top = cascade.top_stage
    checked = 0
    for k, pop in enumerate(population):
        decision = cascade.classify_die(pop, _measure_seed(k))
        for tsv_decision in decision.tsv_decisions:
            if tsv_decision.stage != top:
                continue
            tsv = pop[tsv_decision.index].tsv
            oracle_flag = False
            for vdd in VOLTAGES:
                (delta_t,) = oracle_flow._measure(vdd, [(tsv, 0)])
                if not math.isfinite(delta_t):
                    oracle_flag = True
                    break
                if not oracle_flow.bands[vdd].contains(delta_t):
                    oracle_flag = True
                    break
            assert tsv_decision.flagged == oracle_flag
            checked += 1
    assert checked >= 10  # the ladder must actually have been exercised


def test_escalation_is_selective(screened):
    """The cascade must not degenerate into screening everything twice."""
    total_tsvs = sum(metrics.num_tsvs for _, _, metrics in screened)
    escalated = sum(metrics.escalated for _, _, metrics in screened)
    assert 0 < escalated < 0.10 * total_tsvs
    analytic = sum(
        metrics.stage_measurements.get("analytic", 0)
        for _, _, metrics in screened
    )
    top_stage = sum(
        metrics.stage_measurements.get("stagedelay", 0)
        for _, _, metrics in screened
    )
    assert analytic > 10 * top_stage


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_CASCADE_TRANSISTOR") != "1",
    reason="transistor-level oracle takes minutes; "
    "set REPRO_CASCADE_TRANSISTOR=1 (CI cascade-smoke does)",
)
def test_three_stage_cascade_vs_transistor_oracle():
    """Analytic -> stagedelay -> transistor vs a transistor oracle.

    A reduced population (the transistor engine costs seconds per
    solve) with a reduced calibration grid; asserts zero escapes
    against the full transistor-level verdict.
    """
    transistor = spec("transistor", timestep=8e-12)
    config = CascadeConfig(
        escalation=(TOP_SPEC, transistor),
        stage_characterization_samples=48,
    )
    kwargs = dict(FLOW_KWARGS)
    kwargs["voltages"] = (1.1,)
    signatures = {
        "healthy": [
            Tsv(params=Tsv().params.scaled(k)) for k in (0.9, 1.0, 1.1)
        ],
        "void": [
            Tsv(fault=ResistiveOpen(r_open=r, x=0.5))
            for r in (300.0, 2700.0, 24300.0)
        ],
        "leak": [
            Tsv(fault=Leakage(r_leak=r))
            for r in (1200.0, 4000.0, 16000.0)
        ],
    }
    cascade_flow = ScreeningFlow(
        "analytic", cascade=config, cascade_signatures=signatures, **kwargs
    )
    cascade = cascade_flow.cascade
    # The oracle reuses the cascade's own top-stage band: transferring
    # the analytic characterization up the ladder costs a handful of
    # nominal transistor solves instead of a 48-sample Monte Carlo, and
    # makes any verdict difference pure routing (identical bands).
    oracle_flow = ScreeningFlow(
        transistor,
        bands={
            vdd: cascade.stage_band(cascade.top_stage, vdd).band
            for vdd in kwargs["voltages"]
        },
        **kwargs,
    )

    dies = [
        DiePopulation(num_tsvs=4, stats=POPULATION_STATS, seed=_die_seed(k))
        for k in range(40)
    ]
    escapes = shipped = 0
    for k, pop in enumerate(dies):
        casc = _rejected(
            cascade_flow.screen_die(pop, measure_seed=_measure_seed(k))
        )
        orc = _rejected(
            oracle_flow.screen_die(pop, measure_seed=_measure_seed(k))
        )
        if not casc:
            shipped += 1
            if orc:
                escapes += 1
    assert shipped > 20
    assert escapes == 0
