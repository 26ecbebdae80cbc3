"""Integration tests for the cascade router itself.

Everything here reuses the session-scoped ``cascade_flow`` ladder
(analytic stage 0, stagedelay top) so the characterization cost is paid
once for the whole test package.  Router variants that need different
policy knobs are built from the fixture cascade's exported state, which
makes them construction-cheap.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cascade import CascadeConfig, CascadeScreen, CascadeState
from repro.core.engines.registry import spec
from repro.core.tsv import Leakage, Tsv
from repro.spice.montecarlo import ProcessVariation
from repro.workloads.generator import TsvRecord

from tests.cascade.conftest import FLOW_KWARGS, TOP_SPEC, VOLTAGES

#: A leakage severe enough that the stage-0 analytic ring does not
#: oscillate at the lower supply -- the classic stuck signature.
STUCK_LEAK = Tsv(fault=Leakage(r_leak=500.0))


def _variant(cascade, **config_kwargs) -> CascadeScreen:
    """A router with different policy knobs but the fixture's bands."""
    base = dict(
        escalation=(TOP_SPEC,), stage_characterization_samples=48
    )
    base.update(config_kwargs)
    return CascadeScreen(
        stage0="analytic",
        config=CascadeConfig(**base),
        voltages=VOLTAGES,
        variation=ProcessVariation(),
        characterization_samples=FLOW_KWARGS["characterization_samples"],
        tsv_cap_variation_rel=FLOW_KWARGS["tsv_cap_variation_rel"],
        seed=FLOW_KWARGS["seed"],
        state=cascade.export_state(),
        measurement_variation=None,
    )


class TestConstruction:
    def test_stage_names_deduplicate(self):
        cascade = CascadeScreen(
            stage0="analytic",
            config=CascadeConfig(escalation=("analytic", "stagedelay")),
            voltages=(1.1,),
            variation=ProcessVariation(),
        )
        assert cascade.stage_names == ["analytic", "analytic#1",
                                       "stagedelay"]
        assert cascade.num_stages == 3
        assert cascade.top_stage == 2

    def test_engine_spec_ladder_names(self):
        cascade = CascadeScreen(
            stage0="analytic",
            config=CascadeConfig(
                escalation=(spec("stagedelay", timestep=8e-12),)
            ),
            voltages=(1.1,),
            variation=ProcessVariation(),
        )
        assert cascade.stage_names == ["analytic", "stagedelay"]

    def test_requires_a_supply_voltage(self):
        with pytest.raises(ValueError):
            CascadeScreen(
                stage0="analytic",
                config=CascadeConfig(),
                voltages=(),
                variation=ProcessVariation(),
            )

    def test_stage_zero_must_support_batched_mc(self):
        cascade = CascadeScreen(
            stage0=spec("transistor", timestep=8e-12),
            config=CascadeConfig(escalation=("analytic",)),
            voltages=(1.1,),
            variation=ProcessVariation(),
        )
        with pytest.raises(ValueError, match="batched Monte Carlo"):
            cascade.stage_band(0, 1.1)


class TestRouting:
    def test_healthy_tsv_resolves_at_stage_zero(self, cascade_flow):
        decision = cascade_flow.cascade.classify(Tsv(), index=0, seed=0)
        assert not decision.flagged
        assert decision.stage == 0
        assert decision.stage_name == "analytic"
        assert decision.reasons == []
        # T1 per supply plus the group's T2 reference.
        assert decision.measurements == 2 * len(VOLTAGES)
        assert decision.stage_measurements == {
            "analytic": 2 * len(VOLTAGES)
        }

    def test_stuck_oscillator_flags_without_escalating(self, cascade_flow):
        decision = cascade_flow.cascade.classify(STUCK_LEAK, index=0, seed=0)
        assert decision.flagged
        assert decision.stage == 0
        assert decision.reasons == []

    def test_classification_is_deterministic(self, cascade_flow):
        first = cascade_flow.cascade.classify(Tsv(), index=5, seed=160)
        again = cascade_flow.cascade.classify(Tsv(), index=5, seed=160)
        assert first == again

    def test_preflight_warning_starts_at_stage_one(self, cascade_flow):
        decision = cascade_flow.cascade.classify(
            Tsv(), index=0, seed=0, preflight_warned=True
        )
        assert decision.stage == 1
        assert decision.stage_name == "stagedelay"
        assert decision.reasons[0] == "preflight"
        assert not decision.flagged  # healthy at the top band too

    def test_preflight_escalation_can_be_disabled(self, cascade_flow):
        relaxed = _variant(
            cascade_flow.cascade, escalate_on_preflight=False
        )
        decision = relaxed.classify(
            Tsv(), index=0, seed=0, preflight_warned=True
        )
        assert decision.stage == 0
        assert decision.reasons == []


class TestClassifyDie:
    def test_die_decision_records_everything(self, cascade_flow):
        records = [
            TsvRecord(index=0, tsv=Tsv()),
            TsvRecord(index=1, tsv=STUCK_LEAK),
        ]
        decision = cascade_flow.cascade.classify_die(records, base_seed=7)
        assert decision.rejected
        assert len(decision.tsv_decisions) == 2
        assert [d.index for d in decision.tsv_decisions] == [0, 1]
        assert decision.tsv_decisions[1].flagged
        assert decision.max_stage == max(
            d.stage for d in decision.tsv_decisions
        )
        assert decision.max_stage_name in cascade_flow.cascade.stage_names
        assert len(decision.die_fingerprint) == 64  # sha-256 hex

    def test_fingerprint_tracks_population_content(self, cascade_flow):
        cascade = cascade_flow.cascade
        one = cascade.classify_die([TsvRecord(0, Tsv())], base_seed=7)
        same = cascade.classify_die([TsvRecord(0, Tsv())], base_seed=7)
        other = cascade.classify_die([TsvRecord(0, STUCK_LEAK)], base_seed=7)
        assert one.die_fingerprint == same.die_fingerprint
        assert one.die_fingerprint != other.die_fingerprint

    def test_breadth_first_die_equals_one_tsv_routing(self, cascade_flow):
        """``classify_die`` batches each stage's measurements per supply;
        decisions, measurement counts, escalation telemetry and solve-
        cache accounting are those of routing every TSV alone."""
        from repro.spice.cache import SolveCache, use_cache
        from repro.telemetry import use_telemetry
        from repro.workloads.generator import DefectStatistics, DiePopulation

        die = DiePopulation(
            num_tsvs=16,
            stats=DefectStatistics(void_rate=0.2, pinhole_rate=0.2),
            seed=5,
        )
        cascade = cascade_flow.cascade
        with use_cache(SolveCache()) as alone_cache, \
                use_telemetry() as alone_tele:
            alone = [
                cascade.classify(rec.tsv, rec.index, seed=7 + 31 * rec.index)
                for rec in die
            ]
        with use_cache(SolveCache()) as die_cache, use_telemetry() as die_tele:
            decision = cascade.classify_die(die, base_seed=7)
        assert any(d.stage > 0 for d in alone)
        assert [d.as_dict() for d in decision.tsv_decisions] == \
            [d.as_dict() for d in alone]
        assert [d.stage_measurements for d in decision.tsv_decisions] == \
            [d.stage_measurements for d in alone]
        assert (die_cache.hits, die_cache.misses) == \
            (alone_cache.hits, alone_cache.misses)
        for name, count in alone_tele.counters.items():
            if name.startswith("cascade."):
                assert die_tele.count(name) == count, name
        # Breadth-first: no more stacked pairs than one per structure
        # per (stage, supply) batch, fewer than TSV-at-a-time routing.
        assert die_tele.count("stagedelay.stacked_pairs") < \
            alone_tele.count("stagedelay.stacked_pairs")

    def test_preflight_marks_the_die_record(self, cascade_flow):
        decision = cascade_flow.cascade.classify_die(
            [TsvRecord(0, Tsv())], base_seed=7, preflight_warned=True
        )
        assert decision.preflight_escalated
        assert decision.max_stage >= 1


class TestState:
    def test_prepare_builds_all_bands_and_calibration(self, cascade_flow):
        state = cascade_flow.cascade.export_state()
        expected_keys = {
            (stage, vdd)
            for stage in range(cascade_flow.cascade.num_stages)
            for vdd in VOLTAGES
        }
        assert set(state.bands) == expected_keys
        assert state.calibration is not None
        assert state.calibration.voltages == VOLTAGES
        assert state.calibration.num_stages == 2

    def test_state_pickles(self, cascade_flow):
        state = cascade_flow.cascade.export_state()
        clone = pickle.loads(pickle.dumps(state))
        assert set(clone.bands) == set(state.bands)
        # NaN curve points (stuck severities) defeat ``==``; the repr
        # captures every field bit-for-bit including them.
        assert repr(clone.calibration) == repr(state.calibration)

    def test_worker_inherits_parent_characterization(self, cascade_flow):
        cascade = cascade_flow.cascade
        state = pickle.loads(pickle.dumps(cascade.export_state()))
        worker = CascadeScreen(
            stage0="analytic",
            config=cascade.config,
            voltages=VOLTAGES,
            variation=ProcessVariation(),
            characterization_samples=FLOW_KWARGS["characterization_samples"],
            tsv_cap_variation_rel=FLOW_KWARGS["tsv_cap_variation_rel"],
            seed=FLOW_KWARGS["seed"],
            state=state,
            measurement_variation=None,
        )
        # Bands come from the state, not a fresh characterization ...
        for key, band in state.bands.items():
            assert worker.stage_band(*key) == band
        # ... and routing is bit-identical to the parent's.
        records = [TsvRecord(0, Tsv()), TsvRecord(1, STUCK_LEAK)]
        assert (
            worker.classify_die(records, base_seed=7).as_dict()
            == cascade.classify_die(records, base_seed=7).as_dict()
        )

    def test_default_state_is_empty(self):
        state = CascadeState()
        assert state.bands == {}
        assert state.calibration is None


class TestCalibrationStacking:
    def test_table_equals_scalar_probe_by_probe(self):
        """``calibration()`` measures every probe of a (stage, supply) in
        one stacked batch; each entry equals the one-probe-at-a-time
        scalar ``delta_t`` it replaces, value for value (NaN included)."""
        import math

        import numpy as np

        from repro.spice.cache import SolveCache, use_cache

        coarse = spec("stagedelay", timestep=40e-12)
        with use_cache(SolveCache()):
            cascade = CascadeScreen(
                stage0="analytic",
                config=CascadeConfig(
                    escalation=(coarse,), stage_characterization_samples=16
                ),
                voltages=VOLTAGES,
                variation=ProcessVariation(),
                characterization_samples=16,
                seed=FLOW_KWARGS["seed"],
                measurement_variation=None,
            )
            table = cascade.calibration()

        def scalar_u(stage, vdd, tsv):
            try:
                dt = cascade.engine(stage, vdd).delta_t(tsv)
            except RuntimeError:
                return math.nan
            fit = cascade.stage_band(stage, vdd).fit
            sigma = fit.sigma if fit.sigma > 0.0 else 1.0
            return (dt - fit.center) / sigma if math.isfinite(dt) else math.nan

        signatures = cascade._signatures
        assert [c.name for c in table.curves] == list(signatures)
        for curve in table.curves:
            want = [
                [[scalar_u(stage, vdd, tsv) for vdd in VOLTAGES]
                 for stage in range(cascade.num_stages)]
                for tsv in signatures[curve.name]
            ]
            assert np.array_equal(np.array(curve.points), np.array(want),
                                  equal_nan=True), curve.name
