"""Integration tests for the die-scale screening flow."""

import math

import pytest

from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.workloads.flow import FlowMetrics, ScreeningFlow
from repro.workloads.generator import DefectStatistics, DiePopulation


@pytest.fixture(scope="module")
def flow():
    return ScreeningFlow(
        "analytic",
        characterization_samples=80,
        seed=11,
    )


class TestCharacterization:
    def test_band_per_voltage(self, flow):
        for vdd in flow.voltages:
            band = flow.band(vdd)
            assert band.low < band.high

    def test_nominal_measurement_inside_band(self, flow):
        for vdd in flow.voltages:
            (dt,) = flow._measure(vdd, [(Tsv(), 123)])
            assert flow.band(vdd).contains(dt)


class TestScreening:
    def test_clean_die_has_no_escapes(self, flow):
        stats = DefectStatistics(void_rate=0.0, pinhole_rate=0.0)
        pop = DiePopulation(num_tsvs=60, stats=stats, seed=1)
        metrics = flow.screen_die(pop)
        assert metrics.true_faulty == 0
        assert metrics.escapes == 0
        assert metrics.detection_rate == 1.0

    def test_gross_defects_all_detected(self, flow):
        """Full opens and hard shorts must never escape."""
        stats = DefectStatistics(
            void_rate=0.2, pinhole_rate=0.2,
            full_open_fraction=1.0,        # every void is a full open
            pinhole_r_median=300.0,        # strong leakage
            pinhole_r_sigma_ln=0.2,
        )
        pop = DiePopulation(num_tsvs=100, stats=stats, seed=2)
        metrics = flow.screen_die(pop)
        assert metrics.true_faulty > 10
        assert metrics.escape_rate < 0.15

    def test_overkill_modest(self, flow):
        stats = DefectStatistics(void_rate=0.0, pinhole_rate=0.0)
        pop = DiePopulation(num_tsvs=200, stats=stats, seed=3)
        metrics = flow.screen_die(pop)
        assert metrics.overkill_rate < 0.10

    def test_metrics_accounting_consistent(self, flow):
        pop = DiePopulation(num_tsvs=100, seed=4)
        metrics = flow.screen_die(pop)
        assert metrics.detected + metrics.escapes == metrics.true_faulty
        assert metrics.measurements > 0
        assert metrics.test_time > 0

    def test_group_screen_reduces_measurements_on_clean_die(self):
        factory = "analytic"
        stats = DefectStatistics(void_rate=0.0, pinhole_rate=0.0)
        pop = DiePopulation(num_tsvs=100, stats=stats, seed=5)
        isolating = ScreeningFlow(factory, characterization_samples=60,
                                  group_screen_first=False, seed=6)
        grouped = ScreeningFlow(factory, characterization_samples=60,
                                group_screen_first=True, seed=6)
        m_iso = isolating.screen_die(pop)
        m_grp = grouped.screen_die(pop)
        assert m_grp.measurements < m_iso.measurements

    def test_more_voltages_never_hurt_detection(self):
        factory = "analytic"
        stats = DefectStatistics(void_rate=0.0, pinhole_rate=0.15,
                                 pinhole_r_median=1200.0,
                                 pinhole_r_sigma_ln=0.5)
        pop = DiePopulation(num_tsvs=150, stats=stats, seed=7)
        single = ScreeningFlow(factory, voltages=(1.1,),
                               characterization_samples=60, seed=8)
        multi = ScreeningFlow(factory, voltages=(1.1, 0.95, 0.8, 0.75),
                              characterization_samples=60, seed=8)
        d_single = single.screen_die(pop).detected
        d_multi = multi.screen_die(pop).detected
        assert d_multi >= d_single


class TestFlowMetrics:
    def test_rates_with_zero_denominators(self):
        metrics = FlowMetrics(num_tsvs=10, true_faulty=0)
        assert metrics.escape_rate == 0.0
        assert metrics.detection_rate == 1.0

    def test_overkill_rate_on_all_faulty_die_is_zero(self):
        metrics = FlowMetrics(num_tsvs=4, true_faulty=4, overkill=0)
        assert metrics.overkill_rate == 0.0

    def test_empty_population_rates_are_zero(self):
        metrics = FlowMetrics()
        assert metrics.num_tsvs == 0
        assert metrics.escape_rate == 0.0
        assert metrics.overkill_rate == 0.0
        assert metrics.escalation_rate == 0.0
        # Every as_row value must stay finite for the report writers.
        assert all(math.isfinite(v) for v in metrics.as_row().values())

    def test_rates_with_nonzero_denominators(self):
        metrics = FlowMetrics(
            num_tsvs=10, true_faulty=4, detected=3, escapes=1,
            overkill=2, escalated=5,
        )
        assert metrics.escape_rate == pytest.approx(1 / 4)
        assert metrics.overkill_rate == pytest.approx(2 / 6)
        assert metrics.detection_rate == pytest.approx(3 / 4)
        assert metrics.escalation_rate == pytest.approx(5 / 10)

    def test_as_row_keys(self):
        row = FlowMetrics(num_tsvs=5).as_row()
        for key in ("detection_rate", "escape_rate", "overkill_rate",
                    "test_time_s", "escalated", "escalation_rate"):
            assert key in row

    def test_cascade_dicts_are_per_instance(self):
        first, second = FlowMetrics(), FlowMetrics()
        first.stage_measurements["analytic"] = 8
        first.escalations["near_band"] = 1
        assert second.stage_measurements == {}
        assert second.escalations == {}


class TestFlowPreflight:
    def _poisoned_die(self):
        import dataclasses

        from repro.core.tsv import TsvParameters

        pop = DiePopulation(num_tsvs=10, seed=3)
        rec = pop.records[0]
        rec.tsv = dataclasses.replace(
            rec.tsv,
            params=dataclasses.replace(
                rec.tsv.params, capacitance=float("nan")
            ),
        )
        return pop

    def test_bad_die_rejected_with_named_tsv(self, flow):
        from repro.analysis.diagnostics import PreflightError

        with pytest.raises(PreflightError) as excinfo:
            flow.screen_die(self._poisoned_die())
        assert "tsv[0]" in str(excinfo.value)
        assert "nonphysical-value" in str(excinfo.value)

    def test_rejection_happens_before_any_measurement(self):
        from repro.analysis.diagnostics import PreflightError
        from repro.telemetry import Telemetry, use_telemetry

        bands_donor = ScreeningFlow(
            "analytic",
            characterization_samples=40, seed=11,
        )
        gated = ScreeningFlow(
            "analytic",
            characterization_samples=40, seed=11,
            bands=bands_donor.bands,
        )
        tele = Telemetry()
        with use_telemetry(tele):
            with pytest.raises(PreflightError):
                gated.screen_die(self._poisoned_die())
        counters = tele.snapshot()["counters"]
        assert counters.get("measurements", 0) == 0
        assert counters["diag_emitted.nonphysical-value"] == 1

    def test_opt_out_screens_anyway(self):
        ungated = ScreeningFlow(
            "analytic",
            characterization_samples=40, seed=11, preflight=False,
        )
        metrics = ungated.screen_die(self._poisoned_die())
        assert metrics.num_tsvs == 10

    def test_stop_floor_rises_at_lower_voltages(self, flow):
        floor = flow.stop_floor
        assert floor is not None and floor > 0
        high_only = ScreeningFlow(
            "analytic",
            voltages=(1.1,), characterization_samples=40, seed=11,
        )
        assert floor > high_only.stop_floor

    def test_preflight_die_reports_strong_leak_as_info(self, flow):
        from repro.core.tsv import Leakage as Leak

        pop = DiePopulation(
            num_tsvs=4,
            stats=DefectStatistics(void_rate=0.0, pinhole_rate=0.0),
            seed=1,
        )
        pop.records[0].tsv = Tsv(fault=Leak(r_leak=100.0))
        report = flow.preflight_die(pop)  # must NOT raise
        assert not report.has_errors
        assert "leakage-below-stop" in report.rules_fired()
