"""Unit tests for the sharded wafer-scale screening engine."""

import pytest

from repro.core.engines import registry as engine_registry
from repro.spice.cache import SolveCache, use_cache
from repro.workloads.flow import FlowMetrics, ScreeningFlow
from repro.workloads.generator import DefectStatistics
from repro.workloads.wafer import (
    WaferPopulation,
    WaferScreenResult,
    WaferScreeningEngine,
    aggregate_metrics,
)

STATS = DefectStatistics(void_rate=0.05, pinhole_rate=0.05,
                         full_open_fraction=0.2)
VOLTAGES = (1.1, 0.8)


@pytest.fixture(scope="module")
def wafer():
    return WaferPopulation(num_dies=5, tsvs_per_die=12, stats=STATS, seed=42)


def make_engine(**kw):
    kw.setdefault("characterization_samples", 40)
    kw.setdefault("voltages", VOLTAGES)
    kw.setdefault("seed", 7)
    return WaferScreeningEngine(engine_registry.spec("analytic"), **kw)


class TestWaferPopulation:
    def test_shape(self, wafer):
        assert len(wafer) == 5
        assert wafer.num_tsvs == 60
        assert all(len(die) == 12 for die in wafer)
        assert len(wafer.measure_seeds) == 5

    def test_same_seed_reproduces_everything(self, wafer):
        again = WaferPopulation(num_dies=5, tsvs_per_die=12, stats=STATS,
                                seed=42)
        assert again.measure_seeds == wafer.measure_seeds
        for a, b in zip(wafer, again):
            for ra, rb in zip(a, b):
                assert ra.fault_kind == rb.fault_kind
                assert ra.truly_faulty == rb.truly_faulty

    def test_dies_are_distinct_streams(self, wafer):
        kinds = [tuple(r.fault_kind for r in die) for die in wafer]
        assert len(set(kinds)) > 1
        assert len(set(wafer.measure_seeds)) == len(wafer.measure_seeds)

    def test_different_wafer_seed_differs(self, wafer):
        other = WaferPopulation(num_dies=5, tsvs_per_die=12, stats=STATS,
                                seed=43)
        assert other.measure_seeds != wafer.measure_seeds

    def test_defect_summary_totals(self, wafer):
        summary = wafer.defect_summary()
        assert summary["num_tsvs"] == 60
        assert summary["voids"] + summary["pinholes"] == sum(
            1 for die in wafer for r in die if r.truly_faulty
        )

    def test_rejects_empty_wafer(self):
        with pytest.raises(ValueError):
            WaferPopulation(num_dies=0)


class TestAggregateMetrics:
    def test_sums_fields_and_kind_maps(self):
        a = FlowMetrics(num_tsvs=10, true_faulty=2, detected=2,
                        measurements=30, test_time=1.0,
                        detected_by_kind={"void": 2})
        b = FlowMetrics(num_tsvs=10, true_faulty=1, detected=0, escapes=1,
                        overkill=1, measurements=20, test_time=0.5,
                        detected_by_kind={"pinhole": 0},
                        escaped_by_kind={"pinhole": 1})
        total = aggregate_metrics([a, b])
        assert total.num_tsvs == 20
        assert total.detected == 2 and total.escapes == 1
        assert total.detected_by_kind == {"void": 2, "pinhole": 0}
        assert total.escaped_by_kind == {"pinhole": 1}
        assert total.test_time == pytest.approx(1.5)

    def test_empty(self):
        assert aggregate_metrics([]).num_tsvs == 0


class TestWaferScreeningEngine:
    def test_serial_screen_covers_every_die(self, wafer):
        result = make_engine().screen(wafer, workers=1)
        assert isinstance(result, WaferScreenResult)
        assert len(result.per_die) == len(wafer)
        assert result.totals.num_tsvs == wafer.num_tsvs
        assert result.workers == 1
        assert result.wall_time > 0
        assert result.counter("dies_screened") == len(wafer)

    def test_sharded_matches_serial_bit_for_bit(self, wafer):
        serial = make_engine().screen(wafer, workers=1)
        sharded = make_engine(chunk_size=2).screen(wafer, workers=2)
        assert sharded.workers == 2
        for a, b in zip(serial.per_die, sharded.per_die):
            assert a.as_row() == b.as_row()
            assert a.detected_by_kind == b.detected_by_kind
            assert a.escaped_by_kind == b.escaped_by_kind

    def test_chunking_does_not_change_results(self, wafer):
        one = make_engine(chunk_size=1).screen(wafer, workers=2)
        big = make_engine(chunk_size=4).screen(wafer, workers=2)
        assert [m.as_row() for m in one.per_die] == \
            [m.as_row() for m in big.per_die]

    def test_worker_telemetry_is_merged(self, wafer):
        result = make_engine().screen(wafer, workers=2)
        assert result.counter("dies_screened") == len(wafer)
        assert result.counter("measurements") > 0
        assert "screen" in result.telemetry["phase_seconds"]

    def test_precomputed_bands_match_self_characterized(self, wafer):
        engine = make_engine()
        flow = engine.flow
        handed = ScreeningFlow(
            engine_registry.spec("analytic"), voltages=VOLTAGES,
            characterization_samples=40, seed=7, bands=flow.bands,
        )
        die, seed = wafer.dies[0], wafer.measure_seeds[0]
        assert handed.screen_die(die, measure_seed=seed).as_row() == \
            flow.screen_die(die, measure_seed=seed).as_row()

    def test_second_screen_hits_cache(self, wafer):
        with use_cache(SolveCache()):
            make_engine().screen(wafer, workers=1)
            warm = make_engine().screen(wafer, workers=1)
        assert warm.counter("cache_hits") > 0
        assert warm.cache_hit_rate == 1.0

    def test_rejects_bad_worker_count(self, wafer):
        with pytest.raises(ValueError):
            make_engine().screen(wafer, workers=0)

    def test_flow_rejects_incomplete_bands(self):
        engine = make_engine()
        bands = engine.flow.bands
        bands.pop(VOLTAGES[0])
        with pytest.raises(ValueError):
            ScreeningFlow(engine_registry.spec("analytic"), voltages=VOLTAGES,
                          bands=bands)


class TestPreflightRejection:
    def _poisoned_wafer(self, bad_die=2):
        import dataclasses

        wafer = WaferPopulation(num_dies=5, tsvs_per_die=12, stats=STATS,
                                seed=42)
        rec = wafer.dies[bad_die].records[0]
        rec.tsv = dataclasses.replace(
            rec.tsv,
            params=dataclasses.replace(
                rec.tsv.params, capacitance=float("nan")
            ),
        )
        return wafer

    def test_bad_die_rejected_before_dispatch(self):
        wafer = self._poisoned_wafer()
        result = make_engine().screen(wafer, workers=1)
        assert result.dies_rejected == 1
        assert list(result.rejected) == [2]
        assert result.counter("dies_rejected") == 1
        assert result.counter("dies_screened") == len(wafer) - 1
        report = result.rejected[2]
        assert report.has_errors
        assert "tsv[0]" in report.errors[0].message

    def test_rejected_die_keeps_placeholder_slot(self):
        wafer = self._poisoned_wafer()
        result = make_engine().screen(wafer, workers=1)
        assert len(result.per_die) == len(wafer)
        placeholder = result.per_die[2]
        assert placeholder.num_tsvs == 12
        assert placeholder.measurements == 0

    def test_sharded_rejection_matches_serial(self):
        wafer = self._poisoned_wafer()
        serial = make_engine().screen(wafer, workers=1)
        sharded = make_engine(chunk_size=2).screen(wafer, workers=2)
        assert list(sharded.rejected) == list(serial.rejected)
        assert [m.as_row() for m in sharded.per_die] == \
            [m.as_row() for m in serial.per_die]

    def test_preflight_opt_out(self):
        wafer = self._poisoned_wafer()
        result = make_engine(preflight=False).screen(wafer, workers=1)
        assert result.dies_rejected == 0
        assert result.counter("dies_screened") == len(wafer)

    def test_clean_wafer_unaffected(self, wafer):
        gated = make_engine().screen(wafer, workers=1)
        ungated = make_engine(preflight=False).screen(wafer, workers=1)
        assert gated.dies_rejected == 0
        assert [m.as_row() for m in gated.per_die] == \
            [m.as_row() for m in ungated.per_die]


#: Die whose worker process exits mid-chunk in the dead-worker test.
DOOMED_DIE = 2


def _doomed_screen_chunk(chunk):
    """``_screen_chunk`` that kills its worker on reaching ``DOOMED_DIE``.

    Installed by monkeypatch before the pool forks, so worker processes
    resolve ``wafer._screen_chunk`` to this function.
    """
    import os

    from repro.workloads import wafer as wafer_module

    out = []
    for index, die, seed in chunk:
        if index == DOOMED_DIE:
            os._exit(3)
        out.append(
            (index, wafer_module._WORKER_FLOW.screen_die(die, measure_seed=seed))
        )
    return out


class TestDeadWorker:
    def test_dead_worker_fails_only_its_die(self, wafer, monkeypatch):
        import multiprocessing

        from repro.workloads import wafer as wafer_module

        serial = make_engine().screen(wafer, workers=1)
        monkeypatch.setattr(wafer_module, "_screen_chunk",
                            _doomed_screen_chunk)
        result = make_engine(chunk_size=2).screen(wafer, workers=2)
        # Chunks of two: die 3 shares the doomed chunk, and is kept by
        # the die-by-die retry.
        assert result.failed == [2]
        assert result.counter("wafer.dies_failed") == 1
        assert len(result.per_die) == len(wafer)
        assert result.per_die[2].num_tsvs == 12
        assert result.per_die[2].measurements == 0
        for i in (0, 1, 3, 4):
            assert result.per_die[i].as_row() == serial.per_die[i].as_row()
        assert multiprocessing.active_children() == []
