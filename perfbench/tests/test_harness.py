"""Unit tests of the benchmark's reductions, guard and span arithmetic."""

import threading

import pytest

from perfbench.harness import (
    Round,
    by_median,
    counter_mismatches,
    fastest,
    median_items_per_s,
    percentile,
    pooled_latencies,
    result_line,
    run_schedule,
)
from perfbench.tracing import Span, Tracer, self_times


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, thread=1)


class TestSelfTime:
    def test_children_are_subtracted_from_parent(self):
        spans = [
            span(0, "flow", 0.0, 10.0),
            span(1, "engine", 1.0, 4.0, parent=0),
            span(2, "engine", 5.0, 6.0, parent=0),
            span(3, "spice", 1.5, 3.5, parent=1),
        ]
        out = self_times(spans)
        assert out["flow"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
        assert out["flow"]["total_s"] == pytest.approx(10.0)
        assert out["engine"]["self_s"] == pytest.approx(3.0 - 2.0 + 1.0)
        assert out["engine"]["calls"] == 2
        assert out["spice"]["self_s"] == pytest.approx(2.0)

    def test_overlapping_children_count_once(self):
        # Children on worker threads can overlap each other in time.
        spans = [
            span(0, "root", 0.0, 10.0),
            span(1, "a", 2.0, 6.0, parent=0),
            span(2, "b", 4.0, 8.0, parent=0),
        ]
        assert self_times(spans)["root"]["self_s"] == pytest.approx(4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, "root", 0.0, 2.0), span(1, "late", 1.0, 5.0, parent=0)]
        assert self_times(spans)["root"]["self_s"] == pytest.approx(1.0)

    def test_window_keeps_only_spans_inside(self):
        spans = [span(0, "x", 0.0, 1.0), span(1, "x", 2.0, 3.0),
                 span(2, "x", 2.5, 4.5)]
        out = self_times(spans, window=(1.5, 4.0))
        assert out["x"]["calls"] == 1
        assert out["x"]["self_s"] == pytest.approx(1.0)


class TestTracer:
    def test_nested_calls_record_parent_and_restore(self):
        class Leaf:
            def work(self):
                return 7

        class Outer:
            def run(self, leaf):
                return leaf.work() + 1

        original = Leaf.__dict__["work"]
        tracer = Tracer(package="perfbench")
        tracer.patch_method(Leaf, "work", "leaf")
        tracer.patch_method(Outer, "run", "outer")
        assert Outer().run(Leaf()) == 8
        tracer.unpatch()
        assert Leaf.__dict__["work"] is original
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["leaf"].parent == by_name["outer"].sid
        assert by_name["outer"].parent is None

    def test_inherited_method_is_restored_by_deletion(self):
        class Base:
            def f(self):
                return 1

        class Child(Base):
            pass

        tracer = Tracer(package="perfbench")
        tracer.patch_method(Child, "f", "f")
        assert Child().f() == 1
        tracer.unpatch()
        assert "f" not in Child.__dict__

    def test_patch_function_reaches_imported_copies(self):
        import perfbench.harness as harness
        import perfbench.tests.test_harness as this

        original = harness.percentile
        tracer = Tracer(package="perfbench")
        tracer.patch_function(harness, "percentile", "pct")
        try:
            # This module bound the name at import time; it is traced too.
            this.percentile([1.0, 2.0], 0.5)
        finally:
            tracer.unpatch()
        assert [s.name for s in tracer.spans] == ["pct"]
        assert this.percentile is original and harness.percentile is original

    def test_threads_keep_their_own_parent_stack(self):
        tracer = Tracer(package="perfbench")
        inner = tracer.wrap(lambda: None, "inner")

        def spawn():
            worker = threading.Thread(target=inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        tracer.wrap(spawn, "outer")()
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent is None
        assert by_name["inner"].thread != by_name["outer"].thread


class TestPercentile:
    def test_nearest_rank_with_samples_beyond(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == (50, 50)
        assert percentile(values, 0.9) == (90, 10)
        assert percentile(values, 1.0) == (100, 0)

    def test_small_counts(self):
        assert percentile([3.0], 0.9) == (3.0, 0)
        assert percentile([2.0, 1.0], 0.5) == (1.0, 1)
        assert percentile([2.0, 1.0], 0.9) == (2.0, 0)
        assert percentile([5, 1, 4, 2, 3], 0.9) == (5, 0)

    def test_p90_of_100_requests_has_ten_beyond(self):
        _, beyond = percentile([0.1] * 100, 0.9)
        assert beyond >= 10

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)


class TestFastestRound:
    def test_picks_highest_throughput(self):
        rounds = [Round(items=100, seconds=4.0), Round(items=100, seconds=2.5),
                  Round(items=100, seconds=3.0)]
        assert fastest(rounds) is rounds[1]
        assert median_items_per_s(rounds) == pytest.approx(100 / 3.0)

    def test_throughput_not_duration_decides(self):
        rounds = [Round(items=10, seconds=1.0), Round(items=40, seconds=2.0)]
        assert fastest(rounds) is rounds[1]

    def test_ties_keep_the_earliest(self):
        rounds = [Round(items=5, seconds=1.0), Round(items=5, seconds=1.0)]
        assert fastest(rounds) is rounds[0]



class TestSchedule:
    def run(self, setups, min_rounds, max_rounds=9, traced_too=False, seconds=0.0):
        log = []
        rounds = run_schedule(
            lambda: log.append("S"),
            lambda traced: log.append("T" if traced else "R") or Round(1, 1.0, traced=traced),
            setups=setups, seconds=seconds, min_rounds=min_rounds,
            max_rounds=max_rounds, traced_too=traced_too,
        )
        return "".join(log), rounds

    def test_setups_spread_among_minimum_rounds(self):
        assert self.run(3, 3)[0] == "SRSRSR"
        assert self.run(2, 3)[0] == "SRRSR"
        assert self.run(1, 3)[0] == "SRRR"

    def test_every_setup_runs_even_with_more_setups_than_rounds(self):
        log, rounds = self.run(4, 2)
        assert log.count("S") == 4 and len(rounds) == 2 and log[0] == "S"

    def test_alternates_traced_rounds(self):
        log, rounds = self.run(3, 2, traced_too=True)
        assert log == "SRTSRST"
        assert [r.traced for r in rounds] == [False, True, False, True]

    def test_runs_until_time_is_spent_but_not_past_max(self):
        ticks = iter(range(1000))
        rounds = run_schedule(lambda: None, lambda traced: Round(1, 1.0),
                              setups=1, seconds=5.0, min_rounds=1, max_rounds=50,
                              clock=lambda: float(next(ticks)))
        assert 1 < len(rounds) < 50
        log, rounds = self.run(1, 1, max_rounds=3, seconds=1e9)
        assert len(rounds) == 3


class TestRoundEqualityGuard:
    def test_equal_rounds_pass(self):
        snaps = [{"cache_misses": 212, "newton_iterations": 900}] * 3
        assert counter_mismatches(snaps) == []

    def test_differing_counter_is_named(self):
        snaps = [{"cache_misses": 212}, {"cache_misses": 212, "cache_hits": 5}]
        problems = counter_mismatches(snaps)
        assert len(problems) == 1
        assert "cache_hits" in problems[0] and "round 1" in problems[0]

    def test_filter_ignores_schedule_dependent_counters(self):
        snaps = [{"service.batches": 8, "service.completed": 100},
                 {"service.batches": 9, "service.completed": 100}]
        keep = lambda name: name != "service.batches"  # noqa: E731
        assert counter_mismatches(snaps, keep) == []
        assert counter_mismatches(snaps) != []


def test_result_line_shape():
    line = result_line(True, 10, 0, {"setup_s": (1.5, "s")})
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 1.5, "unit": "s"}}


class TestMedianRound:
    def rounds(self, *seconds):
        return [Round(items=20, seconds=t, latencies=[t] * 20) for t in seconds]

    def test_median_round_comes_first(self):
        rounds = self.rounds(3.0, 2.0, 9.0, 2.5, 2.8)
        assert by_median(rounds)[0] is rounds[4]
        assert median_items_per_s(rounds) == pytest.approx(20 / 2.8)

    def test_a_rare_fast_round_does_not_move_the_median(self):
        slow = self.rounds(3.0, 3.1, 3.2, 2.9, 3.0)
        lucky = self.rounds(3.0, 3.1, 1.9, 2.9, 3.0)
        assert median_items_per_s(lucky) == pytest.approx(median_items_per_s(slow))
        assert fastest(lucky).seconds == 1.9

    def test_single_round_pool_is_the_median_round(self):
        rounds = self.rounds(3.0, 2.0, 4.0)
        assert pooled_latencies(rounds, 1) == [3.0] * 20

    def test_pools_rounds_nearest_the_median_until_enough_samples(self):
        rounds = self.rounds(3.0, 2.0, 9.0, 2.5, 2.8, 3.1, 1.5)
        pool = pooled_latencies(rounds, 100)
        assert len(pool) == 100
        assert sorted(set(pool)) == [2.0, 2.5, 2.8, 3.0, 3.1]
        assert percentile(pool, 0.9)[1] == 10
