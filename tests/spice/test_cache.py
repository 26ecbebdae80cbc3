"""Unit tests for the content-addressed solve cache."""

import numpy as np
import pytest

from repro.core.tsv import Tsv
from repro.spice import Circuit, DC
from repro.spice.cache import (
    SolveCache,
    cache_disabled,
    circuit_fingerprint,
    fingerprint,
    get_cache,
    memoize,
    memoize_many,
    structure_fingerprint,
    use_cache,
)
from repro.spice.montecarlo import ProcessVariation
from repro.spice.netlist import GROUND
from repro.telemetry import use_telemetry


def rc_circuit(r=1000.0, title="rc"):
    c = Circuit(title)
    c.add_vsource("vs", "a", GROUND, DC(1.0))
    c.add_resistor("r1", "a", "b", r)
    c.add_capacitor("c1", "b", GROUND, 1e-12)
    return c


class TestFingerprint:
    def test_deterministic(self):
        parts = ("tag", 1.25, ProcessVariation(), Tsv(), [1, 2, 3])
        assert fingerprint(*parts) == fingerprint(*parts)

    def test_sensitive_to_any_part(self):
        base = fingerprint("tag", 1.25, 100)
        assert fingerprint("tag", 1.25, 101) != base
        assert fingerprint("tag", 1.26, 100) != base
        assert fingerprint("gat", 1.25, 100) != base

    def test_dataclass_field_changes_key(self):
        a = ProcessVariation()
        b = ProcessVariation(sigma_vth=a.sigma_vth * 2)
        assert fingerprint(a) != fingerprint(b)

    def test_ndarray_content_and_shape(self):
        x = np.arange(6, dtype=float)
        assert fingerprint(x) == fingerprint(x.copy())
        assert fingerprint(x) != fingerprint(x.reshape(2, 3))
        y = x.copy()
        y[3] += 1e-15
        assert fingerprint(x) != fingerprint(y)

    def test_float_precision_is_exact(self):
        assert fingerprint(0.1 + 0.2) != fingerprint(0.3)

    def test_dict_ordering_is_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_nesting_depth_guard(self):
        deep: list = []
        node = deep
        for _ in range(20):
            inner: list = []
            node.append(inner)
            node = inner
        with pytest.raises(ValueError):
            fingerprint(deep)


class TestCircuitFingerprint:
    def test_identical_builds_match(self):
        assert circuit_fingerprint(rc_circuit()) == \
            circuit_fingerprint(rc_circuit())

    def test_value_change_misses(self):
        assert circuit_fingerprint(rc_circuit(1000.0)) != \
            circuit_fingerprint(rc_circuit(1001.0))

    def test_circuit_usable_as_key_part(self):
        assert fingerprint(rc_circuit(), 1.1) == fingerprint(rc_circuit(), 1.1)
        assert fingerprint(rc_circuit(), 1.1) != fingerprint(rc_circuit(), 0.8)


class TestStructureFingerprint:
    def test_masked_values_do_not_split(self):
        assert structure_fingerprint(rc_circuit(1000.0), ["r1"]) == \
            structure_fingerprint(rc_circuit(2000.0), ["r1"])

    def test_unmasked_values_split(self):
        assert structure_fingerprint(rc_circuit(1000.0), ["c1"]) != \
            structure_fingerprint(rc_circuit(2000.0), ["c1"])

    def test_none_masks_every_value(self):
        a = rc_circuit(1000.0)
        b = Circuit("rc")
        b.add_vsource("vs", "a", GROUND, DC(0.5))
        b.add_resistor("r1", "a", "b", 7.0)
        b.add_capacitor("c1", "b", GROUND, 3e-12)
        assert structure_fingerprint(a) == structure_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_wiring_splits(self):
        a = rc_circuit()
        b = rc_circuit()
        b.add_resistor("r2", "b", GROUND, 1e6)
        assert structure_fingerprint(a) != structure_fingerprint(b)

    def test_differs_from_circuit_fingerprint(self):
        assert structure_fingerprint(rc_circuit(), []) != \
            circuit_fingerprint(rc_circuit())


class TestMemoizeMany:
    def test_accounts_like_sequential_memoize(self):
        """Hits, misses, stores and values match one ``memoize`` per key
        in order -- a key repeated after its first miss is a hit."""
        keys = ["a", "b", "a", "c", "b"]
        sequential = SolveCache()
        sequential.store("c", "C")
        with use_telemetry() as want:
            expected = [sequential.memoize(k, lambda k=k: k.upper())
                        for k in keys]
        batched = SolveCache()
        batched.store("c", "C")
        asked = []

        def compute(positions):
            asked.append(positions)
            return [keys[p].upper() for p in positions]

        with use_telemetry() as got:
            values = batched.memoize_many(keys, compute)
        assert values == expected
        assert asked == [[0, 1]]
        assert (batched.hits, batched.misses) == \
            (sequential.hits, sequential.misses) == (3, 2)
        assert got.counters == want.counters
        assert sorted(batched._store) == ["a", "b", "c"]

    def test_all_hits_skip_compute(self):
        cache = SolveCache()
        cache.store("a", 1)

        def compute(positions):
            raise AssertionError("nothing to compute")

        assert cache.memoize_many(["a", "a"], compute) == [1, 1]

    def test_disabled_cache_computes_everything_at_once(self):
        asked = []

        def compute(positions):
            asked.append(positions)
            return [10 * p for p in positions]

        with cache_disabled():
            assert memoize_many(["a", "a", "b"], compute) == [0, 10, 20]
        assert asked == [[0, 1, 2]]


class TestSolveCache:
    def test_memoize_computes_once(self):
        cache = SolveCache()
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.memoize("k", compute) == 42
        assert cache.memoize("k", compute) == 42
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_is_fifo(self):
        cache = SolveCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert len(cache) == 2

    def test_stats_and_clear(self):
        cache = SolveCache()
        cache.memoize("k", lambda: 1)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["misses"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_telemetry_accounting(self):
        cache = SolveCache()
        with use_telemetry() as tele:
            cache.memoize("k", lambda: 1)
            cache.memoize("k", lambda: 1)
        assert tele.count("cache_misses") == 1
        assert tele.count("cache_hits") == 1


class TestScoping:
    def test_use_cache_swaps_and_restores(self):
        outer = get_cache()
        mine = SolveCache()
        with use_cache(mine):
            assert get_cache() is mine
            assert memoize("k", lambda: 7) == 7
            assert memoize("k", lambda: 8) == 7
        assert get_cache() is outer
        assert mine.hits == 1

    def test_cache_disabled_always_computes(self):
        calls = []
        with cache_disabled():
            assert get_cache() is None
            memoize("k", lambda: calls.append(1))
            memoize("k", lambda: calls.append(1))
        assert len(calls) == 2

    def test_flow_characterization_is_shared_through_cache(self):
        from repro.core.engines.registry import spec as engine_spec
        from repro.workloads.flow import ScreeningFlow

        def make():
            return ScreeningFlow(
                engine_spec("analytic"), voltages=(1.1, 0.8),
                characterization_samples=30, seed=11,
            )

        with use_cache(SolveCache()) as cache, use_telemetry() as tele:
            first = make()
            second = make()
        assert cache.hits > 0
        assert tele.count("cache_hits") == cache.hits
        for vdd in (1.1, 0.8):
            assert first.band(vdd).low == second.band(vdd).low
            assert first.band(vdd).high == second.band(vdd).high
