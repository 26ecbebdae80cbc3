"""Durability and concurrency tests for :class:`PersistentSolveCache`.

The persistent store's contract is stronger than the in-memory cache's:
it is shared by wafer worker *processes*, survives service restarts, and
must degrade -- never crash, never return garbage -- when the file
underneath it is torn, truncated, or replaced with noise.  These tests
exercise exactly those properties:

* N processes hammering one store concurrently corrupt nothing;
* a torn row (checksum mismatch) reads as a miss and is dropped;
* a garbage store file degrades to recompute-with-warning, once;
* instances pickle as (path, max_entries) and reconnect on unpickle;
* eviction is oldest-written-first and telemetry-accounted.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sqlite3
import warnings

import pytest

from repro.spice.cache import (
    PersistentSolveCache,
    fingerprint,
    install_cache,
    memoize,
    use_cache,
)
from repro.telemetry import Telemetry, use_telemetry

#: Keys shared by every hammer worker plus a per-worker private range.
_SHARED_KEYS = 8
_PRIVATE_KEYS = 4
_HAMMER_WORKERS = 4
_HAMMER_ROUNDS = 5


def _expected(key: str) -> float:
    return float(int(key.split(":")[-1]) * 1.5)


def _hammer(path: str, worker: int, failures) -> None:
    """Worker body: repeatedly memoize shared and private keys."""
    cache = PersistentSolveCache(path)
    try:
        for _ in range(_HAMMER_ROUNDS):
            for i in range(_SHARED_KEYS):
                key = f"shared:{i}"
                value = cache.memoize(key, lambda i=i: _expected(key))
                if value != _expected(key):
                    failures.put((worker, key, value))
            for i in range(_PRIVATE_KEYS):
                key = f"private:{worker}:{i}"
                value = cache.memoize(key, lambda i=i: _expected(key))
                if value != _expected(key):
                    failures.put((worker, key, value))
        if cache.degraded:
            failures.put((worker, "degraded", True))
    finally:
        cache.close()


class TestConcurrency:
    def test_parallel_processes_never_corrupt_the_store(self, tmp_path):
        path = str(tmp_path / "hammer.sqlite")
        ctx = multiprocessing.get_context("fork")
        failures = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer, args=(path, w, failures))
            for w in range(_HAMMER_WORKERS)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert failures.empty(), failures.get()
        # The survivors' union is exactly the shared + private key sets,
        # every value intact.
        cache = PersistentSolveCache(path)
        assert len(cache) == (
            _SHARED_KEYS + _HAMMER_WORKERS * _PRIVATE_KEYS
        )
        for i in range(_SHARED_KEYS):
            assert cache.lookup(f"shared:{i}") == _expected(f"shared:{i}")
        assert not cache.degraded

    def test_forked_child_reopens_the_connection(self, tmp_path):
        cache = PersistentSolveCache(str(tmp_path / "fork.sqlite"))
        cache.store("parent", 1.0)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()

        def child() -> None:
            # Same instance object, different pid: the connection must
            # be re-established, not shared across the fork.
            queue.put(cache.lookup("parent"))
            cache.store("child", 2.0)

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
        assert queue.get(timeout=5) == 1.0
        assert cache.lookup("child") == 2.0


class TestTornRows:
    def test_checksum_mismatch_reads_as_miss_and_drops_the_row(
        self, tmp_path
    ):
        path = str(tmp_path / "torn.sqlite")
        cache = PersistentSolveCache(path)
        cache.store("good", 42.0)
        # Tear the row behind the cache's back: valid sqlite, wrong blob.
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE solve_cache SET value = ? WHERE key = ?",
                (b"\xde\xad\xbe\xef", "good"),
            )
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            assert cache.lookup("good") is None
            assert cache.memoize("good", lambda: 43.0) == 43.0
        assert telemetry.count("cache_store_errors") >= 1
        # The torn row was dropped and replaced by the recomputation.
        assert cache.lookup("good") == 43.0
        assert not cache.degraded

    def test_unpicklable_blob_reads_as_miss(self, tmp_path):
        path = str(tmp_path / "unpickle.sqlite")
        cache = PersistentSolveCache(path)
        cache.store("key", 1.0)
        import hashlib

        garbage = b"not a pickle"
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE solve_cache SET value = ?, checksum = ?"
                " WHERE key = ?",
                (garbage, hashlib.sha256(garbage).hexdigest(), "key"),
            )
        with use_telemetry(Telemetry()):
            assert cache.lookup("key") is None
        assert not cache.degraded


class TestCorruptedStore:
    def test_garbage_file_degrades_with_one_warning(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a database " * 64)
        with use_telemetry(Telemetry()) as telemetry:
            with pytest.warns(RuntimeWarning, match="degrading"):
                cache = PersistentSolveCache(str(path))
            assert cache.degraded
            assert telemetry.count("cache_store_errors") >= 1
            # Degraded mode still caches, in memory.
            calls = []

            def compute() -> float:
                calls.append(1)
                return 7.0

            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the warning fired once
                assert cache.memoize("k", compute) == 7.0
                assert cache.memoize("k", compute) == 7.0
        assert calls == [1]

    def test_directory_path_degrades(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="degrading"):
            cache = PersistentSolveCache(str(tmp_path))  # a directory
        assert cache.degraded
        assert cache.memoize("k", lambda: 1.0) == 1.0


class TestLockedOpen:
    """A "database is locked" while opening is retried, then degrades."""

    @staticmethod
    def locked_opens(monkeypatch, failures):
        real = PersistentSolveCache._open
        calls = []

        def flaky(self):
            calls.append(1)
            if len(calls) <= failures:
                raise sqlite3.OperationalError("database is locked")
            return real(self)

        monkeypatch.setattr(PersistentSolveCache, "_open", flaky)
        return calls

    def test_transient_lock_is_retried(self, tmp_path, monkeypatch):
        calls = self.locked_opens(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = PersistentSolveCache(str(tmp_path / "store.sqlite"))
        assert not cache.degraded
        assert len(calls) == 3
        assert cache.memoize("k", lambda: 2.0) == 2.0
        assert "k" in cache

    def test_lock_that_persists_degrades(self, tmp_path, monkeypatch):
        calls = self.locked_opens(monkeypatch, 10**6)
        with pytest.warns(RuntimeWarning, match="database is locked"):
            cache = PersistentSolveCache(str(tmp_path / "store.sqlite"))
        assert cache.degraded
        assert len(calls) == PersistentSolveCache._OPEN_ATTEMPTS


class TestLifecycle:
    def test_pickles_as_path_and_reconnects(self, tmp_path):
        path = str(tmp_path / "pickled.sqlite")
        cache = PersistentSolveCache(path, max_entries=100)
        cache.store("key", {"band": (1.0, 2.0)})
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.path == path
        assert clone.max_entries == 100
        assert clone.lookup("key") == {"band": (1.0, 2.0)}
        # Counters are per-process/per-instance, not pickled.
        assert clone.hits == 0 and clone.misses == 0

    def test_cross_instance_reuse(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        writer = PersistentSolveCache(path)
        key = fingerprint("characterize", "analytic", 1.1, 48)
        writer.memoize(key, lambda: [1.0, 2.0, 3.0])
        writer.close()
        reader = PersistentSolveCache(path)
        calls = []
        value = reader.memoize(key, lambda: calls.append(1))
        assert value == [1.0, 2.0, 3.0]
        assert calls == []  # pure hit, no recompute
        assert reader.hits == 1

    def test_eviction_is_oldest_written_first(self, tmp_path):
        cache = PersistentSolveCache(
            str(tmp_path / "evict.sqlite"), max_entries=3
        )
        with use_telemetry(Telemetry()) as telemetry:
            for i in range(5):
                cache.store(f"k{i}", float(i))
            assert len(cache) == 3
            assert cache.lookup("k0") is None
            assert cache.lookup("k1") is None
            assert cache.lookup("k4") == 4.0
            assert cache.evictions == 2
            assert telemetry.count("cache_evictions") == 2

    def test_unpicklable_values_stay_process_local(self, tmp_path):
        path = str(tmp_path / "local.sqlite")
        cache = PersistentSolveCache(path)
        value = lambda: None  # noqa: E731 - deliberately unpicklable
        cache.store("fn", value)
        assert cache.lookup("fn") is value  # cached for this process
        other = PersistentSolveCache(path)
        assert other.lookup("fn") is None  # never hit the disk

    def test_works_through_module_scoping(self, tmp_path):
        path = str(tmp_path / "scoped.sqlite")
        with use_cache(PersistentSolveCache(path)) as cache:
            assert memoize("key", lambda: 5.0) == 5.0
            assert memoize("key", lambda: 99.0) == 5.0
            assert cache.hits == 1
        # install_cache is the worker-process path: permanent swap,
        # returning the previous cache so tests can restore it.
        fresh = PersistentSolveCache(path)
        previous = install_cache(fresh)
        try:
            assert memoize("key", lambda: 99.0) == 5.0  # disk hit
        finally:
            install_cache(previous)
