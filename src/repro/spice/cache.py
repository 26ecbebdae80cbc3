"""Content-addressed memoization for repeated circuit solves.

A wafer-scale screening run re-solves the *same* circuits thousands of
times: every die shares the fault-free characterization bands per supply
voltage, and every group's bypass-path T2 reference is the same circuit
regardless of which TSV sits behind the bypassed mux.  This module
provides the cache that collapses that duplicate work.

Keys are **content-addressed**: a SHA-256 digest over a canonical
serialization of everything that determines the result -- the circuit
netlist (element kinds, nodes, values, source waveforms, MOSFET model
parameters), the engine parameters (timestep, supply, segment count),
and the analysis inputs (variation sigmas, sample counts, seeds).  Two
callers that build identical circuits through different code paths hit
the same entry; any parameter change, however small, misses.

Two stores implement the same surface:

* :class:`SolveCache` -- the in-process dict (one process, one run);
* :class:`PersistentSolveCache` -- a sqlite-backed on-disk store shared
  across wafer worker processes, :class:`~repro.service.ScreeningService`
  restarts, and CI runs.  Entries are checksummed so a partially written
  row is never returned, writes are transactional (WAL journaling, busy
  retries), and a corrupted store degrades to recompute-with-warning
  instead of crashing the wafer run.

Hits and misses are accounted in the current :mod:`repro.telemetry`
registry (``cache_hits`` / ``cache_misses``; persistent stores also emit
``cache_evictions`` and ``cache_store_errors``), so the wafer benchmark
can report the hit rate alongside its throughput numbers.

Scoping mirrors the telemetry registry: a process-wide default cache,
swappable with :func:`use_cache` (or permanently with
:func:`install_cache`, which the wafer engine uses to hand worker
processes the parent's persistent store); :func:`cache_disabled` turns
caching off for a block (every ``memoize`` computes), which the
benchmarks use to measure the uncached baseline.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import time
import warnings
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

import numpy as np

from repro.spice.netlist import Circuit
from repro.telemetry import get_telemetry

__all__ = [
    "PersistentSolveCache",
    "SolveCache",
    "cache_disabled",
    "circuit_fingerprint",
    "fingerprint",
    "get_cache",
    "install_cache",
    "memoize",
    "memoize_many",
    "structure_fingerprint",
    "use_cache",
]

T = TypeVar("T")

#: Sentinel distinguishing "no entry" from a cached ``None``.
_MISSING: Any = object()


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------
def _canonical(obj: Any, out: list, depth: int = 0) -> None:
    """Append a canonical text form of ``obj`` to ``out``.

    Handles the value types that appear in cache keys: scalars, strings,
    sequences, dicts (sorted), numpy arrays (dtype + shape + bytes),
    dataclasses (class name + field values, recursively), and circuits.
    Falls back to ``repr`` for anything else, which is deterministic for
    every type the solver stack uses.
    """
    if depth > 12:
        raise ValueError("cache key nesting too deep")
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(float(obj).hex())
    elif isinstance(obj, np.generic):
        # numpy scalars canonicalize as their python equivalents so
        # ``np.float32(0.8)`` / ``np.int64(5)`` key identically to the
        # python float/int a different code path would have passed.
        # (np.float64 subclasses float and is caught above -- same key.)
        _canonical(obj.item(), out, depth + 1)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out.append(f"ndarray{arr.dtype.str}{arr.shape}")
        out.append(arr.tobytes().hex())
    elif isinstance(obj, Circuit):
        out.append(circuit_fingerprint(obj))
    elif is_dataclass(obj) and not isinstance(obj, type):
        out.append(type(obj).__name__ + "(")
        for f in fields(obj):
            out.append(f.name + "=")
            _canonical(getattr(obj, f.name), out, depth + 1)
        out.append(")")
    elif isinstance(obj, dict):
        out.append("{")
        for key in sorted(obj, key=repr):
            _canonical(key, out, depth + 1)
            out.append(":")
            _canonical(obj[key], out, depth + 1)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _canonical(item, out, depth + 1)
            out.append(",")
        out.append("]")
    else:
        out.append(repr(obj))


def fingerprint(*parts: Any) -> str:
    """SHA-256 digest of the canonical serialization of ``parts``."""
    out: list = []
    for part in parts:
        _canonical(part, out)
        out.append(";")
    digest = hashlib.sha256("\x1f".join(out).encode()).hexdigest()
    return digest


def _netlist_digest(
    circuit: Circuit, header: str, masked: Optional[Collection[str]]
) -> str:
    """SHA-256 over the netlist lines, with masked element values as ``*``.

    ``masked=None`` masks every element value; otherwise only the named
    elements' values are masked.
    """

    def value(name: str, text: str) -> str:
        return "*" if masked is None or name in masked else text

    out: list = [header, circuit.title]
    for r in circuit.resistors:
        out.append(f"R|{r.name}|{r.n1}|{r.n2}|"
                   + value(r.name, float(r.resistance).hex()))
    for c in circuit.capacitors:
        out.append(f"C|{c.name}|{c.n1}|{c.n2}|"
                   + value(c.name, float(c.capacitance).hex()))
    for v in circuit.vsources:
        out.append(f"V|{v.name}|{v.npos}|{v.nneg}|"
                   + value(v.name, repr(v.waveform)))
    for i in circuit.isources:
        out.append(f"I|{i.name}|{i.npos}|{i.nneg}|"
                   + value(i.name, repr(i.waveform)))
    for m in circuit.mosfets:
        out.append(
            f"M|{m.name}|{m.drain}|{m.gate}|{m.source}|{m.bulk}|"
            + value(m.name, f"{m.model!r}|{float(m.w).hex()}"
                            f"|{float(m.l).hex()}")
        )
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content digest of a netlist: every element, node, and value.

    Element *order* is included: the stamp plans and mismatch streams
    both depend on build order, so circuits that differ only in ordering
    are deliberately distinct.
    """
    return _netlist_digest(circuit, "circuit:", masked=())


def structure_fingerprint(
    circuit: Circuit, masked: Optional[Collection[str]] = None
) -> str:
    """Digest of a netlist's structure: its values masked out.

    Names, node wiring and build order stay in.  ``masked=None`` masks
    every element value (a pure topology: the supply, device sizes and
    resistances all drop out); a collection of element names masks only
    theirs.  Two circuits with equal structure fingerprints compile to
    the same stamp plan and differ only in the masked values, so they
    can run as corners of one batched simulation with those values as
    per-corner overrides.
    """
    return _netlist_digest(circuit, "structure:", masked)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class SolveCache:
    """In-memory content-addressed store for solve results.

    Values are whatever the compute function returns (floats, numpy
    arrays, :class:`~repro.core.session.ReferenceBand` objects ...);
    callers must treat them as immutable -- the cache hands back the
    stored object, not a copy.

    Args:
        max_entries: Evict oldest-inserted entries beyond this count
            (``None`` = unbounded; characterization results are small).
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        self._store: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def _get(self, key: str, default: Any) -> Any:
        """Fetch ``key`` or ``default``; the single point subclasses override."""
        return self._store.get(key, default)

    def lookup(self, key: str) -> Any:
        value = self._get(key, _MISSING)
        return None if value is _MISSING else value

    def store(self, key: str, value: Any) -> None:
        if self.max_entries is not None and key not in self._store:
            while len(self._store) >= self.max_entries:
                self._store.pop(next(iter(self._store)))
                self.evictions += 1
                get_telemetry().incr("cache_evictions")
        self._store[key] = value

    def memoize(self, key: str, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing it on a miss."""
        return self.memoize_many([key], lambda _: [compute()])[0]

    def memoize_many(
        self,
        keys: Sequence[str],
        compute: Callable[[List[int]], Sequence[T]],
    ) -> List[T]:
        """Return the cached values for ``keys``, computing the misses at once.

        ``compute`` receives the positions of the missing keys and
        returns their values in that order.  Hits, misses and stores
        are accounted key by key in order, so a key repeated after its
        first miss is a hit; :meth:`memoize` is the one-key case.
        """
        values: List[Any] = [self._get(key, _MISSING) for key in keys]
        first: Dict[str, int] = {}
        for pos, (key, value) in enumerate(zip(keys, values)):
            if value is _MISSING and key not in first:
                first[key] = pos
        fresh = compute(list(first.values())) if first else []
        stored = dict(zip(first, fresh))
        for key, value in stored.items():
            self.store(key, value)
        out: List[T] = []
        for pos, (key, value) in enumerate(zip(keys, values)):
            if first.get(key) == pos:
                self.misses += 1
                get_telemetry().incr("cache_misses")
                out.append(stored[key])
            else:
                self.hits += 1
                get_telemetry().incr("cache_hits")
                out.append(stored[key] if value is _MISSING else value)
        return out

    def clear(self) -> None:
        self._store.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
        }


class PersistentSolveCache(SolveCache):
    """Sqlite-backed content-addressed store shared across processes.

    Same surface and key schema as :class:`SolveCache` -- a drop-in for
    :func:`use_cache` / :func:`install_cache` -- but entries live in an
    on-disk sqlite database, so characterization bands and guard periods
    computed by one wafer worker (or one CI run) are hits for every
    other process that opens the same path.

    Durability and safety properties:

    * **Process-safe writes.** WAL journaling plus a generous busy
      timeout; each write is a single transaction, and the connection is
      re-opened after a ``fork`` (pid-checked) so pool workers never
      share a connection object.
    * **Torn entries are never returned.** Every row stores a SHA-256
      checksum of its pickled payload; a row whose blob fails the
      checksum (or fails to unpickle) reads as a *miss* and is dropped
      so the recomputed value replaces it.
    * **Corruption degrades, never crashes.** Any
      :class:`sqlite3.Error` -- including opening a garbage file --
      emits a single :class:`RuntimeWarning`, bumps the
      ``cache_store_errors`` counter, and flips the instance into
      in-memory recompute mode for the rest of its life.
    * **Bounded size.** ``max_entries`` evicts oldest-inserted rows on
      store, accounted in ``cache_evictions`` telemetry.

    Instances pickle as (path, max_entries) and reconnect lazily on
    unpickle, which is how the wafer engine ships the store to its
    worker processes.  Hit/miss counters are per-process.

    Values must be picklable; a value that is not stays process-local
    (stored in the in-memory dict only), so callers never lose caching
    entirely.
    """

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS solve_cache ("
        "  key TEXT PRIMARY KEY,"
        "  checksum TEXT NOT NULL,"
        "  value BLOB NOT NULL)"
    )

    #: Tries at opening the store before an ``OperationalError`` degrades
    #: it.  Processes that open a new file at once race to switch it to
    #: WAL, and sqlite can answer "database is locked" to the journal-mode
    #: switch despite the busy timeout (measured: up to about 1 in 100
    #: four-process first opens); a retry a few ms later finds it done.
    _OPEN_ATTEMPTS = 5

    def __init__(self, path: Any, max_entries: Optional[int] = None):
        super().__init__(max_entries=max_entries)
        self.path = os.fspath(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        self._degraded = False
        # Connect eagerly so a corrupted store warns at construction,
        # not in the middle of a wafer run.
        self._connection()

    # -- connection management -----------------------------------------
    def _connection(self) -> Optional[sqlite3.Connection]:
        if self._degraded:
            return None
        pid = os.getpid()
        if self._conn is not None and pid == self._pid:
            return self._conn
        for attempt in range(self._OPEN_ATTEMPTS):
            try:
                conn = self._open()
                break
            except sqlite3.OperationalError as exc:
                if attempt + 1 == self._OPEN_ATTEMPTS:
                    self._degrade(exc)
                    return None
                time.sleep(0.01 * (attempt + 1))
            except sqlite3.Error as exc:
                self._degrade(exc)
                return None
        self._conn = conn
        self._pid = pid
        return conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute(self._SCHEMA)
            conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _degrade(self, exc: Exception) -> None:
        """Fall back to in-memory recompute mode, warning once."""
        already = self._degraded
        self._degraded = True
        self._conn = None
        get_telemetry().incr("cache_store_errors")
        if not already:
            warnings.warn(
                f"persistent solve cache at {self.path!r} is unusable"
                f" ({exc}); degrading to in-memory recompute",
                RuntimeWarning,
                stacklevel=4,
            )

    @property
    def degraded(self) -> bool:
        """True once the on-disk store has been abandoned."""
        return self._degraded

    def close(self) -> None:
        """Close the sqlite connection (reopened on next use)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close never fails
                pass
            self._conn = None
            self._pid = None

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path, "max_entries": self.max_entries}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["path"], max_entries=state["max_entries"])  # type: ignore[misc]

    # -- storage -------------------------------------------------------
    def _get(self, key: str, default: Any) -> Any:
        conn = self._connection()
        if conn is None:
            return self._store.get(key, default)
        try:
            row = conn.execute(
                "SELECT checksum, value FROM solve_cache WHERE key = ?",
                (key,),
            ).fetchone()
        except sqlite3.Error as exc:
            self._degrade(exc)
            return self._store.get(key, default)
        if row is None:
            # Values that could not be pickled live only in the
            # in-memory dict (see ``store``); they still count as hits
            # for this process.
            return self._store.get(key, default)
        checksum, blob = row
        if hashlib.sha256(blob).hexdigest() != checksum:
            # Torn or tampered row: read as a miss and drop it so the
            # recomputed value replaces it.
            get_telemetry().incr("cache_store_errors")
            try:
                with conn:
                    conn.execute("DELETE FROM solve_cache WHERE key = ?", (key,))
            except sqlite3.Error:
                pass
            return default
        try:
            return pickle.loads(blob)
        except Exception:
            get_telemetry().incr("cache_store_errors")
            return default

    def store(self, key: str, value: Any) -> None:
        conn = self._connection()
        if conn is None:
            super().store(key, value)
            return
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unpicklable values stay process-local.
            super().store(key, value)
            return
        checksum = hashlib.sha256(blob).hexdigest()
        try:
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO solve_cache"
                    " (key, checksum, value) VALUES (?, ?, ?)",
                    (key, checksum, blob),
                )
                if self.max_entries is not None:
                    cursor = conn.execute(
                        "DELETE FROM solve_cache WHERE rowid IN ("
                        " SELECT rowid FROM solve_cache"
                        " ORDER BY rowid DESC LIMIT -1 OFFSET ?)",
                        (self.max_entries,),
                    )
                    if cursor.rowcount > 0:
                        self.evictions += cursor.rowcount
                        get_telemetry().incr("cache_evictions", cursor.rowcount)
        except sqlite3.Error as exc:
            self._degrade(exc)
            super().store(key, value)

    def __len__(self) -> int:
        conn = self._connection()
        if conn is None:
            return len(self._store)
        try:
            (count,) = conn.execute("SELECT COUNT(*) FROM solve_cache").fetchone()
        except sqlite3.Error as exc:
            self._degrade(exc)
            return len(self._store)
        return int(count)

    def __contains__(self, key: str) -> bool:
        conn = self._connection()
        if conn is None:
            return key in self._store
        try:
            row = conn.execute(
                "SELECT 1 FROM solve_cache WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error as exc:
            self._degrade(exc)
            return key in self._store
        return row is not None

    def clear(self) -> None:
        self._store.clear()
        conn = self._connection()
        if conn is None:
            return
        try:
            with conn:
                conn.execute("DELETE FROM solve_cache")
        except sqlite3.Error as exc:
            self._degrade(exc)


#: Process-wide default cache; ``None`` while caching is disabled.
_CURRENT: Optional[SolveCache] = SolveCache()


def get_cache() -> Optional[SolveCache]:
    """The current cache, or ``None`` when caching is disabled."""
    return _CURRENT


def memoize(key: str, compute: Callable[[], T]) -> T:
    """Memoize through the current cache; plain call when disabled."""
    return memoize_many([key], lambda _: [compute()])[0]


def memoize_many(
    keys: Sequence[str], compute: Callable[[List[int]], Sequence[T]]
) -> List[T]:
    """:meth:`SolveCache.memoize_many` through the current cache.

    With caching disabled every key is computed, in one call.
    """
    cache = _CURRENT
    if cache is None:
        return list(compute(list(range(len(keys)))))
    return cache.memoize_many(keys, compute)


def install_cache(cache: Optional[SolveCache]) -> Optional[SolveCache]:
    """Permanently install ``cache`` as the process-wide default.

    Unlike the scoped :func:`use_cache`, this sticks for the life of the
    process -- it is how wafer worker processes adopt the parent's
    :class:`PersistentSolveCache` in their pool initializer.  Returns
    the previously installed cache so callers that *can* restore it may.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = cache
    return previous


@contextmanager
def use_cache(cache: Optional[SolveCache]) -> Iterator[Optional[SolveCache]]:
    """Make ``cache`` current for the block (``None`` disables caching)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = cache
    try:
        yield cache
    finally:
        _CURRENT = previous


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Disable the solve cache for the block (used by baselines)."""
    with use_cache(None):
        yield
