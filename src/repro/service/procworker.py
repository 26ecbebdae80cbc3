"""The one process-execution substrate: pool construction and tracing.

Every process fan-out in the repo -- the service's process transport
(:class:`~repro.service.worker.ProcessTransport`) and the sharded wafer
engine (:class:`~repro.workloads.wafer.WaferScreeningEngine`) -- builds
its pool through :func:`process_pool` and runs its work items through
:func:`traced`.  That keeps two decisions in one place:

* **The start method.**  Pools prefer ``fork`` where the platform has
  it: worker processes inherit the parent's engine registry, so specs
  for engines registered at runtime (tests, plugins) rehydrate without
  re-imports.
* **Cross-process telemetry.**  :func:`traced` runs one work item under
  a fresh :class:`~repro.telemetry.Telemetry` and returns its snapshot
  beside the result; the parent folds it in with
  :meth:`~repro.telemetry.Telemetry.merge`, so ``measure.*``,
  ``ragged.*`` and solver counters survive the process boundary.

Arguments and results travel through the executor's pickle pipe.  Engines
cross it as picklable :class:`~repro.core.engines.registry.EngineSpec`
recipes and are rehydrated through the per-process
:func:`~repro.core.engines.registry.process_engine_cache` (the ``PKL``
lint rules hold that boundary).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Tuple, TypeVar

from repro.telemetry import Telemetry, use_telemetry

__all__ = ["process_pool", "traced"]

T = TypeVar("T")


def process_pool(
    workers: int,
    initializer: Callable[..., object],
    initargs: Tuple[Any, ...] = (),
) -> ProcessPoolExecutor:
    """A ``workers``-process pool, forked where the platform allows."""
    method = (
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=initializer,
        initargs=initargs,
    )


def traced(
    fn: Callable[..., T], *args: Any
) -> Tuple[T, Dict[str, Dict[str, Any]]]:
    """Run ``fn(*args)`` under a fresh registry; return it with a snapshot."""
    tele = Telemetry()
    with use_telemetry(tele):
        result = fn(*args)
    return result, tele.snapshot()
