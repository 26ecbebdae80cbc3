"""Fleet-invariant rule passes; importing this package registers them.

Each module registers its rules in :data:`repro.lint.framework.RULES`
via the :func:`repro.lint.framework.rule` decorator, exactly the way
netlist rules register in :mod:`repro.spice.staticcheck` -- one
analyzer idiom, two subject domains (netlists there, this codebase
here).

=========  ==========================================================
family     invariant it guards
=========  ==========================================================
``PKL``    everything crossing a ``ProcessPoolExecutor`` boundary
           must be transitively picklable
``AIO``    nothing reachable inside ``async def`` may block the
           event loop
``CAP``    workload layers route engine access through declared
           capabilities; no ``hasattr``/``isinstance`` probing
``TEL``    every telemetry metric name is registered, kind-correct,
           and namespaced
``RACE``   no unsynchronized mutation of shared module state from
           thread-pool worker paths
``DET``    every random stream is explicitly seeded
=========  ==========================================================
"""

from repro.lint.passes import (  # noqa: F401  (imported for registration)
    aio,
    cap,
    det,
    pkl,
    race,
    tel,
)

__all__ = ["aio", "cap", "det", "pkl", "race", "tel"]
