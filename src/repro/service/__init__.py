"""Async screening service with micro-batching and admission control.

This package serves online pre-bond screening requests on top of the
batch-mode measurement engines: requests are admitted through a bounded
queue (backpressure or load-shedding), dynamically micro-batched by
engine compatibility key so concurrent requests share one stacked
Monte-Carlo solve, scheduled deadline-aware, and answered with typed
responses carrying per-stage latency breakdowns.  Solves run on a
configurable transport: in-process worker threads (default) or worker
processes fed through the executor's pickle pipe
(``ServiceConfig(transport="process")``).

Quickstart::

    from repro.service import ScreenRequest, ScreeningService

    async with ScreeningService(engine="stagedelay") as service:
        response = await service.submit(ScreenRequest(tsv=Tsv()))
        print(response.delta_t, response.latency.total_s)

See ``DESIGN.md`` section 3.5 for the pipeline architecture.
"""

from repro.service.admission import AdmissionPolicy, AdmissionQueue
from repro.service.batcher import Batch, DispatchQueue, MicroBatcher
from repro.service.request import (
    ResponseStatus,
    ScreenRequest,
    ScreenResponse,
    StageLatency,
)
from repro.service.service import (
    TRANSPORTS,
    ScreeningService,
    ServiceConfig,
)
from repro.service.worker import (
    EngineCache,
    ProcessTransport,
    ThreadTransport,
    WorkerPool,
    WorkerTransport,
    make_transport,
)

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "Batch",
    "DispatchQueue",
    "EngineCache",
    "MicroBatcher",
    "ProcessTransport",
    "ResponseStatus",
    "ScreenRequest",
    "ScreenResponse",
    "ScreeningService",
    "ServiceConfig",
    "StageLatency",
    "ThreadTransport",
    "TRANSPORTS",
    "WorkerPool",
    "WorkerTransport",
    "make_transport",
]
