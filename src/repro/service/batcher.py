"""Dynamic micro-batcher: coalesce compatible requests into shared solves.

The middle stage of the service pipeline.  Requests drain from the
admission queue into *forming groups* keyed by an engine-computed
compatibility key: under the default ``"family"`` coalescing policy the
coarse topology-family key (engine parameters + effective supply -- see
:meth:`repro.core.engines.base.Engine.family_key`), under ``"exact"``
the full batch key with the circuit fingerprint included
(:meth:`~repro.core.engines.base.Engine.batch_key`).  Family groups may
span several exact keys; the engine splits them by structure and stacks
each structure's members into one solve pair inside ``measure_batch``.  A group is flushed to the worker dispatch
queue when the first of three things happens:

* it reaches ``max_batch_size`` (flush immediately -- the solve is as
  amortized as it will get);
* its *batching window* expires: ``batch_window_s`` after the group
  opened, the latency price the service is willing to pay waiting for
  coalescing partners.  A window of 0 still coalesces whatever arrived
  in the same burst, because the batcher greedily drains every entry
  already queued before it checks the clock;
* its earliest member deadline comes within ``deadline_slack_s`` --
  deadline-aware forming: a tight-deadline request never sits out its
  full window.

Dispatch is deadline-aware too: the worker-facing queue is a priority
heap ordered by (priority class, earliest deadline, formation order),
so when workers are the bottleneck, urgent batches jump the line.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.admission import AdmissionQueue
from repro.service.request import PendingEntry

__all__ = ["Batch", "DispatchQueue", "MicroBatcher"]


@dataclass
class Batch:
    """One flushed group, ready for a worker."""

    key: str
    entries: List[PendingEntry]
    formed_at: float
    priority: int
    deadline_at: float  # math.inf when no member has a deadline


class DispatchQueue:
    """Priority heap of formed batches feeding the worker pool.

    Ordering: (priority, deadline_at, seq) -- priority classes first
    (lower = more urgent), earliest deadline within a class, formation
    order as the tiebreak.  ``close(n)`` enqueues ``n`` sentinels that
    sort after every real batch, so workers drain all useful work
    before exiting.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, float, int, Optional[Batch]]] = []
        self._not_empty = asyncio.Event()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, batch: Batch) -> None:
        self._push(float(batch.priority), batch.deadline_at, batch)

    def close(self, num_workers: int) -> None:
        for _ in range(num_workers):
            self._push(math.inf, math.inf, None)

    def _push(
        self, priority: float, deadline_at: float, batch: Optional[Batch]
    ) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (priority, deadline_at, self._seq, batch))
        self._not_empty.set()

    async def get(self) -> Optional[Batch]:
        """Most urgent batch; None when a close sentinel is drawn."""
        while True:
            if self._heap:
                _, _, _, batch = heapq.heappop(self._heap)
                if not self._heap:
                    self._not_empty.clear()
                return batch
            self._not_empty.clear()
            await self._not_empty.wait()


@dataclass
class _FormingGroup:
    """A batch still collecting members."""

    key: str
    opened_at: float
    flush_at: float
    entries: List[PendingEntry] = field(default_factory=list)
    priority: int = 0
    deadline_at: float = math.inf


class MicroBatcher:
    """The dispatcher coroutine between admission and the worker pool."""

    def __init__(
        self,
        admission: AdmissionQueue,
        dispatch: DispatchQueue,
        *,
        batch_window_s: float,
        max_batch_size: int,
        deadline_slack_s: float,
        clock: Callable[[], float],
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if batch_window_s < 0 or deadline_slack_s < 0:
            raise ValueError("windows must be non-negative")
        self._admission = admission
        self._dispatch = dispatch
        self.batch_window_s = batch_window_s
        self.max_batch_size = max_batch_size
        self.deadline_slack_s = deadline_slack_s
        self._clock = clock
        self._groups: Dict[str, _FormingGroup] = {}

    # ------------------------------------------------------------------
    def _add(self, entry: PendingEntry) -> None:
        """Place one admitted entry into its forming group."""
        if entry.future.done():
            return  # expired (or otherwise answered) while queued
        now = self._clock()
        entry.joined_at = now
        group = self._groups.get(entry.key)
        if group is None:
            group = _FormingGroup(
                key=entry.key,
                opened_at=now,
                flush_at=now + self.batch_window_s,
            )
            self._groups[entry.key] = group
        group.entries.append(entry)
        group.priority = min(group.priority, entry.request.priority) \
            if len(group.entries) > 1 else entry.request.priority
        group.deadline_at = min(group.deadline_at, entry.deadline_at)
        if group.deadline_at < math.inf:
            group.flush_at = min(
                group.flush_at, group.deadline_at - self.deadline_slack_s
            )
        if len(group.entries) >= self.max_batch_size:
            self._flush(group)

    def _flush(self, group: _FormingGroup) -> None:
        self._groups.pop(group.key, None)
        entries = [e for e in group.entries if not e.future.done()]
        if not entries:
            return
        self._dispatch.put(Batch(
            key=group.key,
            entries=entries,
            formed_at=self._clock(),
            priority=group.priority,
            deadline_at=group.deadline_at,
        ))

    def _flush_due(self) -> None:
        now = self._clock()
        for group in [g for g in self._groups.values() if g.flush_at <= now]:
            self._flush(group)

    def _flush_all(self) -> None:
        for group in list(self._groups.values()):
            self._flush(group)

    def _next_flush_timeout(self) -> Optional[float]:
        """Seconds until the earliest group flush; None with no groups."""
        if not self._groups:
            return None
        earliest = min(g.flush_at for g in self._groups.values())
        return max(earliest - self._clock(), 0.0)

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Drain admission into batches until closed, then flush all.

        The loop alternates between awaiting the next admitted entry
        (bounded by the earliest group-flush time) and flushing due
        groups.  After every awaited entry it greedily drains whatever
        else is already queued, so a synchronous burst coalesces in one
        pass regardless of the window setting.
        """
        while True:
            timeout = self._next_flush_timeout()
            entry: Optional[PendingEntry]
            timed_out = False
            if timeout is None:
                entry = await self._admission.get()
            else:
                try:
                    entry = await asyncio.wait_for(
                        self._admission.get(), timeout
                    )
                except asyncio.TimeoutError:
                    entry = None
                    timed_out = True
            if entry is not None:
                self._add(entry)
                while True:
                    more = self._admission.get_nowait()
                    if more is None:
                        break
                    self._add(more)
            elif not timed_out:
                # Admission closed and drained: flush everything and stop.
                self._flush_all()
                return
            self._flush_due()
