"""Heterogeneous compiled scenarios as service load.

A production screening service never sees one die design at a time: the
queue interleaves requests from whatever products are on the testers.
:class:`ScenarioStream` models that -- it takes several
:class:`~repro.compiler.compile.CompiledArchitecture` scenarios (or the
specs to compile them from) and emits one deterministic, round-robin
interleaved :class:`~repro.service.request.ScreenRequest` stream.

The interleaving is built to exercise the service's family coalescing:
scenarios share the engine recipe and variation model but carry
*different* die populations (different netlist fingerprints), so
adjacent requests from different scenarios at the same supply fall into
one topology family with distinct exact keys -- exactly the load that
makes ``coalesce="family"`` coalesce across scenarios
(``service.family_span`` > 1) while ``coalesce="exact"`` fragments into
per-netlist batches.  Both policies must (and do) return bit-identical
measurements; the ``compiler-smoke`` bench asserts it.

The stream subclasses :class:`~repro.workloads.loadgen.ServiceLoadGenerator`,
so the closed-loop and open-loop load models (and their
:class:`~repro.workloads.loadgen.LoadReport`) work unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.compiler.compile import CompiledArchitecture, compile_die
from repro.compiler.spec import DieSpec
from repro.service.request import ScreenRequest
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import get_telemetry
from repro.workloads.generator import TsvRecord
from repro.workloads.loadgen import ServiceLoadGenerator

__all__ = ["ScenarioStream"]


class ScenarioStream(ServiceLoadGenerator):
    """Round-robin request stream over heterogeneous compiled scenarios.

    Request ``i`` draws from scenario ``i % k``; within a scenario the
    supply cycles fastest and the TSV walk follows, so one round of
    ``k`` consecutive requests visits every scenario at the same supply
    position -- the family-coalescible ordering.  Seeds derive from
    ``seed`` and the request index exactly like the homogeneous
    generator, so the stream is bit-reproducible.

    Args:
        scenarios: Compiled architectures, or die specs to compile.
        seed: Master stream seed.
        m: Segments per measurement (paper's M).
        num_samples: Monte Carlo draw per request (1 = the coalescible
            production path).
        variation: Process-variation model for every request; ``None``
            uses the first scenario's spec variation (heterogeneous
            variations would split the topology families).
        deadline_s: Optional per-request deadline.
        priority: Scheduling class for every request.
    """

    def __init__(
        self,
        scenarios: Sequence[Union[CompiledArchitecture, DieSpec]],
        *,
        seed: int = 0,
        m: int = 1,
        num_samples: Optional[int] = 1,
        variation: Optional[ProcessVariation] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
    ):
        if not scenarios:
            raise ValueError("need at least one scenario")
        self.scenarios: List[CompiledArchitecture] = [
            s if isinstance(s, CompiledArchitecture) else compile_die(s)
            for s in scenarios
        ]
        # The load-model plumbing of the parent class only touches
        # these; the population walk itself is overridden below.
        self.population = self.scenarios[0].population()
        self.seed = seed
        self.voltages = tuple(self.scenarios[0].voltages)
        self.m = m
        self.num_samples = num_samples
        self.variation = (
            variation if variation is not None
            else self.scenarios[0].spec.variation
        )
        self.deadline_s = deadline_s
        self.priority = priority

    def requests(self, n: int) -> List[ScreenRequest]:
        """The first ``n`` requests of the interleaved stream."""
        k = len(self.scenarios)
        records: List[List[TsvRecord]] = [
            s.population().records for s in self.scenarios
        ]
        supplies: List[Sequence[float]] = [
            s.voltages for s in self.scenarios
        ]
        out: List[ScreenRequest] = []
        for i in range(n):
            s = i % k
            j = i // k  # per-scenario position
            scenario = self.scenarios[s]
            vdds = supplies[s]
            vdd = vdds[j % len(vdds)]
            record = records[s][(j // len(vdds)) % len(records[s])]
            out.append(ScreenRequest(
                tsv=record.tsv,
                m=self.m,
                vdd=vdd,
                seed=self.seed * 1_000_003 + i,
                variation=self.variation,
                num_samples=self.num_samples,
                deadline_s=self.deadline_s,
                priority=self.priority,
                tags={
                    "scenario": scenario.label,
                    "tsv_index": str(record.index),
                },
            ))
        get_telemetry().incr("compiler.stream_requests", n)
        return out
