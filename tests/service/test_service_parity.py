"""Numerical parity: the service path changes scheduling, not numbers.

Three pins, in increasing strictness:

* service answers reproduce the checked-in ``delta_t_parity.json``
  goldens through the solo (scalar) path;
* micro-batched Monte-Carlo answers are *bit-identical* to serial
  ``engine.measure`` calls -- while provably coalescing (telemetry
  proves requests shared solves);
* the service reproduces :meth:`ScreeningFlow._measure` bit-for-bit,
  so an online deployment screens exactly like the offline flow.
"""

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engines import registry as engine_registry
from repro.core.session import ReferenceBand
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.service import ResponseStatus, ScreenRequest, ScreeningService
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import use_telemetry
from repro.workloads import ScreeningFlow

#: Coarse-timestep spec for the MC parity cases (fast; parity is exact
#: at any timestep because both sides share it).
COARSE = engine_registry.spec("stagedelay", timestep=40e-12)


def run(coro):
    return asyncio.run(coro)


class TestGoldenParity:
    """Service scalar answers reproduce ``delta_t_parity.json``."""

    GOLDEN_TOL = 0.05e-12

    @pytest.fixture(scope="class")
    def golden(self):
        path = Path(__file__).parent.parent / "data" / "delta_t_parity.json"
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def engine(self, golden):
        spec = engine_registry.spec(
            "stagedelay", timestep=golden["engine"]["timestep_s"]
        )
        return spec.build(vdd=golden["engine"]["vdd"])

    def test_scalar_goldens_through_service(self, golden, engine):
        x = golden["x_open"]
        tsvs = [Tsv()] + [
            Tsv(fault=ResistiveOpen(r_open, x))
            for r_open in golden["r_open_ohm"]
        ]
        want = [golden["scalar"]["fault_free"]] + list(
            golden["scalar"]["open"]
        )

        async def scenario():
            requests = [
                ScreenRequest(tsv=tsv, num_samples=None) for tsv in tsvs
            ]
            async with ScreeningService(engine=engine) as service:
                return await service.submit_many(requests)

        responses = run(scenario())
        for response, expected in zip(responses, want):
            assert response.status is ResponseStatus.OK
            # Scalar requests take the solo path: no coalescing possible.
            assert response.batch_size == 1
            assert response.delta_t == pytest.approx(
                expected, abs=self.GOLDEN_TOL
            )


class TestBatchedBitIdentity:
    """Coalesced service answers == serial measure answers, bit for bit."""

    @pytest.fixture(scope="class")
    def engine(self):
        return COARSE.build()

    def requests(self):
        variation = ProcessVariation()
        tsvs = [Tsv(), Tsv(fault=Leakage(5e4))]
        return [
            ScreenRequest(
                tsv=tsv, m=1, seed=seed, variation=variation, num_samples=1
            )
            for tsv in tsvs for seed in range(4)
        ]

    def test_service_matches_serial_measure_bit_identical(self, engine):
        serial = [
            engine.measure(request.to_measurement())
            for request in self.requests()
        ]

        async def scenario():
            async with ScreeningService(
                engine=engine, batch_window_s=0.02, max_batch_size=16
            ) as service:
                return await service.submit_many(self.requests())

        with use_telemetry() as telemetry:
            responses = run(scenario())
            snapshot = telemetry.snapshot()

        assert all(r.status is ResponseStatus.OK for r in responses)
        for response, expected in zip(responses, serial):
            assert response.delta_t == expected.delta_t  # bit-identical
            assert response.vdd == expected.vdd
            np.testing.assert_array_equal(
                response.samples, expected.samples
            )
        # ... and the equality must have been earned: requests shared
        # solves rather than degenerating into singletons.
        assert snapshot["counters"]["service.coalesced"] >= 8
        assert max(r.batch_size for r in responses) > 1
        occupancy = snapshot["histograms"]["service.batch_occupancy"]
        assert occupancy["max"] > 1

    def test_per_request_vdd_respected_in_batches(self, engine):
        variation = ProcessVariation()
        requests = [
            ScreenRequest(
                tsv=Tsv(), vdd=vdd, seed=seed, variation=variation,
                num_samples=1,
            )
            for vdd in (None, 0.8) for seed in range(2)
        ]
        serial = [
            engine.measure(request.to_measurement()) for request in requests
        ]

        async def scenario():
            async with ScreeningService(
                engine=engine, batch_window_s=0.02
            ) as service:
                return await service.submit_many(requests)

        responses = run(scenario())
        for response, expected in zip(responses, serial):
            assert response.status is ResponseStatus.OK
            assert response.vdd == expected.vdd
            assert response.delta_t == expected.delta_t
        # The two supplies must not have been mixed into one solve.
        assert responses[0].vdd != responses[2].vdd


class TestFlowParity:
    """The service screens exactly like the serial ScreeningFlow."""

    def test_measurement_path_matches_flow(self):
        vdd = 1.0
        variation = ProcessVariation()
        # Precomputed (dummy) bands skip characterization: this test is
        # about the measurement path, not the acceptance thresholds.
        flow = ScreeningFlow(
            COARSE,
            voltages=[vdd],
            variation=variation,
            bands={vdd: ReferenceBand(0.0, 1.0)},
            preflight=False,
        )
        tsvs = [Tsv(), Tsv(fault=ResistiveOpen(2e3, 0.4))]
        flow_values = [
            flow._measure(vdd, [(tsv, seed)])[0]
            for tsv in tsvs for seed in range(3)
        ]

        async def scenario():
            requests = [
                ScreenRequest(
                    tsv=tsv, vdd=vdd, seed=seed, variation=variation,
                    num_samples=1,
                )
                for tsv in tsvs for seed in range(3)
            ]
            async with ScreeningService(
                engine=COARSE, batch_window_s=0.02
            ) as service:
                return await service.submit_many(requests)

        responses = run(scenario())
        assert [r.delta_t for r in responses] == flow_values


class TestCoalescePolicies:
    """The three grouping policies trade batch width for key strictness.

    ``"family"`` (default) must widen coalescing across circuit-content
    variants without changing any number; ``"exact"`` restores the
    pre-family grouping; ``"none"`` disables coalescing entirely.
    """

    def requests(self):
        variation = ProcessVariation()
        tsvs = [Tsv(), Tsv(fault=Leakage(5e4)), Tsv(fault=ResistiveOpen(2e3))]
        return [
            ScreenRequest(
                tsv=tsv, seed=seed, variation=variation, num_samples=1
            )
            for tsv in tsvs for seed in range(2)
        ]

    def run_policy(self, engine, coalesce):
        async def scenario():
            async with ScreeningService(
                engine=engine, batch_window_s=0.02, coalesce=coalesce
            ) as service:
                return await service.submit_many(self.requests())

        with use_telemetry() as telemetry:
            responses = run(scenario())
            snapshot = telemetry.snapshot()
        assert all(r.status is ResponseStatus.OK for r in responses)
        return responses, snapshot

    def test_family_policy_packs_across_faults_bit_identically(self):
        engine = COARSE.build()
        serial = [
            engine.measure(request.to_measurement())
            for request in self.requests()
        ]
        responses, snapshot = self.run_policy(engine, "family")
        for response, expected in zip(responses, serial):
            assert response.delta_t == expected.delta_t
            np.testing.assert_array_equal(response.samples, expected.samples)
        # One family batch spanning all three exact groups, run as one
        # value-stacked on/bypassed pair per structure (fault-free, leak,
        # open) -- no ragged pack, no one-by-one fallback.
        assert snapshot["histograms"]["service.family_span"]["max"] == 3
        assert snapshot["histograms"]["service.batch_occupancy"]["max"] == 6
        assert snapshot["counters"]["stagedelay.stacked_pairs"] == 3
        assert snapshot["counters"].get("ragged.packs", 0) == 0
        assert snapshot["counters"].get("stagedelay.stack_fallbacks", 0) == 0

    def test_exact_policy_never_spans_exact_groups(self):
        responses, snapshot = self.run_policy(COARSE.build(), "exact")
        assert snapshot["histograms"]["service.family_span"]["max"] == 1
        # Same-fault requests still coalesce (occupancy 2 per group).
        assert snapshot["histograms"]["service.batch_occupancy"]["max"] == 2
        assert snapshot["counters"].get("ragged.packs", 0) == 0

    def test_none_policy_solves_every_request_alone(self):
        responses, snapshot = self.run_policy(COARSE.build(), "none")
        assert all(r.batch_size == 1 for r in responses)
        assert snapshot["histograms"]["service.batch_occupancy"]["max"] == 1

    def test_policies_agree_numerically(self):
        engine = COARSE.build()
        family, _ = self.run_policy(engine, "family")
        exact, _ = self.run_policy(engine, "exact")
        none, _ = self.run_policy(engine, "none")
        for a, b, c in zip(family, exact, none):
            assert a.delta_t == b.delta_t == c.delta_t

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="coalesce policy"):
            ScreeningService(engine=COARSE, coalesce="fuzzy")
