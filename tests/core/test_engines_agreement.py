"""Cross-engine agreement: every registered engine must tell the same story.

Two layers of checks:

* the original pairwise scale agreements (stage vs analytic cheaply,
  stage vs the full transistor loop at the key points), and
* a registry-enumerated parity matrix: for every engine the registry
  knows, the paper's fault signatures must hold -- a resistive open
  *decreases* DeltaT, leakage just above the oscillation-stop threshold
  *increases* it -- at both ends of the voltage plan, and every engine
  pair must agree on the signs.  Registering a fourth backend without
  adding it to the matrix fails the coverage test on purpose.

A golden-fixture class additionally pins registry-built engines to
``tests/data/delta_t_parity.json`` so the registry construction path
provably changes no numerics.
"""

import itertools
import json
import math
from pathlib import Path

import pytest

from repro.core.engines import (
    AnalyticEngine,
    StageDelayEngine,
    TransistorLevelEngine,
)
from repro.core.engines import registry as engine_registry
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv


CFG = RingOscillatorConfig(num_segments=3, vdd=1.1)


@pytest.fixture(scope="module")
def stage():
    return StageDelayEngine(config=CFG, timestep=2e-12)


@pytest.fixture(scope="module")
def analytic():
    return AnalyticEngine(CFG)


@pytest.fixture(scope="module")
def full():
    return TransistorLevelEngine(config=CFG, timestep=2e-12)


class TestStageVsAnalytic:
    def test_fault_free_delta_t_same_scale(self, stage, analytic):
        d_stage = stage.delta_t(Tsv())
        d_analytic = analytic.delta_t(Tsv())
        assert d_analytic == pytest.approx(d_stage, rel=0.5)

    def test_open_signature_same_scale(self, stage, analytic):
        fault = ResistiveOpen(1000.0, 0.5)
        shift_stage = stage.delta_t(Tsv(fault=fault)) - stage.delta_t(Tsv())
        shift_analytic = (
            analytic.delta_t(Tsv(fault=fault)) - analytic.delta_t(Tsv())
        )
        assert shift_stage < 0 and shift_analytic < 0
        assert shift_analytic == pytest.approx(shift_stage, rel=0.6)

    def test_stop_thresholds_same_scale(self, stage, analytic):
        r_analytic = analytic.oscillation_stop_r_leak()

        def stage_oscillates(r):
            try:
                return math.isfinite(stage.delta_t(Tsv(fault=Leakage(r))))
            except RuntimeError:
                return False

        assert not stage_oscillates(r_analytic / 3.0)
        assert stage_oscillates(r_analytic * 3.0)


@pytest.mark.slow
class TestFullLoopVsStage:
    def test_periods_agree(self, full, stage):
        tsvs = [Tsv()] * 3
        for enabled in ([True] * 3, [False] * 3):
            t_full = full.period(tsvs, enabled)
            t_stage = stage.period(tsvs, enabled)
            assert t_stage == pytest.approx(t_full, rel=0.25)

    def test_delta_t_agrees(self, full, stage):
        d_full = full.delta_t(Tsv())
        d_stage = stage.delta_t(Tsv())
        assert d_stage == pytest.approx(d_full, rel=0.2)

    def test_open_ordering_agrees(self, full, stage):
        fault = ResistiveOpen(1500.0, 0.5)
        shift_full = full.delta_t(Tsv(fault=fault)) - full.delta_t(Tsv())
        shift_stage = stage.delta_t(Tsv(fault=fault)) - stage.delta_t(Tsv())
        assert shift_full < 0
        assert shift_stage == pytest.approx(shift_full, rel=0.5, abs=10e-12)

    def test_strong_leak_sticks_the_real_loop(self, full):
        with pytest.raises(RuntimeError):
            full.delta_t(Tsv(fault=Leakage(150.0)))


# ----------------------------------------------------------------------
# Registry-enumerated parity matrix
# ----------------------------------------------------------------------
#: Open fault every engine must see as a DeltaT *decrease*.
OPEN_FAULT = ResistiveOpen(1000.0, 0.5)
#: Leakage probe, as a multiple of the analytic oscillation-stop
#: resistance: just above the stop, inside the Fig. 8 sensitivity window
#: where every engine must see a DeltaT *increase*.
LEAK_STOP_FACTOR = 1.15
#: Engines cheap enough to run at every plan voltage; the transistor
#: loop is multi-second per point and stays at nominal supply.
FAST_ENGINES = frozenset({"analytic", "stagedelay"})

MATRIX_CELLS = (
    ("analytic", 1.1),
    ("analytic", 0.8),
    ("stagedelay", 1.1),
    ("stagedelay", 0.8),
    ("transistor", 1.1),
)


def _cell_params(cells):
    return [
        pytest.param(
            name, vdd, id=f"{name}@{vdd:.1f}V",
            marks=() if name in FAST_ENGINES else (pytest.mark.slow,),
        )
        for name, vdd in cells
    ]


_signature_cache = {}


def signature(name, vdd):
    """Memoized DeltaT signature of engine ``name`` at ``vdd``.

    Returns fault-free DeltaT plus the shifts under the shared open
    fault and the shared just-above-stop leakage probe.  Memoized at
    module scope because the transistor cells cost seconds each.
    """
    key = (name, vdd)
    if key not in _signature_cache:
        cfg = RingOscillatorConfig(num_segments=3, vdd=vdd)
        options = {} if name == "analytic" else {"timestep": 2e-12}
        engine = engine_registry.get(name, config=cfg, **options)
        stop = engine_registry.get(
            "analytic", config=cfg
        ).oscillation_stop_r_leak()
        ff = engine.delta_t(Tsv())
        leak = Leakage(LEAK_STOP_FACTOR * stop)
        _signature_cache[key] = {
            "ff": ff,
            "open_shift": engine.delta_t(Tsv(fault=OPEN_FAULT)) - ff,
            "leak_shift": engine.delta_t(Tsv(fault=leak)) - ff,
        }
    return _signature_cache[key]


class TestSignatureMatrix:
    def test_matrix_covers_every_registered_engine(self):
        """Adding a backend to the registry must extend this matrix."""
        assert set(engine_registry.names()) == {n for n, _ in MATRIX_CELLS}

    @pytest.mark.parametrize("name,vdd", _cell_params(MATRIX_CELLS))
    def test_fault_free_is_finite_positive(self, name, vdd):
        sig = signature(name, vdd)
        assert math.isfinite(sig["ff"]) and sig["ff"] > 0.0

    @pytest.mark.parametrize("name,vdd", _cell_params(MATRIX_CELLS))
    def test_resistive_open_decreases_delta_t(self, name, vdd):
        assert signature(name, vdd)["open_shift"] < 0.0

    @pytest.mark.parametrize("name,vdd", _cell_params(MATRIX_CELLS))
    def test_window_leakage_increases_delta_t(self, name, vdd):
        assert signature(name, vdd)["leak_shift"] > 0.0


def _pair_params():
    params = []
    for vdd in (1.1, 0.8):
        names = sorted({n for n, v in MATRIX_CELLS if v == vdd})
        for a, b in itertools.combinations(names, 2):
            slow = not {a, b} <= FAST_ENGINES
            params.append(pytest.param(
                a, b, vdd, id=f"{a}-vs-{b}@{vdd:.1f}V",
                marks=(pytest.mark.slow,) if slow else (),
            ))
    return params


class TestPairwiseSignAgreement:
    @pytest.mark.parametrize("a,b,vdd", _pair_params())
    def test_fault_shift_signs_agree(self, a, b, vdd):
        sig_a, sig_b = signature(a, vdd), signature(b, vdd)
        assert math.copysign(1, sig_a["open_shift"]) == math.copysign(
            1, sig_b["open_shift"]
        )
        assert math.copysign(1, sig_a["leak_shift"]) == math.copysign(
            1, sig_b["leak_shift"]
        )


# ----------------------------------------------------------------------
# Golden-fixture parity through the registry construction path
# ----------------------------------------------------------------------
class TestRegistryGoldenParity:
    """A registry-built stage engine reproduces the checked-in goldens.

    ``tests/spice/test_linalg.py`` pins the directly
    constructed ``StageDelayEngine`` to ``delta_t_parity.json``; this
    class pins the ``registry.get`` / ``EngineSpec`` construction path
    to the same numbers, so the registry provably changes no numerics.
    """

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

    def test_scalar_goldens_via_registry(self, golden, engine):
        ff = engine.delta_t(Tsv())
        assert ff == pytest.approx(golden["scalar"]["fault_free"],
                                   abs=self.GOLDEN_TOL)
        x = golden["x_open"]
        for r_open, want in zip(golden["r_open_ohm"],
                                golden["scalar"]["open"]):
            got = engine.delta_t(Tsv(fault=ResistiveOpen(r_open, x)))
            assert got == pytest.approx(want, abs=self.GOLDEN_TOL)

    def test_batched_goldens_via_registry(self, golden, engine):
        got = engine.delta_t_sweep_rl(golden["r_leak_ohm"])
        for value, want in zip(got, golden["batched"]["leak"]):
            assert value == pytest.approx(want, abs=self.GOLDEN_TOL)
