"""Round scheduling, reductions and the run record of one benchmark run.

A run sets a workload up several times from cold, interleaved with
equal timed rounds, until its time is spent.  The host this benchmark
was written on drifts in speed by up to 2x, in episodes from a second
to minutes long, so one round is never trusted: every end-to-end
throughput and latency comes from the *median* round of the run (the
fastest round is kept as a diagnostic), and ``setup_s`` from the
fastest set-up.  Every round must leave the same telemetry counters
behind as the first one, which proves the rounds did equal work from
equal cache state.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass
class Round:
    """What one timed round did and how long it took."""

    #: Items completed; failed ones are counted in ``failed`` only.
    items: int
    seconds: float
    failed: int = 0
    #: Per-unit latencies (a request, a die, an MC call), in seconds.
    latencies: List[float] = field(default_factory=list)
    #: Telemetry counters the round left behind.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific outputs the checks compare.
    outputs: Any = None
    #: Workload-specific per-layer numbers (histograms, stage latency).
    layers: Dict[str, float] = field(default_factory=dict)
    #: ``(start, end)`` on the tracer clock, for span attribution.
    window: Tuple[float, float] = (0.0, 0.0)
    traced: bool = False

    @property
    def items_per_s(self) -> float:
        return self.items / self.seconds


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and how many samples lie beyond it.

    Rank ``ceil(q * n)`` (at least 1) of the sorted values, so the
    result is always an observed sample.  The second element is the
    number of samples strictly after that rank: a p90 is meaningful
    only when it is at least ten.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def fastest(rounds: Sequence[Round]) -> Round:
    """The round with the highest throughput; the earliest on ties."""
    if not rounds:
        raise ValueError("no rounds")
    best = rounds[0]
    for candidate in rounds[1:]:
        if candidate.items_per_s > best.items_per_s:
            best = candidate
    return best


def median_items_per_s(rounds: Sequence[Round]) -> float:
    return statistics.median(r.items_per_s for r in rounds)


def by_median(rounds: Sequence[Round]) -> List[Round]:
    """Rounds ordered by distance of their throughput from the median.

    The first is the median round; pooling from the front gathers the
    rounds most typical of the run.  Ties keep run order.
    """
    middle = median_items_per_s(rounds)
    return sorted(rounds, key=lambda r: abs(r.items_per_s - middle))


def pooled_latencies(rounds: Sequence[Round], wanted: int) -> List[float]:
    """Latencies of the rounds nearest the median, pooled until ``wanted``."""
    pool: List[float] = []
    for r in by_median(rounds):
        pool += r.latencies
        if len(pool) >= wanted:
            break
    return pool


def counter_mismatches(
    snapshots: Sequence[Mapping[str, float]],
    keep: Callable[[str], bool] = lambda name: True,
) -> List[str]:
    """Counters on which a round differs from the first round.

    ``keep`` selects the counters the guard compares; one line per
    difference, empty when every round matches.
    """
    if not snapshots:
        return []
    first = {k: v for k, v in snapshots[0].items() if keep(k)}
    problems = []
    for index, snap in enumerate(snapshots[1:], start=1):
        other = {k: v for k, v in snap.items() if keep(k)}
        for name in sorted(set(first) | set(other)):
            if first.get(name, 0) != other.get(name, 0):
                problems.append(
                    f"round {index}: counter {name} = {other.get(name, 0)}, "
                    f"round 0 had {first.get(name, 0)}"
                )
    return problems


def run_schedule(
    setup: Callable[[], None],
    one_round: Callable[[bool], Round],
    setups: int,
    seconds: float,
    min_rounds: int,
    max_rounds: int,
    traced_too: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Round]:
    """Set up ``setups`` times and run rounds until the time is spent.

    The set-ups are spread evenly among the first rounds instead of all
    coming first, so set-ups and rounds meet the same stretches of the
    host's speed drift.  Rounds continue
    until ``seconds`` have passed since the first one and at least
    ``min_rounds`` ran.  With ``traced_too`` rounds alternate untraced
    and traced, and each kind gets ``min_rounds``.  ``one_round(traced)``
    performs and times one round on the state of the latest set-up.
    """
    kinds = (False, True) if traced_too else (False,)
    floor = min_rounds * len(kinds)
    spacing = floor / setups
    rounds: List[Round] = []
    done = 0
    start: Optional[float] = None
    while True:
        if done < setups and len(rounds) >= done * spacing:
            setup()
            done += 1
            continue
        if start is None:
            start = clock()
        if done == setups and len(rounds) >= floor and (
            clock() - start >= seconds or len(rounds) >= max_rounds * len(kinds)
        ):
            return rounds
        rounds.append(one_round(kinds[len(rounds) % len(kinds)]))


def host_reference(repeats: int = 5) -> float:
    """Fastest of ``repeats`` runs of a fixed numpy + Python kernel.

    Independent of the program under test: it tells a slow host apart
    from a slow change when two runs are compared.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 24, 24)) + 24.0 * np.eye(24)
    b = rng.standard_normal((64, 24, 1))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(40):
            np.linalg.solve(a, b)
        acc = 0.0
        for k in range(20000):
            acc += k * 0.5
        best = min(best, time.perf_counter() - start)
    return best


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, Tuple[float, str]],
) -> Dict[str, Any]:
    """The benchmark's final JSON object."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


__all__ = [
    "Round",
    "by_median",
    "counter_mismatches",
    "fastest",
    "host_reference",
    "median_items_per_s",
    "percentile",
    "pooled_latencies",
    "result_line",
    "run_schedule",
]

