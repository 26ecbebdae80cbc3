"""Regenerate the recorded outputs the benchmark checks against.

Run from the root of a checkout, only after a change that is meant to
alter results (review the diff of ``perfbench/reference/``)::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench.workloads import REFERENCE_DIR, CascadeDie, McFig7  # noqa: E402


def write(name: str, payload: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")


def main() -> None:
    write(McFig7.name, {
        "description": "DeltaT samples of StageDelayEngine.delta_t_mc, "
                       "1 kOhm open at x=0.5, 1.1 V, 2 ps, per corner count "
                       "and Monte Carlo seed",
        "samples": {
            str(McFig7.SIZES[size]["corners"]): McFig7(0, size).record()
            for size in McFig7.SIZES
        },
    })
    write(CascadeDie.name, {
        "description": "Flagged TSV indices, escapes and overkill of the "
                       "cascade die screen, per size",
        **{size: CascadeDie(0, size).record() for size in CascadeDie.SIZES},
    })


if __name__ == "__main__":
    main()
