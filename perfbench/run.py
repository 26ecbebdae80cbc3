"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_fig7 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds the run's diagnostics (environment, every
round and set-up).  A run whose output check fails prints
``correct: false`` with no metrics and exits 1.  Without the program's
sources beside the benchmark it prints no result and exits 2.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures the program, not how a
# threaded BLAS shares the host's cores with whatever else runs there.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's sources first on the path and import them.

    Exits 2 when the sources are missing or ``repro`` resolves to a copy
    outside this checkout, so the benchmark never measures the wrong
    program.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"perfbench: imported repro from {where}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from perfbench.runner import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.json"
    result, diagnostics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=spans,
    )
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
