"""Whole-program concurrency & serialization analyzer for this codebase.

PR 3 proved the pattern on netlists: a rule-registry static analyzer
(:mod:`repro.spice.staticcheck`) emitting structured
:class:`~repro.analysis.diagnostics.Diagnostic` records as a fail-fast
gate in front of every solve.  This package applies the same pattern to
the codebase itself -- the fleet-scale invariants no unit test
enumerates:

* everything crossing a ``ProcessPoolExecutor`` boundary pickles
  (**PKL**),
* nothing reachable inside ``async def`` blocks the event loop
  (**AIO**),
* workload layers route engine access through declared capabilities
  (**CAP**),
* every telemetry metric is registered, kind-correct, and namespaced
  (**TEL**),
* no unsynchronized shared-state mutation on thread worker paths
  (**RACE**),
* every random stream is explicitly seeded (**DET**).

Run it with ``python -m repro.lint src/repro --strict`` (the CI gate),
or programmatically::

    from repro.lint import run_lint
    result = run_lint([Path("src/repro")])
    assert not result.failed(strict=True)

Suppress one finding with a ``# lint: allow[RULE]`` comment on its
line; suppressions are counted (``diag_suppressed.<rule>`` telemetry),
never silent.  See DESIGN.md Sec. 3.8 for the rule table and the
how-to-add-a-pass walkthrough.
"""

from repro.lint.framework import (
    PASSES,
    RULES,
    LintContext,
    LintFinding,
    LintResult,
    PassSpec,
    RuleSpec,
    baseline_keys,
    lint_pass,
    registered_rules,
    rule,
    run_lint,
)
from repro.lint.modgraph import ModuleGraph, ModuleInfo

__all__ = [
    "PASSES",
    "RULES",
    "LintContext",
    "LintFinding",
    "LintResult",
    "ModuleGraph",
    "ModuleInfo",
    "PassSpec",
    "RuleSpec",
    "baseline_keys",
    "lint_pass",
    "registered_rules",
    "rule",
    "run_lint",
]
