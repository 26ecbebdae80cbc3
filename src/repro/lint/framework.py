"""Rule registry, suppression handling, and the lint run driver.

The design mirrors :mod:`repro.spice.staticcheck` deliberately -- one
analyzer idiom for the whole repo.  Rules are registered in a
severity-tagged registry (:data:`RULES`) via the :func:`rule` decorator;
each rule is a function from a :class:`~repro.lint.modgraph.ModuleInfo`
(plus the shared :class:`LintContext`) to :class:`LintFinding` records.
The driver (:func:`run_lint`) turns surviving findings into structured
:class:`~repro.analysis.diagnostics.Diagnostic` records -- rule id,
severity, ``file:line`` location, and the enclosing *symbol* qualname,
never raw AST offsets -- grouped into one
:class:`~repro.analysis.diagnostics.DiagnosticReport` per module.

Suppression: a ``# lint: allow[RULE]`` comment on the finding's line
drops it (comma-separate several rules; a bare family prefix like
``allow[PKL]`` covers the whole family).  The older ``# det: allow``
marker keeps working for DET rules.
Suppressed findings are counted -- per rule, in the run result and as
``diag_suppressed.<rule>`` telemetry -- so an allow comment is visible,
never silent.

Baselines: :func:`run_lint` can subtract a previously recorded baseline
(stable ``module:rule:symbol`` keys, not line numbers) so the analyzer
can gate *new* violations while an old tree is burned down.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    record_diagnostics,
)
from repro.lint.modgraph import ModuleGraph, ModuleInfo, relpath

__all__ = [
    "LintContext",
    "LintFinding",
    "LintResult",
    "PASSES",
    "PassSpec",
    "RULES",
    "RuleSpec",
    "baseline_keys",
    "lint_pass",
    "load_baseline",
    "registered_rules",
    "rule",
    "run_lint",
    "suppressed_by_comment",
    "write_baseline",
]

#: ``# lint: allow[PKL001,AIO]`` -- comma-separated rule ids/families.
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9_,\s]+)\]")
#: Legacy determinism-lint marker; equivalent to ``allow[DET]``.
_DET_ALLOW_RE = re.compile(r"#\s*det:\s*allow\b")


@dataclass(frozen=True)
class LintFinding:
    """One raw finding of a code rule, before suppression/reporting.

    ``line`` is a 1-based source line (used for suppression comments
    and the rendered ``file:line``); ``symbol`` is the enclosing
    function/class qualname (filled from the module when omitted).
    """

    rule: str
    severity: Severity
    message: str
    line: int
    symbol: Optional[str] = None
    names: Tuple[str, ...] = ()
    hint: Optional[str] = None
    #: Column offset, kept only for the legacy determinism-lint CLI
    #: (diagnostics themselves render symbols, never offsets).
    col: int = 0


class LintContext:
    """Shared run state every rule receives next to the module."""

    def __init__(self, graph: ModuleGraph, root: Optional[Path] = None):
        self.graph = graph
        self.root = (root or Path.cwd()).resolve()

    def relpath(self, module: ModuleInfo) -> str:
        return relpath(module.path, self.root)


RuleFunc = Callable[[ModuleInfo, LintContext], Iterator[LintFinding]]


@dataclass(frozen=True)
class RuleSpec:
    """A registered codebase-analysis rule (id, severity, summary)."""

    rule_id: str
    severity: Severity
    summary: str


@dataclass(frozen=True)
class PassSpec:
    """One analysis pass: a function emitting findings for its rules.

    A pass runs one AST walk and may emit several related rule ids
    (the PKL pass scans process-pool boundaries once and emits
    PKL001/002/003), so the registry separates rule *metadata*
    (:data:`RULES`, for the table and severity policy) from pass
    *functions* (:data:`PASSES`, what actually runs).
    """

    name: str
    emits: Tuple[str, ...]
    func: RuleFunc


#: Registry of every known rule id, in registration order.
RULES: Dict[str, RuleSpec] = {}
#: Registered pass functions, in registration order.
PASSES: List[PassSpec] = []


def rule(rule_id: str, severity: Severity, summary: str) -> RuleSpec:
    """Declare a rule id in :data:`RULES`; duplicate ids are errors."""
    if rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    spec = RuleSpec(rule_id, severity, summary)
    RULES[rule_id] = spec
    return spec


def lint_pass(*rule_ids: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register a pass function emitting the given rule ids (decorator)."""

    def register(func: RuleFunc) -> RuleFunc:
        for rule_id in rule_ids:
            if rule_id not in RULES:
                raise ValueError(
                    f"pass {func.__name__!r} emits unknown rule {rule_id!r}"
                )
        PASSES.append(PassSpec(func.__name__, tuple(rule_ids), func))
        return func

    return register


def registered_rules() -> List[RuleSpec]:
    """All rules in registration order (for docs, CLI, and tests)."""
    _load_passes()
    return list(RULES.values())


def _load_passes() -> None:
    """Import the pass modules so their rules self-register."""
    from repro.lint import passes  # noqa: F401  (import for side effect)


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
def allowed_rules(line_text: str) -> Set[str]:
    """Rule ids/families an allow comment on this line suppresses."""
    tokens: Set[str] = set()
    match = _ALLOW_RE.search(line_text)
    if match:
        tokens.update(
            token.strip() for token in match.group(1).split(",")
            if token.strip()
        )
    if _DET_ALLOW_RE.search(line_text):
        tokens.add("DET")
    return tokens


def _suppresses(tokens: Set[str], rule_id: str) -> bool:
    if rule_id in tokens:
        return True
    for token in tokens:
        if rule_id.startswith(token) and rule_id[len(token):].isdigit():
            return True
    return False


def suppressed_by_comment(line_text: str, rule_id: str) -> bool:
    """True when an allow comment on ``line_text`` covers ``rule_id``."""
    return _suppresses(allowed_rules(line_text), rule_id)


# ----------------------------------------------------------------------
# Run driver
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """Everything one lint run produced."""

    reports: List[DiagnosticReport] = field(default_factory=list)
    modules_checked: int = 0
    suppressed: Dict[str, int] = field(default_factory=dict)
    baselined: int = 0

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return [d for report in self.reports for d in report.diagnostics]

    @property
    def suppressed_total(self) -> int:
        return sum(self.suppressed.values())

    def worst_rank(self) -> int:
        """Rank of the worst surviving severity (-1 when clean)."""
        ranks = [d.severity.rank for d in self.diagnostics]
        return max(ranks) if ranks else -1

    def failed(self, strict: bool = False) -> bool:
        floor = Severity.WARNING.rank if strict else Severity.ERROR.rank
        return self.worst_rank() >= floor

    def to_json(self) -> Dict[str, object]:
        """Stable machine-readable form (the CI artifact schema)."""
        return {
            "version": 1,
            "modules_checked": self.modules_checked,
            "suppressed": dict(sorted(self.suppressed.items())),
            "baselined": self.baselined,
            "diagnostics": [
                {
                    "rule": d.rule,
                    "severity": d.severity.value,
                    "location": d.location,
                    "symbol": d.element,
                    "names": list(d.nodes),
                    "message": d.message,
                    "hint": d.hint,
                    "module": d.subject,
                }
                for d in self.diagnostics
            ],
        }


def baseline_keys(diagnostics: Iterable[Diagnostic]) -> List[str]:
    """Stable identity keys (``module:rule:symbol``), duplicates counted."""
    counts: Dict[str, int] = {}
    keys = []
    for d in diagnostics:
        base = f"{d.subject}:{d.rule}:{d.element or '<module>'}"
        counts[base] = counts.get(base, 0) + 1
        keys.append(f"{base}#{counts[base]}")
    return keys


def load_baseline(path: Path) -> Set[str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return set(data.get("findings", []))


def write_baseline(path: Path, result: LintResult) -> None:
    path.write_text(
        json.dumps(
            {"version": 1,
             "findings": sorted(baseline_keys(result.diagnostics))},
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )


def run_lint(
    targets: Sequence[Path],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Set[str]] = None,
    root: Optional[Path] = None,
    record_telemetry: bool = True,
) -> LintResult:
    """Lint every module under ``targets`` with the selected rules.

    Args:
        targets: Files or directories to analyze.
        rules: Rule ids (or family prefixes like ``"DET"``) to run;
            all registered rules by default.
        baseline: Finding keys (see :func:`baseline_keys`) to subtract.
        root: Path findings are rendered relative to (default: cwd).
        record_telemetry: Count ``diag_emitted.*`` / ``diag_suppressed.*``
            in the process telemetry registry, like the netlist checker.
    """
    _load_passes()
    active = _select_rules(rules)
    passes = [p for p in PASSES if set(p.emits) & active]
    graph = ModuleGraph.build(targets)
    ctx = LintContext(graph, root=root)
    result = LintResult(modules_checked=len(graph))

    for failure in graph.failures:
        report = DiagnosticReport(subject=failure.path.stem)
        report.append(Diagnostic(
            rule="LINT000",
            severity=Severity.ERROR,
            message=f"syntax error: {failure.message}",
            element="<module>",
            subject=failure.path.stem,
            location=f"{relpath(failure.path, ctx.root)}:{failure.line}",
        ))
        result.reports.append(report)

    for module in graph:
        report = DiagnosticReport(subject=module.name)
        for spec in passes:
            for finding in spec.func(module, ctx):
                if finding.rule not in active:
                    continue
                tokens = allowed_rules(module.line_text(finding.line))
                if _suppresses(tokens, finding.rule):
                    result.suppressed[finding.rule] = (
                        result.suppressed.get(finding.rule, 0) + 1
                    )
                    continue
                symbol = finding.symbol or module.qualname_at(finding.line)
                report.append(Diagnostic(
                    rule=finding.rule,
                    severity=finding.severity,
                    message=finding.message,
                    element=symbol,
                    nodes=finding.names,
                    hint=finding.hint,
                    subject=module.name,
                    location=(
                        f"{ctx.relpath(module)}:{finding.line}"
                    ),
                ))
        if baseline:
            kept = []
            for diagnostic, key in zip(
                report.diagnostics, baseline_keys(report.diagnostics)
            ):
                if key in baseline:
                    result.baselined += 1
                else:
                    kept.append(diagnostic)
            report.diagnostics = kept
        if report.diagnostics:
            result.reports.append(report)
        if record_telemetry and report.diagnostics:
            record_diagnostics(report)

    if record_telemetry:
        from repro.telemetry import get_telemetry
        tele = get_telemetry()
        for rule_id, count in result.suppressed.items():
            tele.incr(f"diag_suppressed.{rule_id}", count)
    return result


def _select_rules(rules: Optional[Sequence[str]]) -> Set[str]:
    """Active rule ids for a run; tokens may be ids or family prefixes."""
    if rules is None:
        return set(RULES)
    selected: Set[str] = set()
    unknown: List[str] = []
    for token in rules:
        matches = {
            rule_id for rule_id in RULES
            if rule_id == token
            or (rule_id.startswith(token) and rule_id[len(token):].isdigit())
        }
        if not matches:
            unknown.append(token)
        selected.update(matches)
    if unknown:
        known = ", ".join(sorted(RULES))
        raise ValueError(
            f"unknown rule(s) {', '.join(unknown)}; known: {known}"
        )
    return selected
