"""DET: every random stream must be explicitly seeded.

One pass of the unified analyzer, with the same diagnostic schema as
every other rule family.  The repo's headline reproducibility claim
(sharded wafer screens are bit-identical to serial ones) only holds if
no code path draws from an unseeded or implicitly-global random source.

=========  =============================================================
``DET001`` ``numpy.random.default_rng()`` with no seed (or ``None``)
``DET002`` ``numpy.random.SeedSequence()`` with no entropy argument
``DET003`` legacy ``numpy.random.<sampler>()`` module calls: hidden
           global state, order-dependent results
``DET004`` wall-clock or entropy-derived seeds (``time.time``,
           ``datetime.now``, ``os.urandom``, ``uuid.uuid4``,
           ``secrets.*``) fed to a generator or ``seed=`` argument
=========  =============================================================

Both the unified ``# lint: allow[DET...]`` comment and the legacy
``# det: allow`` marker suppress a line.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.diagnostics import Severity
from repro.lint.framework import LintContext, LintFinding, lint_pass, rule
from repro.lint.modgraph import ModuleInfo, dotted_name

__all__ = ["det_seeding"]

#: numpy.random attributes that are deterministic-safe to call.
_SAFE_RANDOM_ATTRS = {"default_rng", "SeedSequence"}

#: Dotted call names whose value is wall-clock or OS entropy.
_NONDETERMINISTIC_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
    "secrets.randbelow",
}

rule(
    "DET001", Severity.ERROR,
    "default_rng() without a seed draws fresh OS entropy",
)
rule(
    "DET002", Severity.ERROR,
    "SeedSequence() without explicit entropy",
)
rule(
    "DET003", Severity.ERROR,
    "legacy numpy.random module call (hidden global stream)",
)
rule(
    "DET004", Severity.ERROR,
    "wall-clock/entropy value used as a seed",
)


def _tail(dotted: str, n: int) -> str:
    return ".".join(dotted.split(".")[-n:])


class _DetVisitor(ast.NodeVisitor):
    """The original DeterminismChecker, emitting LintFinding records."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.findings: List[LintFinding] = []
        # Names bound by `from numpy.random import default_rng, ...`.
        self.random_imports: Set[str] = set()

    # -- helpers ---------------------------------------------------------
    def report(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.findings.append(LintFinding(
            rule=rule_id,
            severity=Severity.ERROR,
            message=message,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        ))

    def _is_numpy_random(self, dotted: str) -> bool:
        head = dotted.rsplit(".", 1)[0] if "." in dotted else ""
        return head in ("np.random", "numpy.random")

    def _seed_args(self, call: ast.Call) -> List[ast.expr]:
        return list(call.args) + [
            kw.value for kw in call.keywords if kw.arg is not None
        ]

    def _check_entropy_sources(self, node: ast.AST, where: str) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name is None:
                continue
            if (name in _NONDETERMINISTIC_SOURCES
                    or _tail(name, 2) in _NONDETERMINISTIC_SOURCES):
                self.report(
                    sub, "DET004",
                    f"wall-clock/entropy value {name}() used as {where}; "
                    "derive seeds from configuration, never the clock",
                )

    # -- visitors --------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy.random":
            for alias in node.names:
                self.random_imports.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg == "seed":
            self._check_entropy_sources(node.value, "a seed= argument")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            base = name.rsplit(".", 1)[-1]
            is_np_random = self._is_numpy_random(name)
            is_imported = "." not in name and name in self.random_imports
            if is_np_random and base not in _SAFE_RANDOM_ATTRS:
                self.report(
                    node, "DET003",
                    f"legacy {name}() uses numpy's hidden global stream; "
                    "use a seeded np.random.default_rng(...) generator",
                )
            elif (is_np_random or is_imported) and base == "default_rng":
                args = self._seed_args(node)
                if not args or (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                ):
                    self.report(
                        node, "DET001",
                        "default_rng() without a seed draws fresh OS "
                        "entropy; pass an explicit seed or SeedSequence",
                    )
                for arg in args:
                    self._check_entropy_sources(arg, "a generator seed")
            elif (is_np_random or is_imported) and base == "SeedSequence":
                args = self._seed_args(node)
                if not args:
                    self.report(
                        node, "DET002",
                        "SeedSequence() without entropy is drawn from the "
                        "OS; pass an explicit integer entropy",
                    )
                for arg in args:
                    self._check_entropy_sources(arg, "seed entropy")
        self.generic_visit(node)


@lint_pass("DET001", "DET002", "DET003", "DET004")
def det_seeding(
    module: ModuleInfo, ctx: LintContext
) -> Iterator[LintFinding]:
    """Run the migrated determinism checks over one module."""
    visitor = _DetVisitor(module)
    visitor.visit(module.tree)
    yield from visitor.findings
