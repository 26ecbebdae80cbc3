"""PKL: values crossing a process-pool boundary must pickle.

The sharded wafer engine (PR 2) and every future process fan-out ship
work to ``ProcessPoolExecutor`` workers; anything in ``submit``/``map``
arguments or the pool's ``initializer``/``initargs`` is pickled.  A
lambda, a closure (function defined inside another function), or an
open OS handle fails at dispatch time -- on a fleet run, *after* the
pool spun up.  A bare :class:`~repro.core.engines.base.Engine` may
pickle but is the wrong contract: engines cross process boundaries as
:class:`~repro.core.engines.registry.EngineSpec` recipes (PR 4), so
workers rehydrate bit-identical engines instead of dragging solver
state through pickle.

The service's process transport (PR 9) added two more surfaces the
pass understands: pools stored on ``self`` (``self._pool =
ProcessPoolExecutor(...)`` followed by ``self._pool.submit(...)`` or
``loop.run_in_executor(self._pool, fn, *args)`` is a boundary like any
other), and raw shared-memory segments.  Batches cross the process
boundary pickled through the pool that
:func:`repro.service.procworker.process_pool` builds; no module owns a
segment's lifecycle, so a raw
``multiprocessing.shared_memory.SharedMemory`` anywhere (or one shipped
across a pool boundary) is flagged.

Pools built by :func:`repro.service.procworker.process_pool` (which
builds every pool in ``src/``) are boundaries like direct constructors;
``initializer``/``initargs`` are checked whether passed by keyword or
position.

The pass is deliberately precise rather than complete: it flags only
what it can *prove* locally (lambdas, nested defs, names bound to
``open()``/``sqlite3.connect()``, names annotated or resolved as
``Engine``, names bound to ``SharedMemory(...)``).  Opaque expressions
pass -- runtime pickling still guards them -- so a finding from this
pass is always actionable.

=========  =============================================================
``PKL001`` lambda or closure handed across a process-pool boundary
``PKL002`` bare ``Engine`` across a process-pool boundary (pass an
           ``EngineSpec``)
``PKL003`` open OS handle (file, sqlite connection) across a
           process-pool boundary
``PKL004`` raw ``SharedMemory`` anywhere (or shipped across a pool
           boundary); batches are pickled through
           ``repro.service.procworker.process_pool``
=========  =============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.diagnostics import Severity
from repro.lint.framework import LintContext, LintFinding, lint_pass, rule
from repro.lint.modgraph import ModuleInfo, dotted_name

__all__ = ["pkl_boundaries"]

#: Fully-qualified constructors (and factories) of process pools, each
#: with the positional index of its ``initializer`` (``initargs`` next).
_POOL_TYPES = {
    "concurrent.futures.ProcessPoolExecutor": 2,
    "concurrent.futures.process.ProcessPoolExecutor": 2,
    "multiprocessing.Pool": 1,
    "multiprocessing.pool.Pool": 1,
    "repro.service.procworker.process_pool": 1,
}

#: Constructors whose result is an unpicklable OS handle.
_HANDLE_CALLS = {
    "open",
    "io.open",
    "sqlite3.connect",
    "socket.socket",
    "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile",
}

#: Raw shared-memory segment constructors (PKL004).
_SHM_CALLS = {
    "multiprocessing.shared_memory.SharedMemory",
}

#: Resolved type names that mean "a live engine, not a spec".
_ENGINE_TYPE_PREFIX = "repro.core.engines"


def _is_engine_annotation(module: ModuleInfo, annotation: ast.expr) -> bool:
    name = dotted_name(annotation)
    if name is None:
        return False
    resolved = module.resolve(name)
    return (
        resolved.split(".")[-1] == "Engine"
        and (resolved == "Engine"
             or resolved.startswith(_ENGINE_TYPE_PREFIX))
    )


class _Scope:
    """Local bindings of one function (or the module body)."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        #: name -> kind: "lambda" | "nested-func" | "handle" | "engine"
        #: | "pool" | "shm"
        self.kinds: Dict[str, str] = {}

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.kinds:
                return scope.kinds[name]
            scope = scope.parent
        return None


class _BoundaryVisitor(ast.NodeVisitor):
    """Tracks bindings per scope; checks pool-boundary call arguments."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.scope = _Scope()
        self.depth = 0  # function nesting depth
        #: ``self.<attr>`` -> kind, for pools (etc.) stored on instances.
        self.self_kinds: Dict[str, str] = {}
        self.findings: List[LintFinding] = []

    # -- binding classification ------------------------------------------
    def _value_kind(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None:
                resolved = self.module.resolve(name)
                if resolved in _POOL_TYPES:
                    return "pool"
                if resolved in _HANDLE_CALLS:
                    return "handle"
                if resolved in _SHM_CALLS:
                    return "shm"
                if resolved.split(".")[-1] == "resolve_engine":
                    return "engine"
        return None

    @staticmethod
    def _self_attr(expr: ast.expr) -> Optional[str]:
        """``attr`` when ``expr`` is ``self.<attr>``, else None."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def _expr_kind(self, expr: ast.expr) -> Optional[str]:
        """The tracked kind of a name or ``self.<attr>`` expression."""
        if isinstance(expr, ast.Name):
            return self.scope.lookup(expr.id)
        attr = self._self_attr(expr)
        if attr is not None:
            return self.self_kinds.get(attr)
        return None

    def _bind_target(self, target: ast.expr, kind: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            if kind is not None:
                self.scope.kinds[target.id] = kind
            else:
                self.scope.kinds.pop(target.id, None)
            return
        attr = self._self_attr(target)
        if attr is not None:
            if kind is not None:
                self.self_kinds[attr] = kind
            else:
                self.self_kinds.pop(attr, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self._value_kind(node.value)
        for target in node.targets:
            self._bind_target(target, kind)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        kind = None
        if node.value is not None:
            kind = self._value_kind(node.value)
        if kind is None and _is_engine_annotation(
            self.module, node.annotation
        ):
            kind = "engine"
        self._bind_target(node.target, kind)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_target(
                    item.optional_vars, self._value_kind(item.context_expr)
                )
        self.generic_visit(node)

    # -- scopes ----------------------------------------------------------
    def _enter_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        if self.depth > 0:
            self.scope.kinds[node.name] = "nested-func"
        self.scope = _Scope(self.scope)
        self.depth += 1
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        ):
            if arg.annotation is not None and _is_engine_annotation(
                self.module, arg.annotation
            ):
                self.scope.kinds[arg.arg] = "engine"
        for child in node.body:
            self.visit(child)
        self.depth -= 1
        assert self.scope.parent is not None
        self.scope = self.scope.parent

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    # -- boundary checks -------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func_name = dotted_name(node.func)
        boundary: Optional[str] = None
        crossing: List[Tuple[ast.expr, str]] = []

        if (
            func_name is not None
            and self.module.resolve(func_name) in _SHM_CALLS
        ):
            self._report(
                node, "PKL004",
                "raw SharedMemory constructed; batches cross the process "
                "boundary pickled, not in shared segments",
                hint="send the batch through a "
                     "repro.service.procworker.process_pool pool",
            )

        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "submit", "map", "apply_async", "map_async"
        ):
            receiver = dotted_name(node.func.value)
            head = receiver.split(".")[-1] if receiver else None
            if (
                self._expr_kind(node.func.value) == "pool"
                or (receiver is not None
                    and self.module.resolve(receiver) in _POOL_TYPES)
            ):
                boundary = f"{head or 'pool'}.{node.func.attr}"
                crossing.extend((arg, "argument") for arg in node.args)
                crossing.extend(
                    (kw.value, f"{kw.arg}=") for kw in node.keywords
                    if kw.arg is not None
                )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "run_in_executor"
            and node.args
            and self._expr_kind(node.args[0]) == "pool"
        ):
            # loop.run_in_executor(self._pool, fn, *args): everything
            # after the executor is pickled to a worker process.
            boundary = "run_in_executor"
            crossing.extend((arg, "argument") for arg in node.args[1:])
        elif func_name is not None and (
            pos := _POOL_TYPES.get(self.module.resolve(func_name))
        ) is not None:
            boundary = func_name.split(".")[-1]
            init = dict(zip(("initializer", "initargs"), node.args[pos:]))
            init.update(
                (kw.arg, kw.value) for kw in node.keywords
                if kw.arg in ("initializer", "initargs")
            )
            if "initializer" in init:
                crossing.append((init["initializer"], "initializer="))
            initargs = init.get("initargs")
            if isinstance(initargs, (ast.Tuple, ast.List)):
                crossing.extend(
                    (elt, "initargs member") for elt in initargs.elts
                )
            elif initargs is not None:
                crossing.append((initargs, "initargs="))

        if boundary is not None:
            for expr, role in crossing:
                self._check_crossing(node, boundary, expr, role)
        self.generic_visit(node)

    def _check_crossing(
        self, call: ast.Call, boundary: str, expr: ast.expr, role: str
    ) -> None:
        where = f"{role} of {boundary}()"
        if isinstance(expr, ast.Lambda):
            self._report(
                expr, "PKL001",
                f"lambda as {where} cannot pickle across the process "
                "boundary",
                hint="move it to a module-level function",
            )
            return
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name is not None and (
                self.module.resolve(name) in _HANDLE_CALLS
            ):
                self._report(
                    expr, "PKL003",
                    f"open OS handle ({name}()) as {where} cannot "
                    "pickle across the process boundary",
                    names=(name,),
                    hint="ship the path/recipe and reopen in the worker",
                )
            return
        if not isinstance(expr, ast.Name):
            return  # opaque expression: runtime pickling guards it
        kind = self.scope.lookup(expr.id)
        if kind is None and expr.id in self.module.nested_functions:
            kind = "nested-func"
        if kind == "shm":
            self._report(
                expr, "PKL004",
                f"raw SharedMemory {expr.id!r} as {where}; batches "
                "cross the process boundary pickled, not in shared "
                "segments",
                names=(expr.id,),
                hint="pass the data itself; the pool pickles it",
            )
            return
        if kind in ("lambda", "nested-func"):
            what = "lambda" if kind == "lambda" else "closure"
            self._report(
                expr, "PKL001",
                f"{what} {expr.id!r} as {where} cannot pickle across "
                "the process boundary",
                names=(expr.id,),
                hint="move it to a module-level function",
            )
        elif kind == "handle":
            self._report(
                expr, "PKL003",
                f"open OS handle {expr.id!r} as {where} cannot pickle "
                "across the process boundary",
                names=(expr.id,),
                hint="ship the path/recipe and reopen in the worker",
            )
        elif kind == "engine":
            self._report(
                expr, "PKL002",
                f"bare Engine {expr.id!r} as {where}; engines cross "
                "process boundaries as EngineSpec recipes",
                names=(expr.id,),
                hint="pass engine_registry.spec(...) and rehydrate "
                     "with resolve_engine() in the worker",
            )

    def _report(
        self,
        node: ast.AST,
        rule_id: str,
        message: str,
        names: Tuple[str, ...] = (),
        hint: Optional[str] = None,
    ) -> None:
        self.findings.append(LintFinding(
            rule=rule_id,
            severity=Severity.ERROR,
            message=message,
            line=getattr(node, "lineno", 1),
            names=names,
            hint=hint,
        ))


rule(
    "PKL001", Severity.ERROR,
    "lambda/closure across a process-pool boundary",
)
rule(
    "PKL002", Severity.ERROR,
    "bare Engine across a process-pool boundary (EngineSpec required)",
)
rule(
    "PKL003", Severity.ERROR,
    "open OS handle across a process-pool boundary",
)
rule(
    "PKL004", Severity.ERROR,
    "raw SharedMemory (batches are pickled through process_pool)",
)


@lint_pass("PKL001", "PKL002", "PKL003", "PKL004")
def pkl_boundaries(
    module: ModuleInfo, ctx: LintContext
) -> Iterator[LintFinding]:
    """One AST walk over every process-pool boundary in the module."""
    visitor = _BoundaryVisitor(module)
    visitor.visit(module.tree)
    yield from visitor.findings
