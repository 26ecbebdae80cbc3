"""In-memory spans around the program's public layer functions.

The benchmark measures each layer from outside: :class:`Tracer`
replaces a function or method with a wrapper that records one span per
call -- name, start, end, the span that caused it, and the thread it
ran on -- and :func:`self_times` turns the spans of a time window into
per-layer self time (duration minus the part covered by child spans).
Spans stay in memory until :meth:`Tracer.dump` writes them out at the
end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One call of a wrapped function."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(
    spans: Iterable[Span],
    window: Optional[Tuple[float, float]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``{"self_s", "total_s", "calls"}``.

    Self time is each span's duration minus the union of its children's
    intervals inside it.  With ``window``, only spans lying wholly
    inside ``[start, end]`` count (children are still subtracted from
    their parent wherever they lie).
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if window is not None and not (
            window[0] <= span.start and span.end <= window[1]
        ):
            continue
        inner = _covered(children.get(span.sid, ()), span.start, span.end)
        entry = out.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += span.duration - inner
        entry["total_s"] += span.duration
        entry["calls"] += 1
    return out


class Tracer:
    """Records spans around patched functions; patches are reversible.

    ``patch_method(cls, "name", "span.name")`` wraps a method on one
    class (inherited methods included).  ``patch_function(module,
    "name", "span.name")`` wraps a module-level function *and* every
    ``from module import name`` copy of it in already-imported modules
    of ``package``, so call sites that bound the name at import time
    are traced too.
    """

    def __init__(self, package: str = "repro",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.package = package
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``func`` with a span named ``name`` around every call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            with tracer._lock:
                sid = tracer._next
                tracer._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = tracer.clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                span = Span(sid, name, start, end, parent, threading.get_ident())
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    # -- patching --------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str) -> None:
        owned = attr in cls.__dict__
        original = cls.__dict__.get(attr)
        setattr(cls, attr, self.wrap(getattr(cls, attr), name))

        def undo() -> None:
            if owned:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)

        self._undo.append(undo)

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        original = getattr(module, attr)
        traced = self.wrap(original, name)
        holders = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == self.package or mod_name.startswith(self.package + "."))
            and getattr(mod, attr, None) is original
        ]
        for mod in holders:
            setattr(mod, attr, traced)

        def undo() -> None:
            for mod in holders:
                setattr(mod, attr, original)

        self._undo.append(undo)

    def unpatch(self) -> None:
        """Restore every patched function, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- output ----------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span recorded so far as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            rows = [asdict(span) for span in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")
