"""Span tracing for the benchmark's traced mode.

The tracer wraps functions of an imported package from the outside: the
package itself is not modified.  A wrapped call becomes a span (name,
start, end, parent) kept in memory, or, for very hot helpers, only a call
count and an aggregated self time.  Self time is a span's duration minus
the part of its interval covered by child spans; time spent in hot helpers
and in the tracer's own result inspection is carried on the parent as
``hidden`` time, so it is excluded from the parent's self time as well.

Single-threaded use only: the tracer keeps one call stack.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    hidden: float = 0.0


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[str, float]:
    """Self time summed per span name.

    A span whose parent is None is either top level or sits under a hot
    helper; in both cases no recorded span subtracts it.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        inner = covered(s.start, s.end, children.get(s.id, ()))
        out[s.name] += (s.end - s.start) - inner - s.hidden
    return dict(out)


class Tracer:
    """Records spans and counts for the functions it wraps while active.

    ``observe(tracer, args, result)`` hooks run after a successful call to
    derive counts from arguments and results; their cost is hidden time.
    """

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.hot_self: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # frames: [span id | None, hidden, covered]
        self._next_id = 0

    def wrap(self, name: str, fn, hot: bool = False, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = None
            if not hot:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.calls[name] += 1
                if hot:
                    tracer.hot_self[name] += (end - start) - frame[2]
                else:
                    tracer.spans.append(
                        Span(sid, parent[0] if parent else None, name, start, end, frame[1])
                    )
                if parent is not None:
                    parent[2] += end - start
                    if hot:
                        parent[1] += end - start
            if observe is not None:
                t = clock()
                observe(tracer, args, result)
                extra = clock() - t
                if parent is not None:
                    parent[1] += extra
                    parent[2] += extra
            return result

        return traced

    def patch_function(self, package: str, module, attr: str, name: str, **kw):
        """Wrap module.attr in every loaded module of the package binding it.

        Modules import names directly (``from .linalg import rref``), so
        patching only the defining module would miss those call sites.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, **kw):
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], **kw))

    def self_by_name(self) -> dict[str, float]:
        out = defaultdict(float, self_times(self.spans))
        for name, value in self.hot_self.items():
            out[name] += value
        return dict(out)
