"""Run-time tracing of the package's layers, with no edits to its source.

``Tracer.install`` wraps every public function and every public method or
classmethod of a public class defined in a package module, then rebinds
each module attribute that held an original (``from .linalg import
mat_mul`` makes a second binding in the importing module) so that calls
between modules go through the wrappers.  A wrapper records one span per
call: name, start, end and the span that was open when it began.  A
generator function gets one span per resumption, so the work done while it
is consumed is charged to it; it still counts one call.

Spans are kept in flat arrays while the run lasts and reduced to self times
once it ends.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, package: str) -> None:
        self.package = package
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.hits: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.hits.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        self.span_end[idx] = perf_counter()
        self.span_start[idx] = start
        self._stack.pop()

    def _resumptions(self, nid: int, iterator):
        while True:
            idx = self._open(nid)
            start = perf_counter()
            try:
                value = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(idx, start)
            yield value

    def _wrap(self, fn, name: str, hit=None):
        """Wrapper recording spans for ``fn``; ``hit(result)`` true counts
        the call in ``hits``."""
        nid = self._id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tracer.calls[nid] += 1
                return tracer._resumptions(nid, fn(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            idx = tracer._open(nid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
            if hit is not None and hit(result):
                tracer.hits[nid] += 1
            return result
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, hits: dict | None = None) -> None:
        """Wrap the package's public callables.  ``hits`` maps a span name
        such as ``realize.realize_algorithm71`` to a predicate on results."""
        hits = hits or {}
        prefix = self.package + "."
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == self.package or key.startswith(prefix)]
        wrapped: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, name, hits.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, cls, qualname: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per span name, and the summed duration of root spans
        (time spent inside the package at all)."""
        count = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * count
        root = 0.0
        for i in range(count):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
            else:
                root += duration
        own = [0.0] * len(self.names)
        names = self.span_name
        for i in range(count):
            own[names[i]] += ends[i] - starts[i] - child[i]
        return dict(zip(self.names, own)), root

    def spans_named(self, name: str) -> list[tuple[float, float]]:
        nid = self._ids.get(name)
        return [(self.span_start[i], self.span_end[i])
                for i in range(len(self.span_start)) if self.span_name[i] == nid]

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def hit_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.hits[nid]
