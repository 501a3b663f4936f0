"""Outside-in span recorder.

The benchmark brackets calls into each layer's public functions from its
own files: :meth:`Recorder.patch_function` / :meth:`Recorder.patch_method`
swap a public callable for a recording wrapper for the length of a traced
run and :meth:`Recorder.restore` puts the originals back. Nothing inside
``src/`` knows it is being traced.

A span has a name, start, end, the span that caused it (the enclosing
span on the same thread) and the request id it belongs to. Spans stay in
memory and are written out once, after the run. A span's *self time* is
its duration minus the part of that interval its children cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

# Modules whose namespaces may hold a ``from x import f`` alias of a
# patched function. Looked up through ``__dict__`` so no module-level
# ``__getattr__`` (lazy importers) is ever triggered.
_ALIAS_PREFIXES = ("repro", "blendbench", "__main__")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "count")

    def __init__(self, name: str, parent: Optional["Span"], request: Any) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.start = 0.0
        self.end = 0.0
        self.count: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.unavailable: dict[str, str] = {}  # span name -> why its probe is missing
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Any) -> None:
        """Tag the spans this thread opens from now on with *request_id*."""
        self._local.request = request_id

    @contextmanager
    def span(self, name: str, count: Any = None) -> Iterator[Span]:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, getattr(self._local, "request", None))
        span.count = count
        stack.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        count_of: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> Callable[..., Any]:
        """A wrapper that records one span per call of *func*.
        ``count_of(args, kwargs, result)`` attaches a work count."""
        clock = self.clock
        local = self._local
        spans = self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None, getattr(local, "request", None))
            stack.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if count_of is not None:
                span.count = count_of(args, kwargs, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    # -- probes: each isolated, so a removed target costs one row, not the run ------

    def patch_function(
        self, module_name: str, attr: str, span_name: str, count_of=None
    ) -> bool:
        """Trace module-level function ``module_name.attr`` wherever a
        loaded module holds a reference to it."""
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            self.unavailable[span_name] = f"{module_name}.{attr}: {exc}"
            return False
        traced = self.wrap(span_name, original, count_of)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(_ALIAS_PREFIXES):
                continue
            namespace = getattr(module, "__dict__", {})
            if namespace.get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, traced)
        return True

    def patch_method(
        self, module_name: str, class_name: str, attr: str, span_name: str, count_of=None
    ) -> bool:
        """Trace ``module_name.class_name.attr`` (plain, class or static
        method) for every instance."""
        try:
            owner = getattr(importlib.import_module(module_name), class_name)
            raw = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError) as exc:
            self.unavailable[span_name] = f"{module_name}.{class_name}.{attr}: {exc!r}"
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            traced: Any = type(raw)(self.wrap(span_name, raw.__func__, count_of))
        else:
            traced = self.wrap(span_name, raw, count_of)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, traced)
        return True

    def restore(self) -> None:
        """Put every patched callable back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def dump_jsonl(self, path) -> int:
        """Write the spans, one JSON object per line; returns the count."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": ids.get(id(span.parent)),
                            "request": span.request,
                            "count": span.count,
                        },
                        default=str,
                    )
                )
                handle.write("\n")
        return len(self.spans)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals* (which
    may nest, overlap, or stick out of the window)."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``id(span) -> self time``: duration minus child coverage."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return {
        id(span): span.duration
        - covered_length(children.get(id(span), ()), span.start, span.end)
        for span in spans
    }
