"""In-memory span recorder and reversible function wrapping for traced runs.

A span is one call of a wrapped function: its name, start and end on the
``time.perf_counter`` clock, the index of the span that was open when it
started (its parent), and the id of the benchmark call it belongs to.
Spans stay in memory until the run ends; :meth:`Recorder.to_json` gives
them in a form that can be written out.

Wrapping replaces a function object in every namespace that holds it
(module attributes and plain dicts such as a command table), so callers
that did ``from module import name`` see the wrapper too.  The
returned :class:`Patch` puts every original object back.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call_id: int


class Recorder:
    """Collects spans, and named counts per call id, for one run.

    Set ``call_id`` before each benchmark call; spans and counts recorded
    afterwards belong to that call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.call_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.call_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.call_id][name] += amount

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "call_id": s.call_id}
            for s in self.spans
        ]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by its children.

    Child intervals are clipped to the parent's interval and merged first,
    so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((s.end - s.start) - _covered(clipped))
    return out


def wrap(recorder: Recorder, fn, span_name, on_call=None):
    """Return a wrapper of ``fn`` that records one span per call.

    ``span_name`` is a string or a function of the call's arguments.
    ``on_call(args, kwargs)`` may return replacement ``(args, kwargs)`` and
    a callback that receives the result; both run inside the span.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span_name(*args, **kwargs) if callable(span_name) else span_name
        index = recorder.begin(name)
        try:
            after = None
            if on_call is not None:
                args, kwargs, after = on_call(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        finally:
            recorder.end(index)

    return wrapper


class Patch:
    """Replaces objects in namespaces and puts the originals back."""

    def __init__(self):
        self._undo: list = []

    def replace(self, namespaces, original, replacement) -> int:
        """Swap ``original`` for ``replacement`` wherever a namespace (a
        module or a dict) holds it by identity.  Returns the number of
        bindings replaced."""
        found = 0
        for ns in namespaces:
            table = ns if isinstance(ns, dict) else vars(ns)
            for key, value in list(table.items()):
                if value is original:
                    self._set(ns, key, replacement)
                    self._undo.append((ns, key, original))
                    found += 1
        return found

    @staticmethod
    def _set(ns, key, value) -> None:
        if isinstance(ns, dict):
            ns[key] = value
        else:
            setattr(ns, key, value)

    def restore(self) -> None:
        while self._undo:
            ns, key, original = self._undo.pop()
            self._set(ns, key, original)
