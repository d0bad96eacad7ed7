"""In-memory span tracing around the package's public functions.

`Tracer.install` replaces each listed function or method with a wrapper that
records a span (name, start, end, parent, op id) while an op is open, and
`Tracer.restore` puts every original object back. Spans stay in memory until
`write_jsonl`. Self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Hook(NamedTuple):
    """Counter code for a traced call, run only while an op is open.

    A "before" hook runs before the call's span opens, as fn(tracer, args,
    kwargs); an "after" hook runs after it closes, as fn(tracer, args, kwargs,
    result). Hooks add to `tracer.counts`.
    """

    when: str  # "before" or "after"
    fn: Callable


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an op's root span
    op: object


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = None
        self._open: list[int] = []  # indices of the spans not yet closed
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record `name` around the block if an op is open."""
        if self.op is None:
            yield
            return
        parent = self._open[-1] if self._open else -1
        # Reserve the slot now so children can point at their parent's index.
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)

    @contextmanager
    def op_span(self, op_id, name: str = "op"):
        """Open op `op_id`; spans recorded inside it carry that id."""
        prev, self.op = self.op, op_id
        try:
            with self.span(name):
                yield
        finally:
            self.op = prev

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, hooks) target.

        `owner` is a module or class and `attribute` names a function in its
        own namespace; the wrapper records span `name` around each call.
        """
        for owner, attr, name, hooks in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrapper(original, name, hooks))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original object `install` replaced, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name: str, hooks):
        before = [h.fn for h in hooks if h.when == "before"]
        after = [h.fn for h in hooks if h.when == "after"]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            for fn in before:
                fn(self, args, kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            for fn in after:
                fn(self, args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def self_time_by_name(spans: list[Span], keep=lambda s: True) -> dict[str, float]:
    """Summed self time per span name over the spans `keep` accepts."""
    out: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if keep(s):
            out[s.name] += t
    return dict(out)
