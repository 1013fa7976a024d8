"""Spans and counters recorded from outside the program, around calls into its modules.

A Tracer replaces a module or class attribute with a wrapper that opens a
span for the duration of the call. Spans are kept in memory (name, start,
end, parent) and written out when the run ends. A layer is the first
component of a span name, so "estimator.compute_pas" belongs to the
estimator layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if name is not None:
            span[0] = name
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, suffix=None, before=None, count=None) -> None:
        """Trace every call made through owner.attr.

        suffix(args, kwargs, result) names a sub-span once the result is
        known (e.g. the campaign mode); before(args, kwargs) captures state
        the call changes; count(args, kwargs, result, pre) returns amounts
        to add to the run's counters.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                raise
            tracer._close(idx, None if suffix is None else f"{name}.{suffix(args, kwargs, result)}")
            if count is not None:
                for key, amount in count(args, kwargs, result, pre).items():
                    tracer.counts[key] += amount
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": i, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(rec) + "\n")


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict[str, float]:
    """Calls, busy and self time per span name, and busy and self time per layer.

    A span's self time is its duration minus the time its direct children
    cover. A layer is busy while any of its spans is open; its self time is
    the sum of its spans' self times.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += dur
        out[f"{name}.self_s"] += own
        mod = layer(name)
        out[f"{mod}.self_s"] += own
        a = parent
        while a is not None and layer(spans[a][0]) != mod:
            a = spans[a][3]
        if a is None:
            out[f"{mod}.busy_s"] += dur
    return dict(out)
