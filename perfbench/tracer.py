"""Span tracing from outside the program: wrap public functions, time them.

A ``Tracer`` replaces named functions and methods with thin wrappers that
record one span per call: (name, start, end, parent). Modules that import
a function by name (``from .encoders import cluster_assign``) hold their
own reference, so the wrapper is installed on every ``hgsc`` module that
holds the original as well as on its home module. ``restore`` puts every
original back.

Self time of a span is its duration minus the durations of its direct
children; summed over all spans and added to the time outside any span it
gives the wall time of the traced interval exactly.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module path or a class, ``attr``
    the attribute holding the function; ``keep`` (optional) is called with
    (args, kwargs, result) after each call, outside the span."""

    name: str
    owner: object
    attr: str
    keep: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []      # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self._patches: list = []   # (holder, attr, original)
        self.regions: list = []    # (label, start, end) of traced intervals

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, keep=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if keep is not None:
                keep(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def region(self, label: str):
        """Mark a traced interval, such as a traced set-up."""
        start = self.clock()
        try:
            yield
        finally:
            self.regions.append((label, start, self.clock()))

    # -- installation ----------------------------------------------------

    def install(self, targets: list[Target], package: str = "hgsc") -> None:
        for t in targets:
            holder = sys.modules[t.owner] if isinstance(t.owner, str) else t.owner
            original = getattr(holder, t.attr)
            wrapper = self.wrap(t.name, original, t.keep)
            holders = [holder]
            if not isinstance(holder, type):
                holders += [m for key, m in sorted(sys.modules.items())
                            if (key == package or key.startswith(package + "."))
                            and m is not holder
                            and getattr(m, t.attr, None) is original]
            for h in holders:
                self._patches.append((h, t.attr, original))
                setattr(h, t.attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis --------------------------------------------------------

    def self_times(self, start: float = float("-inf"),
                   end: float = float("inf")) -> dict[str, float]:
        """Self time per span name over spans that start inside [start, end]."""
        child = [0.0] * len(self.spans)
        for name, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, float] = defaultdict(float)
        for i, (name, s, e, _) in enumerate(self.spans):
            if start <= s <= end:
                out[name] += (e - s) - child[i]
        return dict(out)

    def covered(self, start: float, end: float) -> float:
        """Wall time inside [start, end] spent under some root span."""
        return sum(e - s for _, s, e, parent in self.spans
                   if parent < 0 and start <= s <= end)

    def calls(self, start: float = float("-inf"),
              end: float = float("inf")) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, s, _, _ in self.spans:
            if start <= s <= end:
                out[name] += 1
        return dict(out)
