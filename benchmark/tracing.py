"""In-memory span tracer for the layers of ccmv, measured from outside.

The tracer replaces a function with a timing wrapper in each module where a
caller looks it up (``ccmv.pd.validate_problem`` and ``ccmv.padm.validate_problem``
are two bindings of one function), and restores every binding on exit. Spans
are kept in memory as ``[name, start, end, parent, solve_id]`` and written out
when the run ends; a layer's self time is derived from them afterwards.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path

NAME, START, END, PARENT, SOLVE_ID = range(5)


class Tracer:
    """Records spans and call counts of patched functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn, observe):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            counts[name + ".calls"] += 1
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.solve_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, targets):
        """Patch every target: (name, modules, attribute, kind, observe).

        kind "span" records a span and a call count, kind "count" only counts
        calls (for functions called once per inner iteration).
        """
        for name, modules, attr, kind, observe in targets:
            for module in modules:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                wrapper = (self._span(name, original, observe) if kind == "span"
                           else self._counter(name, original))
                setattr(module, attr, wrapper)
        return self

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def self_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] += own
    return dict(totals)


def accounted_frac(spans, roots: set[str]) -> float:
    """Self time summed over the span trees of the named roots, over the roots' time.

    Equals 1 when the per-layer self times account for the whole traced solve
    time with nothing counted twice; 0 when no root span was recorded.
    """
    own = self_times(spans)
    root_of: list[int] = []
    for i, span in enumerate(spans):
        root_of.append(i if span[PARENT] < 0 else root_of[span[PARENT]])
    in_trees = sum(own[i] for i in range(len(spans)) if spans[root_of[i]][NAME] in roots)
    total = sum(s[END] - s[START] for s in spans if s[PARENT] < 0 and s[NAME] in roots)
    return in_trees / total if total > 0 else 0.0
