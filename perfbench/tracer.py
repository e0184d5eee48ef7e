"""Spans around calls into the library's modules, recorded from outside it.

Each traced function is wrapped at every name its callers look it up by (the
defining module and every module that imported it) and put back afterwards.
A span records name, start, end, parent span, pipeline id and a count taken
at that boundary: solver iterations for ``find_eigenform``, the dimension for
``orbit_span``.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "eigenform_lab"

# (module, function, count recorded from its result)
TARGETS = (
    ("fractal", "validate", None),
    ("graphs", "hat_graph", None),
    ("graphs", "components", None),
    ("forms", "laplacian", None),
    ("renorm", "renormalize", None),
    ("renorm", "conductance_laplacian", None),
    ("spectral", "perron_component", None),
    ("spectral", "perron_positive", None),
    ("solver", "find_eigenform", lambda result: result.iterations),
    ("solver", "verify_eigenform", None),
    ("uniqueness", "stability_digraph", None),
    ("uniqueness", "orbit_span", len),
    ("uniqueness", "decide_uniqueness", None),
    ("uniqueness", "penalty_form", None),
    ("uniqueness", "explore_nonuniqueness", None),
    ("jsonio", "dumps", None),
    ("cli", "run", None),
)
ROOT_SPAN = "pipeline"


class Span:
    __slots__ = ("name", "start", "end", "parent", "pipeline", "count")

    def __init__(self, name, start, parent, pipeline):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pipeline = pipeline
        self.count = 0


class Tracer:
    """Span recorder for one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pipeline = -1
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None, self.pipeline)
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.count = counter(result)
            return result

        return traced

    def _wrap_parallel_map(self, fn):
        # worker threads start with an empty stack; their spans belong under
        # the parallel_map span that handed them the work
        @functools.wraps(fn)
        def traced(work, items):
            span = self.begin("parallel.parallel_map")

            def adopted(item):
                stack = self._stack()
                saved = stack[:]
                stack[:] = [span]
                try:
                    return work(item)
                finally:
                    stack[:] = saved

            try:
                return fn(adopted, items)
            finally:
                self.end(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []

        def patch_everywhere(original, replacement):
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, replacement)

        try:
            for mod_name, fn_name, counter in TARGETS:
                original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
                patch_everywhere(original, self._wrap(original, f"{mod_name}.{fn_name}", counter))
            original = importlib.import_module(f"{PACKAGE}.parallel").parallel_map
            patch_everywhere(original, self._wrap_parallel_map(original))
            cache_cls = importlib.import_module(f"{PACKAGE}.renorm").OperatorCache
            saved.append((cache_cls, "__init__", cache_cls.__init__))
            cache_cls.__init__ = self._wrap(cache_cls.__init__, "renorm.OperatorCache", None)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover, by span id."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[id(span)]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[id(span)] = (span.end - span.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, inclusive seconds, summed counts."""
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["self_s"] += own[id(span)]
        row["total_s"] += span.end - span.start
        row["count"] += span.count
    return dict(table)


def write_spans(spans: list[Span], path, origin: float) -> None:
    """Spans as rows ``[name, start_s, end_s, parent_row, pipeline, count]``."""
    row_of = {id(span): i for i, span in enumerate(spans)}
    rows = [
        [
            s.name,
            round(s.start - origin, 9),
            round(s.end - origin, 9),
            None if s.parent is None else row_of[id(s.parent)],
            s.pipeline,
            s.count,
        ]
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "pipeline", "count"], "spans": rows}, fh)
