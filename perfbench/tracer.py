"""Span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: :func:`instrument`
swaps each layer's public entry point for a wrapper *where its caller
looks it up* (a module global for names the session imports by name,
the class attribute for methods) and restores the originals on exit.
Nothing under ``src/`` knows it is being traced, and untraced runs
execute the program unpatched.

A span is ``[name, start, end, parent, point]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``point`` the id shared
by every span of one simulated point.  Spans stay in memory and are
written out once, after measurement.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: spans whose duration belongs to the api layer itself: the
#: benchmark's sweep requests and the per-point entry points
API_SPANS = ("api.sweep", "api.point")


class NullTracer:
    """The untraced stand-in: every span is a no-op."""

    def span(self, name: str) -> "contextlib.AbstractContextManager":
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._point = 0
        self._points = 0

    def _open(self, name: str, new_point: bool) -> list:
        stack = self._stack
        if new_point:
            self._points += 1
            self._point = self._points
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._point]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        record = self._open(name, new_point=False)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, new_point: bool = False,
             tally: Optional[Callable[[Dict[str, int], Any], None]] = None,
             ) -> Callable:
        """*fn* recorded as a span named *name* on every call.

        ``new_point`` starts a fresh point id for the call and its
        descendants; ``tally`` sees the counters and the return value.
        """
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            saved = tracer._point
            record = tracer._open(name, new_point)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                tracer._point = saved
            if tally is not None:
                tally(tracer.counts, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _count_insts(counts: Dict[str, int], trace: Any) -> None:
    counts["isa.trace_insts"] += len(trace)


def _count_hits(counts: Dict[str, int], hit: Any) -> None:
    counts["harness.cache_hits"] += hit is not None


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch every traced layer boundary for the duration."""
    from repro.api import session as api_session
    from repro.api.inspect import SweepInspector
    from repro.api.store import ResultStore
    from repro.core import kernel
    from repro.core.kernel import KernelPipeline
    from repro.core.pipeline import Pipeline
    from repro.harness.cachefile import ResultCache
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.workloads.base import Workload

    build_policy = tracer.wrap("policies.build", api_session.build_policy)

    def build_traced_policy(*args: Any, **kwargs: Any) -> Any:
        policy = build_policy(*args, **kwargs)
        policy.warm_from_trace = tracer.wrap("policies.warm",
                                             policy.warm_from_trace)
        return policy

    # (owner, attribute, replacement); Session binds get_workload at
    # construction, and the session module imports the warmers, the
    # oracle and build_policy by name, so those are patched there
    patches = [
        (api_session, "get_workload",
         tracer.wrap("workloads.build", api_session.get_workload)),
        (Workload, "trace",
         tracer.wrap("isa.trace", Workload.trace, tally=_count_insts)),
        (api_session, "annotate_trace",
         tracer.wrap("ltp.oracle", api_session.annotate_trace)),
        (kernel, "predecode",
         tracer.wrap("core.predecode", kernel.predecode)),
        (Pipeline, "run", tracer.wrap("core.loop", Pipeline.run)),
        (KernelPipeline, "run",
         tracer.wrap("core.loop", KernelPipeline.run)),
        (MemoryHierarchy, "access_data",
         tracer.wrap("memory.access", MemoryHierarchy.access_data)),
        (MemoryHierarchy, "access_inst",
         tracer.wrap("memory.access", MemoryHierarchy.access_inst)),
        (api_session, "warm_hierarchy",
         tracer.wrap("harness.warm", api_session.warm_hierarchy)),
        (api_session, "warm_branch_predictor",
         tracer.wrap("harness.warm", api_session.warm_branch_predictor)),
        (api_session, "build_policy", build_traced_policy),
        (ResultCache, "lookup",
         tracer.wrap("harness.cache_lookup", ResultCache.lookup,
                     tally=_count_hits)),
        (ResultCache, "put",
         tracer.wrap("harness.cache_put", ResultCache.put)),
        (ResultStore, "__init__",
         tracer.wrap("api.store_open", ResultStore.__init__)),
        (ResultStore, "get", tracer.wrap("api.store_get", ResultStore.get)),
        (ResultStore, "add", tracer.wrap("api.store_add", ResultStore.add)),
        (SweepInspector, "observe",
         tracer.wrap("api.inspect", SweepInspector.observe)),
        (api_session.Session, "run",
         tracer.wrap("api.point", api_session.Session.run, new_point=True)),
        (api_session.BatchRunner, "run",
         tracer.wrap("api.point", api_session.BatchRunner.run,
                     new_point=True)),
    ]
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> Dict[str, Any]:
    """Per-name self and inclusive time, counts, and tree checks.

    A span's self time is its duration minus its direct children's
    durations.  On a well-nested tree the self times of all spans sum
    to the roots' total duration; ``min_self`` < 0 means a child
    escaped its parent.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    own: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    roots = 0.0
    min_self = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_time = duration - children[index]
        own[name] += self_time
        inclusive[name] += duration
        count[name] += 1
        min_self = min(min_self, self_time)
        if parent < 0:
            roots += duration
    return {"self": own, "inclusive": inclusive, "count": count,
            "roots": roots, "min_self": min_self}


def span_cost_s(samples: int = 20000) -> float:
    """Calibrated host cost of recording one span around a no-op."""
    tracer = Tracer()

    def noop() -> None:
        return None

    traced = tracer.wrap("calibrate", noop)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, (time.perf_counter() - start - bare) / samples)
