"""Spans recorded around calls into surgraph's public functions.

Nothing inside ``src/`` is instrumented. The traced pass replaces, for its
duration, the module attributes through which one surgraph module calls
another (``surgraph.pipeline.load_mask`` and the like) with wrappers that
record a span per call, and restores them afterwards. Spans live in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import ExitStack, contextmanager
from functools import wraps
from pathlib import Path

import surgraph.cli
import surgraph.pipeline
from surgraph.numerics import DENSE_NODE_LIMIT, SparseAdjacency


class Tracer:
    """Spans as (id, parent id, name, start ns, end ns); parent -1 is a root.

    Each thread keeps its own stack of open spans. A span opened on a pool
    thread with nothing open on that thread gets, as parent, the innermost
    span open on the thread that created the tracer.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else -1)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``, in start order."""
        spans = sorted((s for s in self.spans if s[2] == name), key=lambda s: s[3])
        return [(s[4] - s[3]) / 1e9 for s in spans]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end}\n")


class _TracedJson:
    """Stands in for the ``json`` module inside surgraph.cli, timing dumps."""

    def __init__(self, tracer: Tracer):
        self.dumps = tracer.wrap("cli.json_dumps", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


@contextmanager
def _patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# (module, attribute it calls through, span name)
_CALL_SITES = [
    (surgraph.pipeline, "load_mask", "ingest.load_mask"),
    (surgraph.pipeline, "build_static_graph", "scene_graph.build_static_graph"),
    (surgraph.pipeline, "build_dynamic_graph", "dynamic_graph.build_dynamic_graph"),
    (surgraph.pipeline, "normalize_adjacency", "gcn.normalize_adjacency"),
    (surgraph.pipeline, "loss_and_gradients_prepared", "gcn.loss_and_gradients_prepared"),
    (surgraph.pipeline, "adam_step", "gcn.adam_step"),
    (surgraph.pipeline, "forward_prepared", "gcn.forward_prepared"),
    (surgraph.cli, "load_mask", "ingest.load_mask"),
    (surgraph.cli, "build_static_graph", "scene_graph.build_static_graph"),
    (surgraph.cli, "build_dynamic_graph", "dynamic_graph.build_dynamic_graph"),
    (surgraph.cli, "dynamic_graph_to_json", "cli.dynamic_graph_to_json"),
]

APPLY_CSR = "numerics.apply_csr"
APPLY_DENSE = "numerics.apply_dense"


@contextmanager
def traced_calls(tracer: Tracer):
    """Record a span for every call made through the call sites above."""
    apply = SparseAdjacency.apply

    def traced_apply(adjacency, x):
        name = APPLY_CSR if adjacency.node_count >= DENSE_NODE_LIMIT else APPLY_DENSE
        return tracer.call(name, apply, adjacency, x)

    with ExitStack() as stack:
        for owner, attr, name in _CALL_SITES:
            stack.enter_context(_patched(owner, attr, tracer.wrap(name, getattr(owner, attr))))
        stack.enter_context(_patched(surgraph.cli, "json", _TracedJson(tracer)))
        stack.enter_context(_patched(SparseAdjacency, "apply", traced_apply))
        yield
