"""Spans and counters around the public functions of the ssmrecon modules.

``Tracer.install`` replaces every public function of the traced modules,
in every ssmrecon namespace that holds it, with a wrapper that records a
span; the benchmark process is the only one affected and no source file
changes. Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import arith

TRACED_MODULES = ("mesh", "spatial", "register", "shape_space", "slicer", "regressor", "metrics", "synth", "pipeline")


@dataclass
class Span:
    id: int
    name: str  # "<module>.<function>"; "op.<label>" for the benchmark's own operations
    start: float
    end: float
    parent: int | None
    thread: int
    context: str  # stage name or request id


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._context = ""
        self.enabled = True

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        return self._run(name, stack[-1] if stack else None, fn, args, kwargs)

    def _run(self, name: str, parent, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        context = self._context
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), context))

    def operation(self, label: str, fn, *args, **kwargs):
        """One stage or request of the benchmark: a root span that labels all its work."""
        self._context = label
        return self.call(f"op.{label}", fn, *args, **kwargs)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def note(self, key: str, value) -> None:
        with self._lock:
            self.distinct[key].add(value)

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in TRACED_MODULES}
        namespaces = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        counters = self._counters()
        for mod_name, mod in modules.items():
            for fn_name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn_name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, counters.get(fn_name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
        index = modules["spatial"].SurfaceIndex
        index.__init__ = self._wrap("spatial.SurfaceIndex.__init__", index.__init__, counters["SurfaceIndex.__init__"])
        index.query = self._wrap("spatial.SurfaceIndex.query", index.query, counters["SurfaceIndex.query"])
        params = modules["regressor"].MlpParams
        post_init = params.__post_init__

        def counted_post_init(obj):
            if self.enabled:
                self.count("regressor.params_built")
            return post_init(obj)

        params.__post_init__ = counted_post_init
        pipeline = modules["pipeline"]
        parallel_map = pipeline._parallel_map

        def traced_parallel_map(fn, items):
            # pool threads start with empty stacks: hang each subject off the submitting span
            stack = self._stack()
            parent = stack[-1] if stack else None
            return parallel_map(lambda item: self._run("pipeline.subject", parent, fn, (item,), {}), items)

        pipeline._parallel_map = traced_parallel_map

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None and self.enabled:
                counter(result, *args, **kwargs)
            return result

        return wrapper

    def _counters(self) -> dict:
        """Counters run after the call, outside its span, keyed by function name."""

        def load_mesh(result, path):
            self.count("mesh.load_bytes", os.path.getsize(path))
            self.note("mesh.load_paths", os.path.realpath(path))

        def validate_closed(result, mesh):
            self.note("mesh.closed_faces", _digest(mesh.faces))

        def index(result, obj, mesh):
            self.note("spatial.index_meshes", _digest(mesh.vertices, mesh.faces))

        def query(result, obj, points):
            self.count("spatial.query_points", len(result[1]))

        def closest_on_triangles(result, points, tri):
            self.count("spatial.triangle_tests", len(tri))

        def train(result, dataset, cfg, n_hidden=256):
            params, log = result
            epochs = len(log.epochs)
            steps = epochs * math.ceil(log.n_train / cfg.batch_size)
            self.count("regressor.epochs", epochs)
            self.count("regressor.sgd_steps", steps)
            self.count(
                "regressor.flops",
                arith.train_flops(params.n_inputs, params.n_hidden, params.n_outputs, log.n_train, log.n_val, epochs, steps),
            )

        def weights_size(result, params, path):
            with self._lock:
                self.counts["regressor.weights_bytes"] = 8 * sum(a.size for a in (params.w1, params.b1, params.w2, params.b2))

        return {
            "load_mesh": load_mesh,
            "validate_closed": validate_closed,
            "SurfaceIndex.__init__": index,
            "SurfaceIndex.query": query,
            "closest_on_triangles": closest_on_triangles,
            "train": train,
            "save_weights": weights_size,
        }

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
