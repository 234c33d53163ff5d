"""Span recorder and the layer wrappers the traced run installs.

Layers are timed from outside the program: each public function that
``durp.experiments``, ``durp.harness`` or ``durp.evaluate`` imports is
replaced, for the length of one traced unit, by a wrapper that records a
span around the call.  Nothing inside ``src/`` is touched.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc

# span name -> (module, attribute) pairs it wraps.  A module is wrapped
# where the calling code looks the name up, so one layer can sit behind
# several imports.
LAYERS = {
    "triplets.sample": (("experiments", "sample_active_triplets"),
                        ("harness", "sample_active_triplets")),
    "triplets.cache": (("experiments", "build_cache"), ("harness", "build_cache")),
    "triplets.project": (("experiments", "project_cache"), ("harness", "project_cache")),
    "projection.build": (("experiments", "gaussian_matrix"), ("harness", "gaussian_matrix")),
    "solver.solve": (("experiments", "csdca_solve"), ("harness", "csdca_solve")),
    "metric.recover": (("experiments", "recover_metric"), ("harness", "recover_metric")),
    "metric.psd": (("experiments", "psd_project"), ("harness", "psd_project")),
    "evaluate.map": (("evaluate", "ranking_map"),),
    "evaluate.knn": (("evaluate", "knn_accuracy"),),
    "reference.pga": (("harness", "pga_solve"),),
}

# layers whose Python-heap peak (numpy buffers included) is recorded
MEMORY_LAYERS = ("triplets.cache", "metric.recover")


class SpanRecorder:
    """Spans kept in memory: name, start, end, parent id, plus counts a wrapper adds."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.last_solve_args = None  # (cache, loss, lam, epochs, seed) of the latest solve

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": None, "end": None}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def children(self, parent_id):
        return [s for s in self.spans if s["parent"] == parent_id]


def _wrap(recorder, name, fn):
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            if name in MEMORY_LAYERS:
                tracemalloc.start()
                try:
                    out = fn(*args, **kwargs)
                    record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            else:
                out = fn(*args, **kwargs)
            if name == "solver.solve":
                recorder.last_solve_args = args
                record["n"] = int(args[0].n)
                record["solver_trace"] = [list(row) for row in out.trace]
            elif name == "reference.pga":
                record["iters"] = int(out.trace[0][0]) if out.trace else 0
            elif name == "evaluate.map":
                record["queries"] = int(args[1].n)
            elif name == "evaluate.knn":
                record["queries"] = int(args[2].n)
            return out
    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrumented(recorder, modules):
    """Install every layer wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _wrap(recorder, name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def unit_layer_stats(recorder, unit_span):
    """Per-layer seconds, counts and memory for one traced unit span."""
    inside = [s for s in recorder.spans
              if s["parent"] is not None and unit_span["start"] <= s["start"]
              and s["end"] <= unit_span["end"]]
    seconds = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    for s in inside:
        seconds[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    wall = unit_span["end"] - unit_span["start"]
    direct = recorder.children(unit_span["id"])
    stats = {"wall": wall, "seconds": seconds, "calls": calls,
             "other": wall - sum(s["end"] - s["start"] for s in direct)}
    for name in MEMORY_LAYERS:
        peaks = [s["peak_bytes"] for s in inside if s["name"] == name]
        stats[name + "_mb"] = max(peaks) / 2**20 if peaks else 0.0
    solves = [s for s in inside if s["name"] == "solver.solve"]
    sgd = sum(s["solver_trace"][0][3] for s in solves if s["solver_trace"])
    epochs = [b[3] - a[3] for s in solves
              for a, b in zip(s["solver_trace"], s["solver_trace"][1:])]
    updates = sum(s["n"] * (len(s["solver_trace"]) - 1) for s in solves)
    stats["sgd"] = sgd
    stats["sdca_epoch"] = statistics.mean(epochs) if epochs else 0.0
    stats["updates_per_s"] = updates / sum(epochs) if epochs else 0.0
    queries = sum(s["queries"] for s in inside if s["name"] in ("evaluate.map", "evaluate.knn"))
    eval_s = seconds["evaluate.map"] + seconds["evaluate.knn"]
    stats["queries_per_s"] = queries / eval_s if eval_s > 0 else 0.0
    stats["pga_iters"] = sum(s["iters"] for s in inside if s["name"] == "reference.pga")
    return stats
