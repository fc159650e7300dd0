"""Benchmark-owned tracing: spans around the calls into each layer.

Nothing in ``src/`` knows about this module.  :func:`install` replaces each
traced function or method with a wrapper that records a span while the
:class:`Tracer` is enabled.  A function is patched at *every* module
attribute that holds it, because callers import names
(``from repro.simulator.network import build_network``) and a patch of the
defining module alone would miss them.

Spans stay in memory as ``[span_id, parent_id, name, start, end, attrs]``
lists; the parent is the innermost open span of the same thread.
:func:`layer_metrics` turns them into the per-layer metrics of
``BENCHMARK.json``: a ``*_s`` metric is *self* time (the span's duration
minus its direct children's), a count is the number of outermost spans of
that name.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list[Any]:
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else 0, name, time.perf_counter(), 0.0, None]
        stack.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span (used for the benchmark's root spans)."""
        return _SpanContext(self, name)

    def wrap(self, fn: Callable, name: str, annotate: Callable | None = None) -> Callable:
        """``fn`` recording a span ``name``; ``annotate(args, kwargs, result)``
        returns extra attributes (counters) stored on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    def patch_function(self, module_name: str, attr: str, name: str, annotate=None,
                       adapt: Callable | None = None) -> None:
        """Wrap ``module.attr`` and every module attribute bound to it.

        ``adapt(original)``, if given, is what the span wraps: a stand-in that
        returns what the annotation needs to see.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(adapt(original) if adapt else original, name, annotate)
        for module in list(sys.modules.values()):
            if vars(module).get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def patch_method(self, module_name: str, cls_name: str, attr: str, name: str, annotate=None) -> None:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, annotate))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer, self._name, self._span = tracer, name, None

    def __enter__(self) -> list[Any]:
        self._span = self._tracer.open(self._name)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer.close(self._span)


# ------------------------------------------------------------- annotations
def _sim_run(args, kwargs, stats):
    simulator = args[0]
    return {"runs": 1, "cycles": simulator.cycles_simulated, "packets": stats.packets_created,
            "undrained": int(not stats.drained)}


class _LaneResults(list):
    """``run_batched``'s statistics list, plus the cycles all its lanes ran."""

    cycles = 0


def _counting_lanes(run_batched: Callable) -> Callable:
    """``run_batched`` returning :class:`_LaneResults`.

    Every lane, recycled ones included, passes through ``on_finish`` once its
    cycle count is final, so the stand-in hooks ``on_finish`` to sum them.
    """

    @functools.wraps(run_batched)
    def counted(engines, pending=(), on_finish=None):
        lanes = []

        def finished(lane, stats):
            lanes.append(lane)
            return on_finish(lane, stats) if on_finish is not None else None

        results = _LaneResults(run_batched(engines, pending, finished))
        results.cycles = sum(lane.cycles_simulated for lane in lanes)
        return results

    return counted


def _batched_run(args, kwargs, results):
    return {"runs": len(results), "cycles": results.cycles,
            "packets": sum(s.packets_created for s in results),
            "undrained": sum(1 for s in results if not s.drained)}


def _sweep(args, kwargs, result):
    return {"points": len(result.points)}


def _gang(args, kwargs, result):
    return {"specs": len(args[0])}


def _trace(args, kwargs, trace):
    return {"packets": trace.num_packets}


def _runner(args, kwargs, results):
    return {"cached": results.num_cached, "computed": len(results) - results.num_cached}


def _enqueue(args, kwargs, report):
    spec = args[1]
    return {"spec_id": getattr(spec, "spec_id", None)}


def _claim(args, kwargs, jobs):
    return {"claimed": [job.spec_id for job in jobs]}


def _handler(args, kwargs, result):
    return {"req": args[0].headers.get("X-Bench-Request")}


#: (module, attribute, span name, annotation) for traced functions.
FUNCTIONS = (
    ("repro.topologies.registry", "make_topology", "topologies.build", None),
    ("repro.physical.model", "build_floorplan", "physical.floorplan", None),
    ("repro.physical.model", "global_route", "physical.global_route", None),
    ("repro.physical.model", "detailed_route", "physical.detailed_route", None),
    ("repro.simulator.routing_tables", "build_routing_tables", "routing.build", None),
    ("repro.toolchain.analytical", "analytical_performance", "analytical", None),
    ("repro.simulator.network", "build_network", "network.build", None),
    ("repro.simulator.sweep", "find_saturation_throughput", "sweep", _sweep),
    ("repro.simulator.sweep", "replay_trace", "replay", None),
    ("repro.experiments.scheduler", "run_gang_detailed", "scheduler", _gang),
    ("repro.workloads.generators", "workload_trace_from_mapping", "workloads.trace", _trace),
    ("repro.experiments.serialization", "prediction_to_dict", "serialization", None),
    ("repro.experiments.serialization", "prediction_from_dict", "serialization", None),
    ("repro.core.customization", "customize_sparse_hamming", "customize.loop", None),
    ("repro.service.worker", "_execute_specs", "worker.execute", None),
)

#: (module, class, method, span name, annotation) for traced methods.
METHODS = (
    ("repro.core.sparse_hamming", "SparseHammingGraph", "__init__", "topologies.build", None),
    ("repro.physical.model", "NoCPhysicalModel", "evaluate", "physical.evaluate", None),
    ("repro.toolchain.predict", "PredictionToolchain", "routing_for", "routing.lookup", None),
    ("repro.toolchain.predict", "PredictionToolchain", "predict", "predict", None),
    ("repro.simulator.simulation", "Simulator", "run", "kernel", _sim_run),
    ("repro.experiments.runner", "ExperimentRunner", "run", "runner", _runner),
    ("repro.service.store", "ResultStore", "__init__", "store.open", None),
    ("repro.service.store", "ResultStore", "put", "store.put", None),
    ("repro.service.store", "ResultStore", "get", "store.get", None),
    ("repro.service.queue", "WorkQueue", "enqueue", "queue.enqueue", _enqueue),
    ("repro.service.queue", "WorkQueue", "claim_batch", "queue.claim", _claim),
    ("repro.service.queue", "WorkQueue", "complete", "queue.complete", None),
    ("repro.service.api", "ServiceHandler", "do_GET", "api.handler", _handler),
    ("repro.service.api", "ServiceHandler", "do_POST", "api.handler", _handler),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in :data:`FUNCTIONS` and :data:`METHODS`."""
    # Import the package and every traced module first, so that the copies
    # callers bind at import time exist to be patched.
    for module_name in ["repro"] + [entry[0] for entry in FUNCTIONS + METHODS]:
        importlib.import_module(module_name)
    for module_name, attr, name, annotate in FUNCTIONS:
        tracer.patch_function(module_name, attr, name, annotate)
    tracer.patch_function("repro.simulator.engine.vec", "run_batched", "kernel", _batched_run,
                          adapt=_counting_lanes)
    for module_name, cls_name, attr, name, annotate in METHODS:
        tracer.patch_method(module_name, cls_name, attr, name, annotate)


# ----------------------------------------------------------------- metrics
#: Span name -> self-time metric name.
SELF_TIME_METRICS = {
    "topologies.build": "topologies.build_s",
    "physical.evaluate": "physical.evaluate_s",
    "physical.floorplan": "physical.floorplan_s",
    "physical.global_route": "physical.global_route_s",
    "physical.detailed_route": "physical.detailed_route_s",
    "routing.build": "routing.build_s",
    "analytical": "analytical.s",
    "predict": "predict.s",
    "runner": "runner.s",
    "serialization": "serialization.s",
    "store.open": "store.open_s",
    "store.put": "store.put_s",
    "store.get": "store.get_s",
    "kernel": "kernel.s",
    "network.build": "network.build_s",
    "sweep": "sweep.s",
    "replay": "replay.s",
    "scheduler": "scheduler.s",
    "workloads.trace": "workloads.trace_s",
    "customize.loop": "customize.loop_s",
    "api.handler": "api.handler_s",
    "queue.enqueue": "queue.enqueue_s",
    "queue.claim": "queue.claim_s",
    "queue.complete": "queue.complete_s",
    "worker.execute": "worker.execute_s",
}

#: Span name -> count metric name (outermost spans of that name).
COUNT_METRICS = {
    "topologies.build": "topologies.builds",
    "physical.evaluate": "physical.evaluations",
    "routing.build": "routing.builds",
    "analytical": "analytical.calls",
    "store.put": "store.puts",
    "store.get": "store.gets",
    "network.build": "network.builds",
    "api.handler": "api.requests",
}


def self_times(spans: list[list[Any]]) -> dict[int, float]:
    """``span_id -> duration minus the duration of its direct children``."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        if span[1] in own:
            own[span[1]] -= span[4] - span[3]
    return own


def layer_metrics(spans: list[list[Any]], root: str = "bench.pass") -> dict[str, float]:
    """Per-layer metrics (see ``BENCHMARK.json``) from a list of spans."""
    by_id = {span[0]: span for span in spans}
    own = self_times(spans)
    metrics: dict[str, float] = defaultdict(float)
    for name in list(SELF_TIME_METRICS.values()) + list(COUNT_METRICS.values()):
        metrics[name] = 0.0
    sums: dict[str, float] = defaultdict(float)
    undrained_s = 0.0
    enqueued_at: dict[str, float] = {}
    waits: list[float] = []
    for span in sorted(spans, key=lambda s: s[3]):
        span_id, parent, name, start, end, attrs = span
        attrs = attrs or {}
        if name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[name]] += own[span_id]
        outer = by_id.get(parent)
        if name in COUNT_METRICS and (outer is None or outer[2] != name):
            metrics[COUNT_METRICS[name]] += 1
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                sums[f"{name}.{key}"] += value
        if name == "kernel" and attrs.get("undrained"):
            undrained_s += end - start
        if name == "queue.enqueue" and attrs.get("spec_id"):
            enqueued_at.setdefault(attrs["spec_id"], end)
        if name == "queue.claim":
            for spec_id in attrs.get("claimed", ()):
                if spec_id in enqueued_at:
                    waits.append(end - enqueued_at.pop(spec_id))
    lookups = sum(1 for span in spans if span[2] == "routing.lookup")
    lookups_that_built = sum(
        1 for span in spans
        if span[2] == "routing.build" and by_id.get(span[1], [0, 0, ""])[2] == "routing.lookup"
    )
    metrics["routing.reuse_ratio"] = (lookups - lookups_that_built) / lookups if lookups else 0.0
    metrics["runner.specs_computed"] = sums["runner.computed"]
    metrics["runner.cache_hits"] = sums["runner.cached"]
    metrics["kernel.runs"] = sums["kernel.runs"]
    metrics["kernel.cycles"] = sums["kernel.cycles"]
    metrics["kernel.packets"] = sums["kernel.packets"]
    metrics["kernel.undrained_runs"] = sums["kernel.undrained"]
    metrics["kernel.undrained_s"] = undrained_s
    metrics["kernel.cycles_per_s"] = (
        metrics["kernel.cycles"] / metrics["kernel.s"] if metrics["kernel.s"] else 0.0
    )
    metrics["sweep.points"] = sums["sweep.points"]
    metrics["scheduler.gangs"] = sum(1 for span in spans if span[2] == "scheduler")
    metrics["scheduler.ganged_specs"] = sums["scheduler.specs"]
    metrics["workloads.trace_packets"] = sums["workloads.trace.packets"]
    metrics["queue.wait_s"] = sum(waits)
    roots = [span for span in spans if span[2] == root]
    wall = sum(span[4] - span[3] for span in roots)
    metrics["bench.other_s"] = sum(own[span[0]] for span in roots)
    metrics["trace.attributed_ratio"] = 1.0 - metrics["bench.other_s"] / wall if wall else 0.0
    return dict(metrics)


def handler_durations(spans: list[list[Any]]) -> dict[str, float]:
    """``X-Bench-Request`` id -> server-side handler duration."""
    return {
        span[5]["req"]: span[4] - span[3]
        for span in spans
        if span[2] == "api.handler" and span[5] and span[5].get("req")
    }

