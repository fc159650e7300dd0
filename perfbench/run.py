"""End-to-end prediction benchmark for the sparse Hamming graph toolchain.

Run from the repository root::

    python3 perfbench/run.py --workload customize --seed 1 --seconds 20 --trace 0

Workloads: ``customize``, ``saturate``, ``replay`` and ``serve`` (see
``perfbench/NOTES.md``).  With ``--trace 0`` the run is untraced and
reports every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it makes one untraced and one traced pass of the same inputs, checks that
their outputs are identical, and reports every per-layer metric.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Times are in reference seconds (``speed.py``): wall time taken at a fixed
host speed, measured while the run works.  The ``serve`` request path,
which the server's timers set, stays in wall seconds.

``--tiny`` shrinks every workload to a few seconds (used by the self-tests);
``--write-pins`` regenerates ``pins.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
PINS = HERE / "pins.json"


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` (0..1) of a non-empty list.

    A Beta-weighted mean of all order statistics: it estimates the same
    quantile as a single order statistic, but a p95 of a few hundred
    requests no longer hangs on one sample alone.  The weight of the i-th
    of n order statistics is the mass of Beta((n+1)q, (n+1)(1-q)) on
    ((i-1)/n, i/n]; it is integrated here with the midpoint rule on 64
    cells per sample.
    """
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    x = (numpy.arange(64 * n) + 0.5) / (64 * n)
    log_density = (a - 1) * numpy.log(x) + (b - 1) * numpy.log1p(-x)
    weights = numpy.exp(log_density - log_density.max()).reshape(n, 64).sum(axis=1)
    return float(numpy.dot(weights, ordered) / weights.sum())


def same(got: Any, want: Any) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return got == want


def seed_pins(workload: str, seed: int) -> dict[str, Any]:
    """Pinned outputs of ``workload`` that apply to ``seed`` (empty if none)."""
    entry = json.loads(PINS.read_text()).get(workload, {})
    return entry.get("outputs", {}) if entry.get("seed") in (None, seed) else {}


def pin_problems(workload: str, seed: int, view: dict[str, Any], require: bool) -> list[str]:
    """Compare a ``batch.pin_view`` with ``pins.json``; with ``require``, every key needs a pin."""
    pins = seed_pins(workload, seed)
    if not pins:
        return []
    problems = []
    for key, output in view.items():
        if key not in pins:
            if require:
                problems.append(f"{key}: no pinned value")
            continue
        want = pins[key]
        if isinstance(want, dict):
            for field, value in want.items():
                if not same(output.get(field), value):
                    problems.append(f"{key}.{field}: got {output.get(field)!r}, pinned {value!r}")
        elif not same(output, want):
            problems.append(f"{key}: got {output!r}, pinned {want!r}")
    return problems


def setup_repeats(args) -> int:
    """Set-ups per run; a traced run reports no ``setup_s``, so it sets up once."""
    return 1 if args.tiny or args.trace else SETUP_REPEATS


def timed_setup(sampler, setup, *args) -> tuple[Any, float]:
    """``setup(*args)`` and its duration in reference seconds."""
    start = time.perf_counter()
    value = setup(*args)
    return value, sampler.reference_seconds(start, time.perf_counter())


def batch_setup(workdir: Path, index: int) -> None:
    """A batch workload's set-up: a fresh interpreter imports ``repro`` and opens a store."""
    from serve import run_setup_probe

    run_setup_probe("--db", str(workdir / f"setup-{index}.sqlite"), timeout=120)


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ batch
def one_pass(workload, recorder, index: int, workdir: Path, name: str | None = None) -> dict[str, Any]:
    """Pass ``index`` into a fresh store; its interval goes to ``recorder.passes``."""
    start = time.perf_counter()
    outputs = workload.run_pass(recorder, workdir / f"pass-{name or index}.sqlite", index)
    recorder.passes.append((start, time.perf_counter()))
    return outputs


def wall_s(intervals) -> float:
    return sum(end - start for start, end in intervals)


def run_batch(args, workdir: Path) -> dict[str, Any]:
    from batch import BATCH_WORKLOADS, Recorder, mempool_errors, pin_view
    from speed import SpeedSampler

    workload = BATCH_WORKLOADS[args.workload](args.seed, args.tiny)
    if args.trace:
        return traced_batch(args, workload, workdir)
    recorder = Recorder()
    with SpeedSampler() as sampler:
        first = one_pass(workload, recorder, 0, workdir)
        problems = workload.check(first, 0)
        problems += pin_problems(args.workload, args.seed, pin_view(first), require=not args.tiny)
        setups = [timed_setup(sampler, batch_setup, workdir, index)[1]
                  for index in range(setup_repeats(args))]
        # Whole passes, as many as fit ``--seconds`` of reference time best:
        # another pass starts only if it would end nearer to ``--seconds``
        # than the run is now.  Counted in reference seconds, the number of
        # passes of a seed does not depend on the host's speed.
        seconds = sampler.reference_seconds
        while True:
            busy = sum(seconds(*interval) for interval in recorder.passes)
            if busy + 0.5 * busy / len(recorder.passes) >= args.seconds:
                break
            index = len(recorder.passes)
            problems += workload.check(one_pass(workload, recorder, index, workdir), index)

    requests = [seconds(*interval) for interval in recorder.requests]
    ready = [seconds(*interval) for interval in recorder.ready]
    errors = first.get("mempool") or mempool_errors()
    attempted = recorder.predictions
    failed = min(attempted, len(problems))
    log(f"workload={args.workload} seed={args.seed} passes={len(recorder.passes)} "
        f"predictions={attempted} wall_s={wall_s(recorder.passes):.3f} reference_s={busy:.3f} "
        f"slowdown={sampler.slowdown():.3f} probes={len(sampler.durations)}")
    for problem in problems:
        log(f"check failed: {problem}")
    metrics = {
        "setup_s": statistics.median(setups),
        "predictions_per_s": attempted / busy,
        "peak_rss_mb": self_peak_rss_mb(),
        "ok_ratio": (attempted - failed) / attempted,
        "request_p50_ms": 1000 * percentile(requests, 0.50),
        "request_p95_ms": 1000 * percentile(requests, 0.95),
        "requests_per_s": len(requests) / busy,
        "miss_ready_p50_s": percentile(ready, 0.50),
        "miss_ready_p90_s": percentile(ready, 0.90),
        "mempool_area_err_pct": errors["area_err_pct"],
        "mempool_power_err_pct": errors["power_err_pct"],
    }
    return result(not problems, attempted, failed, metrics, first)


def traced_batch(args, workload, workdir: Path) -> dict[str, Any]:
    """One untraced pass, then the same pass with the layer wrappers installed."""
    from batch import Recorder, pin_view
    from tracing import Tracer, install, layer_metrics

    untraced_recorder = Recorder()
    untraced = one_pass(workload, untraced_recorder, 0, workdir)
    problems = workload.check(untraced, 0)
    problems += pin_problems(args.workload, args.seed, pin_view(untraced), require=not args.tiny)
    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    traced_recorder = Recorder()
    try:
        with tracer.span("bench.pass"):
            traced = one_pass(workload, traced_recorder, 0, workdir, name="traced")
    finally:
        tracer.enabled = False
        tracer.uninstall()
    if traced != untraced:
        problems.append("outputs differ with tracing on and off")
    traced_wall, untraced_wall = wall_s(traced_recorder.passes), wall_s(untraced_recorder.passes)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["api.client_gap_ms"] = 0.0
    log(f"workload={args.workload} seed={args.seed} traced_wall_s={traced_wall:.3f} "
        f"untraced_wall_s={untraced_wall:.3f} attributed={metrics['trace.attributed_ratio']:.4f}")
    for problem in problems:
        log(f"check failed: {problem}")
    attempted = untraced_recorder.predictions
    return result(not problems, attempted, min(attempted, len(problems)), metrics, untraced)


# ------------------------------------------------------------------ serve
def run_serve(args, workdir: Path) -> dict[str, Any]:
    import serve
    from batch import mempool_errors
    from speed import SpeedSampler

    prefill, misses = serve.spec_pools(args.seed, 4 if args.tiny else serve.PREFILL,
                                       serve.MISS_POOL, args.tiny)
    setups = []
    server = None
    try:
        # Only the set-ups are sampled: the request path's latencies are set
        # by the server's timers, not by host speed, and stay wall seconds.
        with SpeedSampler() as sampler:
            for index in range(setup_repeats(args)):
                if server is not None:
                    server.stop()
                (server, expected), elapsed = timed_setup(sampler, serve.setup, workdir, prefill, index)
                setups.append(elapsed)
        loop = serve.Loop(server.port, args.seed, expected, misses)
        wall = loop.run(2.0 if args.tiny else float(args.seconds))
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    problems = serve_problems(args, workdir / f"serve-{len(setups) - 1}.sqlite", loop, expected)
    if args.trace:
        return traced_serve(args, workdir, prefill, misses, loop, wall, problems)
    reads = [latency for _, latency in loop.reads.log]
    attempted = len(reads) + loop.miss_attempts
    failed = min(attempted, loop.read_failures + loop.miss_failures + len(problems))
    log(f"workload=serve seed={args.seed} reads={len(reads)} misses={len(loop.miss_ready)} "
        f"wall_s={wall:.3f}")
    for problem in problems:
        log(f"check failed: {problem}")
    errors = mempool_errors()
    metrics = {
        "setup_s": statistics.median(setups),
        "predictions_per_s": (loop.predict_hits + len(loop.miss_ready)) / wall,
        "peak_rss_mb": self_peak_rss_mb() + server_rss,
        "ok_ratio": (attempted - failed) / attempted,
        "request_p50_ms": 1000 * percentile(reads, 0.50),
        "request_p95_ms": 1000 * percentile(reads, 0.95),
        "requests_per_s": len(reads) / wall,
        "miss_ready_p50_s": percentile(loop.miss_ready or [0.0], 0.50),
        "miss_ready_p90_s": percentile(loop.miss_ready or [0.0], 0.90),
        "mempool_area_err_pct": errors["area_err_pct"],
        "mempool_power_err_pct": errors["power_err_pct"],
    }
    return result(failed == 0, attempted, failed, metrics, None)


def serve_problems(args, db: Path, loop, expected: dict[str, Any]) -> list[str]:
    """Served bodies against the store, the pins and local predictions."""
    import serve
    from batch import pin_view
    from repro import ExperimentSpec
    from repro.experiments.serialization import prediction_to_dict

    problems = []
    mismatches = serve.check_against_store(db, loop)
    if mismatches:
        problems.append(f"{mismatches} response bodies differ from the stored payload")
    if not loop.miss_ready:
        problems.append("no store miss completed")
    pins = seed_pins("serve", args.seed)
    if pins and not args.tiny and not set(expected) <= set(pins):
        problems.append("prefilled specs are not pinned")
    served = {"payloads": {**expected, **loop.miss_bodies}}
    problems += pin_problems("serve", args.seed, pin_view(served), require=False)
    # Two served misses without a pin are compared with a local prediction,
    # outside the measured window.
    specs = (ExperimentSpec.from_dict(data) for data in loop.misses)
    unpinned = [spec for spec in specs if spec.spec_id in loop.miss_bodies and spec.spec_id not in pins]
    for spec in unpinned[:2]:
        if prediction_to_dict(spec.run()) != loop.miss_bodies[spec.spec_id]:
            problems.append(f"{spec.describe()}: served result differs from a local prediction")
    return problems


def traced_serve(args, workdir, prefill, misses, untraced_loop, untraced_wall, problems):
    import serve
    from tracing import handler_durations, layer_metrics

    spans_file = workdir / "server-spans.json"
    server, expected = serve.setup(workdir, prefill, "traced", trace_out=spans_file)
    try:
        loop = serve.Loop(server.port, args.seed, expected, misses)
        traced_wall = loop.run(None, read_count=len(untraced_loop.read_log))
    finally:
        server.stop()
    spans = json.loads(spans_file.read_text())
    problems = problems + serve_problems(args, workdir / "serve-traced.sqlite", loop, expected)
    if [entry[:2] for entry in loop.read_log] != [entry[:2] for entry in untraced_loop.read_log] or [
        entry[2] for entry in loop.read_log if entry[0].startswith("/predict")
    ] != [entry[2] for entry in untraced_loop.read_log if entry[0].startswith("/predict")]:
        problems.append("read responses differ with tracing on and off")
    common = set(loop.miss_bodies) & set(untraced_loop.miss_bodies)
    if any(loop.miss_bodies[key] != untraced_loop.miss_bodies[key] for key in common):
        problems.append("miss results differ with tracing on and off")
    handler = handler_durations(spans)
    client = loop.reads.log + loop.writes.log
    gaps = [latency - handler[request_id] for request_id, latency in client if request_id in handler]
    metrics = layer_metrics(spans, root="")
    # The server's layer spans cover only the handler time of each read; the
    # rest of the read loop is the client gap (``api.client_gap_ms``).
    read_handler = sum(handler.get(request_id, 0.0) for request_id, _ in loop.reads.log)
    metrics["api.client_gap_ms"] = 1000 * statistics.median(gaps) if gaps else 0.0
    metrics["bench.other_s"] = traced_wall - read_handler
    metrics["trace.attributed_ratio"] = read_handler / traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    log(f"workload=serve seed={args.seed} traced_wall_s={traced_wall:.3f} "
        f"untraced_wall_s={untraced_wall:.3f} matched_requests={len(gaps)}")
    for problem in problems:
        log(f"check failed: {problem}")
    attempted = len(loop.read_log) + loop.miss_attempts
    return result(not problems, attempted, min(attempted, len(problems)), metrics, None)


# ----------------------------------------------------------------- output
def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


def result(correct: bool, attempted: int, failed: int, metrics: dict[str, float], outputs) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "outputs": outputs}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def write_pins(args, workdir: Path) -> None:
    import serve
    from batch import pin_view
    from repro import ExperimentSpec
    from repro.experiments.serialization import prediction_to_dict

    pins: dict[str, Any] = {}
    for workload in ("customize", "saturate", "replay"):
        args.workload, args.seed, args.trace = workload, DEFAULT_SEED, 0
        args.seconds = 0
        outcome = run_batch(args, workdir)
        pins[workload] = {"seed": None if workload == "customize" else DEFAULT_SEED,
                          "outputs": pin_view(outcome["outputs"])}
    prefill, misses = serve.spec_pools(DEFAULT_SEED, serve.PREFILL, serve.MISS_POOL, False)
    payloads = {}
    for data in prefill + misses[:80]:
        spec = ExperimentSpec.from_dict(data)
        payloads[spec.spec_id] = prediction_to_dict(spec.run())
    pins["serve"] = {"seed": DEFAULT_SEED, "outputs": pin_view({"payloads": payloads})}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("customize", "saturate", "replay", "serve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few-second inputs for self-tests")
    parser.add_argument("--write-pins", action="store_true", help="regenerate pins.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_pins:
            write_pins(args, workdir)
            return 0
        declared = declared_metrics(bool(args.trace))
        run = run_serve if args.workload == "serve" else run_batch
        outcome = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(declared) - set(outcome["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
