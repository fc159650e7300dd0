"""Self-tests of the benchmark: tiny runs of every workload, traced and untraced.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("customize", "saturate", "replay", "serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracing import _LaneResults, _counting_lanes, layer_metrics  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


@pytest.mark.parametrize("module", ["run", "batch", "serve", "serve_launcher", "tracing"])
def test_benchmark_imports_need_only_the_repo_dependencies(module):
    # A missing third-party module fails here by name, not later as a bare
    # nonzero exit code of a benchmark subprocess.
    importlib.import_module(module)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_checks_pass(workload, trace):
    seed = "2" if trace == "0" else "1"
    done = bench("--workload", workload, "--seed", seed, "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    assert f"seed={seed}" in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    # With tracing on, ``correct`` also asserts identical traced/untraced outputs.
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == declared("per_layer" if trace == "1" else "end_to_end")
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "customize", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "no repro sources" in done.stderr
    assert '"metrics"' not in done.stdout


def test_layer_metrics_use_self_time_and_outermost_counts():
    spans = [
        [1, 0, "bench.pass", 0.0, 10.0, None],
        [2, 1, "runner", 1.0, 9.0, {"computed": 2, "cached": 0}],
        [3, 2, "physical.evaluate", 1.0, 4.0, None],
        [4, 3, "physical.floorplan", 1.5, 2.5, None],
        [5, 2, "topologies.build", 5.0, 6.0, None],
        [6, 5, "topologies.build", 5.2, 5.8, None],
    ]
    metrics = layer_metrics(spans)
    assert metrics["physical.evaluate_s"] == pytest.approx(2.0)
    assert metrics["physical.floorplan_s"] == pytest.approx(1.0)
    assert metrics["runner.s"] == pytest.approx(4.0)
    assert metrics["topologies.build_s"] == pytest.approx(1.0)
    assert metrics["topologies.builds"] == 1
    assert metrics["runner.specs_computed"] == 2
    assert metrics["bench.other_s"] == pytest.approx(2.0)
    assert metrics["trace.attributed_ratio"] == pytest.approx(0.8)


def test_percentile_is_harrell_davis():
    from run import percentile

    assert percentile([3.0], 0.99) == 3.0
    # Symmetric weights around the middle order statistic.
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    values = [float(value) for value in range(1, 201)]
    assert percentile(values, 0.5) == pytest.approx(100.5, rel=1e-6)
    assert 195.0 < percentile(values, 0.99) < 200.0


def test_serve_spec_pools_never_share_a_spec_id():
    import serve
    from repro import ExperimentSpec

    stored, missed = serve.spec_pools(7, serve.PREFILL, serve.MISS_POOL, tiny=False)
    assert len(stored) == serve.PREFILL and len(missed) == serve.MISS_POOL
    ids = {ExperimentSpec.from_dict(data).spec_id for data in stored + missed}
    assert len(ids) == serve.PREFILL + serve.MISS_POOL


def test_fused_lane_cycles_are_counted_with_recycled_lanes():
    class Lane:
        def __init__(self, cycles):
            self.cycles_simulated = cycles

    def fake_run_batched(engines, pending=(), on_finish=None):
        # Like the kernel: every lane finishes through ``on_finish``, which
        # may hand back further lanes to arm.
        queue, results = [*engines, *pending], []
        while queue:
            lane = queue.pop(0)
            results.append(lane.cycles_simulated)
            queue += on_finish(lane, results[-1]) or []
        return results

    seen = []

    def on_finish(lane, stats):
        seen.append(lane)
        return [Lane(7)] if lane.cycles_simulated == 10 else None

    results = _counting_lanes(fake_run_batched)([Lane(10)], [Lane(20)], on_finish)
    assert isinstance(results, _LaneResults) and results == [10, 20, 7]
    assert results.cycles == 37 and len(seen) == 3


def test_reference_seconds_take_out_probe_time_and_divide_by_slowdown():
    from speed import MIN_LOCAL_PROBES, PROBE_REFERENCE_S, SpeedSampler

    sampler = SpeedSampler()
    # One probe a second for 20 s: twice the reference time for the first
    # ten, four times for the last ten.
    sampler.starts = [float(second) for second in range(20)]
    sampler.durations = [2 * PROBE_REFERENCE_S] * 10 + [4 * PROBE_REFERENCE_S] * 10
    work = 10.0 - 10 * 2 * PROBE_REFERENCE_S
    assert sampler.reference_seconds(0.0, 10.0) == pytest.approx(work / 2)
    # Too few probes inside an interval: it takes the whole run's speed.
    assert MIN_LOCAL_PROBES > 2
    assert sampler.reference_seconds(15.0, 16.5) == pytest.approx(
        (1.5 - 2 * 4 * PROBE_REFERENCE_S) / sampler.slowdown())
    # The trimmed mean leaves out the tenth of the probes at either end:
    # two of twenty, here the outlier and one of each speed.
    sampler.durations[0] = 1000 * PROBE_REFERENCE_S
    assert sampler.slowdown() == pytest.approx((7 * 2 + 9 * 4) / 16)


def test_speed_sampler_probes_the_main_thread_while_it_works():
    import time

    from speed import SpeedSampler

    with SpeedSampler(interval=0.005) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
        end = time.perf_counter()
    assert len(sampler.durations) >= 10
    assert sampler.reference_seconds(start, end) > 0
