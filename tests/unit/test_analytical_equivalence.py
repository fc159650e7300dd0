"""The array analytical model against a per-pair oracle.

``analytical_performance`` sums latency and channel load over per-destination
routing trees.  The oracle below is the straightforward model it replaced: walk
``routing.path(source, destination)`` for every weighted pair and add up each
hop.  Both must agree to rounding on every output, for every topology family,
traffic pattern, link-latency source and trace-derived weighting.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.arch.knc import KNC_SCENARIOS
from repro.core.sparse_hamming import SparseHammingGraph
from repro.physical.model import NoCPhysicalModel
from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.simulator.traffic import TRAFFIC_FACTORIES, make_traffic_pattern
from repro.toolchain.analytical import (
    AnalyticalPerformance,
    _pair_weights,
    analytical_performance,
    pair_weights_from_trace,
)
from repro.topologies.base import Link
from repro.topologies.mesh import MeshTopology
from repro.topologies.registry import available_topologies, is_applicable, make_topology
from repro.utils.validation import ValidationError
from repro.workloads.generators import make_workload_trace

PACKET_SIZE, PIPELINE, INJECTION, EFFICIENCY = 4, 2, 2, 0.75


def oracle(topology, link_latencies, routing, weights: dict[tuple[int, int], float]) -> tuple:
    """Per-pair reference model: one ``routing.path`` walk per weighted pair."""
    latencies = link_latencies or {}
    channel_load: dict[tuple[int, int], float] = {}
    total_latency = total_hops = total_weight = 0.0
    for (source, destination), weight in weights.items():
        path = routing.path(source, destination)
        hops = len(path) - 1
        path_link_latency = 0
        for a, b in zip(path[:-1], path[1:]):
            path_link_latency += max(1, int(latencies.get(Link.canonical(a, b), 1)))
            channel_load[(a, b)] = channel_load.get((a, b), 0.0) + weight
        latency = hops * PIPELINE + path_link_latency + INJECTION + (PACKET_SIZE - 1)
        total_latency += weight * latency
        total_hops += weight * hops
        total_weight += weight
    max_load = max(channel_load.values()) * topology.num_tiles if channel_load else 0.0
    ideal = 1.0 if max_load <= 0 else min(1.0, 1.0 / max_load)
    return (
        total_latency / total_weight,
        min(1.0, EFFICIENCY * ideal),
        total_hops / total_weight,
        max_load,
    )


def as_dict(matrix: np.ndarray) -> dict[tuple[int, int], float]:
    return {(int(s), int(d)): float(matrix[s, d]) for s, d in zip(*np.nonzero(matrix))}


def assert_matches(perf: AnalyticalPerformance, expected: tuple) -> None:
    got = (
        perf.zero_load_latency_cycles,
        perf.saturation_throughput,
        perf.average_hops,
        perf.max_channel_load,
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert all(type(getattr(perf, field.name)) is float for field in fields(perf))


def physical_latencies(topology) -> dict[Link, int]:
    parameters = KNC_SCENARIOS["a"].parameters().scaled(num_tiles=topology.num_tiles)
    return NoCPhysicalModel(parameters).evaluate(topology).link_latencies


def grid_topologies(rows: int, cols: int):
    return [
        make_topology(name, rows, cols)
        for name in available_topologies()
        if is_applicable(name, rows, cols)
    ]


def check_all_traffics(topology, link_latencies) -> int:
    routing = build_routing_tables(topology)
    checked = 0
    for traffic in sorted(TRAFFIC_FACTORIES):
        try:
            pattern = make_traffic_pattern(traffic, topology)
        except ValidationError:
            continue  # the pattern does not apply to this grid
        weights = as_dict(_pair_weights(topology, pattern))
        perf = analytical_performance(
            topology, link_latencies=link_latencies, routing=routing, traffic=traffic,
            packet_size_flits=PACKET_SIZE, router_pipeline_cycles=PIPELINE,
            injection_ejection_cycles=INJECTION, flow_control_efficiency=EFFICIENCY,
        )
        assert_matches(perf, oracle(topology, link_latencies, routing, weights))
        checked += 1
    return checked


@pytest.mark.parametrize("rows, cols", [(4, 4), (8, 8)])
@pytest.mark.parametrize("physical", [False, True], ids=["default-latency", "physical-latency"])
def test_every_topology_and_traffic_matches_oracle(rows, cols, physical):
    for topology in grid_topologies(rows, cols):
        latencies = physical_latencies(topology) if physical else None
        assert check_all_traffics(topology, latencies) >= 5, topology.name


@pytest.mark.parametrize("physical", [False, True], ids=["default-latency", "physical-latency"])
def test_figure6_sparse_hamming_8x16_matches_oracle(physical):
    target = KNC_SCENARIOS["c"]
    topology = SparseHammingGraph(
        target.rows, target.cols, s_r=target.paper_s_r, s_c=target.paper_s_c,
        endpoints_per_tile=target.cores_per_tile,
    )
    latencies = physical_latencies(topology) if physical else None
    assert check_all_traffics(topology, latencies) >= 5


@pytest.mark.parametrize("topology_name", ["mesh", "sparse_hamming", "torus"])
def test_trace_weights_match_oracle(topology_name):
    topology = make_topology(topology_name, 4, 4)
    trace = make_workload_trace("dnn_inference", 4, 4, seed=3)
    weights = pair_weights_from_trace(trace)
    routing = build_routing_tables(topology)
    latencies = physical_latencies(topology)
    perf = analytical_performance(
        topology, link_latencies=latencies, routing=routing, pair_weights=weights,
    )
    assert_matches(perf, oracle(topology, latencies, routing, weights))


def test_trace_weights_are_per_pair_flit_shares():
    trace = make_workload_trace("dnn_inference", 4, 4, seed=3)
    expected: dict[tuple[int, int], float] = {}
    for source, destination, size in zip(trace.sources, trace.destinations, trace.sizes):
        key = (int(source), int(destination))
        expected[key] = expected.get(key, 0.0) + float(size) / float(trace.total_flits)
    assert pair_weights_from_trace(trace) == expected


def test_routing_loop_raises():
    topology = MeshTopology(4, 4)
    tables = build_routing_tables(topology)
    minimal = tables.minimal.copy()
    # Tiles 0 and 1 point at each other for destination 15: a 2-cycle.
    minimal[0][15], minimal[1][15] = 1, 0
    looped = RoutingTables(minimal, tables.escape, tables.hop_distance, tables.tree_parent)
    with pytest.raises(ValidationError, match="loop detected from 0 to 15"):
        analytical_performance(topology, routing=looped)
    # The per-pair walk rejects the same table.
    with pytest.raises(ValidationError, match="loop"):
        looped.path(0, 15)


def test_out_of_grid_pair_raises():
    with pytest.raises(ValidationError, match=r"pair \(0, 16\) outside the 16-tile grid"):
        analytical_performance(MeshTopology(4, 4), pair_weights={(0, 1): 0.5, (0, 16): 0.5})
    with pytest.raises(ValidationError, match="outside"):
        analytical_performance(MeshTopology(4, 4), pair_weights={(-1, 3): 1.0})


@pytest.mark.parametrize(
    "weights",
    [{(0, 1): 0.0, (2, 3): 0.0}, {(0, 0): 1.0, (5, 5): 0.5}, {(1, 2): -1.0}],
    ids=["all-zero", "diagonal-only", "negative"],
)
def test_unusable_pair_weights_raise(weights):
    with pytest.raises(ValidationError, match="contains no usable pairs"):
        analytical_performance(MeshTopology(4, 4), pair_weights=weights)
