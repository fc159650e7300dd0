"""Fast analytical performance model.

The paper obtains zero-load latency and saturation throughput from
cycle-accurate BookSim2 simulations.  For large design-space sweeps (hundreds
of sparse-Hamming-graph configurations, the customization search, the Figure 6
benchmarks at full chip size) a Python cycle-accurate simulation is too slow,
so the toolchain also provides a standard analytical model that uses exactly
the same inputs — the routing tables and the physical model's per-link latency
estimates:

* **zero-load latency**: averaged over all source/destination pairs, a packet
  experiences one router traversal per hop (``router_pipeline_cycles`` each),
  the latency of every link on its path (from the physical model), the
  injection/ejection overhead, and the serialization latency of its remaining
  ``packet_size - 1`` flits.

* **saturation throughput**: the classical channel-load bound.  Under a given
  traffic pattern each directed channel sees an expected number of flits per
  injected flit; the network saturates when the most-loaded channel reaches
  its capacity of one flit per cycle.  A calibration factor (default 0.75)
  accounts for flow-control and allocation inefficiencies relative to the
  ideal bound; the factor was chosen so that the analytical results match the
  cycle-accurate simulator on small networks (see
  ``tests/integration/test_toolchain_consistency.py``).

Minimal routing picks the next hop from ``(node, destination)`` alone, so the
routes into each destination form an in-tree.  Both estimates are computed on
N x N ``(node, destination)`` matrices, one tree level per array pass: down
the levels for hops and link latency, back up for the subtree weights, which
are the channel loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.simulator.traffic import TrafficPattern, UniformRandomTraffic, make_traffic_pattern
from repro.topologies.base import Link, Topology
from repro.utils.validation import ValidationError, check_in_range, check_positive

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class AnalyticalPerformance:
    """Analytical performance estimate of one topology.

    Attributes
    ----------
    zero_load_latency_cycles:
        Average packet latency at zero load.
    saturation_throughput:
        Saturation injection rate as a fraction of capacity.
    average_hops:
        Mean hop count under the traffic pattern.
    max_channel_load:
        Expected flits per cycle on the most-loaded channel at an injection
        rate of one flit per tile per cycle.
    """

    zero_load_latency_cycles: float
    saturation_throughput: float
    average_hops: float
    max_channel_load: float


def _pair_weights(topology: Topology, pattern: TrafficPattern, samples: int = 0) -> np.ndarray:
    """``weights[source, destination]``: probability of each pair under the pattern.

    Uniform traffic has a closed form; deterministic permutation patterns
    (transpose, tornado, ...) map each source to one destination; other
    patterns are estimated by sampling.
    """
    num = topology.num_tiles
    if isinstance(pattern, UniformRandomTraffic):
        weights = np.full((num, num), 1.0 / (num * (num - 1)))
        np.fill_diagonal(weights, 0.0)
        return weights
    rng = np.random.default_rng(0)
    draws = max(1, samples) if samples else 32
    sources = np.repeat(np.arange(num), draws)
    destinations = [pattern.destination(int(source), rng) for source in sources]
    weights = np.zeros((num, num))
    np.add.at(weights, (sources, destinations), 1.0 / (num * draws))
    return weights


def pair_weights_from_trace(trace: "WorkloadTrace") -> dict[tuple[int, int], float]:
    """Pair probabilities proportional to a trace's per-pair flit volume.

    The trace's ``(source, destination)`` records, weighted by packet size,
    define the spatial traffic matrix an application actually offers.  Feeding
    these weights into :func:`analytical_performance` turns the generic
    analytical model into a *workload-aware* screening model: the zero-load
    latency is averaged over the pairs the application really exercises, and
    the channel-load bound reflects the links its traffic concentrates on.
    """
    weights = np.zeros((trace.num_tiles, trace.num_tiles))
    np.add.at(weights, (trace.sources, trace.destinations), trace.sizes / float(trace.total_flits))
    return {(int(s), int(d)): float(weights[s, d]) for s, d in zip(*np.nonzero(weights))}


def analytical_performance(
    topology: Topology,
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
    traffic: str = "uniform",
    packet_size_flits: int = 4,
    router_pipeline_cycles: int = 2,
    injection_ejection_cycles: int = 2,
    flow_control_efficiency: float = 0.75,
    pair_weights: Mapping[tuple[int, int], float] | None = None,
) -> AnalyticalPerformance:
    """Estimate zero-load latency and saturation throughput analytically.

    Parameters mirror the simulator configuration so that both performance
    paths of the toolchain are driven by the same knobs.  When
    ``pair_weights`` is given (e.g. from :func:`pair_weights_from_trace`) it
    replaces the synthetic traffic pattern as the source/destination
    distribution; ``traffic`` is then ignored.
    """
    check_positive("packet_size_flits", packet_size_flits)
    check_positive("router_pipeline_cycles", router_pipeline_cycles)
    check_in_range("flow_control_efficiency", flow_control_efficiency, 0.1, 1.0)

    routing = routing or build_routing_tables(topology)
    num = topology.num_tiles
    if pair_weights is None:
        weights = _pair_weights(topology, make_traffic_pattern(traffic, topology))
    else:
        pairs = np.array(list(pair_weights), dtype=np.int64).reshape(-1, 2)
        values = np.array(list(pair_weights.values()), dtype=float)
        outside = np.argwhere((pairs < 0) | (pairs >= num))
        if len(outside):
            source, destination = pairs[outside[0][0]]
            raise ValidationError(f"pair ({source}, {destination}) outside the {num}-tile grid")
        usable = (pairs[:, 0] != pairs[:, 1]) & (values > 0)
        if not usable.any():
            raise ValidationError("pair_weights contains no usable pairs")
        weights = np.zeros((num, num))
        weights[pairs[usable, 0], pairs[usable, 1]] = values[usable]
    link_latency = np.ones((num, num), dtype=np.int64)
    for link, latency in (link_latencies or {}).items():
        link_latency[link.src, link.dst] = link_latency[link.dst, link.src] = max(1, int(latency))

    # Down the trees: a node joins level k when its next hop is at level k - 1.
    # A missing table entry (-1) points at the node itself, i.e. a loop.
    next_hop = np.where(routing.minimal < 0, np.arange(num)[:, None], routing.minimal)
    destination = np.broadcast_to(np.arange(num), (num, num))
    hops = np.where(np.eye(num, dtype=bool), 0, -1)
    path_latency = np.zeros((num, num), dtype=np.int64)
    levels = []
    while (joining := (hops < 0) & (hops[next_hop, destination] == len(levels))).any():
        nodes, targets = np.nonzero(joining)
        ahead = next_hop[nodes, targets]
        hops[nodes, targets] = len(levels) + 1
        path_latency[nodes, targets] = link_latency[nodes, ahead] + path_latency[ahead, targets]
        levels.append((nodes, targets, ahead))
    stuck = np.argwhere((hops < 0) & (weights > 0))
    if len(stuck):
        raise ValidationError(f"routing table loop detected from {stuck[0][0]} to {stuck[0][1]}")

    # Up the trees, leaves first: subtree[u, d] is the flow on channel (u, next_hop[u, d]).
    subtree = weights.copy()
    channel_load = np.zeros((num, num))
    for nodes, targets, ahead in reversed(levels):
        np.add.at(subtree, (ahead, targets), subtree[nodes, targets])
        np.add.at(channel_load, (nodes, ahead), subtree[nodes, targets])

    overhead = injection_ejection_cycles + (packet_size_flits - 1)
    latency = hops * router_pipeline_cycles + path_latency + overhead
    total_weight = weights.sum()
    average_latency = float((weights * latency).sum() / total_weight)
    average_hops = float((weights * hops).sum() / total_weight)

    # channel_load holds flits per channel per injected flit per tile; at one
    # flit per tile per cycle every tile contributes its share, so scale by N.
    # The channel-load bound is capped by the injection/ejection bandwidth.
    max_channel_load = float(channel_load.max() * num)
    ideal_bound = min(1.0, 1.0 / max_channel_load) if max_channel_load > 0 else 1.0
    saturation = min(1.0, flow_control_efficiency * ideal_bound)

    return AnalyticalPerformance(
        zero_load_latency_cycles=average_latency,
        saturation_throughput=saturation,
        average_hops=average_hops,
        max_channel_load=max_channel_load,
    )
