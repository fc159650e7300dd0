"""Network construction: routers, directed channels, and their configuration.

A :class:`Network` is built from a :class:`~repro.topologies.base.Topology`,
per-link latency estimates (produced by the physical model), routing tables
and a :class:`NetworkConfig`.  Every undirected topology link becomes two
directed *channels*; each channel has a latency in cycles (pipeline registers
inserted on long wires, Section II-A) and carries both flits (forward) and
credits (backward, with the same latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.topologies.base import Link, Topology
from repro.utils.validation import ValidationError, check_type


@dataclass(frozen=True)
class NetworkConfig:
    """Router micro-architecture and flow-control configuration.

    Attributes
    ----------
    num_vcs:
        Virtual channels per input port.  VC 0 is the escape VC; the paper's
        evaluation uses 8 VCs in total.
    buffer_depth_flits:
        Buffer depth *per VC* in flits.  The paper's 32-flit input buffers
        with 8 VCs correspond to 4 flits per VC.
    router_pipeline_cycles:
        Cycles a flit spends in the router pipeline before it can be forwarded
        (route computation + VC allocation + switch allocation + traversal).
    packet_size_flits:
        Number of flits per packet.
    """

    num_vcs: int = 8
    buffer_depth_flits: int = 4
    router_pipeline_cycles: int = 2
    packet_size_flits: int = 4

    def __post_init__(self) -> None:
        check_type("num_vcs", self.num_vcs, int)
        check_type("buffer_depth_flits", self.buffer_depth_flits, int)
        check_type("router_pipeline_cycles", self.router_pipeline_cycles, int)
        check_type("packet_size_flits", self.packet_size_flits, int)
        if self.num_vcs < 1:
            raise ValidationError("num_vcs must be >= 1")
        if self.buffer_depth_flits < 1:
            raise ValidationError("buffer_depth_flits must be >= 1")
        if self.router_pipeline_cycles < 1:
            raise ValidationError("router_pipeline_cycles must be >= 1")
        if self.packet_size_flits < 1:
            raise ValidationError("packet_size_flits must be >= 1")

    @property
    def adaptive_vcs(self) -> tuple[int, ...]:
        """The VC indices of the adaptive (minimal-routing) layer."""
        if self.num_vcs == 1:
            return ()
        return tuple(range(1, self.num_vcs))

    @property
    def escape_vc(self) -> int:
        """The VC index of the escape layer."""
        return 0


@dataclass(frozen=True)
class Channel:
    """One directed router-to-router channel."""

    channel_id: int
    source: int
    destination: int
    latency_cycles: int


@dataclass
class Network:
    """Static structure of the simulated network.

    A ``Network`` is immutable once built and carries no per-run state, so
    one instance can (and, for performance, should) be shared across many
    :class:`~repro.simulator.simulation.Simulator` runs — a load sweep builds
    the network once and reuses it for every injection rate.

    Attributes
    ----------
    topology:
        The underlying topology.
    config:
        Router/flow-control configuration.
    routing:
        Minimal + escape routing tables.
    channels:
        All directed channels, indexed by channel id.
    channel_ids:
        Lookup ``(source, destination) -> channel id``.
    outputs:
        Per node: mapping ``neighbour -> channel id`` of its outgoing channels.
    inputs:
        Per node: list of channel ids of its incoming channels.
    """

    topology: Topology
    config: NetworkConfig
    routing: RoutingTables
    channels: list[Channel] = field(default_factory=list)
    channel_ids: dict[tuple[int, int], int] = field(default_factory=dict)
    outputs: list[dict[int, int]] = field(default_factory=list)
    inputs: list[list[int]] = field(default_factory=list)
    # Lazily built hot-path lookup tables (see compiled_routes); not part of
    # the network's value identity.
    _compiled_routes: tuple[list[list[int]], list[list[int]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_nodes(self) -> int:
        """Number of routers (= tiles)."""
        return self.topology.num_tiles

    @property
    def max_latency_cycles(self) -> int:
        """Largest channel latency (sizes the simulator's event wheel)."""
        return max((channel.latency_cycles for channel in self.channels), default=1)

    def channel(self, source: int, destination: int) -> Channel:
        """The directed channel from ``source`` to ``destination``."""
        key = (source, destination)
        if key not in self.channel_ids:
            raise ValidationError(f"no channel from {source} to {destination}")
        return self.channels[self.channel_ids[key]]

    def latency(self, source: int, destination: int) -> int:
        """Latency in cycles of the channel ``source -> destination``."""
        return self.channel(source, destination).latency_cycles

    def compiled_routes(self) -> tuple[list[list[int]], list[list[int]]]:
        """Routing tables flattened into channel-id arrays for the hot path.

        Returns ``(minimal_channel, escape_channel)`` where
        ``minimal_channel[node][destination]`` is the *outgoing channel id*
        a head flit at ``node`` takes towards ``destination`` on the adaptive
        (hop-minimal) layer, and ``escape_channel`` likewise for the escape
        (spanning-tree) layer.  Entries for ``node == destination`` are ``-1``
        (the flit ejects instead of routing).  Collapsing the two-step
        ``routing table -> neighbour -> channel id`` lookup into one list
        index removes two dict probes per head flit per hop from the router's
        allocation loop.  Built once per network and cached.
        """
        if self._compiled_routes is None:
            num = self.num_nodes
            channel_of = np.full((num, num), -1, dtype=np.int64)
            for channel in self.channels:
                channel_of[channel.source, channel.destination] = channel.channel_id
            nodes = np.arange(num)[:, None]
            off_diagonal = ~np.eye(num, dtype=bool)
            compiled = []
            for table in (self.routing.minimal, self.routing.escape):
                routes = np.where(table >= 0, channel_of[nodes, table], -1)
                broken = np.argwhere(off_diagonal & (routes < 0))
                if len(broken):
                    node, destination = broken[0]
                    raise ValidationError(
                        f"routing table hop {node} -> {table[node, destination]} towards "
                        f"{destination} is not a channel"
                    )
                routes[~off_diagonal] = -1
                compiled.append(routes.tolist())
            self._compiled_routes = (compiled[0], compiled[1])
        return self._compiled_routes


def build_network(
    topology: Topology,
    config: NetworkConfig | None = None,
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
) -> Network:
    """Construct a :class:`Network` from a topology.

    Parameters
    ----------
    topology:
        The NoC topology.
    config:
        Router configuration; defaults to the paper's evaluation setup.
    link_latencies:
        Latency in cycles per undirected link (from the physical model).
        Links not present default to one cycle.
    routing:
        Pre-built routing tables (rebuilding them is the most expensive part
        of network construction, so callers that sweep injection rates should
        share one instance).
    """
    if config is None:
        config = NetworkConfig()
    if routing is None:
        routing = build_routing_tables(topology)
    latencies = link_latencies or {}

    network = Network(topology=topology, config=config, routing=routing)
    network.outputs = [dict() for _ in range(topology.num_tiles)]
    network.inputs = [list() for _ in range(topology.num_tiles)]

    for link in topology.links:
        latency = max(1, int(latencies.get(link, 1)))
        for source, destination in ((link.src, link.dst), (link.dst, link.src)):
            channel_id = len(network.channels)
            network.channels.append(
                Channel(
                    channel_id=channel_id,
                    source=source,
                    destination=destination,
                    latency_cycles=latency,
                )
            )
            network.channel_ids[(source, destination)] = channel_id
            network.outputs[source][destination] = channel_id
            network.inputs[destination].append(channel_id)
    return network
