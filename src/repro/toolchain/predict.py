"""The prediction toolchain: topology + architecture -> cost and performance.

This is the programmatic equivalent of Figure 3 of the paper: the physical
model produces area, power and per-link latency estimates; the link latencies
then parameterise the performance evaluation (cycle-accurate simulation or the
fast analytical model), which yields zero-load latency and saturation
throughput.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.physical.model import NoCPhysicalModel
from repro.physical.parameters import ArchitecturalParameters
from repro.simulator.network import build_network
from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.simulator.simulation import SimulationConfig
from repro.simulator.sweep import find_saturation_throughput, replay_trace
from repro.toolchain.analytical import analytical_performance
from repro.toolchain.results import PredictionResult
from repro.topologies.base import Topology
from repro.utils.validation import ValidationError


@dataclass
class PredictionToolchain:
    """Reusable toolchain bound to one target architecture.

    Attributes
    ----------
    params:
        Architectural parameters of the target chip (Table II).
    performance_mode:
        ``"analytical"`` (default, fast — used for design-space sweeps and the
        full-size Figure 6 benchmarks) or ``"simulation"`` (cycle-accurate,
        mirrors the paper's BookSim2 usage; practical for small networks or
        reduced cycle counts).
    simulation_config:
        Configuration of the cycle-accurate runs (ignored in analytical mode
        except for the packet size and router pipeline length, which both
        modes share).
    traffic:
        Traffic pattern name; the paper's evaluation uses ``"uniform"``.
    workload:
        Optional trace-driven workload spec ``{"name": ..., "seed": ...,
        "params": {...}}`` (see :data:`repro.workloads.WORKLOAD_FACTORIES`).
        When set, the performance stage replays the generated trace instead
        of running a Bernoulli load sweep: the reported "zero-load latency"
        is the replay's average packet latency and the reported "saturation
        throughput" is the replay's accepted load.  Requires
        ``performance_mode="simulation"``.
    """

    params: ArchitecturalParameters
    performance_mode: str = "analytical"
    simulation_config: SimulationConfig = field(default_factory=SimulationConfig)
    traffic: str = "uniform"
    workload: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.performance_mode not in ("analytical", "simulation"):
            raise ValidationError(
                f"performance_mode must be 'analytical' or 'simulation', "
                f"got {self.performance_mode!r}"
            )
        if self.workload is not None:
            from repro.workloads.generators import check_workload_params

            if not isinstance(self.workload, Mapping) or "name" not in self.workload:
                raise ValidationError("workload must be a mapping with a 'name' key")
            check_workload_params(
                self.workload["name"], dict(self.workload.get("params", {}))
            )
            if self.performance_mode != "simulation":
                raise ValidationError(
                    "trace-driven workloads require performance_mode='simulation'"
                )
        self._physical_model = NoCPhysicalModel(self.params)
        # Routing tables depend only on the topology, not on the traffic or
        # injection rate, so sweeps that vary only those knobs reuse the BFS
        # work.  Keyed by object identity with a weakref guard against id()
        # reuse after garbage collection; an entry is dropped as soon as its
        # topology dies.
        self._routing_cache: dict[int, tuple[weakref.ref, RoutingTables]] = {}

    def routing_for(self, topology: Topology) -> RoutingTables:
        """Routing tables for ``topology``, memoized per topology object."""
        key = id(topology)
        entry = self._routing_cache.get(key)
        if entry is not None and entry[0]() is topology:
            return entry[1]
        routing = build_routing_tables(topology)
        cache = self._routing_cache

        def evict(ref: weakref.ref) -> None:
            # A newer topology may already hold the reused id: drop only our entry.
            if cache.get(key, (None,))[0] is ref:
                cache.pop(key, None)

        cache[key] = (weakref.ref(topology, evict), routing)
        return routing

    def predict(self, topology: Topology, traffic: str | None = None) -> PredictionResult:
        """Predict cost and performance of ``topology`` on this architecture.

        ``traffic`` overrides the toolchain's default traffic pattern for this
        call only (used by campaign sweeps that vary the pattern while keeping
        the architecture fixed).
        """
        physical = self._physical_model.evaluate(topology)
        routing = self.routing_for(topology)
        traffic = self.traffic if traffic is None else traffic

        if self.workload is not None:
            from repro.workloads.generators import workload_trace_from_mapping

            trace = workload_trace_from_mapping(
                dict(self.workload), topology.rows, topology.cols
            )
            stats = replay_trace(
                topology,
                trace,
                config=self.simulation_config,
                link_latencies=physical.link_latencies,
                routing=routing,
            )
            # Trace replays have no load sweep: report the replay's average
            # packet latency in the latency slot and its accepted load in
            # the throughput slot (both documented on the workload field).
            zero_load = stats.average_packet_latency
            saturation = stats.accepted_load
            details = {"replay": stats, "workload": dict(self.workload)}
        elif self.performance_mode == "simulation":
            config = self.simulation_config
            if traffic != config.traffic:
                config = replace(config, traffic=traffic)
            # Build the simulation network once up front (with the physical
            # model's link latencies baked in) so that every load point of
            # the sweep shares it — and with it the compiled routing arrays.
            network = build_network(
                topology,
                config=config.network_config(),
                link_latencies=physical.link_latencies,
                routing=routing,
            )
            sweep = find_saturation_throughput(
                topology,
                config=config,
                routing=routing,
                network=network,
            )
            zero_load = sweep.zero_load_latency
            saturation = sweep.saturation_throughput
            details = {"sweep_points": [(rate, stats) for rate, stats in sweep.points]}
        else:
            analytical = analytical_performance(
                topology,
                link_latencies=physical.link_latencies,
                routing=routing,
                traffic=traffic,
                packet_size_flits=self.simulation_config.packet_size_flits,
                router_pipeline_cycles=self.simulation_config.router_pipeline_cycles,
            )
            zero_load = analytical.zero_load_latency_cycles
            saturation = analytical.saturation_throughput
            details = {"analytical": analytical}

        return PredictionResult(
            topology_name=topology.name,
            area_overhead=physical.area_overhead,
            total_area_mm2=physical.area.total_area_mm2,
            noc_power_w=physical.noc_power_w,
            zero_load_latency_cycles=zero_load,
            saturation_throughput=saturation,
            performance_mode=self.performance_mode,
            physical=physical,
            details=details,
        )

    def __call__(self, topology: Topology, traffic: str | None = None) -> PredictionResult:
        """Alias for :meth:`predict` (lets the toolchain act as a plain predictor)."""
        return self.predict(topology, traffic=traffic)


def predict(
    topology: Topology,
    params: ArchitecturalParameters,
    performance_mode: str = "analytical",
    simulation_config: SimulationConfig | None = None,
    traffic: str = "uniform",
    workload: Mapping[str, Any] | None = None,
) -> PredictionResult:
    """One-shot convenience wrapper around :class:`PredictionToolchain`."""
    toolchain = PredictionToolchain(
        params=params,
        performance_mode=performance_mode,
        simulation_config=simulation_config or SimulationConfig(),
        traffic=traffic,
        workload=workload,
    )
    return toolchain.predict(topology)
