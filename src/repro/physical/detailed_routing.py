"""Step 5 of the prediction model: detailed routing in the grid of unit-cells.

After the global router has assigned every link to channels and the chip has
been discretized into unit cells, the detailed router fixes the exact *track*
(unit-cell lane) each link occupies inside its channels and derives the
physical wire length of every link.

The per-channel track assignment uses the classic **left-edge algorithm** from
channel routing: the link intervals occupying a channel are sorted by their
start coordinate and greedily packed into the lowest free track.  For interval
graphs this produces an optimal (minimum-track) assignment, so as long as each
channel is as wide as its peak global-routing load (which step 3 guarantees),
no two links collide in the same unit cell.  If a channel is artificially
capped below its peak load (``capacity_override``), the overflow is reported
as *collisions* — the quantity the paper's heuristic minimises.

The output records, for every link, the horizontal and vertical wire lengths
and the corresponding unit-cell counts ``N^H_cell`` / ``N^V_cell`` that feed
the power and link-latency estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.physical.global_routing import ChannelSegment, GlobalRoutingResult
from repro.physical.unit_cells import UnitCellGrid
from repro.topologies.base import Link
from repro.utils.geometry import Point


@dataclass(frozen=True)
class DetailedRoute:
    """Detailed routing result for one link.

    Attributes
    ----------
    link:
        The routed link.
    horizontal_mm, vertical_mm:
        Total horizontal / vertical wire length of the link.
    horizontal_cells, vertical_cells:
        Corresponding unit-cell counts (``N^H_cell`` and ``N^V_cell`` of the
        paper's link-latency formula).
    tracks:
        The ``(orientation, channel, track)`` assignments of the link's
        channel segments.
    """

    link: Link
    horizontal_mm: float
    vertical_mm: float
    horizontal_cells: int
    vertical_cells: int
    tracks: tuple[tuple[str, int, int], ...]

    @property
    def total_length_mm(self) -> float:
        """Total physical wire length of the link."""
        return self.horizontal_mm + self.vertical_mm


@dataclass
class DetailedRoutingResult:
    """Detailed routing of all links of a topology."""

    routes: dict[Link, DetailedRoute]
    collisions: int
    tracks_per_channel: dict[tuple[str, int], int] = field(default_factory=dict)

    def total_wire_length_mm(self) -> float:
        """Sum of physical wire lengths over all links."""
        return sum(route.total_length_mm for route in self.routes.values())

    def total_horizontal_cells(self) -> int:
        """``N^H_cell`` summed over all links."""
        return sum(route.horizontal_cells for route in self.routes.values())

    def total_vertical_cells(self) -> int:
        """``N^V_cell`` summed over all links."""
        return sum(route.vertical_cells for route in self.routes.values())


@dataclass
class _TrackRequest:
    """One link's occupation of one channel, as an interval along the channel."""

    link: Link
    segment: ChannelSegment
    start_mm: float
    stop_mm: float


def _left_edge_assign(requests: list[_TrackRequest], capacity: int | None) -> tuple[dict[tuple[Link, ChannelSegment], int], int, int]:
    """Assign tracks with the left-edge algorithm.

    Returns the track of every request, the number of tracks used, and the
    number of collisions (requests that had to share an already-full track
    because ``capacity`` capped the channel).
    """
    ordered = sorted(requests, key=lambda r: (r.start_mm, r.stop_mm))
    track_ends: list[float] = []
    assignment: dict[tuple[Link, ChannelSegment], int] = {}
    collisions = 0
    for request in ordered:
        placed = False
        for track, end in enumerate(track_ends):
            if end <= request.start_mm + 1e-12:
                track_ends[track] = request.stop_mm
                assignment[(request.link, request.segment)] = track
                placed = True
                break
        if placed:
            continue
        if capacity is None or len(track_ends) < capacity:
            track_ends.append(request.stop_mm)
            assignment[(request.link, request.segment)] = len(track_ends) - 1
        else:
            # Channel is full: overflow onto the least-loaded track and record
            # the collision (two links sharing unit cells).
            track = min(range(len(track_ends)), key=lambda t: track_ends[t])
            track_ends[track] = max(track_ends[track], request.stop_mm)
            assignment[(request.link, request.segment)] = track
            collisions += 1
    return assignment, len(track_ends), collisions


def detailed_route(
    grid: UnitCellGrid,
    routing: GlobalRoutingResult,
    capacity_override: dict[tuple[str, int], int] | None = None,
) -> DetailedRoutingResult:
    """Perform detailed routing of every link (model step 5).

    Parameters
    ----------
    grid:
        The discretized chip (provides coordinates, ports and track geometry).
    routing:
        Global routing result (channel assignment per link).
    capacity_override:
        Optional map ``(orientation, channel) -> max tracks`` used to study
        constrained channels; by default every channel is as wide as its peak
        global-routing load and no collisions occur.
    """
    ports = {
        link: (grid.port_position(link.src, link), grid.port_position(link.dst, link))
        for link in routing.routes
    }

    # Gather per-channel track requests from the global routes.
    per_channel: dict[tuple[str, int], list[_TrackRequest]] = {}
    for link, groute in routing.routes.items():
        if groute.is_direct:
            continue
        src_port, dst_port = ports[link]
        for segment in groute.segments:
            if segment.orientation == "H":
                start = min(src_port.x, dst_port.x)
                stop = max(src_port.x, dst_port.x)
            else:
                start = min(src_port.y, dst_port.y)
                stop = max(src_port.y, dst_port.y)
            per_channel.setdefault((segment.orientation, segment.channel), []).append(
                _TrackRequest(link=link, segment=segment, start_mm=start, stop_mm=stop)
            )

    # Left-edge track assignment per channel.
    track_of: dict[tuple[Link, ChannelSegment], int] = {}
    tracks_per_channel: dict[tuple[str, int], int] = {}
    total_collisions = 0
    for channel_key, requests in per_channel.items():
        capacity = capacity_override.get(channel_key) if capacity_override else None
        assignment, used, collisions = _left_edge_assign(requests, capacity)
        track_of.update(assignment)
        tracks_per_channel[channel_key] = used
        total_collisions += collisions

    # Derive physical wire lengths per link.
    routes: dict[Link, DetailedRoute] = {}
    for link, groute in routing.routes.items():
        src_port, dst_port = ports[link]
        if groute.is_direct:
            horizontal = abs(dst_port.x - src_port.x)
            vertical = abs(dst_port.y - src_port.y)
            tracks: tuple[tuple[str, int, int], ...] = ()
        else:
            horizontal, vertical, tracks = _measure_channel_path(
                grid, src_port, dst_port, groute.segments, track_of, link
            )
        routes[link] = DetailedRoute(
            link=link,
            horizontal_mm=horizontal,
            vertical_mm=vertical,
            horizontal_cells=_cells(horizontal, grid.cell_width_mm),
            vertical_cells=_cells(vertical, grid.cell_height_mm),
            tracks=tracks,
        )
    return DetailedRoutingResult(
        routes=routes,
        collisions=total_collisions,
        tracks_per_channel=tracks_per_channel,
    )


def _cells(length_mm: float, cell_mm: float) -> int:
    if length_mm <= 0:
        return 0
    return max(1, int(round(length_mm / cell_mm)))


def _measure_channel_path(
    grid: UnitCellGrid,
    src_port: Point,
    dst_port: Point,
    segments: tuple[ChannelSegment, ...],
    track_of: dict[tuple[Link, ChannelSegment], int],
    link: Link,
) -> tuple[float, float, tuple[tuple[str, int, int], ...]]:
    """Measure the wire length of a channel-routed link.

    The wire starts at the source port, jogs onto the track of its first
    channel segment, runs along that track, transfers to the next segment's
    track (for L-shaped routes), and finally jogs into the destination port.
    Horizontal running length and vertical jog length are accumulated
    separately because they use different metal layers (and different unit
    cell dimensions).
    """
    horizontal = 0.0
    vertical = 0.0
    tracks: list[tuple[str, int, int]] = []

    current = src_port
    # Position reached after the final segment should be the destination port.
    for index, segment in enumerate(segments):
        track = track_of[(link, segment)]
        tracks.append((segment.orientation, segment.channel, track))
        is_last = index == len(segments) - 1
        if segment.orientation == "H":
            track_y = grid.horizontal_track_y(segment.channel, track)
            # Jog from the current position onto the track.
            vertical += abs(current.y - track_y)
            # Run along the track towards the destination's x position (or the
            # next segment's channel, which is handled by the next iteration's
            # jog because the next segment is vertical).
            target_x = dst_port.x
            horizontal += abs(target_x - current.x)
            current = Point(target_x, track_y)
        else:
            track_x = grid.vertical_track_x(segment.channel, track)
            horizontal += abs(current.x - track_x)
            target_y = dst_port.y
            vertical += abs(target_y - current.y)
            current = Point(track_x, target_y)
        if is_last:
            # Final jog into the destination port.
            horizontal += abs(dst_port.x - current.x)
            vertical += abs(dst_port.y - current.y)
    return horizontal, vertical, tuple(tracks)
