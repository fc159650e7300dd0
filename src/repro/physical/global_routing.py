"""Step 2 of the prediction model: global routing in the grid of tiles.

Since links cannot be routed over tiles (tiles occupy all metal layers,
Section II-A), every link is routed through the *channels* between rows and
columns of tiles.  Horizontal channels run between adjacent rows (and above
the first / below the last row); vertical channels run between adjacent
columns (and left of the first / right of the last column).

Wire routing is NP-complete, so — like real VLSI global routers — we use a
greedy, congestion-aware heuristic (Section IV-B2a, step 2): links are routed
one by one in order of increasing length; each link considers a small set of
candidate channel assignments (above/below the source row, left/right of the
destination column, row-first or column-first L-shapes) and picks the one with
the lowest congestion cost.

The result records, for every channel segment, how many links occupy it.  The
peak occupancy per channel feeds the spacing estimation of step 3; the
per-link channel assignment seeds the detailed routing of step 5.

Channel-load accounting
-----------------------
* Links between grid-adjacent tiles connect facing ports directly and occupy
  no channel capacity ("links between adjacent tiles come with minuscule area
  overheads").
* A row link spanning ``x >= 2`` columns runs in a horizontal channel and
  occupies the channel over all spanned columns (including the end columns,
  which accounts for the entry/exit jogs at the ports).
* Column links are handled symmetrically in vertical channels.
* Non-aligned links are routed as an L: a horizontal leg in a channel adjacent
  to the source row and a vertical leg in a channel adjacent to the target
  column (or the transpose, whichever is cheaper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.physical.floorplan import Floorplan
from repro.topologies.base import Link, Topology


@dataclass(frozen=True)
class ChannelSegment:
    """A contiguous occupied stretch of one channel.

    ``orientation`` is ``"H"`` for a horizontal channel (indexed by the row
    gap 0..R) or ``"V"`` for a vertical channel (indexed by the column gap
    0..C).  ``start``/``stop`` give the half-open range of tile columns (H)
    or tile rows (V) that the segment spans.
    """

    orientation: str
    channel: int
    start: int
    stop: int

    @property
    def length(self) -> int:
        """Number of tile positions spanned by the segment."""
        return self.stop - self.start


@dataclass(frozen=True)
class GlobalRoute:
    """Global routing decision for one link: the channel segments it occupies."""

    link: Link
    segments: tuple[ChannelSegment, ...]
    is_direct: bool

    @property
    def grid_length(self) -> int:
        """Total channel length of the route in tile pitches."""
        return sum(segment.length for segment in self.segments)


@dataclass
class GlobalRoutingResult:
    """Outcome of global routing for a whole topology.

    Attributes
    ----------
    routes:
        One :class:`GlobalRoute` per link.
    horizontal_loads:
        Array of shape ``(R+1, C)``: ``horizontal_loads[h, c]`` is the number
        of links occupying horizontal channel ``h`` above tile column ``c``.
    vertical_loads:
        Array of shape ``(C+1, R)`` defined symmetrically.
    """

    routes: dict[Link, GlobalRoute]
    horizontal_loads: np.ndarray
    vertical_loads: np.ndarray
    rows: int = 0
    cols: int = 0

    def max_horizontal_load(self, channel: int) -> int:
        """Peak number of parallel links in horizontal channel ``channel``."""
        return int(self.horizontal_loads[channel].max(initial=0))

    def max_vertical_load(self, channel: int) -> int:
        """Peak number of parallel links in vertical channel ``channel``."""
        return int(self.vertical_loads[channel].max(initial=0))

    def total_channel_length(self) -> int:
        """Sum of channel segment lengths over all links (in tile pitches)."""
        return sum(route.grid_length for route in self.routes.values())


@dataclass
class _ChannelState:
    """Mutable channel occupancy used during greedy routing."""

    horizontal: np.ndarray
    vertical: np.ndarray
    routes: dict[Link, GlobalRoute] = field(default_factory=dict)

    def cost(self, segments: tuple[ChannelSegment, ...]) -> float:
        total = 0.0
        for segment in segments:
            loads = (
                self.horizontal[segment.channel, segment.start : segment.stop]
                if segment.orientation == "H"
                else self.vertical[segment.channel, segment.start : segment.stop]
            )
            # Length cost plus a congestion cost that grows with the current
            # occupancy, so the router spreads links over parallel channels.
            total += segment.length + float(loads.sum()) * 0.5
        return total

    def commit(self, route: GlobalRoute) -> None:
        for segment in route.segments:
            if segment.orientation == "H":
                self.horizontal[segment.channel, segment.start : segment.stop] += 1
            else:
                self.vertical[segment.channel, segment.start : segment.stop] += 1
        self.routes[route.link] = route


def _row_link_candidates(rows: int, row: int, c_low: int, c_high: int) -> list[tuple[ChannelSegment, ...]]:
    """Candidate channel assignments for an aligned row link spanning >= 2 columns."""
    candidates = []
    for channel in (row, row + 1):
        candidates.append(
            (ChannelSegment("H", channel, c_low, c_high + 1),)
        )
    return candidates


def _col_link_candidates(cols: int, col: int, r_low: int, r_high: int) -> list[tuple[ChannelSegment, ...]]:
    """Candidate channel assignments for an aligned column link spanning >= 2 rows."""
    candidates = []
    for channel in (col, col + 1):
        candidates.append(
            (ChannelSegment("V", channel, r_low, r_high + 1),)
        )
    return candidates


def _l_shape_candidates(
    source_row: int,
    source_col: int,
    target_row: int,
    target_col: int,
) -> list[tuple[ChannelSegment, ...]]:
    """Candidate L-shaped routes for a non-aligned link."""
    c_low, c_high = sorted((source_col, target_col))
    r_low, r_high = sorted((source_row, target_row))
    candidates: list[tuple[ChannelSegment, ...]] = []
    # Row-first: horizontal leg in a channel adjacent to the source row, then a
    # vertical leg in a channel adjacent to the target column.
    for h_channel in (source_row, source_row + 1):
        for v_channel in (target_col, target_col + 1):
            candidates.append(
                (
                    ChannelSegment("H", h_channel, c_low, c_high + 1),
                    ChannelSegment("V", v_channel, r_low, r_high + 1),
                )
            )
    # Column-first: vertical leg near the source column, horizontal leg near
    # the target row.
    for v_channel in (source_col, source_col + 1):
        for h_channel in (target_row, target_row + 1):
            candidates.append(
                (
                    ChannelSegment("V", v_channel, r_low, r_high + 1),
                    ChannelSegment("H", h_channel, c_low, c_high + 1),
                )
            )
    return candidates


def global_route(topology: Topology, floorplan: Floorplan | None = None) -> GlobalRoutingResult:
    """Perform greedy global routing of all links of ``topology`` (model step 2).

    ``floorplan`` is accepted for interface symmetry with the other model
    steps (the port sides it assigns are consistent with the candidate channel
    choices made here) but is not required.
    """
    del floorplan  # Port sides are implied by the candidate generation below.
    rows, cols = topology.rows, topology.cols
    state = _ChannelState(
        horizontal=np.zeros((rows + 1, cols), dtype=np.int64),
        vertical=np.zeros((cols + 1, rows), dtype=np.int64),
    )

    # Route short links first: they have no routing freedom and should not be
    # penalised by congestion created by long links.
    lengths, coords = topology.link_grid_lengths, topology.tile_coords
    ordered_links = sorted(topology.links, key=lambda link: (lengths[link], link.src, link.dst))
    for link in ordered_links:
        a = coords[link.src]
        b = coords[link.dst]
        if lengths[link] == 1:
            # Adjacent tiles: direct port-to-port connection, no channel usage.
            state.routes[link] = GlobalRoute(link=link, segments=(), is_direct=True)
            continue
        if a.row == b.row:
            c_low, c_high = sorted((a.col, b.col))
            candidates = _row_link_candidates(rows, a.row, c_low, c_high)
        elif a.col == b.col:
            r_low, r_high = sorted((a.row, b.row))
            candidates = _col_link_candidates(cols, a.col, r_low, r_high)
        else:
            candidates = _l_shape_candidates(a.row, a.col, b.row, b.col)
        best = min(candidates, key=state.cost)
        state.commit(GlobalRoute(link=link, segments=tuple(best), is_direct=False))

    return GlobalRoutingResult(
        routes=state.routes,
        horizontal_loads=state.horizontal,
        vertical_loads=state.vertical,
        rows=rows,
        cols=cols,
    )
