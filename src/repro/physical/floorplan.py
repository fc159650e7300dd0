"""Floorplanning: tile placement and port assignment (model steps 1-2 support).

The floorplan arranges the tiles in the ``R x C`` grid (Figure 5a) and decides
*port placement*: on which face of a tile (north/south/east/west) each link
attaches to the local router.  Optimised port placement is one of the four
*design for routability* criteria (principle ❷): links towards the east attach
to the east face, links within a column to the north/south faces, and so on,
so that links leave the tile in the direction they need to travel.

The floorplan works in abstract grid coordinates; physical (mm) coordinates
are only fixed after the spacing estimation and unit-cell discretization
(steps 3-4, :mod:`repro.physical.unit_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.physical.tile import TileGeometry
from repro.topologies.base import Link, Topology
from repro.utils.validation import ValidationError


class PortSide(Enum):
    """Face of a tile on which a port is placed."""

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"

    @property
    def is_horizontal(self) -> bool:
        """``True`` for east/west faces (ports used by links travelling along a row)."""
        return self in (PortSide.EAST, PortSide.WEST)


@dataclass(frozen=True)
class PortAssignment:
    """Placement of one link's port on one tile."""

    tile: int
    link: Link
    side: PortSide
    #: Position of the port along its face, as a fraction in (0, 1).
    offset_fraction: float


@dataclass
class Floorplan:
    """Tile placement plus port assignment for one topology.

    Attributes
    ----------
    topology:
        The topology being floorplanned.
    tile_geometry:
        Physical tile dimensions (step 1 output).
    ports:
        Mapping ``(tile, link) -> PortAssignment`` for both endpoints of every
        link.
    """

    topology: Topology
    tile_geometry: TileGeometry
    ports: dict[tuple[int, Link], PortAssignment]

    def port(self, tile: int, link: Link) -> PortAssignment:
        """Return the port assignment of ``link`` at ``tile``."""
        key = (tile, link)
        if key not in self.ports:
            raise ValidationError(f"link {link} has no port on tile {tile}")
        return self.ports[key]

    def ports_on_side(self, tile: int, side: PortSide) -> list[PortAssignment]:
        """All ports of ``tile`` on the given face, ordered by offset."""
        found = [
            assignment
            for (t, _), assignment in self.ports.items()
            if t == tile and assignment.side == side
        ]
        return sorted(found, key=lambda a: a.offset_fraction)

    def max_ports_per_side(self) -> int:
        """Maximum number of ports any tile places on a single face."""
        counts: dict[tuple[int, PortSide], int] = {}
        for (tile, _), assignment in self.ports.items():
            key = (tile, assignment.side)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values()) if counts else 0


def preferred_port_side(topology: Topology, tile: int, link: Link) -> PortSide:
    """Choose the face of ``tile`` on which the port of ``link`` is placed.

    Links towards a higher column leave through the east face, towards a lower
    column through the west face; links within a column use the south/north
    face (rows grow downwards, matching Figure 2 of the paper).  Non-aligned
    links use the face of their dominant direction, so that the first leg of
    their L-shaped route starts in the right channel.
    """
    source = topology.tile_coords[tile]
    target = topology.tile_coords[link.other(tile)]
    d_col = target.col - source.col
    d_row = target.row - source.row
    if d_row == 0 or (d_col != 0 and abs(d_col) >= abs(d_row)):
        return PortSide.EAST if d_col > 0 else PortSide.WEST
    return PortSide.SOUTH if d_row > 0 else PortSide.NORTH


def build_floorplan(topology: Topology, tile_geometry: TileGeometry) -> Floorplan:
    """Build the floorplan for ``topology`` (tile placement + port assignment).

    Ports on each face are spread evenly along the face, ordered by the grid
    distance to the link's other endpoint (longer links towards the outer end
    of the face), which keeps short links short after detailed routing.
    """
    # First pass: decide the side of every port.
    side_of: dict[tuple[int, Link], PortSide] = {}
    per_side: dict[tuple[int, PortSide], list[Link]] = {}
    for link in topology.links:
        for tile in (link.src, link.dst):
            side = preferred_port_side(topology, tile, link)
            side_of[(tile, link)] = side
            per_side.setdefault((tile, side), []).append(link)

    # Second pass: spread the ports of each face evenly along the face.
    ports: dict[tuple[int, Link], PortAssignment] = {}
    lengths = topology.link_grid_lengths
    for (tile, side), links_on_side in per_side.items():
        ordered = sorted(links_on_side, key=lambda l: (lengths[l], l.src, l.dst))
        count = len(ordered)
        for index, link in enumerate(ordered):
            offset = (index + 1) / (count + 1)
            ports[(tile, link)] = PortAssignment(
                tile=tile, link=link, side=side, offset_fraction=offset
            )
    return Floorplan(topology=topology, tile_geometry=tile_geometry, ports=ports)
