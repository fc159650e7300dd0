"""Routing tables: minimal routing plus a deadlock-free escape layer.

The paper's evaluation uses "a routing algorithm that minimizes the number of
router-to-router hops" (Figure 6 caption).  We implement this as table-based
minimal routing: for every (router, destination) pair the table stores the
next hop of a hop-minimal path.  Ties between hop-minimal next hops are broken
towards the *physically* shortest continuation (design principle ❹: among
hop-minimal paths, prefer the one with minimal physical length), and then by
neighbour index for determinism.

Deadlock freedom is provided with a Duato-style two-layer scheme:

* the *adaptive layer* (VCs ``1 .. V-1``) uses the minimal-routing table and
  may deadlock in isolation (e.g. on tori, whose wrap-around links create
  cyclic channel dependencies);
* the *escape layer* (VC ``0``) routes strictly along a BFS spanning tree
  rooted at tile 0: a packet first travels up the tree (towards the root)
  until it reaches the lowest common ancestor of source and destination, then
  down the tree to the destination.  Tree routing is a special case of
  up*/down* routing, its channel dependency graph is acyclic, and the
  next hop depends only on (current node, destination), so the escape layer
  is deadlock-free and table-implementable.

By Duato's theorem the combination is deadlock-free as long as a blocked
packet can always fall back to the escape layer, which the router guarantees:
once a packet enters the escape layer it stays there until delivery.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.topologies.base import Topology
from repro.utils.validation import ValidationError


@dataclass
class RoutingTables:
    """Next-hop tables of one topology.

    The three tables are ``int64[N, N]`` arrays indexed ``[node, destination]``.
    Hand-built tables may be passed as nested sequences or as lists of
    ``{destination: value}`` mappings; they are normalised to arrays, with
    missing entries set to ``-1``.

    Attributes
    ----------
    minimal:
        ``minimal[node, destination] -> next hop`` along a hop-minimal path
        (``-1`` on the diagonal).
    escape:
        ``escape[node, destination] -> next hop`` along the spanning-tree
        (escape) path (``-1`` on the diagonal).
    hop_distance:
        ``hop_distance[node, destination]`` -> minimal hop count (``0`` on
        the diagonal).
    tree_parent:
        Parent of every node in the escape spanning tree (root's parent is -1).
    """

    minimal: np.ndarray
    escape: np.ndarray
    hop_distance: np.ndarray
    tree_parent: list[int]

    def __post_init__(self) -> None:
        num = len(self.tree_parent)
        self.minimal = _as_table(self.minimal, num)
        self.escape = _as_table(self.escape, num)
        self.hop_distance = _as_table(self.hop_distance, num)

    def minimal_next_hop(self, node: int, destination: int) -> int:
        """Next hop of the minimal route from ``node`` towards ``destination``."""
        return int(self.minimal[node, destination])

    def escape_next_hop(self, node: int, destination: int) -> int:
        """Next hop of the escape (spanning-tree) route from ``node``."""
        return int(self.escape[node, destination])

    def path(self, source: int, destination: int, escape: bool = False) -> list[int]:
        """Full node path from ``source`` to ``destination`` (for tests/analysis)."""
        table = self.escape if escape else self.minimal
        path = [source]
        current = source
        limit = 2 * len(table) + 2
        while current != destination:
            current = int(table[current, destination])
            if current < 0:
                raise ValidationError(
                    f"routing table has no next hop from {path[-1]} to {destination}"
                )
            path.append(current)
            if len(path) > limit:
                raise ValidationError(
                    f"routing table loop detected from {source} to {destination}"
                )
        return path

    def average_minimal_hops(self) -> float:
        """Mean hop count over all ordered source/destination pairs."""
        num = len(self.hop_distance)
        total = int(self.hop_distance[~np.eye(num, dtype=bool)].sum())
        return total / (num * (num - 1))


def _as_table(table: np.ndarray | Sequence, num: int) -> np.ndarray:
    """``table`` as an ``int64[num, num]`` array; missing entries become -1."""
    if not isinstance(table, np.ndarray):
        rows = table
        table = np.full((num, num), -1, dtype=np.int64)
        for node, row in enumerate(rows):
            for destination, value in row.items() if isinstance(row, Mapping) else enumerate(row):
                table[node, destination] = value
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (num, num):
        raise ValidationError(f"routing table of shape {table.shape}, expected {(num, num)}")
    return table


def _neighbor_matrix(topology: Topology) -> np.ndarray:
    """Sorted neighbours of every tile, padded on the right with the tile itself."""
    neighbors = [topology.neighbors(node) for node in range(topology.num_tiles)]
    padded = np.repeat(np.arange(topology.num_tiles)[:, None], max(map(len, neighbors)), axis=1)
    for node, row in enumerate(neighbors):
        padded[node, : len(row)] = row
    return padded


def _minimal_tables(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Hop-minimal next-hop tables with physical-length tie-breaking.

    All destinations advance together: a BFS level pass gives the hop
    distances, then one dynamic-programming pass per hop level picks, for
    every ``(node, destination)`` at that level, the neighbour one level
    closer with the shortest physical continuation.  Neighbours are sorted
    ascending, so ``argmin`` (first minimum) breaks equal lengths towards the
    lowest neighbour index.
    """
    num = topology.num_tiles
    neighbors = _neighbor_matrix(topology)
    rows, cols = np.divmod(np.arange(num), topology.cols)
    manhattan = abs(rows[:, None] - rows) + abs(cols[:, None] - cols)

    # BFS from every destination at once.  Padding entries point at the node
    # itself, so they never reach a new node nor pass the level check below.
    hop_distance = np.full((num, num), -1, dtype=np.int64)
    np.fill_diagonal(hop_distance, 0)
    frontier = np.eye(num, dtype=bool)
    levels = 0
    while frontier.any():
        levels += 1
        frontier = frontier[neighbors].any(axis=1) & (hop_distance < 0)
        hop_distance[frontier] = levels
    if (hop_distance < 0).any():
        raise ValidationError("topology is not connected; cannot build routing tables")

    # Among hop-minimal next hops, prefer the physically shortest overall
    # continuation (dynamic program over increasing hop distance).
    minimal = np.full((num, num), -1, dtype=np.int64)
    best_phys = np.zeros((num, num), dtype=np.int64)
    for level in range(1, levels):
        nodes, targets = np.nonzero(hop_distance == level)
        candidates = neighbors[nodes]
        cost = best_phys[candidates, targets[:, None]] + manhattan[nodes[:, None], candidates]
        cost[hop_distance[candidates, targets[:, None]] != level - 1] = np.iinfo(np.int64).max
        choice = cost.argmin(axis=1)
        picked = np.arange(len(nodes))
        minimal[nodes, targets] = candidates[picked, choice]
        best_phys[nodes, targets] = cost[picked, choice]
    return minimal, hop_distance


def _spanning_tree(topology: Topology, root: int = 0) -> list[int]:
    """BFS spanning tree: ``parent[node]`` (-1 for the root)."""
    parent = [-2] * topology.num_tiles
    parent[root] = -1
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors(node):
            if parent[neighbor] == -2:
                parent[neighbor] = node
                queue.append(neighbor)
    if any(p == -2 for p in parent):
        raise ValidationError("topology is not connected; cannot build escape tree")
    return parent


def _escape_tables(parent: list[int]) -> np.ndarray:
    """Spanning-tree next-hop tables (up to the common ancestor, then down).

    The default next hop towards any destination is the node's tree parent
    ("up"); for every node that lies on the tree path from the root to the
    destination the next hop is overridden with the child leading towards the
    destination ("down").  The ancestor chains of all destinations are walked
    together, one tree level per step.
    """
    num = len(parent)
    parents = np.array(parent, dtype=np.int64)
    escape = np.repeat(parents[:, None], num, axis=1)
    destinations = np.arange(num)
    below, node = destinations, parents
    while len(destinations):
        climbing = node >= 0
        destinations, below, node = destinations[climbing], below[climbing], node[climbing]
        escape[node, destinations] = below
        below, node = node, parents[node]
    np.fill_diagonal(escape, -1)
    return escape


def build_routing_tables(topology: Topology) -> RoutingTables:
    """Build minimal and escape routing tables for ``topology``."""
    topology.validate_connected()
    minimal, hop_distance = _minimal_tables(topology)
    parent = _spanning_tree(topology, root=0)
    return RoutingTables(
        minimal=minimal,
        escape=_escape_tables(parent),
        hop_distance=hop_distance,
        tree_parent=parent,
    )
