"""The array routing-table builder against a per-destination dict oracle.

``build_routing_tables`` advances every destination together with numpy level
passes.  The oracle below is the builder it replaced: one Python BFS and one
tie-break dynamic program per destination, kept in dicts.  Both must produce
the same next hop, escape hop and hop distance for every ``(node, destination)``
pair, and the same spanning tree, for every topology family and grid size.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.sparse_hamming import SparseHammingGraph
from repro.simulator.routing_tables import (
    RoutingTables,
    _minimal_tables,
    build_routing_tables,
)
from repro.topologies.base import Topology
from repro.topologies.mesh import MeshTopology
from repro.topologies.registry import available_topologies, is_applicable, make_topology
from repro.topologies.ring import RingTopology
from repro.utils.validation import ValidationError


def oracle(topology: Topology) -> tuple[list[dict], list[dict], list[dict], list[int]]:
    """Per-destination dict builder: ``(minimal, escape, hop_distance, tree_parent)``."""
    num = topology.num_tiles
    neighbors = [topology.neighbors(node) for node in range(num)]
    coords = [topology.coord(node) for node in range(num)]
    minimal: list[dict[int, int]] = [dict() for _ in range(num)]
    hop_distance: list[dict[int, int]] = [dict() for _ in range(num)]
    for destination in range(num):
        dist = {destination: 0}
        queue = deque([destination])
        while queue:
            node = queue.popleft()
            for neighbor in neighbors[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
        for node, hops in dist.items():
            hop_distance[node][destination] = hops
        best_phys = {destination: 0.0}
        for node in sorted(range(num), key=lambda n: dist[n]):
            if node == destination:
                continue
            best = None
            for neighbor in neighbors[node]:
                if dist[neighbor] != dist[node] - 1:
                    continue
                length = abs(coords[node].row - coords[neighbor].row) + abs(
                    coords[node].col - coords[neighbor].col
                )
                candidate = (best_phys[neighbor] + length, neighbor)
                if best is None or candidate < best:
                    best = candidate
            best_phys[node] = best[0]
            minimal[node][destination] = best[1]

    parent = [-2] * num
    parent[0] = -1
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for neighbor in neighbors[node]:
            if parent[neighbor] == -2:
                parent[neighbor] = node
                queue.append(neighbor)

    escape: list[dict[int, int]] = [dict() for _ in range(num)]
    for destination in range(num):
        chain = [destination]
        while parent[chain[-1]] != -1:
            chain.append(parent[chain[-1]])
        on_chain = {node: index for index, node in enumerate(chain)}
        for node in range(num):
            if node == destination:
                continue
            if node in on_chain:
                escape[node][destination] = chain[on_chain[node] - 1]
            else:
                escape[node][destination] = parent[node]
    return minimal, escape, hop_distance, parent


def as_array(table: list[dict[int, int]]) -> np.ndarray:
    num = len(table)
    array = np.full((num, num), -1, dtype=np.int64)
    for node, row in enumerate(table):
        for destination, value in row.items():
            array[node, destination] = value
    return array


def assert_matches_oracle(topology: Topology) -> None:
    tables = build_routing_tables(topology)
    minimal, escape, hop_distance, parent = oracle(topology)
    num = topology.num_tiles
    for name, table in (("minimal", tables.minimal), ("escape", tables.escape),
                        ("hop_distance", tables.hop_distance)):
        assert isinstance(table, np.ndarray), name
        assert table.dtype == np.int64 and table.shape == (num, num), name
    np.testing.assert_array_equal(tables.minimal, as_array(minimal))
    np.testing.assert_array_equal(tables.escape, as_array(escape))
    np.testing.assert_array_equal(tables.hop_distance, as_array(hop_distance))
    assert tables.tree_parent == parent


FAMILY_CASES = [
    (name, rows, cols)
    for rows, cols in ((4, 4), (8, 8), (8, 16), (16, 16))
    for name in available_topologies()
    if is_applicable(name, rows, cols)
]


@pytest.mark.parametrize(
    "name, rows, cols", FAMILY_CASES, ids=[f"{n}-{r}x{c}" for n, r, c in FAMILY_CASES]
)
def test_family_matches_oracle(name, rows, cols):
    assert_matches_oracle(make_topology(name, rows, cols))


@pytest.mark.parametrize(
    "rows, cols, s_r, s_c",
    [
        (4, 4, (), ()),
        (8, 8, (2, 3), (4,)),
        (8, 8, (2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7)),
        (8, 16, (2, 4, 8), (4,)),
        (8, 16, (3,), (2, 5, 7)),
        (16, 16, (4, 8), (2, 4)),
    ],
)
def test_sparse_hamming_skip_sets_match_oracle(rows, cols, s_r, s_c):
    assert_matches_oracle(SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c))


@pytest.mark.parametrize("rows, cols", [(1, 3), (2, 3), (1, 9)])
def test_ring_matches_oracle(rows, cols):
    assert_matches_oracle(RingTopology(rows, cols))


def test_values_leaving_the_tables_are_builtin():
    tables = build_routing_tables(MeshTopology(4, 4))
    path = tables.path(0, 15)
    assert (path[0], path[-1], len(path)) == (0, 15, 7)
    assert all(type(node) is int for node in path + tables.path(0, 15, escape=True))
    assert type(tables.minimal_next_hop(0, 15)) is int
    assert type(tables.escape_next_hop(0, 15)) is int
    assert type(tables.average_minimal_hops()) is float


def test_disconnected_topology_raises():
    disconnected = Topology(2, 2, [(0, 1), (2, 3)], "two islands")
    with pytest.raises(ValidationError, match="not connected"):
        build_routing_tables(disconnected)
    # The level pass itself rejects it too, not only the up-front check.
    with pytest.raises(ValidationError, match="cannot build routing tables"):
        _minimal_tables(disconnected)


def test_hand_built_nested_tables_are_normalised():
    topology = MeshTopology(3, 3)
    built = build_routing_tables(topology)
    minimal, escape, hop_distance, parent = oracle(topology)
    # Lists of mappings (diagonal missing) and nested lists both normalise.
    tables = RoutingTables(minimal, escape, built.hop_distance.tolist(), parent)
    np.testing.assert_array_equal(tables.minimal, built.minimal)
    np.testing.assert_array_equal(tables.escape, built.escape)
    np.testing.assert_array_equal(tables.hop_distance, built.hop_distance)
    assert tables.minimal.dtype == np.int64
    # A missing entry becomes -1, and walking into it is an error, not a wrap.
    del minimal[0][8]
    partial = RoutingTables(minimal, escape, hop_distance, parent)
    assert partial.minimal[0, 8] == -1
    with pytest.raises(ValidationError, match="no next hop from 0 to 8"):
        partial.path(0, 8)


def test_misshapen_table_is_rejected():
    built = build_routing_tables(MeshTopology(2, 2))
    with pytest.raises(ValidationError, match="shape"):
        RoutingTables(built.minimal[:, :3], built.escape, built.hop_distance, built.tree_parent)
