"""The agent's semantic topological map.

Grows incrementally as nodes are physically visited: arriving at a node
makes it current, reveals its true neighbors as navigable, and perceives
the types of the nodes new to the map (in sampled mode, of every node it
reaches).  In distribution mode a repeat arrival perceives and reveals
nothing, so it only moves the current node and counts the step.

The map numbers each node when it is first seen and keeps, by that number,
what a decision step reads: the known edges as (index, length) lists, each
node's confusion row, and whether it was ever arrived at.  The navigable
and the visited nodes are also kept as index lists in id order, updated
where a status changes, so a step reads its candidates in id order without
sorting.  Route planning runs the scene's single-source Dijkstra from the
current node over the edge lists, since a decision step only reads
distances and routes from where the agent stands; the routing table holds
lists by the same number, and so do dynamic fusion's route sums, goals and
weights in and sums out.  Node ids stay at the boundaries: beliefs,
statuses, routes and snapshots are read by id.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .perception import ConfusionModel, TypeBelief
from .scene import SceneGraph, dijkstra
from .seeding import Rng

CURRENT = "current"
VISITED = "visited"
NAVIGABLE = "navigable"


@dataclass
class RoutingTable:
    """Shortest distances and route predecessors from one source node.

    Lists by the numbering of the map the table was built on (`index`, the
    map's own): dist[k] is inf where node k is unreachable on the known map,
    and prev[k] is -1 where it has no predecessor.  n_edges is the map's
    edge count when the table was built.
    """

    source: int
    dist: list[float]
    prev: list[int]
    index: dict[str, int]
    n_edges: int

    def distance(self, goal: str) -> float:
        return self.dist[self.index[goal]]


class SemanticTopoMap:
    """Known nodes with their beliefs and statuses, known edges, and the step counter."""

    def __init__(self):
        self.nodes: dict[str, TypeBelief] = {}
        # known nodes numbered in the order first seen: ids[k] is node k's id
        self.ids: list[str] = []
        self.index: dict[str, int] = {}
        # undirected edges, stored once each way as (index, length) in insertion order
        self.nbrs: list[list[tuple[int, float]]] = []
        # by node index: the confusion row of its belief (None for a belief
        # built directly), and whether it is visited (the current node is)
        self.rows: list[int | None] = []
        self._is_visited: list[bool] = []
        # the navigable and the visited nodes by index, each list in id order;
        # every known node is in exactly one
        self.navigable: list[int] = []
        self.visited: list[int] = []
        self.n_edges = 0
        self.step = 0
        self.current: str | None = None

    def add_edge(self, a: str, b: str, length: float) -> None:
        """Add the undirected edge a-b between known nodes; an edge is added once."""
        for node_id in (a, b):
            if node_id not in self.index:
                raise ValueError(f"edge endpoint {node_id!r} is not on the map")
        if self.edge_length(a, b) is not None:
            raise ValueError(f"edge {a!r}-{b!r} is already on the map")
        self._link(self.index[a], self.index[b], length)

    def _link(self, ka: int, kb: int, length: float) -> None:
        self.nbrs[ka].append((kb, length))
        self.nbrs[kb].append((ka, length))
        self.n_edges += 1

    def edge_length(self, a: str, b: str) -> float | None:
        """Length of the known edge a-b, or None if the map has no such edge."""
        ka, kb = self.index.get(a), self.index.get(b)
        if ka is not None:
            for k, length in self.nbrs[ka]:
                if k == kb:
                    return length
        return None

    def add_node(self, node_id: str, status: str, belief: TypeBelief) -> None:
        """Add a node under the next number, with its status; CURRENT makes it current."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} is already on the map")
        k = self.index[node_id] = len(self.ids)
        self.nodes[node_id] = belief
        self.ids.append(node_id)
        self.nbrs.append([])
        self.rows.append(belief.row)
        visited = status != NAVIGABLE
        self._is_visited.append(visited)
        insort(self.visited if visited else self.navigable, k, key=self.ids.__getitem__)
        if status == CURRENT:
            self.current = node_id

    def status(self, node_id: str) -> str:
        """CURRENT, NAVIGABLE or VISITED, read from `current` and the visited flags."""
        k = self.index.get(node_id)
        if k is None:
            raise ValueError(f"node {node_id!r} is not on the map")
        if node_id == self.current:
            return CURRENT
        return VISITED if self._is_visited[k] else NAVIGABLE

    def visited_ids(self) -> frozenset[str]:
        """Visited nodes, the current one included, read from the visited flags."""
        return frozenset(nid for nid, seen in zip(self.ids, self._is_visited) if seen)

    def navigable_ids(self) -> frozenset[str]:
        """Navigable nodes, read from the visited flags."""
        return frozenset(nid for nid, seen in zip(self.ids, self._is_visited) if not seen)

    def observe(
        self,
        scene: SceneGraph,
        arrived_node: str,
        confusion: ConfusionModel,
        rng: Rng | None,
    ) -> None:
        """Arrive at a node: make it current, reveal neighbors, refresh beliefs.

        The arrived node, then each neighbor in id order, is perceived
        through confusion with rng if it is new to the map or the model is
        sampled: distribution mode never draws, so rng may be None there,
        and a repeat arrival, whose node and neighbors are all known,
        returns at once after moving the current node and counting the step.
        A sampled draw replaces a known belief only if it lands on another
        row.  Arrival is legal at the episode start (empty map) or at any
        already-known node; anything else is a teleport.  The arrived node's
        edges are added on its first arrival only, except those to visited
        nodes: each of those nodes' first arrival added its edge.
        """
        k = self.index.get(arrived_node)
        if k is None and self.nodes:
            raise ValueError(
                f"cannot arrive at {arrived_node!r}: not a known node and not the start"
            )
        redraw = confusion.mode == "sampled"
        # a node's edges and neighbors are all known after its first arrival
        first_arrival = k is None or not self._is_visited[k]
        if not (redraw or first_arrival):
            self.current = arrived_node
            self.step += 1
            return
        if redraw or k is None:
            self._perceive(scene.node(arrived_node), confusion, rng)
            k = self.index[arrived_node]
        if first_arrival:
            # the previous current node is visited already
            self.navigable.remove(k)
            self._is_visited[k] = True
            insort(self.visited, k, key=self.ids.__getitem__)
        self.current = arrived_node

        index, is_visited = self.index, self._is_visited
        for nbr_id, length in sorted(scene.neighbors(arrived_node)):
            if redraw or nbr_id not in index:
                self._perceive(scene.node(nbr_id), confusion, rng)
            j = index[nbr_id]
            if first_arrival and not is_visited[j]:
                self._link(k, j, length)
        self.step += 1

    def _perceive(self, record, confusion: ConfusionModel, rng) -> None:
        """Perceive one node: a new one joins the map as navigable, and a known
        one's belief and row are replaced only if its row changed."""
        row = confusion.perceive(record.node_type, rng)
        k = self.index.get(record.node_id)
        if k is None:
            self.add_node(record.node_id, NAVIGABLE, confusion.belief(record.node_id, row))
        elif self.rows[k] != row:
            self.nodes[record.node_id] = confusion.belief(record.node_id, row)
            self.rows[k] = row

    def navigable_sets(self) -> tuple[list[str], list[str]]:
        """(local F, global C) as id lists in id order: the navigable nodes
        next to current, and all of them (or none)."""
        ids = self.ids
        near = {k for k, _ in self.nbrs[self.index[self.current]]} if self.current is not None else ()
        return [ids[k] for k in self.navigable if k in near], [ids[k] for k in self.navigable]

    def shortest_paths(self, source: str | None = None) -> RoutingTable:
        """Exact Dijkstra distances and predecessors from source (default current).

        Among equal-length routes the heap order (distance, node_id) decides:
        a node's predecessor is its tied neighbor settled first, and a later
        relaxation replaces it only when strictly shorter.
        """
        if source is None:
            source = self.current
        if source is None:
            raise ValueError("map has no current node")
        if source not in self.nodes:
            raise ValueError(f"source {source!r} is not a known node")
        k = self.index[source]
        dist, prev = dijkstra(self.nbrs, self.ids, k)
        return RoutingTable(source=k, dist=dist, prev=prev, index=self.index, n_edges=self.n_edges)

    def all_pairs_shortest_paths(self) -> dict[str, RoutingTable]:
        """One single-source table per known node; for checks, not per step."""
        return {s: self.shortest_paths(s) for s in sorted(self.nodes)}

    def _check_table(self, table: RoutingTable) -> None:
        if self.current is None:
            raise ValueError("map has no current node")
        if table.index is not self.index:
            raise ValueError("routing table is from another map")
        if table.source != self.index[self.current]:
            raise ValueError(
                f"routing table is from {self.ids[table.source]!r}, "
                f"not the current node {self.current!r}"
            )
        if len(table.dist) != len(self.ids) or table.n_edges != self.n_edges:
            raise ValueError("routing table was built before the map grew")

    def route_to(self, table: RoutingTable, goal: str) -> list[str]:
        """Node sequence current -> goal, walking the table's predecessors."""
        self._check_table(table)
        k = self.index.get(goal)
        if k is None:
            raise ValueError(f"goal {goal!r} is not a known node")
        if table.dist[k] == math.inf:
            raise ValueError(f"goal {goal!r} is unreachable on the known map")
        prev, ids = table.prev, self.ids
        path = [goal]
        while k != table.source:
            k = prev[k]
            if k < 0 or len(path) > len(ids):
                raise InternalError(f"broken predecessor chain toward {goal!r}")
            path.append(ids[k])
        return path[::-1]

    def route_sums(
        self, table: RoutingTable, weights: list[float | None], goals: Iterable[int]
    ) -> list[float | None]:
        """Per goal, the weights of the nodes on its route, summed from current.

        goals are node indices, and weights and the result are lists by
        node index; a node without a weight holds None.  Each goal's entry
        is the left fold, from the integer 0, of the weights along
        route_to(table, goal's id), so 0 + -0.0 gives 0.0; prefixes shared
        down the predecessor tree are added once.  Entries off every goal's
        route stay None.
        """
        self._check_table(table)
        ids, dist, prev = self.ids, table.dist, table.prev
        if len(weights) != len(ids):
            raise ValueError(f"{len(weights)} weights for a map of {len(ids)} nodes")
        sums: list[float | None] = [None] * len(ids)
        w = weights[table.source]
        sums[table.source] = 0 if w is None else 0 + w
        for goal in goals:
            k = goal
            if dist[k] == math.inf:
                raise ValueError(f"goal {ids[goal]!r} is unreachable on the known map")
            chain = []  # goal back to the first node with a known sum
            while sums[k] is None:
                chain.append(k)
                k = prev[k]
                if k < 0 or len(chain) > len(ids):
                    raise InternalError(f"broken predecessor chain toward {ids[goal]!r}")
            total = sums[k]
            for k in reversed(chain):
                w = weights[k]
                if w is not None:
                    total += w
                sums[k] = total
        return sums

    def snapshot(self) -> dict:
        """JSON-friendly view of node statuses and belief argmaxes."""
        ids = self.ids
        return {
            "step": self.step,
            "nodes": {
                nid: {
                    "status": self.status(nid),
                    "type_argmax": int(np.argmax(belief.R)),
                }
                for nid, belief in sorted(self.nodes.items())
            },
            "edges": sorted(
                [ids[a], ids[b], length]
                for a, near in enumerate(self.nbrs)
                for b, length in near
                if ids[a] < ids[b]
            ),
        }
