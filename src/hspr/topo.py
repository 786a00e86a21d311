"""The agent's semantic topological map.

Grows incrementally as nodes are physically visited: arriving at a node
makes it current, reveals its true neighbors as navigable, and refreshes
type beliefs.  Route planning runs single-source Dijkstra from the current
node over the known edges, since a decision step only reads distances and
routes from where the agent stands.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .perception import TypeBelief
from .scene import SceneGraph

CURRENT = "current"
VISITED = "visited"
NAVIGABLE = "navigable"


@dataclass
class MapNode:
    node_id: str
    status: str
    position: tuple[float, float, float]
    belief: TypeBelief


@dataclass
class RoutingTable:
    """Shortest distances and route predecessors from one source node.

    Nodes missing from `dist` are unreachable on the known map.
    """

    source: str
    dist: dict[str, float]
    prev: dict[str, str]

    def distance(self, goal: str) -> float:
        return self.dist.get(goal, math.inf)


class SemanticTopoMap:
    """Known nodes with statuses, known edges, and the step counter."""

    def __init__(self):
        self.nodes: dict[str, MapNode] = {}
        # undirected edges, stored both ways: adj[a][b] == adj[b][a]
        self.adj: dict[str, dict[str, float]] = {}
        self.step = 0
        self.current: str | None = None

    def add_edge(self, a: str, b: str, length: float) -> None:
        self.adj.setdefault(a, {})[b] = length
        self.adj.setdefault(b, {})[a] = length

    def visited_ids(self) -> set[str]:
        """Visited nodes; the current node counts as visited for set queries."""
        return {
            nid for nid, rec in self.nodes.items() if rec.status in (VISITED, CURRENT)
        }

    def navigable_ids(self) -> set[str]:
        return {nid for nid, rec in self.nodes.items() if rec.status == NAVIGABLE}

    def observe(self, scene: SceneGraph, arrived_node: str, belief_fn) -> None:
        """Arrive at a node: update statuses, reveal neighbors, refresh beliefs.

        belief_fn(node_record) -> TypeBelief supplies perception for the
        arrived node and each revealed neighbor.  Arrival is legal at the
        episode start (empty map) or at any already-known node; anything
        else is a teleport.
        """
        if self.nodes and arrived_node not in self.nodes:
            raise ValueError(
                f"cannot arrive at {arrived_node!r}: not a known node and not the start"
            )
        record = scene.node(arrived_node)
        if self.current is not None and self.current != arrived_node:
            self.nodes[self.current].status = VISITED
        arrived = self.nodes.get(arrived_node)
        if arrived is None:
            self.nodes[arrived_node] = MapNode(
                arrived_node, CURRENT, record.position, belief_fn(record)
            )
        else:
            arrived.status = CURRENT
            arrived.belief = belief_fn(record)
        self.current = arrived_node

        for nbr_id, length in sorted(scene.neighbors(arrived_node)):
            nbr_record = scene.node(nbr_id)
            known = self.nodes.get(nbr_id)
            if known is None:
                self.nodes[nbr_id] = MapNode(
                    nbr_id, NAVIGABLE, nbr_record.position, belief_fn(nbr_record)
                )
            else:
                known.belief = belief_fn(nbr_record)
            self.add_edge(arrived_node, nbr_id, length)
        self.step += 1

    def navigable_sets(self) -> tuple[set[str], set[str]]:
        """(local F, global C): all navigable nodes, and those adjacent to current."""
        if not self.nodes:
            raise ValueError("map is empty")
        C = self.navigable_ids()
        near = self.adj.get(self.current, {})
        F = {nid for nid in C if nid in near}
        return F, C

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
        dist = {source: 0.0}
        prev: dict[str, str] = {}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for nbr, length in self.adj.get(node, {}).items():
                nd = d + length
                if nd < dist.get(nbr, math.inf):
                    dist[nbr] = nd
                    prev[nbr] = node
                    heapq.heappush(heap, (nd, nbr))
        return RoutingTable(source=source, dist=dist, prev=prev)

    def all_pairs_shortest_paths(self) -> dict[str, RoutingTable]:
        """One single-source table per known node; for checks, not per step."""
        return {s: self.shortest_paths(s) for s in sorted(self.nodes)}

    def _check_table(self, table: RoutingTable) -> None:
        if self.current is None:
            raise ValueError("map has no current node")
        if table.source != self.current:
            raise ValueError(
                f"routing table is from {table.source!r}, not the current node {self.current!r}"
            )

    def route_to(self, table: RoutingTable, goal: str) -> list[str]:
        """Node sequence current -> goal, walking the table's predecessors."""
        self._check_table(table)
        if goal not in self.nodes:
            raise ValueError(f"goal {goal!r} is not a known node")
        if not math.isfinite(table.distance(goal)):
            raise ValueError(f"goal {goal!r} is unreachable on the known map")
        path = [goal]
        while path[-1] != self.current:
            hop = table.prev.get(path[-1])
            if hop is None or len(path) > len(self.nodes):
                raise InternalError(f"broken predecessor chain toward {goal!r}")
            path.append(hop)
        return path[::-1]

    def route_sums(
        self, table: RoutingTable, weights: dict[str, float], goals: Collection[str]
    ) -> dict[str, float]:
        """Per goal, the weights of the nodes on its route, summed from current.

        Equals sum(weights[v] for v in route_to(table, goal) if v in weights)
        bit for bit: each sum is built left to right from the current node,
        but prefixes shared down the predecessor tree are added once.
        """
        self._check_table(table)
        source = self.current
        # sum() starts from the integer 0, so start there too (0 + -0.0 is 0.0)
        sums = {source: 0 + weights[source] if source in weights else 0}
        for goal in goals:
            if not math.isfinite(table.distance(goal)):
                raise ValueError(f"goal {goal!r} is unreachable on the known map")
            chain = []  # goal back to the first node with a known sum
            node = goal
            while node not in sums:
                chain.append(node)
                node = table.prev.get(node)
                if node is None or len(chain) > len(self.nodes):
                    raise InternalError(f"broken predecessor chain toward {goal!r}")
            total = sums[node]
            for node in reversed(chain):
                if node in weights:
                    total += weights[node]
                sums[node] = total
        return {goal: sums[goal] for goal in goals}

    def snapshot(self) -> dict:
        """JSON-friendly view of node statuses and belief argmaxes."""
        return {
            "step": self.step,
            "nodes": {
                nid: {
                    "status": rec.status,
                    "type_argmax": int(np.argmax(rec.belief.R)),
                }
                for nid, rec in sorted(self.nodes.items())
            },
            "edges": sorted(
                [a, b, length]
                for a, near in self.adj.items()
                for b, length in near.items()
                if a < b
            ),
        }
