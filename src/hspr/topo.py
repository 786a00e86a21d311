"""The agent's semantic topological map.

Grows incrementally as nodes are physically visited: arriving at a node
makes it current, reveals its true neighbors as navigable, and perceives
the types of the nodes new to the map (in sampled mode, of every node it
reaches).  A node's status is not stored: it follows from `current` and
the visited and navigable sets, which set queries read instead of scanning.
Route planning runs single-source Dijkstra from the current node over the
known edges, since a decision step only reads distances and routes from
where the agent stands.
"""

from __future__ import annotations

import math
from collections.abc import Collection, KeysView
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

    Nodes missing from `dist` are unreachable on the known map.
    """

    source: str
    dist: dict[str, float]
    prev: dict[str, str]

    def distance(self, goal: str) -> float:
        return self.dist.get(goal, math.inf)


class SemanticTopoMap:
    """Known nodes with their beliefs and statuses, known edges, and the step counter."""

    def __init__(self):
        self.nodes: dict[str, TypeBelief] = {}
        # undirected edges, stored both ways: adj[a][b] == adj[b][a]
        self.adj: dict[str, dict[str, float]] = {}
        self.step = 0
        self.current: str | None = None
        # status sets as insertion-ordered dicts; every known node is in exactly one
        self._visited: dict[str, None] = {}
        self._navigable: dict[str, None] = {}

    def add_edge(self, a: str, b: str, length: float) -> None:
        self.adj.setdefault(a, {})[b] = length
        self.adj.setdefault(b, {})[a] = length

    def add_node(self, node_id: str, status: str, belief: TypeBelief) -> None:
        """Add a node with its status, bypassing observe; CURRENT makes it current."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} is already on the map")
        self.nodes[node_id] = belief
        (self._navigable if status == NAVIGABLE else self._visited)[node_id] = None
        if status == CURRENT:
            self.current = node_id

    def status(self, node_id: str) -> str:
        """CURRENT, NAVIGABLE or VISITED, read from `current` and the status sets."""
        if node_id not in self.nodes:
            raise ValueError(f"node {node_id!r} is not on the map")
        if node_id == self.current:
            return CURRENT
        return NAVIGABLE if node_id in self._navigable else VISITED

    def visited_ids(self) -> KeysView[str]:
        """Visited nodes, the current one included, as a read-only view that follows the map."""
        return self._visited.keys()

    def navigable_ids(self) -> KeysView[str]:
        """Navigable nodes, as a read-only view that follows the map."""
        return self._navigable.keys()

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
        sampled: in distribution mode a known node's perception draws nothing
        and returns the row it holds, so a repeat arrival only moves the
        current node; distribution mode never draws, so rng may be None
        there.  A sampled draw replaces a known belief only if it lands on
        another row.  Arrival is legal at the episode start (empty map) or
        at any already-known node; anything else is a teleport.  The arrived
        node's edges are added on its first arrival only.
        """
        if self.nodes and arrived_node not in self.nodes:
            raise ValueError(
                f"cannot arrive at {arrived_node!r}: not a known node and not the start"
            )
        # a node's edges and neighbors are all known after its first arrival,
        # and re-assigning a known key would keep its place in adj anyway
        first_arrival = arrived_node not in self._visited
        redraw = confusion.mode == "sampled"
        if redraw or arrived_node not in self.nodes:
            self._perceive(scene.node(arrived_node), confusion, rng)
        # the previous current node is in _visited already
        self._navigable.pop(arrived_node, None)
        self._visited[arrived_node] = None
        self.current = arrived_node

        for nbr_id, length in sorted(scene.neighbors(arrived_node)) if redraw or first_arrival else ():
            if (redraw or nbr_id not in self.nodes) and self._perceive(scene.node(nbr_id), confusion, rng):
                self._navigable[nbr_id] = None
            if first_arrival:
                self.add_edge(arrived_node, nbr_id, length)
        self.step += 1

    def _perceive(self, record, confusion: ConfusionModel, rng) -> bool:
        """Perceive one node, replacing a known belief only if its row changed; True if new."""
        row = confusion.perceive(record.node_type, rng)
        known = self.nodes.get(record.node_id)
        if known is None or known.row != row:
            self.nodes[record.node_id] = confusion.belief(record.node_id, row)
        return known is None

    def navigable_sets(self) -> tuple[set[str], KeysView[str]]:
        """(local F, global C): navigable nodes next to current, and all of them (or none)."""
        C = self.navigable_ids()
        return C & self.adj.get(self.current, {}).keys(), C

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
        dist, prev = dijkstra(self.adj, source)
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
                    "status": self.status(nid),
                    "type_argmax": int(np.argmax(belief.R)),
                }
                for nid, belief in sorted(self.nodes.items())
            },
            "edges": sorted(
                [a, b, length]
                for a, near in self.adj.items()
                for b, length in near.items()
                if a < b
            ),
        }
