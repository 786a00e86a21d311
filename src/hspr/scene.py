"""Ground-truth scene graphs: on-disk format, validation, region primitives.

A scene is an undirected weighted graph of typed nodes.  Each node sits in a
named region and carries object instances placed in one of 36 panoramic view
sectors.  Scenes are immutable after loading and safe to share across
workers.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import InvariantViolation, SchemaError, malformed, read_json, write_json

SCENE_SCHEMA_VERSION = 1
N_VIEWS = 36


@dataclass(frozen=True)
class ObjectInstance:
    object_id: str
    object_type: int
    view_index: int
    heading: float
    elevation: float


@dataclass(frozen=True)
class NodeRecord:
    node_id: str
    position: tuple[float, float, float]
    region_id: str
    node_type: int
    objects: tuple[ObjectInstance, ...] = ()


@dataclass(frozen=True)
class Region:
    region_id: str
    region_type: int
    member_nodes: frozenset[str]


@dataclass
class SceneGraph:
    scene_id: str
    nodes: list[NodeRecord]
    edges: list[tuple[str, str, float]]
    type_vocabulary: list[str]
    object_vocabulary: list[str]
    # nodes are numbered by their position in `nodes`: _ids[k] is node k's id
    _ids: list[str] = field(default_factory=list, repr=False)
    _index: dict[str, int] = field(default_factory=dict, repr=False)
    # undirected edges, stored both ways as (index, length) in edge order: the shape dijkstra reads
    _nbrs: list[list[tuple[int, float]]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._ids = [n.node_id for n in self.nodes]
        self._index = {node_id: k for k, node_id in enumerate(self._ids)}
        self._nbrs = [[] for _ in self.nodes]
        index = self._index
        for a, b, length in self.edges:
            if a in index and b in index:
                self._nbrs[index[a]].append((index[b], length))
                self._nbrs[index[b]].append((index[a], length))

    @property
    def n_types(self) -> int:
        return len(self.type_vocabulary)

    @property
    def n_object_types(self) -> int:
        return len(self.object_vocabulary)

    def node(self, node_id: str) -> NodeRecord:
        return self.nodes[self._index[node_id]]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def neighbors(self, node_id: str) -> list[tuple[str, float]]:
        """Neighbors of a node with edge lengths, in stored edge order."""
        ids = self._ids
        return [(ids[j], length) for j, length in self._nbrs[self._index[node_id]]]

    def node_ids(self) -> list[str]:
        return list(self._ids)


def validate_scene(scene: SceneGraph) -> None:
    """Check every scene invariant, raising on the first violation."""
    seen_ids = set()
    for node in scene.nodes:
        if node.node_id in seen_ids:
            raise InvariantViolation(f"duplicate node id {node.node_id!r}")
        seen_ids.add(node.node_id)
    n_r, n_o = scene.n_types, scene.n_object_types
    for node in scene.nodes:
        if not all(math.isfinite(c) for c in node.position):
            raise InvariantViolation(f"node {node.node_id!r} has non-finite position")
        if not node.region_id:
            raise InvariantViolation(f"node {node.node_id!r} has empty region_id")
        if not 0 <= node.node_type < n_r:
            raise InvariantViolation(
                f"node {node.node_id!r} type {node.node_type} outside vocabulary of {n_r}"
            )
        obj_ids = set()
        for obj in node.objects:
            if obj.object_id in obj_ids:
                raise InvariantViolation(
                    f"duplicate object id {obj.object_id!r} at node {node.node_id!r}"
                )
            obj_ids.add(obj.object_id)
            if not 0 <= obj.object_type < n_o:
                raise InvariantViolation(
                    f"object {obj.object_id!r} type {obj.object_type} outside vocabulary of {n_o}"
                )
            if not 0 <= obj.view_index < N_VIEWS:
                raise InvariantViolation(
                    f"object {obj.object_id!r} view_index {obj.view_index} outside [0, {N_VIEWS - 1}]"
                )
    seen_edges = set()
    for a, b, length in scene.edges:
        if a not in seen_ids:
            raise InvariantViolation(f"edge endpoint {a!r} names no node")
        if b not in seen_ids:
            raise InvariantViolation(f"edge endpoint {b!r} names no node")
        if a == b:
            raise InvariantViolation(f"self-loop edge at {a!r}")
        key = (a, b) if a < b else (b, a)
        if key in seen_edges:
            raise InvariantViolation(f"edge {key} stored more than once")
        seen_edges.add(key)
        if not (math.isfinite(length) and length > 0):
            raise InvariantViolation(f"edge {key} has non-positive length {length}")
    if scene.nodes and not _is_connected(scene):
        raise InvariantViolation("scene graph is not connected")


def _is_connected(scene: SceneGraph) -> bool:
    return len(hop_distances(scene, scene.nodes[0].node_id)) == len(scene.nodes)


def load_scene(path) -> SceneGraph:
    """Load and validate a scene file."""
    payload = read_json(path, "scene", SCENE_SCHEMA_VERSION)
    with malformed(f"scene file {path}"):
        nodes = []
        for raw in payload["nodes"]:
            objects = tuple(
                ObjectInstance(
                    object_id=str(o["id"]),
                    object_type=int(o["type"]),
                    view_index=int(o["view"]),
                    heading=float(o["heading"]),
                    elevation=float(o["elevation"]),
                )
                for o in raw.get("objects", [])
            )
            nodes.append(
                NodeRecord(
                    node_id=str(raw["id"]),
                    position=tuple(float(c) for c in raw["pos"]),
                    region_id=str(raw["region"]),
                    node_type=int(raw["type"]),
                    objects=objects,
                )
            )
        edges = [(str(a), str(b), float(length)) for a, b, length in payload["edges"]]
        scene = SceneGraph(
            scene_id=str(payload["scene_id"]),
            nodes=nodes,
            edges=edges,
            type_vocabulary=[str(t) for t in payload["type_vocabulary"]],
            object_vocabulary=[str(t) for t in payload["object_vocabulary"]],
        )
    for node in scene.nodes:
        if len(node.position) != 3:
            raise SchemaError(f"node {node.node_id!r} position must have 3 coordinates")
    validate_scene(scene)
    return scene


def _round9(x: float) -> float:
    # canonical form: at most 9 significant digits
    return float(f"{x:.9g}")


def scene_to_payload(scene: SceneGraph) -> dict:
    return {
        "schema_version": SCENE_SCHEMA_VERSION,
        "scene_id": scene.scene_id,
        "type_vocabulary": list(scene.type_vocabulary),
        "object_vocabulary": list(scene.object_vocabulary),
        "nodes": [
            {
                "id": n.node_id,
                "pos": [_round9(c) for c in n.position],
                "region": n.region_id,
                "type": n.node_type,
                "objects": [
                    {
                        "id": o.object_id,
                        "type": o.object_type,
                        "view": o.view_index,
                        "heading": _round9(o.heading),
                        "elevation": _round9(o.elevation),
                    }
                    for o in n.objects
                ],
            }
            for n in scene.nodes
        ],
        "edges": [[a, b, _round9(length)] for a, b, length in scene.edges],
    }


def save_scene(scene: SceneGraph, path) -> None:
    """Write a scene in canonical form: sorted keys, arrays in input order."""
    write_json(path, scene_to_payload(scene), indent=1)


def segment_regions(scene: SceneGraph) -> list[Region]:
    """Group nodes by region_id, splitting disconnected groups per component.

    A region whose members are disconnected in the induced subgraph becomes
    one Region per connected component; split regions get a "#k" suffix with
    components ordered by smallest member node id.
    """
    by_region: dict[str, list[NodeRecord]] = {}
    for node in scene.nodes:
        by_region.setdefault(node.region_id, []).append(node)

    regions = []
    for region_id in sorted(by_region):
        members = by_region[region_id]
        member_ids = {n.node_id for n in members}
        components = _connected_components(scene, member_ids)
        components.sort(key=min)
        split = len(components) > 1
        for k, comp in enumerate(components):
            rid = f"{region_id}#{k}" if split else region_id
            regions.append(
                Region(
                    region_id=rid,
                    region_type=_majority_type(scene, comp),
                    member_nodes=frozenset(comp),
                )
            )
    return regions


def _connected_components(scene: SceneGraph, member_ids: set[str]) -> list[set[str]]:
    remaining = set(member_ids)
    components = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            for nbr, _ in scene.neighbors(stack.pop()):
                if nbr in remaining and nbr not in comp:
                    comp.add(nbr)
                    stack.append(nbr)
        remaining -= comp
        components.append(comp)
    return components


def _majority_type(scene: SceneGraph, member_ids: set[str]) -> int:
    counts: dict[int, int] = {}
    for node_id in member_ids:
        t = scene.node(node_id).node_type
        counts[t] = counts.get(t, 0) + 1
    best = max(counts.values())
    return min(t for t, c in counts.items() if c == best)


def region_adjacency(scene: SceneGraph, regions: list[Region]) -> set[tuple[str, str]]:
    """Unordered region-id pairs joined by at least one scene edge.

    Parallel edges between the same pair count once; the relation is
    symmetric and irreflexive.
    """
    region_of = {}
    for region in regions:
        for node_id in region.member_nodes:
            region_of[node_id] = region.region_id
    pairs = set()
    for a, b, _ in scene.edges:
        ra, rb = region_of[a], region_of[b]
        if ra != rb:
            pairs.add((ra, rb) if ra < rb else (rb, ra))
    return pairs


def dijkstra(
    nbrs: Sequence[Sequence[tuple[int, float]]],
    ids: Sequence[str],
    source: int,
    target: int | None = None,
) -> tuple[list[float], list[int]]:
    """Exact shortest distances and route predecessors from source, by node index.

    nbrs[k] lists node k's neighbors as (index, length) pairs and ids[k] is
    its id; dist[k] is inf where node k is unreachable, and prev[k] is -1
    where it has no predecessor (the source, or an unreachable node).  Among
    equal-length routes the heap order (distance, node id) decides: a
    node's predecessor is its tied neighbor settled first, and a later
    relaxation replaces it only when strictly shorter.  With a target, the
    search stops once the target is settled: dist[target] is final (lengths
    are >= 0), other entries may not be.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    dist = [math.inf] * len(nbrs)
    prev = [-1] * len(nbrs)
    dist[source] = 0.0
    # ids are unique, so a heap entry is never compared past its id
    heap = [(0.0, ids[source], source)]
    stop = -1 if target is None else target
    while heap:
        d, _, node = heappop(heap)
        if d > dist[node]:
            continue
        if node == stop:
            break
        for nbr, length in nbrs[node]:
            nd = d + length
            if nd < dist[nbr]:
                dist[nbr] = nd
                prev[nbr] = node
                heappush(heap, (nd, ids[nbr], nbr))
    return dist, prev


def hop_distances(scene: SceneGraph, source: str) -> dict[str, int]:
    """Unweighted hop counts from source via breadth-first search."""
    ids, nbrs = scene._ids, scene._nbrs
    dist = {source: 0}
    frontier = [scene._index[source]]
    while frontier:
        nxt = []
        for k in frontier:
            hops = dist[ids[k]] + 1
            for j, _ in nbrs[k]:
                if ids[j] not in dist:
                    dist[ids[j]] = hops
                    nxt.append(j)
        frontier = nxt
    return dist
