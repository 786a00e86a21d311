"""Procedural scene generation and episode sampling.

Houses are grown region-by-region: a spanning tree over region types is
sampled with probability proportional to the generator KB's proximity rows,
regions are laid out in disjoint planar cells with jittered nodes, and
objects are placed per node from type-conditioned weights.  Statistics of
the generated population therefore follow the generating KB, which lets the
KB builder be validated closed-loop.  A draw in [0, x) is `x * rng.random()`;
one with lo != 0 keeps `uniform(lo, hi)`, because a fused multiply-add would
round `lo + (hi - lo) * rng.random()` differently (see seeding).  Scene
generation's bounded integers come from `seeding.below`, the integers and
state `rng.integers` gives; episode sampling draws three times per
generator, too few to repay `below`'s first access, so it keeps `integers`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, malformed, read_json, write_json
from .kb import ProximityKB
from .scene import (
    NodeRecord,
    ObjectInstance,
    SceneGraph,
    dijkstra,
    validate_scene,
)
from .seeding import below, choose, choose_distinct, derive_rng

_INTRA_SHORTCUT_P = 0.3


@dataclass
class GeneratorConfig:
    seed: int
    generator_kb: ProximityKB
    region_count: int = 8
    nodes_per_region: tuple[int, int] = (1, 3)
    extra_region_links: int = 1
    objects_per_node: tuple[int, int] = (1, 3)
    region_extent: float = 2.0
    unique_region_types: bool = True
    unique_objects_per_region: bool = False
    object_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.region_count < 2:
            raise ValueError("region_count must be >= 2")
        for name in ("nodes_per_region", "objects_per_node"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 0:
                raise ValueError(f"{name} must satisfy 0 <= min <= max, got {(lo, hi)}")
            if hi - lo >= 2**32:  # the most that seeding.below draws from
                raise ValueError(f"{name} must be at most 2**32 counts wide, got {(lo, hi)}")
        if self.nodes_per_region[0] < 1:
            raise ValueError("nodes_per_region: each region needs at least one node")
        if not (math.isfinite(self.region_extent) and self.region_extent > 0):
            raise ValueError(f"region_extent must be finite and > 0, got {self.region_extent}")
        if self.extra_region_links < 0:
            raise ValueError(f"extra_region_links must be >= 0, got {self.extra_region_links}")
        # weighted draws are checked here, not per draw (seeding.choose)
        if not np.isfinite(self.generator_kb.P_r).all():
            raise ValueError("generator_kb.P_r must be finite")
        if self.object_weights is not None:
            kb = self.generator_kb
            shape = (len(kb.type_vocabulary), len(kb.object_vocabulary))
            weights = np.asarray(self.object_weights, dtype=np.float64)
            if weights.shape != shape:
                raise ValueError(
                    f"object_weights must have shape {shape} (types x object types), got {weights.shape}"
                )
            if not (np.isfinite(weights).all() and (weights >= 0).all()):
                raise ValueError("object_weights must be finite and >= 0")


@dataclass(frozen=True)
class Episode:
    episode_id: str
    scene_id: str
    start_node: str
    target_node: str
    target_object: str
    shortest_length: float
    target_type: int


def _sample_region_types(config: GeneratorConfig, rng: np.random.Generator) -> tuple[list[int], list[tuple[int, int]]]:
    """Grow the region tree; returns per-region types and tree links.

    The (region, type) candidates stay in region-then-type order: each new
    region appends its own row and, with unique types, removes its type from
    the earlier rows, so every draw sees the list a full rebuild would give.
    """
    rows = config.generator_kb.P_r.tolist()
    n_types = len(rows)
    unique = config.unique_region_types
    if unique and config.region_count > n_types:
        raise ValueError(
            f"config infeasible: {config.region_count} unique regions exceed "
            f"{n_types} region types"
        )
    types = [below(rng, n_types)]
    links: list[tuple[int, int]] = []
    candidates: list[tuple[int, int]] = []
    weights: list[float] = []
    while True:
        region, rt = len(types) - 1, types[-1]
        if unique:
            kept = [k for k, (_, t) in enumerate(candidates) if t != rt]
            candidates = [candidates[k] for k in kept]
            weights = [weights[k] for k in kept]
        for t, w in enumerate(rows[rt]):
            if w > 0 and not (unique and t in types):
                candidates.append((region, t))
                weights.append(w)
        if len(types) == config.region_count:
            break
        if not candidates:
            raise ValueError(
                "config infeasible: no positive-probability region type can extend the tree"
            )
        w = np.array(weights)
        # cumsum adds left to right, as sum() did before Python 3.12 compensated
        probs = w / w.cumsum()[-1]
        pick = choose(rng, probs)
        parent, new_type = candidates[pick]
        links.append((parent, len(types)))
        types.append(new_type)

    # optional extra links between already-placed regions
    linked = {tuple(sorted(l)) for l in links}
    extra_candidates = []
    extra_weights = []
    for a in range(len(types)):
        for b in range(a + 1, len(types)):
            if (a, b) in linked:
                continue
            w = rows[types[a]][types[b]]
            if w > 0:
                extra_candidates.append((a, b))
                extra_weights.append(w)
    for _ in range(min(config.extra_region_links, len(extra_candidates))):
        w = np.array(extra_weights)
        probs = w / w.cumsum()[-1]
        pick = choose(rng, probs)
        links.append(extra_candidates[pick])
        del extra_candidates[pick]
        del extra_weights[pick]
    return types, links


def _object_type_weights(config: GeneratorConfig, node_type: int, n_objects: int) -> np.ndarray:
    if config.object_weights is not None:
        row = np.asarray(config.object_weights[node_type], dtype=np.float64)
        if row.sum() > 0:
            return row / row.sum()
    return np.full(n_objects, 1.0 / n_objects)


def _node_objects(
    rng: np.random.Generator, config: GeneratorConfig, row: np.ndarray, nonzero: int, used: set[int]
) -> list[int]:
    """Draw one node's object types from its region type's row, which holds
    `nonzero` nonzero weights, and add them to the region's used set.

    With unique objects per region the used objects are masked out of the
    row and it is renormalized.  Every pick has a positive weight, so the
    masked row holds len(used) fewer nonzero weights, and it is built only
    when the node takes an object.
    """
    lo, hi = config.objects_per_node
    count = lo + below(rng, hi + 1 - lo)
    if config.unique_objects_per_region and used:
        count = min(count, nonzero - len(used))
        if count > 0:
            row = row.copy()
            row[list(used)] = 0.0
            row = row / row.sum()
    else:
        count = min(count, nonzero)
    chosen = choose_distinct(rng, row, count)
    used.update(chosen)
    return chosen


def generate_scene(config: GeneratorConfig, scene_id: str | None = None) -> SceneGraph:
    """Generate one scene, deterministic in the config seed."""
    rng = derive_rng(config.seed, "generate-scene")
    kb = config.generator_kb
    n_objects = len(kb.object_vocabulary)
    region_types, region_links = _sample_region_types(config, rng)
    type_weights = {}
    for t in set(region_types):
        row = _object_type_weights(config, t, n_objects)
        type_weights[t] = (row, int(np.count_nonzero(row)))

    cols = math.ceil(math.sqrt(len(region_types)))
    extent = config.region_extent
    pitch = 3.0 * extent

    nodes: list[NodeRecord] = []
    edges: list[tuple[str, str, float]] = []
    region_nodes: list[list[str]] = []
    positions: dict[str, tuple[float, float, float]] = {}

    lo, hi = config.nodes_per_region
    for ri, rtype in enumerate(region_types):
        origin = ((ri % cols) * pitch, (ri // cols) * pitch)
        count = lo + below(rng, hi + 1 - lo)
        row, nonzero = type_weights[rtype]
        ids = []
        used_in_region: set[int] = set()
        for j in range(count):
            node_id = f"r{ri:02d}n{j}"
            pos = (origin[0] + extent * rng.random(), origin[1] + extent * rng.random(), 0.0)
            positions[node_id] = pos
            ids.append(node_id)

            chosen = _node_objects(rng, config, row, nonzero, used_in_region)
            # objects cluster in view sectors, so view-level co-occurrence
            # counts have signal
            views_here: list[int] = []
            objects = []
            for k, ot in enumerate(chosen):
                if views_here and rng.random() < 0.5:
                    view = views_here[below(rng, len(views_here))]
                else:
                    view = below(rng, 36)
                views_here.append(view)
                objects.append(
                    ObjectInstance(
                        object_id=f"{node_id}-o{k}",
                        object_type=ot,
                        view_index=view,
                        heading=float(rng.uniform(-math.pi, math.pi)),
                        elevation=float(rng.uniform(-0.5, 0.5)),
                    )
                )
            objects = tuple(objects)
            nodes.append(
                NodeRecord(
                    node_id=node_id,
                    position=pos,
                    region_id=f"reg{ri:02d}",
                    node_type=rtype,
                    objects=objects,
                )
            )
        region_nodes.append(ids)

        # random spanning tree over the region's nodes, plus shortcuts
        tree_pairs = set()
        for j in range(1, count):
            anchor = below(rng, j)
            edges.append((ids[anchor], ids[j], _dist(positions, ids[anchor], ids[j])))
            tree_pairs.add((anchor, j))
        for a in range(count):
            for b in range(a + 1, count):
                if (a, b) in tree_pairs:
                    continue
                if rng.random() < _INTRA_SHORTCUT_P:
                    edges.append((ids[a], ids[b], _dist(positions, ids[a], ids[b])))

    for ra, rb in region_links:
        a = region_nodes[ra][below(rng, len(region_nodes[ra]))]
        b = region_nodes[rb][below(rng, len(region_nodes[rb]))]
        edges.append((a, b, _dist(positions, a, b)))

    scene = SceneGraph(
        scene_id=scene_id or f"synth-{config.seed}",
        nodes=nodes,
        edges=edges,
        type_vocabulary=list(kb.type_vocabulary),
        object_vocabulary=list(kb.object_vocabulary),
    )
    validate_scene(scene)
    return scene


def _dist(positions, a: str, b: str) -> float:
    pa, pb = positions[a], positions[b]
    d = math.dist(pa, pb)
    return max(d, 1e-9)


def sample_episode(scene: SceneGraph, seed, episode_id: str | None = None) -> Episode:
    """Sample one navigation episode, deterministic in (scene, seed).

    Start is uniform over nodes; the target is uniform over object-bearing
    nodes at hop distance >= 2 (relaxed to >= 1 when none qualify); the
    target object is uniform over the target node's instances.  The scene
    must be connected, as validate_scene checks: an unreachable target is a
    ValueError, and hop distance >= 2 means neither the start nor a neighbor.
    """
    if len(scene.nodes) < 2:
        raise ValueError("scene needs at least 2 nodes to sample an episode")
    object_nodes = [n.node_id for n in scene.nodes if n.objects]
    if not object_nodes:
        raise ValueError("scene has no node with objects")
    rng = derive_rng(seed, "episode", scene.scene_id)
    order = scene.node_ids()
    start = order[int(rng.integers(len(order)))]
    near = {nbr for nbr, _ in scene.neighbors(start)}
    eligible = [nid for nid in object_nodes if nid != start and nid not in near]
    if not eligible:
        eligible = [nid for nid in object_nodes if nid != start]
    if not eligible:
        raise ValueError("no object-bearing node distinct from the start")
    target = eligible[int(rng.integers(len(eligible)))]
    target_record = scene.node(target)
    obj = target_record.objects[int(rng.integers(len(target_record.objects)))]
    source, goal = scene.index[start], scene.index[target]
    shortest = dijkstra(scene.nbrs, scene.ids, source, goal)[0][goal]
    if shortest == math.inf:
        raise ValueError(f"scene {scene.scene_id!r}: {target!r} cannot be reached from {start!r}")
    return Episode(
        episode_id=episode_id or f"{scene.scene_id}-ep{seed}",
        scene_id=scene.scene_id,
        start_node=start,
        target_node=target,
        target_object=obj.object_id,
        shortest_length=shortest,
        target_type=target_record.node_type,
    )


def sample_episodes(scene: SceneGraph, count: int, seed) -> list[Episode]:
    return [
        sample_episode(scene, (seed, k), episode_id=f"{scene.scene_id}-ep{k}")
        for k in range(count)
    ]


def episode_to_payload(episode: Episode) -> dict:
    return {
        "episode_id": episode.episode_id,
        "scene_id": episode.scene_id,
        "start_node": episode.start_node,
        "target_node": episode.target_node,
        "target_object": episode.target_object,
        "shortest_length": episode.shortest_length,
        "target_type": episode.target_type,
    }


def save_episodes(episodes: list[Episode], path) -> None:
    """Manifest format: a JSON array of episode records."""
    write_json(path, [episode_to_payload(e) for e in episodes])


def load_episodes(path) -> list[Episode]:
    episodes = []
    seen = set()
    for index, e in enumerate(read_json(path, "episode manifest", top=list)):
        label = f"episode manifest {path} record {index}"
        if not isinstance(e, dict):
            raise SchemaError(f"{label} is not a JSON object")
        with malformed(label):
            episode = Episode(
                episode_id=str(e["episode_id"]),
                scene_id=str(e["scene_id"]),
                start_node=str(e["start_node"]),
                target_node=str(e["target_node"]),
                target_object=str(e["target_object"]),
                shortest_length=float(e["shortest_length"]),
                target_type=int(e["target_type"]),
            )
        # metrics divide by it: SPL is undefined unless it is finite and > 0
        if not (math.isfinite(episode.shortest_length) and episode.shortest_length > 0):
            raise SchemaError(
                f"episode {episode.episode_id}: shortest_length must be finite and > 0, "
                f"got {e['shortest_length']!r}"
            )
        if episode.episode_id in seen:
            raise SchemaError(f"episode manifest repeats episode id {episode.episode_id!r}")
        seen.add(episode.episode_id)
        episodes.append(episode)
    return episodes
