"""Independent reference implementations used only by tests.

Everything here is written with plain loops and stdlib containers so it
shares no code path with the package.  Expected values in the test suite
are frozen from these oracles, not from the implementation under test.

`compose_scores`, `fuse_final`, `select_path`, the per-instance object
code (`ObjectBelief`, `object_beliefs`, `object_proximity_scores`,
`ground_object`), `sample_region_types` (formerly
`synth._sample_region_types`, which rebuilt its candidate list for every
new region), `observe_reperceiving` (formerly
`SemanticTopoMap.observe`, which perceived every node an arrival reached
in both confusion modes), `enumerate_paths_best_first` (formerly the
body of `reasoner.enumerate_type_paths`, which searched from every present
type in one heap), `merge_start_lists` (formerly the merge in
`reasoner.enumerate_type_paths`, a `heapq.merge` of the start types'
lists cut with `islice`) and `visual_score_table_per_node` (formerly
`perception.visual_score_table`, which drew one scalar of noise per entry)
and `geodesic_distances` (formerly `scene.geodesic_distances`, the full
search from the target that `metrics.episode_metrics` read each episode's
distances from; `tests/test_scene.py` checks it against scipy) and
`sample_episode_by_hops` (formerly `synth.sample_episode`, which ran a
breadth-first hop count from the start of every episode) are the
package's former implementations, kept as slow references for the code
that replaced them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice, permutations

import numpy as np

from hspr.scene import SceneGraph, dijkstra, hop_distances
from hspr.seeding import derive_rng
from hspr.synth import Episode


def percentile_minmax_row(row):
    """Clamp a row at its 95th percentile and min-max scale to [0, 0.95].

    Percentile: linear interpolation at rank 0.95*(n-1) over the sorted row.
    """
    values = sorted(float(v) for v in row)
    n = len(values)
    rank = 0.95 * (n - 1)
    lo_idx = int(rank)
    frac = rank - lo_idx
    if lo_idx + 1 < n:
        p95 = values[lo_idx] + frac * (values[lo_idx + 1] - values[lo_idx])
    else:
        p95 = values[lo_idx]
    clamped = [min(float(v), p95) for v in row]
    c_min = min(clamped)
    c_max = max(clamped)
    if c_max == c_min:
        return [0.0 for _ in clamped]
    return [0.95 * (v - c_min) / (c_max - c_min) for v in clamped]


def dijkstra_single_source(node_ids, edges, source):
    """Single-source shortest distances over an undirected weighted graph.

    edges: iterable of (a, b, length).  Returns {node_id: distance}, inf for
    unreachable nodes.
    """
    adjacency = {nid: [] for nid in node_ids}
    for a, b, length in edges:
        adjacency[a].append((b, length))
        adjacency[b].append((a, length))
    dist = {nid: float("inf") for nid in node_ids}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, nid = heapq.heappop(heap)
        if d > dist[nid]:
            continue
        for nbr, length in adjacency[nid]:
            nd = d + length
            if nd < dist[nbr]:
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def geodesic_distances(scene, source: str) -> dict[str, float]:
    """Exact shortest-path distances (meters) from source to every node.

    Unreachable nodes get inf.
    """
    if not scene.has_node(source):
        raise ValueError(f"unknown node {source!r}")
    dist, _ = dijkstra(scene._adjacency, source)
    return {nid: dist.get(nid, math.inf) for nid in scene.node_ids()}


def connected_components_union_find(node_ids, edges):
    """Partition node_ids into components via union-find over edges."""
    parent = {nid: nid for nid in node_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for nid in node_ids:
        groups.setdefault(find(nid), set()).add(nid)
    return sorted(groups.values(), key=min)


def enumerate_paths_exhaustive(present_types, target_type, P_r, max_types, k):
    """All distinct-type sequences ending at target, ranked like the engine.

    Brute force over permutations: a sequence (s_1, ..., s_j) is valid when
    j <= max_types, s_1 is present, s_j == target, all entries distinct, and
    every consecutive transition has nonzero probability.  Confidence is the
    product of transition probabilities (1.0 for a single-type sequence).
    Ranking: confidence desc, then shorter, then lexicographic.
    """
    n = len(P_r)
    candidates = []
    for length in range(1, max_types + 1):
        for seq in permutations(range(n), length):
            if seq[-1] != target_type:
                continue
            if seq[0] not in present_types:
                continue
            conf = 1.0
            ok = True
            for a, b in zip(seq, seq[1:]):
                p = P_r[a][b]
                if p == 0:
                    ok = False
                    break
                conf *= p
            if ok:
                candidates.append((seq, conf))
    candidates.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return candidates[:k]


def enumerate_paths_best_first(present_types, target_type, P_r, max_types, k):
    """Top-k type paths by one best-first search from every present type.

    Same contract and return value as `enumerate_paths_exhaustive`.  The
    heap holds partial paths of all starts at once, keyed
    (-confidence, length, types); a popped path pushes its best child not
    already on it and its parent's next such child.
    """
    successors = [
        sorted(((u, p) for u, p in enumerate(row) if p != 0.0), key=lambda item: (-item[1], item[0]))
        for row in P_r
    ]
    # (-confidence, length, types, -parent confidence, parent's successors, index)
    heap = [(-1.0, 1, (s1,), 0.0, None, 0) for s1 in sorted(present_types)]
    found = []
    while heap and len(found) < k:
        neg_conf, length, types, parent_neg_conf, siblings, i = heapq.heappop(heap)
        if siblings is not None:
            parent = types[:-1]
            for j in range(i + 1, len(siblings)):
                t, p = siblings[j]
                if t not in parent:
                    heapq.heappush(heap, (
                        parent_neg_conf * p, length, parent + (t,), parent_neg_conf, siblings, j
                    ))
                    break
        last = types[-1]
        if last == target_type:
            found.append((types, -neg_conf))
            continue
        if length == max_types:
            continue
        if length + 1 == max_types:
            p = P_r[last][target_type]
            if p != 0.0:
                heapq.heappush(heap, (neg_conf * p, length + 1, types + (target_type,), 0.0, None, 0))
            continue
        children = successors[last]
        for j, (t, p) in enumerate(children):
            if t not in types:
                heapq.heappush(heap, (neg_conf * p, length + 1, types + (t,), neg_conf, children, j))
                break
    return found


def merge_start_lists(present_types, target_type, table, config) -> list:
    """Top `config.beam` paths over a present set: the single-start lists
    of `table` merged on (-confidence, length, types) by `heapq.merge`."""
    lists = [
        table.paths_from(s, target_type, config.max_steps, config.beam)
        for s in sorted(present_types)
    ]
    merged = heapq.merge(*lists, key=lambda path: (-path.confidence, len(path.types), path.types))
    return list(islice(merged, config.beam))


def route_visited_sum(prev, source, goal, visited_scores):
    """Visited scores along one route, summed left to right from the source.

    Walks the predecessor map from goal back to source and applies the
    per-candidate formula of dynamic fusion:
    sum(visited_scores[v] for v in route if v in visited_scores).
    """
    route = [goal]
    while route[-1] != source:
        route.append(prev[route[-1]])
    route.reverse()
    return sum(visited_scores[v] for v in route if v in visited_scores)


def compose_scores(
    eta_c: dict[str, float],
    eta_f: dict[str, float],
    epsilon_c: dict[str, float],
    epsilon_f: dict[str, float],
    F: set[str],
    C: set[str],
    eq11_literal: bool = False,
) -> tuple[dict[str, float], dict[str, float]]:
    """Build the global and local action tables.

    Global: l_c[i] = eta_c[i] + epsilon_c[i] over all of C.  Local: for
    adjacent nodes the local proximity and visual scores combine (with
    eq11_literal the local entry is the proximity score alone); non-local
    nodes receive the residual assignment eta_c + epsilon_c.
    """
    if not F <= C:
        raise ValueError("local set F must be a subset of global set C")
    missing = [i for i in F if i not in eta_f or i not in epsilon_f]
    if missing:
        raise ValueError(f"nodes in F missing local scores: {sorted(missing)}")
    l_c = {i: eta_c[i] + epsilon_c[i] for i in C}
    l_f = {}
    for i in C:
        if i in F:
            l_f[i] = eta_f[i] if eq11_literal else eta_f[i] + epsilon_f[i]
        else:
            l_f[i] = eta_c[i] + epsilon_c[i]
    return l_c, l_f


def fuse_final(
    l_c: dict[str, float], l_f: dict[str, float], beta: float
) -> dict[str, float]:
    """Weighted sum of the global and local tables over one action set."""
    if set(l_c) != set(l_f):
        raise ValueError("global and local tables cover different action sets")
    return {i: beta * l_c[i] + (1.0 - beta) * l_f[i] for i in l_c}


def select_path(
    paths: list[TypePath],
    beliefs: list[TypeBelief],
    tau: float,
) -> tuple[TypePath, int] | None:
    """First feasible path in confidence order, with its sub-goal type.

    A path is feasible when some navigable node holds belief mass >= tau at
    the path's first type.  Returns None when no path is feasible (the
    caller falls back to direct proximity scores).  Re-invoked every step so
    the chosen path tracks the growing map.
    """
    for path in paths:
        s1 = path.types[0]
        if any(float(b.R[s1]) >= tau for b in beliefs):
            return path, s1
    return None


@dataclass(eq=False)
class ObjectBelief:
    """Per object instance at a node, a distribution over object types."""

    node_id: str
    probs: dict[str, np.ndarray]


def object_beliefs(node, n_object_types: int, object_noise: float) -> ObjectBelief:
    """Object-type distributions for each instance at a node.

    Same mixture scheme as the target spec: one-hot truth blended with
    uniform at level object_noise.
    """
    uniform = np.full(n_object_types, 1.0 / n_object_types)
    probs = {}
    for obj in node.objects:
        one_hot = np.zeros(n_object_types)
        one_hot[obj.object_type] = 1.0
        probs[obj.object_id] = (1.0 - object_noise) * one_hot + object_noise * uniform
    return ObjectBelief(node_id=node.node_id, probs=probs)


def object_proximity_scores(
    obj_belief, P_o: np.ndarray, Y_o: np.ndarray
) -> dict[str, float]:
    """Same bilinear form over object types, one score per object instance."""
    Y_o = np.asarray(Y_o, dtype=np.float64)
    if P_o.shape[1] != Y_o.shape[0]:
        raise ValueError(
            f"object matrix columns ({P_o.shape[1]}) do not match target vector ({Y_o.shape[0]})"
        )
    pulled = P_o @ Y_o
    out = {}
    for object_id, O in obj_belief.probs.items():
        if O.shape[0] != P_o.shape[0]:
            raise ValueError(
                f"object belief {object_id} has {O.shape[0]} types, matrix has {P_o.shape[0]}"
            )
        out[object_id] = float(O @ pulled)
    return out


def ground_object(node_record, objects: ObjectBelief, P_o: np.ndarray, Y_o: np.ndarray) -> str | None:
    """Pick the object instance at the stop node with the highest proximity.

    Ties break toward the ascending object id; None when the node is bare.
    """
    if not node_record.objects:
        return None
    mu = object_proximity_scores(objects, P_o, Y_o)
    return min(mu, key=lambda oid: (-mu[oid], oid))


def sample_region_types(config: GeneratorConfig, rng: np.random.Generator) -> tuple[list[int], list[tuple[int, int]]]:
    """Grow the region tree; returns per-region types and tree links."""
    P_r = config.generator_kb.P_r
    n_types = P_r.shape[0]
    if config.unique_region_types and config.region_count > n_types:
        raise ValueError(
            f"config infeasible: {config.region_count} unique regions exceed "
            f"{n_types} region types"
        )
    types = [int(rng.integers(n_types))]
    links: list[tuple[int, int]] = []
    while len(types) < config.region_count:
        candidates = []
        weights = []
        for ri, rt in enumerate(types):
            for t in range(n_types):
                if config.unique_region_types and t in types:
                    continue
                w = float(P_r[rt, t])
                if w > 0:
                    candidates.append((ri, t))
                    weights.append(w)
        if not candidates:
            raise ValueError(
                "config infeasible: no positive-probability region type can extend the tree"
            )
        probs = np.array(weights) / sum(weights)
        pick = int(rng.choice(len(candidates), p=probs))
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
            w = float(P_r[types[a], types[b]])
            if w > 0:
                extra_candidates.append((a, b))
                extra_weights.append(w)
    for _ in range(min(config.extra_region_links, len(extra_candidates))):
        probs = np.array(extra_weights) / sum(extra_weights)
        pick = int(rng.choice(len(extra_candidates), p=probs))
        links.append(extra_candidates[pick])
        del extra_candidates[pick]
        del extra_weights[pick]
    return types, links


def observe_reperceiving(topo, scene, arrived_node, confusion, rng) -> None:
    """Arrive at a node of a SemanticTopoMap, perceiving every node reached.

    The arrived node, then each neighbor in id order, is perceived on every
    arrival, known or not and in either confusion mode.  A known node keeps
    its belief object unless it is perceived at another row; the arrived
    node's edges are added on its first arrival only.
    """
    if topo.nodes and arrived_node not in topo.nodes:
        raise ValueError(f"cannot arrive at {arrived_node!r}: not a known node and not the start")

    def perceive(node_id) -> bool:
        row = confusion.perceive(scene.node(node_id).node_type, rng)
        known = topo.nodes.get(node_id)
        if known is None or known.row != row:
            topo.nodes[node_id] = confusion.belief(node_id, row)
        return known is None

    first_arrival = arrived_node not in topo._visited
    perceive(arrived_node)
    topo._navigable.pop(arrived_node, None)
    topo._visited[arrived_node] = None
    topo.current = arrived_node
    for nbr_id, length in sorted(scene.neighbors(arrived_node)):
        if perceive(nbr_id):
            topo._navigable[nbr_id] = None
        if first_arrival:
            topo.add_edge(arrived_node, nbr_id, length)
    topo.step += 1


def visual_score_table_per_node(view, weights, rng) -> dict[str, float]:
    """Visual scores of (node id, distance, alignment) triples, one scalar
    noise draw per entry in view order; a repeated node id keeps its last
    entry's score."""
    scores = {}
    for node_id, distance, alignment in view:
        value = weights.w_d * float(np.exp(-distance / weights.decay))
        value += weights.w_t * alignment
        if weights.noise_sd > 0:
            value += float(rng.normal(0.0, weights.noise_sd))
        scores[node_id] = value
    return scores


def sample_episode_by_hops(scene: SceneGraph, seed, episode_id: str | None = None) -> Episode:
    """Sample one navigation episode, deterministic in (scene, seed).

    Start is uniform over nodes; the target is uniform over object-bearing
    nodes at hop distance >= 2 (relaxed to >= 1 when none qualify); the
    target object is uniform over the target node's instances.
    """
    if len(scene.nodes) < 2:
        raise ValueError("scene needs at least 2 nodes to sample an episode")
    object_nodes = [n.node_id for n in scene.nodes if n.objects]
    if not object_nodes:
        raise ValueError("scene has no node with objects")
    rng = derive_rng(seed, "episode", scene.scene_id)
    order = scene.node_ids()
    start = order[int(rng.integers(len(order)))]
    hops = hop_distances(scene, start)
    eligible = [nid for nid in object_nodes if hops.get(nid, 0) >= 2]
    if not eligible:
        eligible = [nid for nid in object_nodes if hops.get(nid, 0) >= 1]
    if not eligible:
        raise ValueError("no object-bearing node distinct from the start")
    target = eligible[int(rng.integers(len(eligible)))]
    target_record = scene.node(target)
    obj = target_record.objects[int(rng.integers(len(target_record.objects)))]
    shortest = dijkstra(scene._adjacency, start, target)[0][target]
    return Episode(
        episode_id=episode_id or f"{scene.scene_id}-ep{seed}",
        scene_id=scene.scene_id,
        start_node=start,
        target_node=target,
        target_object=obj.object_id,
        shortest_length=shortest,
        target_type=target_record.node_type,
    )
