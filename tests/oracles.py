"""Independent reference implementations used only by tests.

Everything here is written with plain loops and stdlib containers so it
shares no code path with the package.  Expected values in the test suite
are frozen from these oracles, not from the implementation under test.

`compose_scores`, `fuse_final`, `select_path`, the per-instance object
code (`ObjectBelief`, `object_beliefs`, `object_proximity_scores`,
`ground_object`), `sample_region_types` (formerly
`synth._sample_region_types`, which rebuilt its candidate list for every
new region), `node_objects` (formerly the per-node object block of
`synth.generate_scene`, which masked, summed, renormalized and counted its
region type's object weights at every node), `observe_reperceiving` (formerly
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

`visual_score_table` (formerly in `hspr.perception`: one view's visual
scores as a dict, its noise drawn in one sized call), `fuse_variant_table`
and its `ActionScoreTable` (formerly in `hspr.fusion`: a decision's global,
local and fused tables, built one table at a time) are the engine's former
scoring layers.  `simulator._scored_action` now computes the same floats
per candidate in one pass; the tests check these against the per-node and
compose-then-blend references above.

`proximity_scores`, `present_types_from_beliefs` and `multi_step_scores`
(formerly in `hspr.reasoner`: the definitions over plain type
distributions whose values the engine reads from its per-KB, per-model and
per-episode tables) and `save_confusion` (formerly in `hspr.perception`;
hspr reads confusion files but never writes one) moved here because only
tests called them.

`reference_run_episode` runs a whole episode of `simulator.run_episode`
from these definitions and `dijkstra_with_predecessors`, so one
trajectory comparison checks every fast path of a decision step.

`id_keyed` reads a node-numbered scene, map, routing table or
`scene.dijkstra` result back as the id-keyed dicts hspr kept before it
numbered nodes, so that tests state what they expect by node id.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice, permutations

import numpy as np

from hspr.errors import write_json
from hspr.fusion import FUSION_MODES, STOP, balance_factor
from hspr.perception import CONFUSION_SCHEMA_VERSION, VisualWeights
from hspr.reasoner import TypePath
from hspr.scene import SceneGraph, hop_distances
from hspr.seeding import Rng, choose_distinct, derive_rng
from hspr.simulator import Trajectory
from hspr.synth import Episode
from hspr.topo import NAVIGABLE, RoutingTable, SemanticTopoMap


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
    return dijkstra_single_source(scene.node_ids(), scene.edges, source)


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
    per-candidate formula of dynamic fusion: the visited scores on the
    route, added one at a time from the integer 0 (so 0 + -0.0 is 0.0), as
    built-in sum() adds floats before Python 3.12 compensates.
    """
    route = [goal]
    while route[-1] != source:
        route.append(prev[route[-1]])
    route.reverse()
    total = 0
    for v in route:
        if v in visited_scores:
            total += visited_scores[v]
    return total


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


def node_objects(config: GeneratorConfig, rng, type_weights, rtype: int, used_in_region: set[int]) -> list[int]:
    """One node's object types, drawn and added to the region's used set."""
    obj_count = int(rng.integers(config.objects_per_node[0], config.objects_per_node[1] + 1))
    weights = type_weights[rtype]
    if config.unique_objects_per_region and used_in_region:
        weights = weights.copy()
        weights[list(used_in_region)] = 0.0
        total = weights.sum()
        if total > 0:
            weights = weights / total
    available = int(np.count_nonzero(weights))
    obj_count = min(obj_count, available)
    chosen = choose_distinct(rng, weights, obj_count)
    used_in_region.update(chosen)
    return chosen


def observe_reperceiving(topo, scene, arrived_node, confusion, rng) -> None:
    """Arrive at a node of a SemanticTopoMap, perceiving every node reached.

    The arrived node, then each neighbor in id order, is perceived on every
    arrival, known or not and in either confusion mode.  A known node keeps
    its belief object unless it is perceived at another row; the arrived
    node's edges are added on its first arrival only, except those to
    visited nodes, whose own first arrival added them.  The map's row list
    is rewritten from its beliefs, and its navigable and visited index
    lists are re-sorted from its visited flags, after every arrival.
    """
    if topo.nodes and arrived_node not in topo.nodes:
        raise ValueError(f"cannot arrive at {arrived_node!r}: not a known node and not the start")

    def perceive(node_id) -> None:
        row = confusion.perceive(scene.node(node_id).node_type, rng)
        known = topo.nodes.get(node_id)
        if known is None:  # a new node joins the map as navigable
            topo.add_node(node_id, NAVIGABLE, confusion.belief(node_id, row))
        elif known.row != row:
            topo.nodes[node_id] = confusion.belief(node_id, row)

    first_arrival = arrived_node not in topo.visited_ids()
    perceive(arrived_node)
    topo._is_visited[topo.index[arrived_node]] = True
    topo.current = arrived_node
    for nbr_id, length in sorted(scene.neighbors(arrived_node)):
        perceive(nbr_id)
        if first_arrival and nbr_id not in topo.visited_ids():
            topo.add_edge(arrived_node, nbr_id, length)
    topo.rows = [topo.nodes[nid].row for nid in topo.ids]
    topo.visited = [topo.index[nid] for nid in sorted(topo.visited_ids())]
    topo.navigable = [topo.index[nid] for nid in sorted(topo.navigable_ids())]
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


@dataclass
class ActionScoreTable:
    """One decision's global, local and fused action tables."""

    l_c: dict[str, float] = field(default_factory=dict)
    l_f: dict[str, float] = field(default_factory=dict)
    l_final: dict[str, float] = field(default_factory=dict)


def fuse_variant_table(
    mode: str,
    eta_c: dict[str, float],
    eta_f: dict[str, float],
    epsilon_c: dict[str, float],
    epsilon_f: dict[str, float],
    F: set[str],
    C: set[str],
    beta: float,
    topo_map: SemanticTopoMap | None = None,
    table: RoutingTable | None = None,
    visited_scores: dict[str, float] | None = None,
    eq11_literal: bool = False,
) -> ActionScoreTable:
    """Fuse the global and local action tables in one pass over C.

    Global: l_c[i] = eta_c[i] + epsilon_c[i].  Local: on F the local
    proximity and visual scores combine (with eq11_literal the local entry
    is the proximity score alone).  Off F the local entry depends on the
    mode -- residual: the global entry l_c[i]; average: 0.0, with beta
    pinned at 0.5; dynamic: the summed visited_scores along the known route
    to i, where visited_scores holds exactly the map's visited ids (the
    simulator builds it that way).  Fused: beta * l_c + (1 - beta) * l_f.
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    if not F <= C:
        raise ValueError("local set F must be a subset of global set C")
    missing = [i for i in F if i not in eta_f or i not in epsilon_f]
    if missing:
        raise ValueError(f"nodes in F missing local scores: {sorted(missing)}")
    if mode == "average":
        beta = 0.5
    elif mode == "dynamic":
        if topo_map is None or table is None or visited_scores is None:
            raise ValueError("dynamic fusion needs the map, routing table, and visited scores")
        prev = id_keyed(table)[1]
        route = {i: route_visited_sum(prev, topo_map.current, i, visited_scores) for i in C - F}
    scores = ActionScoreTable()
    l_c, l_f, l_final = scores.l_c, scores.l_f, scores.l_final
    for i in C:
        g = l_c[i] = eta_c[i] + epsilon_c[i]
        if i in F:
            local = eta_f[i] if eq11_literal else eta_f[i] + epsilon_f[i]
        elif mode == "residual":
            local = g
        elif mode == "average":
            local = 0.0
        else:
            local = route[i]
        l_f[i] = local
        l_final[i] = beta * g + (1.0 - beta) * local
    return scores


def visual_score_table(
    view: list[tuple[str, float, float]],
    weights: VisualWeights,
    rng: Rng,
) -> dict[str, float]:
    """Score candidate nodes from (node id, distance, type alignment) triples.

    The type alignment of a node is R . Y_r, its belief against the target
    type.  score = w_d * exp(-d / decay) + w_t * alignment + N(0, noise_sd),
    with the noise drawn in one sized call, the same values as one scalar
    draw per entry, and added in view order: a fixed seed replays exactly,
    and a repeated node id uses up a draw though its last entry wins.
    """
    noise = None
    if weights.noise_sd > 0 and view:
        noise = rng.normal(0.0, weights.noise_sd, len(view)).tolist()
    w_d, w_t, decay, exp = weights.w_d, weights.w_t, weights.decay, np.exp
    scores = {}
    for k, (node_id, distance, alignment) in enumerate(view):
        value = w_d * float(exp(-distance / decay)) + w_t * alignment
        scores[node_id] = value if noise is None else value + noise[k]
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
    shortest = dijkstra_single_source(scene.node_ids(), scene.edges, start)[target]
    return Episode(
        episode_id=episode_id or f"{scene.scene_id}-ep{seed}",
        scene_id=scene.scene_id,
        start_node=start,
        target_node=target,
        target_object=obj.object_id,
        shortest_length=shortest,
        target_type=target_record.node_type,
    )


def proximity_scores(
    distributions: Sequence[np.ndarray], P_r: np.ndarray, Y_r: np.ndarray
) -> list[float]:
    """Bilinear proximity of each type distribution to the target type.

    score_i = R_i . P_r . Y_r, one per distribution, in input order.  Object
    types are scored the same way, with P_o and the target's Y_o.
    """
    Y_r = np.asarray(Y_r, dtype=np.float64)
    if P_r.shape[1] != Y_r.shape[0]:
        raise ValueError(
            f"proximity matrix columns ({P_r.shape[1]}) do not match target vector ({Y_r.shape[0]})"
        )
    pulled = P_r @ Y_r
    out = []
    for R in distributions:
        if R.shape[0] != P_r.shape[0]:
            raise ValueError(
                f"type distribution has {R.shape[0]} types, matrix has {P_r.shape[0]}"
            )
        out.append(float(R @ pulled))
    return out


def present_types_from_beliefs(
    distributions: Sequence[np.ndarray], tau: float
) -> set[int]:
    """Types some distribution holds with mass >= tau."""
    present = set()
    for R in distributions:
        present.update(int(t) for t in np.nonzero(R >= tau)[0])
    return present


def multi_step_scores(
    distributions: Sequence[np.ndarray],
    path: TypePath,
    P_r: np.ndarray,
    config: ReasonerConfig,
) -> list[float]:
    """Discounted sum of proximity scores toward each sub-goal on the path.

    score_i = sum_j gamma^(j-1) * omega_j * (R_i . P_r . onehot(s_j)), one
    per distribution, in input order.  For a single-type path this reduces
    exactly to the direct proximity score against a one-hot target.
    """
    if not path.types:
        raise ValueError("selected path is empty")
    omega = config.weights()
    if len(path.types) > len(omega):
        raise ValueError("path longer than configured weight list")
    n = P_r.shape[1]
    totals = [0.0] * len(distributions)
    for j, sub_goal in enumerate(path.types):
        onehot = np.zeros(n)
        onehot[sub_goal] = 1.0
        term = proximity_scores(distributions, P_r, onehot)
        factor = config.gamma**j * omega[j]
        for k, value in enumerate(term):
            totals[k] += factor * value
    return totals


def save_confusion(model: ConfusionModel, path) -> None:
    """Write a confusion model as the JSON file `load_confusion` reads."""
    payload = {
        "schema_version": CONFUSION_SCHEMA_VERSION,
        "mode": model.mode,
        "matrix": [[float(v) for v in row] for row in model.M],
    }
    write_json(path, payload)


def dijkstra_with_predecessors(adjacency, source):
    """Shortest distances and route predecessors from source.

    adjacency maps a node to {neighbor: length}; nodes missing from the
    returned dist are unreachable.  Each round settles the unsettled node
    with the least (distance, node id), found by a scan, and relaxes its
    edges; a node's predecessor changes only on a strictly shorter
    distance, so among equal-length routes it is the neighbor settled first.
    """
    dist = {source: 0.0}
    prev = {}
    settled = set()
    while len(settled) < len(dist):
        d, node = min((d, v) for v, d in dist.items() if v not in settled)
        settled.add(node)
        for nbr, length in adjacency.get(node, {}).items():
            if d + length < dist.get(nbr, math.inf):
                dist[nbr] = d + length
                prev[nbr] = node
    return dist, prev


def id_keyed(graph, paths=None):
    """Id-keyed dicts of a node-numbered structure, in the shapes hspr kept
    before it numbered nodes.

    A SceneGraph gives {id: {neighbor: length}} for every node, and a
    SemanticTopoMap the same for each node with a known edge, both in
    stored edge order.  A RoutingTable gives (dist, prev): dist holds the
    reachable nodes, prev each node's predecessor id.  With paths, the
    (dist, prev) lists of `scene.dijkstra` over graph's numbering read the
    same way.
    """
    if isinstance(graph, RoutingTable):
        ids, paths = list(graph.index), (graph.dist, graph.prev)
    elif isinstance(graph, SemanticTopoMap):
        ids, rows, keep_bare = graph.ids, graph.nbrs, False
    else:
        ids, rows, keep_bare = graph._ids, graph._nbrs, True
    if paths is not None:
        dist, prev = paths
        return (
            {ids[k]: d for k, d in enumerate(dist) if d < math.inf},
            {ids[k]: ids[j] for k, j in enumerate(prev) if j >= 0},
        )
    return {
        ids[k]: {ids[j]: length for j, length in row}
        for k, row in enumerate(rows) if row or keep_bare
    }


def reference_run_episode(scene, episode, kb, agent, policy="hspr", trace=False) -> Trajectory:
    """One episode of `simulator.run_episode`, from the plain definitions.

    The map is a belief vector per known node, the known edges and the
    visited set; every arrival perceives the arrived node and each of its
    neighbours again, drawing in sampled mode from its own
    `derive_rng(seed, episode, "perceive", arrival)` with
    `Generator.choice(p=...)`.  Each decision step routes by a fresh
    `dijkstra_with_predecessors` over the known edges, scores every node's
    belief with `proximity_scores` or, along the top path of
    `enumerate_paths_exhaustive` from the `present_types_from_beliefs` of
    the candidates, `multi_step_scores`; draws visual noise one scalar per
    node from `derive_rng(seed, episode, label, step)`; and fuses with
    `compose_scores` and `fuse_final`, the off-F local entries being 0 in
    average fusion and the `route_visited_sum` in dynamic fusion.  Objects
    are scored per instance (`object_beliefs`, `object_proximity_scores`)
    and grounded by `ground_object`.  beta is `fusion.balance_factor` of
    features counted on this map.  It validates nothing.
    """
    seed, ep = agent.seed, episode.episode_id
    M, P_r, P_o, reasoner = agent.confusion.M, kb.P_r, kb.P_o, agent.reasoner
    n_types, n_object_types = len(M), scene.n_object_types
    sampled = agent.confusion.mode == "sampled"

    def perceive(node_id, rng):
        true_type = scene.node(node_id).node_type
        if not sampled:
            return M[true_type]
        return np.eye(n_types)[int(rng.choice(n_types, p=M[true_type]))]

    target = scene.node(episode.target_node)
    Y_r = perceive(episode.target_node, derive_rng(seed, ep, "target"))
    Y_o = object_beliefs(target, n_object_types, agent.object_noise).probs[episode.target_object]
    target_type = int(np.argmax(Y_r))

    beliefs = {}  # node id -> type distribution
    edges = {}  # node id -> {neighbour: length}, both ways
    visited = set()
    arrivals = 0
    current = None

    def arrive(node_id):
        nonlocal arrivals, current
        rng = derive_rng(seed, ep, "perceive", arrivals) if sampled else None
        beliefs[node_id] = perceive(node_id, rng)
        for nbr, length in sorted(scene.neighbors(node_id)):
            beliefs[nbr] = perceive(nbr, rng)
            edges.setdefault(node_id, {})[nbr] = length
            edges.setdefault(nbr, {})[node_id] = length
        visited.add(node_id)
        current = node_id
        arrivals += 1

    def status(node_id):
        if node_id == current:
            return "current"
        return "visited" if node_id in visited else "navigable"

    def objects_at(node_id):
        record = scene.node(node_id)
        return record, object_beliefs(record, n_object_types, agent.object_noise)

    arrive(episode.start_node)
    node_sequence = [episode.start_node]
    action_sequence = []
    total_length = 0.0
    steps = [] if trace else None

    for step in range(agent.max_actions):
        C = sorted(set(beliefs) - visited)
        F = [i for i in C if i in edges[current]]
        dist, prev = dijkstra_with_predecessors(edges, current)
        if policy == "random":
            options = F + [STOP]
            chosen = options[int(derive_rng(seed, ep, "random", step).integers(len(options)))]
            step_trace = {"chosen": chosen}
        else:
            dynamic = agent.fusion_mode == "dynamic"
            V = sorted(visited) if dynamic else []
            scored = C + V
            distributions = [beliefs[i] for i in scored]
            paths, path = [], None
            if policy == "hspr":
                present = present_types_from_beliefs([beliefs[i] for i in C], reasoner.feasibility_tau)
                paths = enumerate_paths_exhaustive(
                    present, target_type, P_r.tolist(), reasoner.max_steps, reasoner.beam
                )
            if policy == "visual_only":
                eta = [0.0] * len(scored)
            elif paths:
                path = TypePath(*paths[0])
                eta = multi_step_scores(distributions, path, P_r, reasoner)
            else:
                eta = proximity_scores(distributions, P_r, Y_r)
            eta = dict(zip(scored, eta))
            alignment = {i: float(beliefs[i] @ Y_r) for i in scored + [current]}

            def visual(label, view):
                rng = derive_rng(seed, ep, label, step)
                return visual_score_table_per_node(view, agent.visual, rng)

            eps_c = visual("visual-global", [(i, dist[i], alignment[i]) for i in C])
            eps_f = visual("visual-local", [(i, edges[current][i], alignment[i]) for i in F])
            l_c, l_f = compose_scores(eta, eta, eps_c, eps_f, set(F), set(C), agent.eq11_literal)
            known = len(beliefs)
            features = {
                "visited_fraction": len(visited) / known,
                "frontier_fraction": len(C) / known,
                "local_fraction": len(F) / max(len(C), 1),
                "step": float(arrivals),
            }
            # average fusion blends at 0.5, and the trace shows that beta
            beta = 0.5 if agent.fusion_mode == "average" else balance_factor(agent.beta_policy, features)
            if agent.fusion_mode == "average":
                l_f.update((i, 0.0) for i in C if i not in F)
            elif dynamic:
                eps_v = visual("visual-visited", [(i, dist[i], alignment[i]) for i in V])
                visited_scores = {i: eta[i] + eps_v[i] for i in V}
                l_f.update((i, route_visited_sum(prev, current, i, visited_scores)) for i in C if i not in F)
            l_final = fuse_final(l_c, l_f, beta)

            w_type, w_obj = agent.stop_weights
            stop = w_type * alignment[current]
            mu = object_proximity_scores(objects_at(current)[1], P_o, Y_o)
            if mu:
                stop += w_obj * max(mu.values())
            l_c[STOP] = l_f[STOP] = l_final[STOP] = stop
            chosen = max([STOP] + C, key=l_final.__getitem__)

            step_trace = {
                "step": step,
                "current": current,
                "beta": beta,
                "candidate_paths": [[list(t), c] for t, c in paths] if policy == "hspr" else None,
                "selected_path": list(path.types) if path else None,
                "path_confidence": path.confidence if path else None,
                "scores": {
                    "eta_c": {i: eta[i] for i in C},
                    "eta_f": {i: eta[i] for i in F},
                    "epsilon_c": dict(sorted(eps_c.items())),
                    "epsilon_f": dict(sorted(eps_f.items())),
                    "l_c": dict(sorted(l_c.items())),
                    "l_f": dict(sorted(l_f.items())),
                },
                "l_final": dict(sorted(l_final.items())),
                "chosen": chosen,
                "map": {
                    "step": arrivals,
                    "nodes": {
                        i: {"status": status(i), "type_argmax": int(np.argmax(beliefs[i]))}
                        for i in sorted(beliefs)
                    },
                    "edges": sorted([a, b, length] for a, near in edges.items()
                                    for b, length in near.items() if a < b),
                },
            }
        if trace:
            steps.append(step_trace)
        if chosen == STOP:
            action_sequence.append(STOP)
            break
        route = [chosen]
        while route[-1] != current:
            route.append(prev[route[-1]])
        route.reverse()
        for a, b in zip(route, route[1:]):
            total_length += edges[a][b]
            arrive(b)
            node_sequence.append(b)
        action_sequence.append(chosen)

    return Trajectory(
        episode_id=ep,
        policy=policy,
        node_sequence=node_sequence,
        action_sequence=action_sequence,
        stop_node=current,
        selected_object=ground_object(*objects_at(current), P_o, Y_o),
        total_length=total_length,
        steps=steps,
    )
