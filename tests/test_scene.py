import json
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from hspr.bench import house_generator_kb
from hspr.errors import InvariantViolation, SchemaError
from hspr.perception import TypeBelief
from hspr.scene import (
    dijkstra,
    load_scene,
    region_adjacency,
    save_scene,
    segment_regions,
)

from hspr.synth import GeneratorConfig, generate_scene
from hspr.topo import NAVIGABLE, SemanticTopoMap

from conftest import make_scene
from oracles import (
    connected_components_union_find,
    dijkstra_single_source,
    dijkstra_with_predecessors,
    geodesic_distances,
    id_keyed,
)


def write_scene(scene, tmp_path, name="scene.json"):
    path = tmp_path / name
    save_scene(scene, path)
    return path


class TestLoadScene:
    def test_minimal_two_node_scene(self, two_node_scene, tmp_path):
        path = write_scene(two_node_scene, tmp_path)
        loaded = load_scene(path)
        assert len(loaded.nodes) == 2
        assert loaded.edges == [("a", "b", 3.0)]
        assert loaded.node("b").objects[0].object_id == "b-obj"

    def test_edge_to_unknown_node_rejected(self, tmp_path):
        scene = make_scene([("a", "r0", 0), ("b", "r0", 0)], [("a", "b", 1.0)])
        path = write_scene(scene, tmp_path)
        payload = json.loads(path.read_text())
        payload["edges"][0][1] = "ghost"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantViolation, match="ghost"):
            load_scene(path)

    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        nodes = [
            (f"n{i}", f"r{i % 3}", i % 4, tuple(rng.uniform(-5, 5, 3)),
             [(f"n{i}-o", int(rng.integers(4)), int(rng.integers(36)))])
            for i in range(8)
        ]
        edges = [(f"n{i}", f"n{i+1}", float(rng.uniform(0.5, 4))) for i in range(7)]
        scene = make_scene(nodes, edges, validate=False)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_scene(scene, first)
        save_scene(load_scene(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_not_json_is_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            load_scene(path)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda p: p["edges"].append(["a", "a", 1.0]), "self-loop"),
            (lambda p: p["edges"].append(["b", "a", 2.0]), "more than once"),
            (lambda p: p["nodes"][0].update(type=99), "vocabulary"),
            (lambda p: p["nodes"][0].update(region=""), "region_id"),
            (lambda p: p["nodes"][1]["objects"][0].update(view=36), "view_index"),
            (lambda p: p["nodes"][1]["objects"][0].update(type=77), "vocabulary"),
            (lambda p: p["edges"][0].__setitem__(2, -1.0), "length"),
        ],
    )
    def test_invariants_rejected_with_diagnostic(self, two_node_scene, tmp_path, mutate, message):
        path = write_scene(two_node_scene, tmp_path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantViolation, match=message):
            load_scene(path)

    def test_disconnected_scene_rejected(self, tmp_path):
        scene = make_scene(
            [("a", "r0", 0), ("b", "r0", 0), ("c", "r1", 1), ("d", "r1", 1)],
            [("a", "b", 1.0), ("c", "d", 1.0)],
            validate=False,
        )
        path = write_scene(scene, tmp_path)
        with pytest.raises(InvariantViolation, match="connected"):
            load_scene(path)


class TestSegmentRegions:
    def test_single_connected_region(self):
        scene = make_scene(
            [("a", "r0", 0), ("b", "r0", 0), ("c", "r0", 0)],
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        regions = segment_regions(scene)
        assert len(regions) == 1
        assert regions[0].region_id == "r0"
        assert regions[0].member_nodes == {"a", "b", "c"}

    def test_disconnected_region_is_split(self):
        # r0 covers two components of sizes 2 and 3, bridged through r1
        scene = make_scene(
            [
                ("a", "r0", 0), ("b", "r0", 0),
                ("m", "r1", 1),
                ("x", "r0", 0), ("y", "r0", 0), ("z", "r0", 0),
            ],
            [
                ("a", "b", 1.0), ("b", "m", 1.0), ("m", "x", 1.0),
                ("x", "y", 1.0), ("y", "z", 1.0),
            ],
        )
        regions = {r.region_id: r for r in segment_regions(scene)}
        assert set(regions) == {"r0#0", "r0#1", "r1"}
        assert regions["r0#0"].member_nodes == {"a", "b"}
        assert regions["r0#1"].member_nodes == {"x", "y", "z"}

    def test_matches_union_find_oracle_on_random_scenes(self, rng):
        for trial in range(25):
            n = 10
            ids = [f"n{i}" for i in range(n)]
            edges = [(ids[i], ids[i + 1], 1.0) for i in range(n - 1)]
            for _ in range(4):
                i, j = rng.choice(n, 2, replace=False)
                if {ids[i], ids[j]} not in [{a, b} for a, b, _ in edges]:
                    edges.append((ids[int(i)], ids[int(j)], 1.0))
            regions = [f"r{int(rng.integers(3))}" for _ in range(n)]
            scene = make_scene(
                [(ids[i], regions[i], 0) for i in range(n)], edges
            )
            got = segment_regions(scene)

            for rid in set(regions):
                members = {ids[i] for i in range(n) if regions[i] == rid}
                internal = [(a, b) for a, b, _ in edges if a in members and b in members]
                expected = connected_components_union_find(members, internal)
                mine = sorted(
                    (r.member_nodes for r in got if r.region_id.split("#")[0] == rid),
                    key=min,
                )
                assert [set(m) for m in mine] == [set(c) for c in expected]

    def test_output_partitions_nodes(self, rng):
        scene = make_scene(
            [(f"n{i}", f"r{i % 2}", 0) for i in range(6)],
            [(f"n{i}", f"n{i+1}", 1.0) for i in range(5)],
        )
        regions = segment_regions(scene)
        all_members = [nid for r in regions for nid in r.member_nodes]
        assert sorted(all_members) == sorted(scene.node_ids())


class TestRegionAdjacency:
    def test_single_region_empty(self):
        scene = make_scene([("a", "r0", 0), ("b", "r0", 0)], [("a", "b", 1.0)])
        regions = segment_regions(scene)
        assert region_adjacency(scene, regions) == set()

    def test_parallel_cross_edges_count_once(self):
        scene = make_scene(
            [("a1", "ra", 0), ("a2", "ra", 0), ("a3", "ra", 0),
             ("b1", "rb", 1), ("b2", "rb", 1), ("b3", "rb", 1)],
            [("a1", "a2", 1.0), ("a2", "a3", 1.0),
             ("b1", "b2", 1.0), ("b2", "b3", 1.0),
             ("a1", "b1", 1.0), ("a2", "b2", 1.0), ("a3", "b3", 1.0)],
        )
        pairs = region_adjacency(scene, segment_regions(scene))
        assert pairs == {("ra", "rb")}

    def test_matches_edge_scan_oracle(self, rng):
        for trial in range(20):
            n = 12
            ids = [f"n{i}" for i in range(n)]
            regions = [f"r{int(rng.integers(4))}" for _ in range(n)]
            edges = [(ids[i], ids[i + 1], 1.0) for i in range(n - 1)]
            scene = make_scene([(ids[i], regions[i], 0) for i in range(n)], edges)
            segs = segment_regions(scene)
            got = region_adjacency(scene, segs)

            region_of = {}
            for seg in segs:
                for nid in seg.member_nodes:
                    region_of[nid] = seg.region_id
            expected = set()
            for a, b, _ in scene.edges:
                ra, rb = region_of[a], region_of[b]
                if ra != rb:
                    expected.add(tuple(sorted((ra, rb))))
            assert got == expected
            for ra, rb in got:
                assert ra != rb
                assert ra < rb


def scipy_geodesics(scene, source):
    """Reference distances from scipy's csgraph Dijkstra, inf if unreachable."""
    order = scene.node_ids()
    idx = {nid: i for i, nid in enumerate(order)}
    rows, cols, vals = [], [], []
    for a, b, length in scene.edges:
        rows += [idx[a], idx[b]]
        cols += [idx[b], idx[a]]
        vals += [length, length]
    graph = csr_matrix((vals, (rows, cols)), shape=(len(order), len(order)))
    dist = csgraph_dijkstra(graph, directed=False, indices=idx[source])
    return {nid: float(dist[i]) for i, nid in enumerate(order)}


# lengths whose sums tie or miss a tie by one rounding
TIE_PRONE_LENGTHS = [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1.0, 0.1 + 0.2, np.nextafter(0.3, 1.0)]


class TestGeodesicDistances:
    def test_matches_scipy_on_tie_prone_random_graphs(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 14))
            ids = [f"n{i}" for i in range(n)]
            pairs = {(int(rng.integers(i)), i) for i in range(1, n)}  # random spanning tree
            for _ in range(int(rng.integers(0, 2 * n))):
                i, j = sorted(int(k) for k in rng.choice(n, 2, replace=False))
                pairs.add((i, j))
            edges = [
                (ids[i], ids[j], float(rng.choice(TIE_PRONE_LENGTHS)))
                for i, j in sorted(pairs, key=lambda _: rng.random())
            ]
            scene = make_scene([(nid, "r0", 0) for nid in ids], edges)
            for source in ids:
                assert geodesic_distances(scene, source) == scipy_geodesics(scene, source)

    def test_matches_scipy_on_large_generated_scenes(self):
        kb, object_weights = house_generator_kb()
        for seed in (1, 2):
            scene = generate_scene(
                GeneratorConfig(
                    seed=seed, generator_kb=kb, region_count=60, nodes_per_region=(4, 5),
                    extra_region_links=1, objects_per_node=(1, 2),
                    unique_region_types=False, unique_objects_per_region=True,
                    object_weights=object_weights,
                ),
                scene_id=f"large{seed}",
            )
            assert len(scene.nodes) >= 240
            for source in scene.node_ids()[::7]:
                got = geodesic_distances(scene, source)
                assert list(got) == scene.node_ids()
                assert got == scipy_geodesics(scene, source)

    def test_unreachable_node_is_inf(self):
        scene = make_scene(
            [("a", "r0", 0), ("b", "r0", 0), ("c", "r0", 0), ("z", "r1", 1)],
            [("a", "b", 0.1), ("b", "c", 0.2), ("a", "c", 0.3)],
            validate=False,
        )
        got = geodesic_distances(scene, "a")
        assert got == scipy_geodesics(scene, "a")
        assert got["z"] == math.inf
        assert geodesic_distances(scene, "z") == {
            "a": math.inf, "b": math.inf, "c": math.inf, "z": 0.0
        }

    def test_unknown_source_rejected(self, two_node_scene):
        with pytest.raises(ValueError, match="unknown node 'ghost'"):
            geodesic_distances(two_node_scene, "ghost")


def _random_integer_graph(rng, n):
    """A random scene with lengths 1-3, so equal routes tie."""
    adj = {f"n{i}": {} for i in range(n)}
    for _ in range(int(rng.integers(n - 1, 3 * n))):
        i, j = (int(k) for k in rng.choice(n, 2, replace=False))
        length = float(rng.integers(1, 4))
        adj[f"n{i}"][f"n{j}"] = adj[f"n{j}"][f"n{i}"] = length
    edges = [(a, b, w) for a in adj for b, w in adj[a].items() if a < b]
    return make_scene([(nid, "r0", 0) for nid in adj], edges, validate=False)


def _search(scene, source, target=None):
    """scene.dijkstra by node id: id-keyed (dist, prev) as id_keyed reads them."""
    index = scene.index
    stop = None if target is None else index[target]
    return id_keyed(scene, dijkstra(scene.nbrs, scene.ids, index[source], stop))


def _route(prev, source, node):
    route = [node]
    while route[-1] != source:
        route.append(prev[route[-1]])
    return route


class TestDijkstraEarlyStop:
    def test_target_distance_and_route_match_the_full_search(self, rng):
        for _ in range(150):
            scene = _random_integer_graph(rng, int(rng.integers(2, 12)))
            adj = id_keyed(scene)
            for source in adj:
                dist, prev = _search(scene, source)
                for target in adj:
                    got_dist, got_prev = _search(scene, source, target)
                    if target not in dist:  # unreachable: the search runs out
                        assert (got_dist, got_prev) == (dist, prev)
                        continue
                    assert got_dist[target] == dist[target]
                    assert _route(got_prev, source, target) == _route(prev, source, target)

    def test_full_search_keeps_distances_and_tie_broken_predecessors(self, rng):
        for _ in range(150):
            scene = _random_integer_graph(rng, int(rng.integers(2, 12)))
            adj = id_keyed(scene)
            ids = list(adj)
            edges = [(a, b, w) for a in adj for b, w in adj[a].items() if a < b]
            for source in ids:
                dist, prev = _search(scene, source, target=None)
                want = dijkstra_single_source(ids, edges, source)
                assert dist == {nid: d for nid, d in want.items() if d < math.inf}
                # a predecessor is the tied neighbour settled first, in (distance, id) order
                for node, d in dist.items():
                    if node == source:
                        assert node not in prev
                        continue
                    tied = [(dist[u], u) for u, w in adj[node].items() if dist.get(u, math.inf) + w == d]
                    assert prev[node] == min(tied)[1]


class TestIndexOrder:
    @pytest.mark.parametrize("graph", ["scene", "map"])
    def test_ties_break_on_id_when_index_order_is_not_id_order(self, rng, graph):
        # nodes are numbered in a shuffled order, so only the id can break a tie
        # the way dijkstra_with_predecessors does
        shuffled = 0
        for _ in range(150):
            n = int(rng.integers(2, 14))
            ids = [f"n{i}" for i in range(n)]
            pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
            for _ in range(int(rng.integers(0, 2 * n))):
                i, j = sorted(int(k) for k in rng.choice(n, 2, replace=False))
                pairs.add((i, j))
            edges = [
                (ids[i], ids[j], float(rng.choice(TIE_PRONE_LENGTHS)))
                for i, j in sorted(pairs, key=lambda _: rng.random())
            ]
            order = [ids[int(k)] for k in rng.permutation(n)]
            if graph == "scene":
                g = make_scene([(nid, "r0", 0) for nid in order], edges)
                numbered = g.ids
                search = lambda source: _search(g, source)
            else:
                g = SemanticTopoMap()
                for nid in order:
                    g.add_node(nid, NAVIGABLE, TypeBelief(nid, np.array([1.0])))
                for a, b, length in edges:
                    g.add_edge(a, b, length)
                numbered = g.ids
                search = lambda source: id_keyed(g.shortest_paths(source))
            assert numbered == order
            shuffled += order != sorted(order)
            adj = id_keyed(g)
            for source in ids:
                assert search(source) == dijkstra_with_predecessors(adj, source)
        assert shuffled > 100
