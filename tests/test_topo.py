import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspr.bench import standard_benchmark
from hspr.errors import InternalError
from hspr.fusion import BALANCE_FEATURES, balance_features
from hspr.perception import ConfusionModel, TypeBelief
from hspr.topo import CURRENT, NAVIGABLE, VISITED, SemanticTopoMap

from conftest import make_scene
from oracles import (
    dijkstra_single_source,
    id_keyed,
    navigable_ids,
    observe_reperceiving,
    route_visited_sum,
    visited_ids,
)


# identity confusion: each node believes its true type with certainty
ORACLE = ConfusionModel.identity(4)
# statuses must not depend on perception: a noiseless and a sampled model
STATUS_MODELS = (ORACLE, ConfusionModel.eps_uniform(4, 0.5, mode="sampled"))


def star_scene():
    return make_scene(
        [("hub", "r0", 0), ("n1", "r1", 1), ("n2", "r2", 2), ("n3", "r3", 3)],
        [("hub", "n1", 1.0), ("hub", "n2", 2.0), ("n2", "n3", 1.5)],
    )


def random_map(rng, n_nodes):
    """A connected random map built directly, bypassing observe."""
    topo = SemanticTopoMap()
    ids = [f"n{i}" for i in range(n_nodes)]
    for i, nid in enumerate(ids):
        status = CURRENT if i == 0 else (VISITED if i % 2 else NAVIGABLE)
        topo.add_node(nid, status, TypeBelief(nid, np.array([1.0])))
    topo.current = ids[0]
    for i in range(1, n_nodes):
        j = int(rng.integers(i))
        topo.add_edge(ids[j], ids[i], float(rng.uniform(0.5, 5.0)))
    extra = int(rng.integers(0, n_nodes))
    for _ in range(extra):
        a, b = rng.choice(n_nodes, 2, replace=False)
        if topo.edge_length(ids[int(a)], ids[int(b)]) is None:
            topo.add_edge(ids[int(a)], ids[int(b)], float(rng.uniform(0.5, 5.0)))
    return topo


def diamond_map(edge_order):
    """Unit 4-cycle a-b-d / a-c-d with a current: two equal routes a -> d."""
    topo = SemanticTopoMap()
    for nid in "abcd":
        status = CURRENT if nid == "a" else NAVIGABLE
        topo.add_node(nid, status, TypeBelief(nid, np.array([1.0])))
    topo.current = "a"
    for a, b in edge_order:
        topo.add_edge(a, b, 1.0)
    return topo


class TestObserve:
    def test_start_reveals_neighbors(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        assert topo.current == "hub"
        assert topo.status("hub") == CURRENT
        assert navigable_ids(topo) == {"n1", "n2"}
        assert id_keyed(topo)["hub"] == {"n1": 1.0, "n2": 2.0}
        assert topo.step == 1

    def test_moving_updates_statuses(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        topo.observe(scene, "n2", ORACLE, None)
        assert topo.status("hub") == VISITED
        assert topo.status("n2") == CURRENT
        assert navigable_ids(topo) == {"n1", "n3"}

    def test_each_edge_is_added_once(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        # n2's first arrival finds hub visited: hub's own first arrival added hub-n2
        for node in ["hub", "n2", "n3", "n2", "hub", "n1"]:
            topo.observe(scene, node, ORACLE, None)
        assert topo.n_edges == len(scene.edges) == len(topo.snapshot()["edges"])
        assert sorted(len(row) for row in topo.nbrs) == sorted(len(scene.neighbors(n)) for n in topo.ids)
        with pytest.raises(ValueError, match="already on the map"):
            topo.add_edge("n2", "hub", 2.0)
        with pytest.raises(ValueError, match="not on the map"):
            topo.add_edge("hub", "ghost", 1.0)

    def test_revisiting_a_visited_node(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        topo.observe(scene, "n2", ORACLE, None)
        edges_before = topo.snapshot()["edges"]
        topo.observe(scene, "hub", ORACLE, None)
        assert topo.status("hub") == CURRENT
        assert topo.status("n2") == VISITED
        assert topo.snapshot()["edges"] == edges_before

    def test_added_statuses_read_back(self):
        topo = SemanticTopoMap()
        for nid, status in (("a", VISITED), ("b", CURRENT), ("c", NAVIGABLE)):
            topo.add_node(nid, status, TypeBelief(nid, np.array([1.0])))
        assert topo.current == "b"
        assert [topo.status(n) for n in "abc"] == [VISITED, CURRENT, NAVIGABLE]
        with pytest.raises(ValueError, match="not on the map"):
            topo.status("d")

    def test_teleport_rejected(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        with pytest.raises(ValueError, match="arrive"):
            topo.observe(scene, "n3", ORACLE, None)

    def test_full_walk_covers_scene(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        for node in ["hub", "n1", "hub", "n2", "n3"]:
            topo.observe(scene, node, ORACLE, None)
        assert set(topo.nodes) == set(scene.node_ids())
        assert visited_ids(topo) == set(scene.node_ids()) - navigable_ids(topo)

    def test_exactly_one_current_and_disjoint_statuses(self, rng):
        scene = star_scene()
        walk = ["hub", "n2", "n3", "n2", "hub", "n1"]
        for confusion in STATUS_MODELS:
            topo = SemanticTopoMap()
            for node in walk:
                topo.observe(scene, node, confusion, rng)
                statuses = [topo.status(nid) for nid in topo.nodes]
                assert statuses.count(CURRENT) == 1
                assert set(statuses) <= {CURRENT, VISITED, NAVIGABLE}

    def test_known_graph_is_subgraph_of_scene(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        true_edges = {tuple(sorted((a, b))) for a, b, _ in scene.edges}
        for node in ["hub", "n2", "n3"]:
            topo.observe(scene, node, ORACLE, None)
            assert {(a, b) for a, b, _ in topo.snapshot()["edges"]} <= true_edges

    def test_status_sets_follow_every_status_change(self, rng):
        def assert_sets_match_statuses(topo):
            statuses = {nid: topo.status(nid) for nid in topo.nodes}
            assert visited_ids(topo) == {n for n, s in statuses.items() if s in (VISITED, CURRENT)}
            assert navigable_ids(topo) == {n for n, s in statuses.items() if s == NAVIGABLE}

        scene = star_scene()
        for confusion in STATUS_MODELS * 20:
            topo = SemanticTopoMap()
            topo.observe(scene, "hub", confusion, rng)
            assert_sets_match_statuses(topo)
            for _ in range(5):
                goal = sorted(topo.nodes)[int(rng.integers(len(topo.nodes)))]
                for hop in topo.route_to(topo.shortest_paths(), goal)[1:]:
                    topo.observe(scene, hop, confusion, rng)
                    assert_sets_match_statuses(topo)

    def test_status_sets_are_read_only(self):
        topo = SemanticTopoMap()
        topo.observe(star_scene(), "hub", ORACLE, None)
        # navigable_sets hands out new lists, so changing them leaves the map alone
        F, C = topo.navigable_sets()
        F.append("n9")
        C.clear()
        assert visited_ids(topo) == {"hub"}
        assert navigable_ids(topo) == {"n1", "n2"}
        assert topo.navigable_sets() == (["n1", "n2"], ["n1", "n2"])

    def test_known_node_keeps_its_belief_until_its_row_changes(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        first = topo.nodes["n2"]
        assert first.row == 2
        topo.observe(scene, "n2", ORACLE, None)
        topo.observe(scene, "hub", ORACLE, None)
        assert topo.nodes["n2"] is first
        # sampled: hub, n1, n2 draw in that order on each arrival at hub
        sampled = ConfusionModel.eps_uniform(4, 1.0, mode="sampled")
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        replaced = 0
        for _ in range(10):
            before = topo.nodes["n2"]
            topo.observe(scene, "hub", sampled, rng)
            want = [sampled.perceive(scene.node(n).node_type, twin) for n in ("hub", "n1", "n2")][2]
            after = topo.nodes["n2"]
            assert after.row == want and after.R[want] == 1.0
            assert (after is before) == (want == before.row)
            replaced += after is not before
        assert replaced


    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    def test_edges_match_re_adding_oracle_over_walks_with_revisits(self, rng, mode):
        # the map adds a node's edges on its first arrival only; the oracle
        # re-adds them on every arrival, which keeps each key in its place
        scenes, _, kb = standard_benchmark(n_scenes=3, episodes_per_scene=1, seed=5)
        confusion = ConfusionModel.eps_uniform(len(kb.type_vocabulary), 0.3, mode=mode)
        for scene in scenes.values():
            topo = SemanticTopoMap()
            oracle: dict[str, dict[str, float]] = {}
            node = sorted(scene.node_ids())[0]
            revisits = 0
            for k in range(40):
                revisits += node in visited_ids(topo)
                topo.observe(scene, node, confusion, np.random.default_rng(k))
                for nbr, length in sorted(scene.neighbors(node)):
                    oracle.setdefault(node, {})[nbr] = length
                    oracle.setdefault(nbr, {})[node] = length
                adj = id_keyed(topo)
                assert list(adj) == list(oracle)
                for n, near in oracle.items():
                    assert list(adj[n].items()) == list(near.items())
                options = sorted(scene.neighbors(node))
                node = options[int(rng.integers(len(options)))][0]
            assert revisits > 0


    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    @pytest.mark.parametrize("world", ["house", "large"])
    def test_matches_reperceiving_oracle_over_walks_with_revisits(self, rng, mode, world, large_scenes):
        # the map perceives only nodes new to it unless the model is sampled;
        # the oracle perceives every node that each arrival reaches
        if world == "house":
            scenes, _, kb = standard_benchmark(n_scenes=3, episodes_per_scene=1, seed=5)
        else:
            scenes, _, kb = large_scenes
        confusion = ConfusionModel.eps_uniform(len(kb.type_vocabulary), 0.3, mode=mode)
        for scene in scenes.values():
            fast, slow = SemanticTopoMap(), SemanticTopoMap()
            fast_rng, slow_rng = np.random.default_rng(11), np.random.default_rng(11)
            node = sorted(scene.node_ids())[0]
            revisits = 0
            for _ in range(150):
                revisits += node in visited_ids(fast)
                fast_before, slow_before = dict(fast.nodes), dict(slow.nodes)
                fast.observe(scene, node, confusion, fast_rng)
                observe_reperceiving(slow, scene, node, confusion, slow_rng)
                assert list(fast.nodes) == list(slow.nodes)
                for nid, belief in fast.nodes.items():
                    assert belief.row == slow.nodes[nid].row
                    # a belief object is kept or replaced on the same arrivals
                    assert (belief is fast_before.get(nid)) == (slow.nodes[nid] is slow_before.get(nid))
                    assert fast.status(nid) == slow.status(nid)
                assert visited_ids(fast) == visited_ids(slow)
                assert navigable_ids(fast) == navigable_ids(slow)
                assert (fast.visited, fast.navigable, fast.rows) == (slow.visited, slow.navigable, slow.rows)
                assert [(a, list(near.items())) for a, near in id_keyed(fast).items()] == [
                    (a, list(near.items())) for a, near in id_keyed(slow).items()
                ]
                assert (fast.current, fast.step) == (slow.current, slow.step)
                # the same draws in the same order leave the same generator state
                assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
                options = sorted(scene.neighbors(node))
                node = options[int(rng.integers(len(options)))][0]
            assert revisits > 100


@st.composite
def scene_walks(draw):
    """(scene, start, hop choices, sampled-model choices): a connected random
    scene whose ids are numbers in shuffled order ("x10" sorts before "x2"),
    so the map's index order is not its id order."""
    n = draw(st.integers(2, 12))
    n_types = draw(st.integers(2, 4))
    ids = [f"x{p}" for p in draw(st.permutations(range(n)))]
    nodes = [(nid, "r0", draw(st.integers(0, n_types - 1))) for nid in ids]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs |= {
        (a, b) for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        if a < b
    }
    edges = [(ids[a], ids[b], draw(st.floats(0.5, 5.0))) for a, b in sorted(pairs)]
    scene = make_scene(nodes, edges, n_types=n_types)
    hops = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=25))
    shifted = draw(st.lists(st.booleans(), min_size=len(hops) + 1, max_size=len(hops) + 1))
    return scene, ids[draw(st.integers(0, n - 1))], hops, shifted


class TestIndexedState:
    """The map's index lists and row list against their slow definitions."""

    @staticmethod
    def assert_state_matches_definition(topo, arrived, known):
        index = topo.index
        assert topo.navigable == [index[i] for i in sorted(navigable_ids(topo))]
        assert topo.visited == [index[i] for i in sorted(visited_ids(topo))]
        assert topo.rows == [topo.nodes[i].row for i in topo.ids]
        # the statuses themselves, from the walk alone
        assert visited_ids(topo) == arrived
        assert navigable_ids(topo) == known - arrived
        assert balance_features(topo) == features_from_sets(topo)

    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(walk=scene_walks())
    def test_lists_follow_every_arrival(self, mode, walk):
        scene, node, hops, shifted = walk
        n_types = scene.n_types
        if mode == "distribution":
            models = [ConfusionModel.eps_uniform(n_types, 0.3)] * 2
            shifted = [False] * len(shifted)
        else:
            # the second model perceives type t as t + 1, so an arrival under it
            # moves every node it reaches that the first model perceived onto
            # another row; the walk starts under the first and moves under the second
            models = [ConfusionModel.identity(n_types, "sampled"),
                      ConfusionModel(np.roll(np.eye(n_types), 1, axis=1), "sampled")]
            shifted = [False, True] + shifted[2:]
        rng = np.random.default_rng(0)
        topo = SemanticTopoMap()
        arrived, known, moved = set(), set(), 0
        for k in range(len(hops) + 1):
            rows_before = list(topo.rows)
            topo.observe(scene, node, models[shifted[k]], rng)
            moved += sum(a != b for a, b in zip(rows_before, topo.rows))
            arrived.add(node)
            known |= {node} | {nbr for nbr, _ in scene.neighbors(node)}
            assert (topo.current, topo.step) == (node, k + 1)
            self.assert_state_matches_definition(topo, arrived, known)
            if k < len(hops):
                options = sorted(scene.neighbors(node))
                node = options[hops[k] % len(options)][0]
        assert moved > 0 if mode == "sampled" else moved == 0


def features_from_sets(topo):
    """balance_features' definition: the lengths of the navigable id lists."""
    known = max(len(topo.nodes), 1)
    F, C = topo.navigable_sets()
    values = (len(visited_ids(topo)) / known, len(C) / known, len(F) / max(len(C), 1), float(topo.step))
    return dict(zip(BALANCE_FEATURES, values))


class TestNavigableSets:
    def test_balance_features_match_navigable_set_lengths(self, rng):
        local = 0
        for _ in range(300):
            topo = random_map(rng, int(rng.integers(1, 30)))
            topo.step = int(rng.integers(0, 50))
            features = balance_features(topo)
            assert features == features_from_sets(topo)
            local += 0 < features["local_fraction"] < 1
        assert local > 50

    def test_empty_map_has_empty_sets(self):
        topo = SemanticTopoMap()
        F, C = topo.navigable_sets()
        assert F == [] and C == []
        assert balance_features(topo) == dict.fromkeys(BALANCE_FEATURES, 0.0)

    def test_first_step_local_equals_global(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        F, C = topo.navigable_sets()
        assert F == C == ["n1", "n2"]

    def test_frontier_left_behind_is_global_only(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        topo.observe(scene, "n2", ORACLE, None)
        F, C = topo.navigable_sets()
        assert "n1" in C and "n1" not in F
        assert "n3" in F

    def test_local_subset_of_global_over_random_walks(self, rng):
        scene = star_scene()
        for trial in range(20):
            topo = SemanticTopoMap()
            topo.observe(scene, "hub", ORACLE, None)
            for _ in range(6):
                F, C = topo.navigable_sets()
                assert set(F) <= set(C)
                assert F == sorted(F) and C == sorted(C)
                options = F or C
                if not options:
                    break
                nxt = options[int(rng.integers(len(options)))]
                route = topo.route_to(topo.shortest_paths(), nxt)
                for hop in route[1:]:
                    topo.observe(scene, hop, ORACLE, None)


class TestShortestPaths:
    def test_path_graph_distances_and_hops(self):
        scene = make_scene(
            [("a", "r0", 0), ("b", "r0", 0), ("c", "r0", 0)],
            [("a", "b", 1.0), ("b", "c", 2.0)],
        )
        topo = SemanticTopoMap()
        for node in ["a", "b", "c"]:
            topo.observe(scene, node, ORACLE, None)
        table = topo.shortest_paths("a")
        assert table.distance("c") == 3.0
        assert id_keyed(table)[1]["c"] == "b"
        assert table.distance("a") == 0.0
        assert topo.route_to(topo.shortest_paths(), "a") == ["c", "b", "a"]

    def test_disconnected_fragment_is_infinite(self):
        topo = random_map(np.random.default_rng(0), 4)
        topo.add_node("island", NAVIGABLE, TypeBelief("island", np.array([1.0])))
        table = topo.shortest_paths()
        assert math.isinf(table.distance("island"))
        assert "island" not in id_keyed(table)[1]
        with pytest.raises(ValueError, match="unreachable"):
            topo.route_to(table, "island")

    def test_matches_dijkstra_oracle_on_random_maps(self, rng):
        for trial in range(10):
            topo = random_map(rng, 50)
            edges = topo.snapshot()["edges"]
            for source in topo.nodes:
                table = topo.shortest_paths(source)
                want = dijkstra_single_source(list(topo.nodes), edges, source)
                for dest in topo.nodes:
                    assert abs(table.distance(dest) - want[dest]) <= 1e-9

    def test_table_symmetric_and_triangle(self, rng):
        topo = random_map(rng, 20)
        tables = topo.all_pairs_shortest_paths()
        ids = sorted(tables)
        d = np.array([[tables[s].distance(t) for t in ids] for s in ids])
        assert np.all(np.abs(d - d.T) <= 1e-9)
        for k in range(len(ids)):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)

    def test_equal_routes_break_ties_by_settle_order(self):
        # b is settled before c (same distance, smaller id), so d's route goes
        # through b whatever order the edges were added in
        for order in (
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
            [("c", "d"), ("a", "c"), ("b", "d"), ("a", "b")],
        ):
            topo = diamond_map(order)
            assert topo.route_to(topo.shortest_paths(), "d") == ["a", "b", "d"]
            assert topo.route_to(topo.shortest_paths(), "d") == ["a", "b", "d"]


class TestRouteTo:
    def test_goal_is_current(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        table = topo.shortest_paths()
        assert topo.route_to(table, "hub") == ["hub"]

    def test_adjacent_goal(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        table = topo.shortest_paths()
        assert topo.route_to(table, "n1") == ["hub", "n1"]

    def test_route_length_matches_table_and_is_simple(self, rng):
        for trial in range(15):
            topo = random_map(rng, 25)
            table = topo.shortest_paths()
            ids = sorted(topo.nodes)
            goal = ids[int(rng.integers(len(ids)))]
            if not math.isfinite(table.distance(goal)):
                continue
            route = topo.route_to(table, goal)
            assert len(set(route)) == len(route)
            adj = id_keyed(topo)
            total = sum(adj[a][b] for a, b in zip(route, route[1:]))
            assert math.isclose(total, table.distance(goal), rel_tol=1e-12, abs_tol=1e-12)

    def test_unknown_goal_rejected(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        table = topo.shortest_paths()
        with pytest.raises(ValueError, match="known"):
            topo.route_to(table, "ghost")

    def test_stale_table_rejected(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        table = topo.shortest_paths()
        topo.observe(scene, "n2", ORACLE, None)
        with pytest.raises(ValueError, match="current node"):
            topo.route_to(table, "n3")

    def test_table_from_another_map_rejected(self):
        scene = star_scene()
        topo, twin = SemanticTopoMap(), SemanticTopoMap()
        for m in (topo, twin):
            m.observe(scene, "hub", ORACLE, None)
        table = twin.shortest_paths()
        with pytest.raises(ValueError, match="another map"):
            topo.route_to(table, "n1")
        with pytest.raises(ValueError, match="another map"):
            topo.route_sums(table, [], [topo.index["n1"]])

    def test_table_built_before_the_map_grew_rejected(self):
        scene = star_scene()
        for grow in (
            lambda topo: topo.add_node("x", NAVIGABLE, TypeBelief("x", np.array([1.0]))),
            lambda topo: topo.add_edge("n1", "n2", 1.0),
        ):
            topo = SemanticTopoMap()
            topo.observe(scene, "hub", ORACLE, None)
            table = topo.shortest_paths()
            grow(topo)
            with pytest.raises(ValueError, match="before the map grew"):
                topo.route_to(table, "n1")
            with pytest.raises(ValueError, match="before the map grew"):
                topo.route_sums(table, [], [topo.index["n1"]])

    def test_snapshot_is_json_friendly(self):
        import json

        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        json.dumps(topo.snapshot())


def visited_scores(rng, topo):
    """Scores of mixed sign and magnitude, so that a changed addition order
    shows in the last bits; some are -0.0, which a sum from 0 turns into 0.0."""
    scores = {}
    for nid in sorted(visited_ids(topo)):
        scores[nid] = -0.0 if rng.random() < 0.1 else float(rng.normal() * 10.0 ** rng.integers(-6, 7))
    return scores


def by_index(topo, scores):
    """An id-keyed score dict as route_sums' list by node index."""
    return [scores.get(nid) for nid in topo.ids]


class TestRouteSums:
    def test_matches_per_candidate_oracle_bit_for_bit(self, rng):
        for trial in range(250):
            topo = random_map(rng, int(rng.integers(1, 41)))
            table = topo.shortest_paths()
            weights = visited_scores(rng, topo)
            goals = sorted(topo.nodes)
            sums = topo.route_sums(table, by_index(topo, weights), [topo.index[g] for g in goals])
            prev = id_keyed(table)[1]
            for goal in goals:
                got = sums[topo.index[goal]]
                want = route_visited_sum(prev, topo.current, goal, weights)
                assert got == want and math.copysign(1, got) == math.copysign(1, want)

    def test_weights_must_cover_the_map(self, rng):
        topo = random_map(rng, 6)
        table = topo.shortest_paths()
        with pytest.raises(ValueError, match="5 weights for a map of 6 nodes"):
            topo.route_sums(table, [0.0] * 5, [1])

    def test_unreachable_goal_rejected(self, rng):
        topo = random_map(rng, 4)
        topo.add_node("island", NAVIGABLE, TypeBelief("island", np.array([1.0])))
        table = topo.shortest_paths()
        with pytest.raises(ValueError, match="goal 'island' is unreachable"):
            topo.route_sums(table, [0.0] * 5, [topo.index["island"]])

    def test_broken_predecessor_chain_raises(self, rng):
        topo = random_map(rng, 12)
        table = topo.shortest_paths()
        weights = by_index(topo, visited_scores(rng, topo))
        prev = id_keyed(table)[1]
        far = max((n for n in prev if prev[n] != topo.current), key=table.distance)
        hop = prev[far]
        table.prev[topo.index[hop]] = -1  # hop loses its predecessor
        with pytest.raises(InternalError, match="broken predecessor chain"):
            topo.route_sums(table, weights, [topo.index[far]])
        table.prev[topo.index[hop]] = topo.index[far]  # a cycle that never reaches the current node
        with pytest.raises(InternalError, match="broken predecessor chain"):
            topo.route_sums(table, weights, [topo.index[far]])

    def test_stale_table_rejected(self):
        scene = star_scene()
        topo = SemanticTopoMap()
        topo.observe(scene, "hub", ORACLE, None)
        table = topo.shortest_paths()
        topo.observe(scene, "n2", ORACLE, None)
        with pytest.raises(ValueError, match="current node"):
            topo.route_sums(table, [], [topo.index["n3"]])
