import dataclasses
import heapq
import math
import random
import types

import pytest

import hspr.scene
from hspr.metrics import (
    EpisodeMetrics,
    aggregate_report,
    episode_metrics,
    evaluate,
    format_report_table,
    report_to_payload,
    save_report,
)
from hspr.scene import load_scene
from hspr.simulator import Trajectory, load_trajectories
from hspr.synth import Episode, load_episodes

from conftest import cli_in_process, make_scene, same_float
from oracles import geodesic_distances, id_keyed


def path_scene():
    # a -2m- b -2m- c -2m- d, target object and one other object at d
    return make_scene(
        [
            ("a", "r0", 0, (0.0, 0.0, 0.0)),
            ("b", "r0", 0, (2.0, 0.0, 0.0)),
            ("c", "r1", 1, (4.0, 0.0, 0.0)),
            ("d", "r1", 1, (6.0, 0.0, 0.0), [("d-obj", 2, 0), ("d-lamp", 3, 1)]),
        ],
        [("a", "b", 2.0), ("b", "c", 2.0), ("c", "d", 2.0)],
    )


def traj(nodes, stop, selected="d-obj", policy="hspr"):
    lengths = {("a", "b"): 2.0, ("b", "c"): 2.0, ("c", "d"): 2.0}
    total = 0.0
    for x, y in zip(nodes, nodes[1:]):
        total += lengths[tuple(sorted((x, y)))]
    return Trajectory(
        episode_id="e0",
        policy=policy,
        node_sequence=nodes,
        action_sequence=[n for n in nodes[1:]] + ["<stop>"],
        stop_node=stop,
        selected_object=selected,
        total_length=total,
    )


EPISODE = Episode("e0", "test", "a", "d", "d-obj", 6.0, 1)


class TestEpisodeMetrics:
    def test_perfect_run(self):
        m = episode_metrics(traj(["a", "b", "c", "d"], "d"), EPISODE, path_scene())
        assert m.ne == 0.0
        assert m.success and m.oracle_success and m.rgs
        assert m.spl == 1.0 and m.rgspl == 1.0
        assert m.tl == 6.0

    def test_wandering_discounts_spl(self):
        # wander a-b-a-b-c-d: tl = 10 vs L = 6
        m = episode_metrics(traj(["a", "b", "a", "b", "c", "d"], "d"), EPISODE, path_scene())
        assert m.success
        assert math.isclose(m.spl, 0.6)

    def test_double_length_halves_spl(self):
        walk = traj(["a", "b", "c", "d"], "d")
        walk.total_length = 12.0
        m = episode_metrics(walk, EPISODE, path_scene())
        assert m.success
        assert math.isclose(m.spl, 0.5)

    def test_ne_exactly_at_threshold_fails(self):
        # stopping at b leaves geodesic distance 4 > 3; stopping at c leaves 2 < 3
        scene = path_scene()
        m_b = episode_metrics(traj(["a", "b"], "b", selected=None), EPISODE, scene)
        assert not m_b.success
        m_c = episode_metrics(traj(["a", "b", "c"], "c", selected=None), EPISODE, scene)
        assert m_c.success and not m_c.rgs
        # exact threshold: target 3.0 m away -> strict less-than fails
        edge_scene = make_scene(
            [("a", "r0", 0), ("t", "r1", 1, (3.0, 0.0, 0.0), [("t-o", 0, 0)])],
            [("a", "t", 3.0)],
        )
        ep = Episode("e0", "test", "a", "t", "t-o", 3.0, 1)
        stay = Trajectory("e0", "hspr", ["a"], [], "a", None, 0.0)
        m = episode_metrics(stay, ep, edge_scene)
        assert m.ne == 3.0
        assert not m.success

    def test_oracle_success_from_any_traversed_node(self):
        # passes within threshold at c but retreats to a
        m = episode_metrics(traj(["a", "b", "c", "b", "a"], "a", selected=None), EPISODE, path_scene())
        assert not m.success
        assert m.oracle_success

    def test_rgs_requires_right_object(self):
        m = episode_metrics(
            traj(["a", "b", "c", "d"], "d", selected="d-lamp"), EPISODE, path_scene()
        )
        assert m.success and not m.rgs
        assert m.rgspl == 0.0

    @pytest.mark.parametrize("selected", ["other", "d-obj"])
    def test_object_not_at_stop_node_rejected(self, selected):
        # "other" is nowhere in the scene; "d-obj" is, but not at c
        with pytest.raises(ValueError, match="selected_object"):
            episode_metrics(traj(["a", "b", "c"], "c", selected=selected), EPISODE, path_scene())

    def test_euclidean_mode(self):
        m = episode_metrics(
            traj(["a", "b", "c"], "c", selected=None), EPISODE, path_scene(), ne_mode="euclidean"
        )
        assert math.isclose(m.ne, 2.0)

    def test_zero_spl_on_failure(self):
        m = episode_metrics(traj(["a", "b"], "b", selected=None), EPISODE, path_scene())
        assert m.spl == 0.0

    def test_unknown_node_rejected(self):
        bad = Trajectory("e0", "hspr", ["a", "ghost"], ["ghost"], "ghost", None, 1.0)
        with pytest.raises(ValueError, match="ghost"):
            episode_metrics(bad, EPISODE, path_scene())

    @pytest.mark.parametrize(
        "nodes, stop, field",
        [
            ([], "a", "node_sequence is empty"),
            (["a", "b", "c"], "b", "stop_node 'b' is not the last node"),
            (["b", "c"], "c", "start_node 'a'"),
        ],
        ids=["node_sequence_empty", "stop_node_not_last", "start_node_elsewhere"],
    )
    def test_walk_without_usable_ends_rejected(self, nodes, stop, field):
        bad = Trajectory("e0", "hspr", nodes, [], stop, None, 0.0)
        for ne_mode in ("geodesic", "euclidean"):
            with pytest.raises(ValueError, match=field):
                episode_metrics(bad, EPISODE, path_scene(), ne_mode=ne_mode)

    def test_unknown_target_rejected(self):
        ghost = Episode("e0", "test", "a", "ghost", "d-obj", 6.0, 1)
        with pytest.raises(ValueError, match="unknown node 'ghost'"):
            episode_metrics(traj(["a", "b"], "b", selected=None), ghost, path_scene())

    def test_episode_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            episode_metrics(
                traj(["a", "b", "c", "d"], "d"),
                Episode("other", "test", "a", "d", "d-obj", 6.0, 1),
                path_scene(),
            )

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_bad_shortest_length_is_an_input_error(self, length):
        episode = dataclasses.replace(EPISODE, shortest_length=length)
        with pytest.raises(ValueError, match=f"episode e0: shortest_length .* got {length}"):
            episode_metrics(traj(["a", "b", "c", "d"], "d"), episode, path_scene())


def full_search_metrics(trajectory, episode, scene, threshold, ne_mode):
    """The former scoring: one full search from the target, read at every hop."""
    if ne_mode == "geodesic":
        dist = geodesic_distances(scene, episode.target_node)
        ne = dist[trajectory.stop_node]
        nearest = min(dist[nid] for nid in trajectory.node_sequence)
    else:
        tp = scene.node(episode.target_node).position
        ne = math.dist(scene.node(trajectory.stop_node).position, tp)
        nearest = min(math.dist(scene.node(nid).position, tp) for nid in trajectory.node_sequence)
    L, tl = episode.shortest_length, trajectory.total_length
    success = ne < threshold
    rgs = success and trajectory.selected_object == episode.target_object
    return EpisodeMetrics(
        episode.episode_id, tl, ne, success, nearest < threshold,
        L / max(L, tl) if success else 0.0, rgs, L / max(L, tl) if rgs else 0.0,
    )


def assert_same_metrics(got, want):
    for f in dataclasses.fields(EpisodeMetrics):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert same_float(a, b), (f.name, a, b)
        else:
            assert a == b, (f.name, a, b)


TIE_PRONE_LENGTHS = [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1.0, 0.1 + 0.2, 2.5]


def random_scene(rng, n, lengths, grid=False):
    """A connected scene of n nodes (a w x h grid when grid) with 0-2 objects each."""
    if grid:
        w = int(rng.integers(2, 7))
        n = w * max(1, n // w)
        pairs = {(i, i + 1) for i in range(n) if (i + 1) % w} | {(i, i + w) for i in range(n - w)}
    else:
        pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
        for _ in range(int(rng.integers(0, 2 * n))):
            pairs.add(tuple(sorted(int(k) for k in rng.choice(n, 2, replace=False))))
    ids = [f"n{i}" for i in range(n)]
    nodes = [
        (nid, "r0", 0, tuple(float(v) for v in rng.uniform(-5, 5, 3)),
         [(f"{nid}-o{k}", 0, 0) for k in range(int(rng.integers(3)))])
        for nid in ids
    ]
    edges = [(ids[i], ids[j], float(rng.choice(lengths))) for i, j in sorted(pairs)]
    return make_scene(nodes, edges)


def random_walk(rng, scene, start, hops):
    walk = [start]
    for _ in range(hops):
        nbrs = [nbr for nbr, _ in scene.neighbors(walk[-1])]
        if not nbrs:
            break
        walk.append(nbrs[int(rng.integers(len(nbrs)))])
    return walk


def random_case(rng, scene, walk):
    """(trajectory, episode) for a walk; the target is the stop node, a walked
    node or any node, and the selected object is one at the stop node or none."""
    ids = scene.node_ids()
    target = [walk[-1], walk[int(rng.integers(len(walk)))], ids[int(rng.integers(len(ids)))]][
        int(rng.integers(3))
    ]
    target_objects = [o.object_id for o in scene.node(target).objects] or ["none"]
    stop_objects = [None, *(o.object_id for o in scene.node(walk[-1]).objects)]
    L = geodesic_distances(scene, walk[0])[target]
    adj = id_keyed(scene)
    total = float(sum(adj.get(a, {}).get(b, 1.0) for a, b in zip(walk, walk[1:])))
    trajectory = Trajectory(
        "e0", "hspr", walk, [*walk[1:], "<stop>"], walk[-1],
        stop_objects[int(rng.integers(len(stop_objects)))], total,
    )
    episode = Episode(
        "e0", scene.scene_id, walk[0], target, target_objects[0],
        L if 0 < L < math.inf else 1.0, 0,
    )
    return trajectory, episode


def check_against_full_search(rng, scene, trajectory, episode):
    dist = geodesic_distances(scene, episode.target_node)
    finite = [d for d in dist.values() if d < math.inf]
    # thresholds on a walked node's distance make NE == threshold occur
    for threshold in (float(rng.choice(finite)) or 1.0, float(rng.uniform(0.1, 10.0))):
        for ne_mode in ("geodesic", "euclidean"):
            assert_same_metrics(
                episode_metrics(trajectory, episode, scene, threshold, ne_mode),
                full_search_metrics(trajectory, episode, scene, threshold, ne_mode),
            )


class TestEarlyStopAgainstFullSearch:
    """Scoring stops its search at the stop node; every metric must equal the
    one read from a full search, bit for bit."""

    @pytest.mark.parametrize("grid", [False, True], ids=["random", "unit_grid"])
    def test_random_scenes_and_walks(self, rng, grid):
        for _ in range(150):
            lengths = [1.0] if grid else TIE_PRONE_LENGTHS
            scene = random_scene(rng, int(rng.integers(2, 30)), lengths, grid=grid)
            ids = scene.node_ids()
            walk = random_walk(rng, scene, ids[int(rng.integers(len(ids)))], int(rng.integers(0, 40)))
            check_against_full_search(rng, scene, *random_case(rng, scene, walk))

    def test_large_scenes(self, rng, large_scenes):
        scenes, episodes, _ = large_scenes
        for episode in episodes:
            scene = scenes[episode.scene_id]
            for _ in range(25):
                walk = random_walk(rng, scene, episode.start_node, int(rng.integers(0, 80)))
                check_against_full_search(rng, scene, *random_case(rng, scene, walk))

    def test_unreachable_stop_node(self, rng):
        # two components; walks may jump between them, as a built Trajectory can
        scene = make_scene(
            [("a", "r0", 0), ("b", "r0", 0), ("c", "r0", 0),
             ("x", "r1", 1), ("y", "r1", 1, (9.0, 0.0, 0.0), [("y-o", 0, 0)])],
            [("a", "b", 0.1), ("b", "c", 0.2), ("a", "c", 0.3), ("x", "y", 1.0)],
            validate=False,
        )
        for _ in range(100):
            near = random_walk(rng, scene, "abc"[int(rng.integers(3))], int(rng.integers(0, 6)))
            far = random_walk(rng, scene, "xy"[int(rng.integers(2))], int(rng.integers(0, 6)))
            walk = (near + far) if rng.random() < 0.5 else far
            trajectory, _ = random_case(rng, scene, walk)
            episode = Episode("e0", "test", walk[0], "abc"[int(rng.integers(3))], "none", 1.0, 0)
            assert episode_metrics(trajectory, episode, scene).ne == math.inf
            check_against_full_search(rng, scene, trajectory, episode)


def test_search_stops_at_the_stop_node(monkeypatch):
    # a walk that stops next to the target settles the target and the stop node only
    pops = []

    def counting_heappop(heap):
        pops.append(heap[0])
        return heapq.heappop(heap)

    monkeypatch.setattr(
        hspr.scene, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=counting_heappop)
    )
    m = episode_metrics(traj(["a", "b", "c"], "c", selected=None), EPISODE, path_scene())
    assert m.ne == 2.0 and m.success
    assert 0 < len(pops) <= 3


def fake_metric(i, success, spl, rgs=None, oracle=None):
    rgs = success if rgs is None else rgs
    return EpisodeMetrics(
        episode_id=f"e{i}",
        tl=10.0 + i,
        ne=0.5 * i,
        success=success,
        oracle_success=success if oracle is None else oracle,
        spl=spl,
        rgs=rgs,
        rgspl=spl if rgs else 0.0,
    )


class TestAggregateReport:
    def test_single_episode_aggregates_equal_it(self):
        report = aggregate_report([fake_metric(0, True, 0.8)])
        assert report.aggregates["SR"] == 100.0
        assert math.isclose(report.aggregates["SPL"], 80.0)
        assert report.aggregates["TL"] == 10.0

    def test_two_episode_mean(self):
        report = aggregate_report([fake_metric(0, True, 1.0), fake_metric(1, False, 0.0)])
        assert report.aggregates["SPL"] == 50.0
        assert report.aggregates["SR"] == 50.0

    def test_matches_naive_resummation(self, rng):
        ms = [
            fake_metric(i, bool(rng.integers(2)), float(rng.uniform()), rgs=bool(rng.integers(2)))
            for i in range(100)
        ]
        report = aggregate_report(ms)
        n = len(ms)
        assert math.isclose(report.aggregates["TL"], sum(m.tl for m in ms) / n)
        assert math.isclose(report.aggregates["NE"], sum(m.ne for m in ms) / n)
        assert math.isclose(report.aggregates["SR"], 100 * sum(m.success for m in ms) / n)
        assert math.isclose(report.aggregates["SPL"], 100 * sum(m.spl for m in ms) / n)
        assert math.isclose(report.aggregates["RGS"], 100 * sum(m.rgs for m in ms) / n)

    def test_means_do_not_depend_on_python312_sum(self, python312_sum):
        # 1e16 + 1.0 rounds back to 1e16: an addition at a time loses the 1.0
        # that a compensated sum keeps
        ms = [dataclasses.replace(fake_metric(i, True, 1.0), tl=tl) for i, tl in enumerate((1e16, 1.0, -1e16))]
        assert aggregate_report(ms).aggregates["TL"] == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_report([])

    def test_report_files_and_layout(self, tmp_path):
        report = aggregate_report([fake_metric(0, True, 0.75)], config={"threshold": 3.0})
        save_report(report, tmp_path / "report.json", tmp_path / "report.txt")
        text = (tmp_path / "report.txt").read_text()
        header = text.splitlines()[0].split()
        assert header[1:] == ["TL", "NE", "OSR", "SR", "SPL", "RGS", "RGSPL"]
        payload = report_to_payload(report)
        assert payload["aggregates"]["SPL"] == 75.0
        assert payload["config"] == {"threshold": 3.0}

    def test_table_handles_multiple_rows(self):
        rows = [
            ("steps=1", aggregate_report([fake_metric(0, True, 0.5)]).aggregates),
            ("steps=3", aggregate_report([fake_metric(0, True, 0.9)]).aggregates),
        ]
        table = format_report_table(rows, label="steps")
        assert table.splitlines()[0].startswith("steps")
        assert len(table.splitlines()) == 4


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    """The CLI tests' generated world, with one run: (trajectories, episodes, scenes)."""
    root = tmp_path_factory.mktemp("world")
    for argv in [
        ("gen-scenes", "--kb", "house", "--n", "5", "--seed", "7", "--out", root / "scenes"),
        ("gen-episodes", "--scenes", root / "scenes", "--per-scene", "2", "--seed", "3",
         "--out", root / "episodes.json"),
        ("build-kb", "--scenes", root / "scenes", "--out", root / "kb.json"),
        ("run", "--scenes", root / "scenes", "--kb", root / "kb.json",
         "--episodes", root / "episodes.json", "--seed", "11", "--out", root / "traj.jsonl"),
    ]:
        assert cli_in_process(*argv) == (0, "")
    scenes = {s.scene_id: s for s in map(load_scene, sorted((root / "scenes").glob("*.json")))}
    return load_trajectories(root / "traj.jsonl"), load_episodes(root / "episodes.json"), scenes


def per_episode_loop(trajectories, episodes, scenes, threshold, ne_mode):
    """The scoring loop `hspr eval` ran before `evaluate`, on covered inputs."""
    by_id = {e.episode_id: e for e in episodes}
    metrics = []
    for t in sorted(trajectories, key=lambda t: t.episode_id):
        episode = by_id[t.episode_id]
        scene = scenes[episode.scene_id]
        metrics.append(episode_metrics(t, episode, scene, threshold=threshold, ne_mode=ne_mode))
    return aggregate_report(
        metrics, config={"threshold": threshold, "ne": ne_mode, "episodes": len(metrics)}
    )


class TestEvaluate:
    def test_refuses_an_episode_without_trajectory(self):
        other = dataclasses.replace(EPISODE, episode_id="e1")
        message = r"^1 of 2 manifest episodes have no trajectory \(first: 'e1'\)$"
        with pytest.raises(ValueError, match=message):
            evaluate([traj(["a", "b", "c", "d"], "d")], [other, EPISODE], {"test": path_scene()})

    def test_refuses_a_trajectory_without_episode(self):
        stray = dataclasses.replace(traj(["a", "b"], "b"), episode_id="stray")
        with pytest.raises(ValueError, match="^trajectory 'stray' has no episode in the manifest$"):
            evaluate([traj(["a", "b", "c", "d"], "d"), stray], [EPISODE], {"test": path_scene()})

    def test_refuses_an_unknown_scene(self):
        with pytest.raises(ValueError, match="^episode 'e0' names unknown scene 'test'$"):
            evaluate([traj(["a", "b", "c", "d"], "d")], [EPISODE], {"other": path_scene()})

    def test_refuses_an_episode_that_does_not_fit_its_scene(self):
        wrong_type = dataclasses.replace(EPISODE, target_type=0)
        with pytest.raises(ValueError, match="episode e0 target_type 0 does not match"):
            evaluate([traj(["a", "b", "c", "d"], "d")], [wrong_type], {"test": path_scene()})

    def test_order_of_inputs_does_not_matter(self, cli_world):
        trajectories, episodes, scenes = cli_world
        shuffler = random.Random(5)
        trajectories, episodes = list(trajectories), list(episodes)
        shuffler.shuffle(trajectories)
        shuffler.shuffle(episodes)
        assert report_to_payload(evaluate(trajectories, episodes, scenes)) == report_to_payload(
            evaluate(*cli_world)
        )

    @pytest.mark.parametrize("threshold, ne_mode", [(3.0, "geodesic"), (1.5, "euclidean")])
    def test_equals_the_per_episode_loop(self, cli_world, threshold, ne_mode):
        got = evaluate(*cli_world, threshold=threshold, ne_mode=ne_mode)
        want = per_episode_loop(*cli_world, threshold, ne_mode)
        assert report_to_payload(got) == report_to_payload(want)
        assert len(got.episodes) == len(cli_world[1]) == 10
