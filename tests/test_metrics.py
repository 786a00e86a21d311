import math

import pytest

from hspr.metrics import (
    EpisodeMetrics,
    aggregate_report,
    episode_metrics,
    format_report_table,
    report_to_payload,
    save_report,
)
from hspr.simulator import Trajectory
from hspr.synth import Episode

from conftest import make_scene


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

    def test_episode_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            episode_metrics(
                traj(["a", "b", "c", "d"], "d"),
                Episode("other", "test", "a", "d", "d-obj", 6.0, 1),
                path_scene(),
            )


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
