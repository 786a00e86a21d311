"""Tests of the benchmark harness itself: span accounting, the tail rule,
wrapper removal, the trajectory digest gate and the host adjustment."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import hspr.perception  # noqa: E402
import hspr.reasoner  # noqa: E402
import hspr.simulator  # noqa: E402
import hspr.topo  # noqa: E402
from hspr.bench import standard_benchmark  # noqa: E402
from hspr.perception import ConfusionModel  # noqa: E402
from hspr.simulator import AgentConfig, save_trajectories  # noqa: E402
from perfbench import gate, hostspeed, tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    t.enter("outer")          # 0
    clock.now = 1.0
    t.enter("mid")            # 1
    clock.now = 3.0
    t.enter("leaf")           # 3
    clock.now = 7.0
    t.exit()                  # leaf: 4
    clock.now = 8.0
    t.exit()                  # mid: 7 total, 3 self
    t.enter("leaf")           # 8
    clock.now = 10.0
    t.exit()                  # leaf: 2
    clock.now = 10.5
    t.exit()                  # outer: 10.5 total, 10.5 - 7 - 2 = 1.5 self
    assert t.calls == {"outer": 1, "mid": 1, "leaf": 2}
    assert t.self_s == pytest.approx({"outer": 1.5, "mid": 3.0, "leaf": 6.0})
    assert sum(t.self_s.values()) == pytest.approx(10.5)
    assert t.stack == []


def test_tail_percentile_leaves_ten_samples_beyond():
    assert gate.tail_percentile(100) == 90
    assert gate.tail_percentile(500) == 98
    assert gate.tail_percentile(1000) == 99
    assert gate.tail_percentile(95) == 89
    for n in (20, 95, 100, 137, 500, 1000):
        p = gate.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
        assert n * (100 - (p + 1)) / 100 < 10
    with pytest.raises(ValueError):
        gate.tail_percentile(15)


@pytest.fixture(scope="module")
def tiny():
    scenes, episodes, kb = standard_benchmark(n_scenes=2, episodes_per_scene=2, seed=3)
    agent = AgentConfig(confusion=ConfusionModel.eps_uniform(len(kb.type_vocabulary), 0.2), seed=3)
    return scenes, episodes, kb, agent


def _jsonl(trajectories, path):
    save_trajectories(trajectories, path)
    return path.read_bytes()


def test_wrappers_are_removed_before_untraced_runs(tiny, tmp_path):
    scenes, episodes, kb, agent = tiny
    originals = {
        "simulator.enumerate_type_paths": hspr.simulator.enumerate_type_paths,
        "reasoner.enumerate_type_paths": hspr.reasoner.enumerate_type_paths,
        "SemanticTopoMap.all_pairs_shortest_paths": hspr.topo.SemanticTopoMap.all_pairs_shortest_paths,
        "TypeBelief.__init__": hspr.perception.TypeBelief.__init__,
    }
    untraced = _jsonl(hspr.simulator.run_batch(scenes, episodes, kb, agent).trajectories, tmp_path / "a")

    tracer = tracing.Tracer()
    with tracer:
        assert hspr.simulator.enumerate_type_paths is not originals["simulator.enumerate_type_paths"]
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
        traced = _jsonl(hspr.simulator.run_batch(scenes, episodes, kb, agent).trajectories, tmp_path / "b")
    assert tracer.calls["simulator.run_episode"] == len(episodes)
    assert tracer.calls["reasoner.enumerate_type_paths"] > 0
    assert tracer.calls["perception.TypeBelief"] > 0
    assert traced == untraced

    tracing.assert_untraced()
    assert hspr.simulator.enumerate_type_paths is originals["simulator.enumerate_type_paths"]
    assert hspr.reasoner.enumerate_type_paths is originals["reasoner.enumerate_type_paths"]
    assert hspr.topo.SemanticTopoMap.all_pairs_shortest_paths is originals["SemanticTopoMap.all_pairs_shortest_paths"]
    assert hspr.perception.TypeBelief.__init__ is originals["TypeBelief.__init__"]
    before = dict(tracer.calls)
    hspr.simulator.run_batch(scenes, episodes, kb, agent)
    assert dict(tracer.calls) == before


def test_digest_check_rejects_one_changed_value(tiny, tmp_path):
    scenes, episodes, kb, agent = tiny
    trajectories = hspr.simulator.run_batch(scenes, episodes, kb, agent).trajectories
    save_trajectories(trajectories, tmp_path / "ref.jsonl")
    quality = {"SR": 75.0, "SPL": 60.5, "RGS": 50.0}
    expected = {"house": {"3": {"digest": gate.trajectory_digest(tmp_path / "ref.jsonl"), "quality": quality}}}
    assert gate.check_expected(expected, "house", 3, gate.trajectory_digest(tmp_path / "ref.jsonl"), quality) == []

    trajectories[1].total_length += 1e-9
    save_trajectories(trajectories, tmp_path / "changed.jsonl")
    errors = gate.check_expected(expected, "house", 3, gate.trajectory_digest(tmp_path / "changed.jsonl"), quality)
    assert len(errors) == 1 and "digest" in errors[0]

    errors = gate.check_expected(
        expected, "house", 3, gate.trajectory_digest(tmp_path / "ref.jsonl"), {**quality, "SPL": 60.500001}
    )
    assert len(errors) == 1 and "quality.SPL" in errors[0]


def test_layer_metrics_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    emitted = set(tracing.layer_metrics(tracing.Tracer())) | {
        "simulator.run_batch.job_bytes", "trace.overhead_ratio",
    }
    assert emitted == set(per_layer)
    assert all(tracing.unit_of(name) == unit for name, unit in per_layer.items())


def test_host_adjustment_reads_each_span_at_its_own_host_speed():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_MS
    # the host runs at reference speed until t=10, then twice as slow from t=12
    host.at = [0.0, 10.0, 12.0, 20.0]
    host.samples_ms = [ref, ref, 2 * ref, 2 * ref]
    assert host.adjusted_s((2.0, 6.0)) == pytest.approx(4.0)
    assert host.adjusted_s((14.0, 18.0)) == pytest.approx(2.0)
    # a span with no sample inside it takes the line between its neighbours
    assert host.level_ms(10.0, 12.0) == pytest.approx(1.5 * ref)
    # outside the samples, the nearest one holds
    assert host.adjusted_s((20.0, 24.0)) == pytest.approx(2.0)
    assert host.factor() == pytest.approx((10 * 1 + 2 * 1.5 + 8 * 2) / 20)
