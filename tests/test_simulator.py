import copy
import dataclasses
import hashlib
import json
import logging
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from hspr import reasoner, seeding, simulator
from hspr.bench import standard_benchmark
from hspr.errors import InternalError
from hspr.fusion import STOP, FixedBeta
from hspr.kb import ProximityKB
from hspr.perception import ConfusionModel, TargetSpec, TypeBelief, VisualWeights, object_rows
from hspr.reasoner import (
    ReasonerConfig,
    SuccessorTable,
    TypePath,
    enumerate_type_paths,
)
from hspr.simulator import (
    AgentConfig,
    ground_object,
    load_trajectories,
    run_batch,
    run_episode,
    save_trajectories,
    stop_score,
    trajectory_to_payload,
)
from hspr.synth import Episode
from hspr.topo import SemanticTopoMap

import oracles
from conftest import make_scene, same_float
from oracles import proximity_scores


def mini_kb(n_types=4, n_objects=4):
    P_r = np.full((n_types, n_types), 0.0)
    for a in range(n_types - 1):
        P_r[a, a + 1] = P_r[a + 1, a] = 0.9
    np.fill_diagonal(P_r, 0.35)
    return ProximityKB(
        P_r=P_r,
        P_o=np.eye(n_objects) * 0.95,
        top_objects=[[t] for t in range(n_objects)][:n_types],
        type_vocabulary=[f"type{t}" for t in range(n_types)],
        object_vocabulary=[f"obj{t}" for t in range(n_objects)],
    )


def oracle_agent(**overrides):
    params = dict(
        confusion=ConfusionModel.identity(4),
        visual=VisualWeights(noise_sd=0.0),
        seed=5,
    )
    params.update(overrides)
    return AgentConfig(**params)


def bench_agent(**overrides):
    params = dict(confusion=ConfusionModel.identity(10))
    params.update(overrides)
    return oracle_agent(**params)


@pytest.fixture(scope="module")
def small_bench():
    scenes, episodes, kb = standard_benchmark(n_scenes=6, episodes_per_scene=2)
    return scenes, sorted(episodes, key=lambda e: e.episode_id), kb


class TestRunEpisode:
    def test_adjacent_target_is_one_move_and_stop(self, two_node_scene):
        episode = Episode("e0", "test", "a", "b", "b-obj", 3.0, 1)
        traj = run_episode(two_node_scene, episode, mini_kb(), oracle_agent(), "hspr")
        assert traj.action_sequence == ["b", STOP]
        assert traj.stop_node == "b"
        assert traj.selected_object == "b-obj"
        assert traj.total_length == 3.0

    def test_budget_of_one_forces_stop(self):
        scene = make_scene(
            [("a", "r0", 0), ("b", "r1", 1), ("c", "r2", 2, (2.0, 0.0, 0.0), [("c-obj", 1, 0)])],
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        episode = Episode("e0", "test", "a", "c", "c-obj", 2.0, 2)
        traj = run_episode(scene, episode, mini_kb(), oracle_agent(max_actions=1), "hspr")
        assert len(traj.action_sequence) == 1
        assert traj.action_sequence[0] != STOP

    def test_same_seed_replays_identically(self, small_bench):
        scenes, episodes, kb = small_bench
        episode = episodes[0]
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2),
                             visual=VisualWeights(noise_sd=0.2), seed=77)
        a = run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr", trace=True)
        b = run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr", trace=True)
        assert trajectory_to_payload(a) == trajectory_to_payload(b)

    def test_no_teleports_and_length_adds_up(self, small_bench):
        scenes, episodes, kb = small_bench
        for episode in episodes[:6]:
            scene = scenes[episode.scene_id]
            lengths = {tuple(sorted((a, b))): l for a, b, l in scene.edges}
            traj = run_episode(scene, episode, kb, bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2)), "hspr")
            total = 0.0
            for a, b in zip(traj.node_sequence, traj.node_sequence[1:]):
                key = tuple(sorted((a, b)))
                assert key in lengths
                total += lengths[key]
            assert math.isclose(total, traj.total_length, rel_tol=1e-12, abs_tol=1e-12)

    def test_hop_off_the_known_edges_is_an_internal_error(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        episode = episodes[0]
        original = SemanticTopoMap.route_to

        def stutter(topo, table, goal):
            # the current node twice: its first hop is no edge of the map
            route = original(topo, table, goal)
            return route[:1] + route

        monkeypatch.setattr(SemanticTopoMap, "route_to", stutter)
        start = episode.start_node
        with pytest.raises(InternalError, match=f"route hop '{start}'-'{start}' is not a known edge"):
            run_episode(scenes[episode.scene_id], episode, kb, bench_agent(), "hspr")

    def test_forced_stop_uses_exactly_max_actions(self, small_bench):
        scenes, episodes, kb = small_bench
        episode = episodes[1]
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 1.0),
                             visual=VisualWeights(w_t=0.0, noise_sd=0.0),
                             stop_weights=(0.0, 0.0), max_actions=4)
        traj = run_episode(scenes[episode.scene_id], episode, kb, agent, "visual_only")
        assert len(traj.action_sequence) == 4
        assert STOP not in traj.action_sequence

    def test_oracle_stops_on_target_with_right_object(self, small_bench):
        scenes, episodes, kb = small_bench
        agent = bench_agent()
        for episode in episodes:
            traj = run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr")
            assert traj.stop_node == episode.target_node
            assert traj.selected_object == episode.target_object

    @pytest.mark.parametrize("policy", ["greedy_eta", "visual_only", "random"])
    def test_baseline_policies_run(self, small_bench, policy):
        scenes, episodes, kb = small_bench
        episode = episodes[2]
        traj = run_episode(scenes[episode.scene_id], episode, kb, bench_agent(), policy)
        assert traj.node_sequence[0] == episode.start_node
        assert traj.policy == policy

    @pytest.mark.parametrize("mode", ["average", "dynamic"])
    def test_fusion_variants_run(self, small_bench, mode):
        scenes, episodes, kb = small_bench
        episode = episodes[3]
        traj = run_episode(
            scenes[episode.scene_id], episode, kb, bench_agent(fusion_mode=mode), "hspr"
        )
        assert traj.stop_node in scenes[episode.scene_id].node_ids()

    def test_eq11_literal_changes_scores_not_validity(self, small_bench):
        scenes, episodes, kb = small_bench
        episode = episodes[4]
        traj = run_episode(
            scenes[episode.scene_id], episode, kb, bench_agent(eq11_literal=True), "hspr"
        )
        assert traj.node_sequence[0] == episode.start_node

    def test_random_policy_deterministic(self, small_bench):
        scenes, episodes, kb = small_bench
        episode = episodes[5]
        a = run_episode(scenes[episode.scene_id], episode, kb, bench_agent(seed=3), "random")
        b = run_episode(scenes[episode.scene_id], episode, kb, bench_agent(seed=3), "random")
        assert trajectory_to_payload(a) == trajectory_to_payload(b)

    def test_kb_scene_mismatch_rejected(self, two_node_scene):
        episode = Episode("e0", "test", "a", "b", "b-obj", 3.0, 1)
        bad_kb = mini_kb(n_types=7, n_objects=7)
        with pytest.raises(ValueError, match="vocabularies"):
            run_episode(two_node_scene, episode, bad_kb, oracle_agent(), "hspr")

    def test_confusion_width_mismatch_rejected(self, two_node_scene):
        episode = Episode("e0", "test", "a", "b", "b-obj", 3.0, 1)
        agent = oracle_agent(confusion=ConfusionModel.identity(5))
        with pytest.raises(ValueError, match="confusion model has 5 types, proximity matrix has 4"):
            run_episode(two_node_scene, episode, mini_kb(), agent, "visual_only")

    def test_unknown_policy_rejected(self, two_node_scene):
        episode = Episode("e0", "test", "a", "b", "b-obj", 3.0, 1)
        with pytest.raises(ValueError, match="policy"):
            run_episode(two_node_scene, episode, mini_kb(), oracle_agent(), "clever")

    @pytest.mark.parametrize("mode", ["blend", "Residual", ""])
    def test_unknown_fusion_mode_rejected_when_the_agent_is_built(self, mode):
        # before any episode runs: the scoring loop reads only the three modes
        with pytest.raises(ValueError, match=re.escape(f"unknown fusion mode {mode!r}")):
            oracle_agent(fusion_mode=mode)

    def test_trace_records_steps(self, small_bench):
        scenes, episodes, kb = small_bench
        episode = episodes[0]
        traj = run_episode(scenes[episode.scene_id], episode, kb, bench_agent(), "hspr", trace=True)
        assert traj.steps
        step = traj.steps[0]
        assert {"step", "beta", "l_final", "chosen"} <= set(step)

    def test_average_fusion_traces_the_beta_it_blends_at(self, small_bench):
        # average fusion pins beta at 0.5, whatever the balance policy gives
        scenes, episodes, kb = small_bench
        agent = bench_agent(fusion_mode="average", beta_policy=FixedBeta(0.7))
        blended = 0
        for episode in episodes:
            traj = run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr", trace=True)
            for step in traj.steps:
                assert step["beta"] == 0.5
                l_c, l_f = step["scores"]["l_c"], step["scores"]["l_f"]
                for i, fused in step["l_final"].items():
                    assert fused == 0.5 * l_c[i] + 0.5 * l_f[i]
                    blended += i != STOP
        assert blended


class TestBeam:
    """The beam sizes only the traced candidate list; the walk takes the top path."""

    @pytest.mark.parametrize("mode", ["residual", "average", "dynamic"])
    @pytest.mark.parametrize("policy", simulator.POLICIES)
    def test_beam_never_moves_the_walk(self, small_bench, monkeypatch, policy, mode):
        scenes, episodes, kb = small_bench
        beams = []

        def recording(present, target_type, table, config):
            beams.append(config.beam)
            return enumerate_type_paths(present, target_type, table, config)

        monkeypatch.setattr(simulator, "enumerate_type_paths", recording)
        digests, widest = set(), {}
        for beam in (1, 3, 5):
            agent = bench_agent(
                confusion=ConfusionModel.eps_uniform(10, 0.2), visual=VisualWeights(noise_sd=0.1),
                fusion_mode=mode, reasoner=ReasonerConfig(max_steps=4, beam=beam),
            )
            for trace in (False, True):
                beams.clear()
                runs = [run_episode(scenes[e.scene_id], e, kb, agent, policy, trace=trace) for e in episodes]
                assert set(beams) == (set() if policy != "hspr" else {beam if trace else 1})
                if trace:
                    widest[beam] = max(
                        len(step.get("candidate_paths") or ()) for t in runs for step in t.steps
                    )
                digests.add(trajectory_digest([dataclasses.replace(t, steps=None) for t in runs]))
        assert len(digests) == 1
        # the traced candidate lists do grow with the beam
        if policy == "hspr":
            assert 1 == widest[1] < widest[3] < widest[5]
        else:
            assert set(widest.values()) == {0}


def object_scores(instances, target, kb):
    """O . P_o . Y_o for each instance's object-type distribution."""
    return proximity_scores(instances, kb.P_o, target.Y_o)


class TestStopScore:
    def test_zero_weights_zero_score(self):
        belief = TypeBelief("n", np.array([1.0, 0.0]))
        target = TargetSpec(Y_r=np.array([1.0, 0.0]), Y_o=np.array([1.0, 0.0]))
        kb = mini_kb(2, 2)
        objects = object_scores([np.array([1.0, 0.0])], target, kb)
        assert stop_score(float(belief.R @ target.Y_r), objects, (0.0, 0.0)) == 0.0

    def test_bare_node_has_no_object_term(self):
        belief = TypeBelief("n", np.array([1.0, 0.0]))
        target = TargetSpec(Y_r=np.array([1.0, 0.0]), Y_o=np.array([1.0, 0.0]))
        kb = mini_kb(2, 2)
        got = stop_score(float(belief.R @ target.Y_r), object_scores([], target, kb), (2.0, 5.0))
        assert got == 2.0

    def test_object_term_takes_best_instance(self):
        belief = TypeBelief("n", np.array([0.0, 1.0]))
        target = TargetSpec(Y_r=np.array([1.0, 0.0]), Y_o=np.array([1.0, 0.0]))
        kb = mini_kb(2, 2)
        weak, strong = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        got = stop_score(float(belief.R @ target.Y_r), object_scores([weak, strong], target, kb), (1.0, 2.0))
        assert math.isclose(got, 0.0 + 2.0 * 0.95)


class TestGroundObject:
    def test_single_object_selected(self, two_node_scene):
        node = two_node_scene.node("b")  # holds "b-obj", of object type 2
        kb = mini_kb()
        O = np.array([0.0, 0.0, 1.0, 0.0])
        by_type = {2: proximity_scores([O], kb.P_o, np.array([0.0, 0.0, 1.0, 0.0]))[0]}
        assert ground_object(node, by_type) == "b-obj"

    def test_bare_node_returns_none(self, two_node_scene):
        node = two_node_scene.node("a")
        assert ground_object(node, {}) is None


class TestRunBatch:
    def test_batch_of_one_matches_run_episode(self, small_bench):
        scenes, episodes, kb = small_bench
        episode = episodes[0]
        agent = bench_agent()
        single = run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr")
        batch = run_batch(scenes, [episode], kb, agent, "hspr")
        assert not batch.failures
        assert trajectory_to_payload(batch.trajectories[0]) == trajectory_to_payload(single)

    def test_parallelism_does_not_change_results(self, small_bench):
        scenes, episodes, kb = small_bench
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2),
                             visual=VisualWeights(noise_sd=0.15))
        serial = run_batch(scenes, episodes, kb, agent, "hspr", parallelism=1)
        parallel = run_batch(scenes, episodes, kb, agent, "hspr", parallelism=4)
        assert [trajectory_to_payload(t) for t in serial.trajectories] == [
            trajectory_to_payload(t) for t in parallel.trajectories
        ]

    def test_pool_starts_no_more_workers_than_jobs(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        agent = bench_agent(visual=VisualWeights(noise_sd=0.15))
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records its size, starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
        for parallelism, n_jobs, pools in ((500, 3, [3]), (2, 1, []), (500, 1, []), (2, 3, [2])):
            started.clear()
            batch = run_batch(scenes, episodes[:n_jobs], kb, agent, "hspr", parallelism=parallelism)
            assert started == pools, (parallelism, n_jobs)
            serial = run_batch(scenes, episodes[:n_jobs], kb, agent, "hspr", parallelism=1)
            assert [trajectory_to_payload(t) for t in batch.trajectories] == [
                trajectory_to_payload(t) for t in serial.trajectories
            ]

    def test_failures_are_captured_not_raised(self, small_bench):
        scenes, episodes, kb = small_bench
        orphan = Episode("orphan", "nowhere", "a", "b", "o", 1.0, 0)
        batch = run_batch(scenes, [episodes[0], orphan], kb, bench_agent(), "hspr")
        assert len(batch.trajectories) == 1
        assert "orphan" in batch.failures

    def test_failures_do_not_depend_on_parallelism(self, small_bench, caplog):
        scenes, episodes, kb = small_bench
        mixed = list(episodes)
        mixed[1] = dataclasses.replace(mixed[1], scene_id="nowhere")
        mixed[4] = dataclasses.replace(mixed[4], start_node="None")
        scene = scenes[mixed[7].scene_id]
        mixed[7] = dataclasses.replace(mixed[7], target_object=next(
            o.object_id
            for node_id in scene.node_ids() if node_id != mixed[7].target_node
            for o in scene.node(node_id).objects
        ))
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2),
                            visual=VisualWeights(noise_sd=0.15))
        runs = {}
        for n in (1, 2, 4):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hspr"):
                runs[n] = run_batch(scenes, mixed, kb, agent, "hspr", parallelism=n)
            # one warning per failed episode, naming it
            warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            assert sorted(warned) == sorted(
                f"episode {ep} failed: {error}" for ep, error in runs[n].failures.items()
            )
        failures = runs[1].failures
        assert sorted(failures) == sorted(mixed[i].episode_id for i in (1, 4, 7))
        assert "unknown scene 'nowhere'" in failures[mixed[1].episode_id]
        assert "start_node 'None'" in failures[mixed[4].episode_id]
        assert "target object" in failures[mixed[7].episode_id]
        payloads = {
            n: [json.dumps(trajectory_to_payload(t), sort_keys=True) for t in batch.trajectories]
            for n, batch in runs.items()
        }
        assert len(payloads[1]) == len(mixed) - 3
        for n in (2, 4):
            assert runs[n].failures == failures
            assert payloads[n] == payloads[1]

    def test_jsonl_round_trip(self, small_bench, tmp_path):
        scenes, episodes, kb = small_bench
        batch = run_batch(scenes, episodes[:4], kb, bench_agent(), "hspr")
        path = tmp_path / "traj.jsonl"
        save_trajectories(batch.trajectories, path)
        loaded = load_trajectories(path)
        assert [trajectory_to_payload(t) for t in loaded] == [
            trajectory_to_payload(t) for t in batch.trajectories
        ]


def trajectory_digest(trajectories):
    h = hashlib.sha256()
    for traj in trajectories:
        h.update(json.dumps(trajectory_to_payload(traj), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def patch_derive_rng(monkeypatch, derive):
    """Replace derive_rng under every name the engine reads it by."""
    for module in (seeding, simulator):
        monkeypatch.setattr(module, "derive_rng", derive)


def count_derivations(monkeypatch):
    """Count derived generators by label, wherever the engine derives one:
    through derive_rng, or from an episode's stream table."""
    labels = Counter()
    original = seeding.derive_rng
    original_generator = seeding.StreamTable.generator

    def counting(*parts):
        labels[parts[2]] += 1
        return original(*parts)

    def from_table(table, label, step):
        labels[label] += 1
        return original_generator(table, label, step)

    patch_derive_rng(monkeypatch, counting)
    monkeypatch.setattr(seeding.StreamTable, "generator", from_table)
    return labels


def count_mixes(monkeypatch):
    """Record the number of keys of each batched seed-word mix."""
    mixes = []
    original = seeding.seed_state_words

    def counting(digests):
        mixes.append(len(digests) // 16)
        return original(digests)

    monkeypatch.setattr(seeding, "seed_state_words", counting)
    return mixes


class TestRandomStreams:
    # sha256 of the trajectory JSONL, recorded before generators were
    # derived lazily; the streams and their keys must not change
    SAMPLED_DYNAMIC = "3912a144f1b202f8b1f73a3af80b4b1f1c6e3ffe90698b19d72c89de8e559730"
    RANDOM_POLICY = "96d67559fc1805189b5fd16bd02babf33958a38f32790bf29bdef1ce45138fa8"
    # traced runs in distribution mode, the benchmark's configuration,
    # recorded before scores were read from per-row tables: the steps carry
    # every score, so these pin the scores bit for bit, not just the moves
    # (average and residual-eq11_literal recorded before fusion became one pass)
    DISTRIBUTION_TRACED = {
        "average": "5f55472e6392541620e1c5a23fabe24aa4f250cee6260afd5331b3b07751f96a",
        "dynamic": "1f5e8ecf315d8680ddd4b0718af7714f4aa55037452dd2c7273519ced07f3f82",
        "residual": "e466e96430f13f0c271df9cc0dde233e51b13818e2ff172f6fcbc9ea0940fc9c",
        "residual-eq11_literal": "2dc25c06aac72f89e60194b3dfec226f7ac1672b75de805b472dadf5a935d040",
    }

    @pytest.mark.parametrize("case", sorted(DISTRIBUTION_TRACED))
    def test_distribution_mode_scores_pinned(self, small_bench, case):
        scenes, episodes, kb = small_bench
        fusion_mode, _, flag = case.partition("-")
        agent = AgentConfig(
            confusion=ConfusionModel.eps_uniform(10, 0.2),
            visual=VisualWeights(noise_sd=0.1), fusion_mode=fusion_mode, seed=4,
            eq11_literal=flag == "eq11_literal",
        )
        batch = run_batch(scenes, episodes, kb, agent, "hspr", trace=True)
        assert not batch.failures
        assert trajectory_digest(batch.trajectories) == self.DISTRIBUTION_TRACED[case]

    # the same traced runs with noisy object perception, which moves every
    # stop score and so the stopping decisions, recorded while each instance
    # still held its own object-type mixture
    OBJECT_NOISE_TRACED = {
        "dynamic-0.3": "e898fd43bff691c2a6c179344a8d59b4c900049c8d6ad04d819b661a119d83b4",
        "dynamic-1.0": "c6d61b9f929ebbff30e91dd8d604e7d207ea7aaaeb2864b84c990b85ca4a68a3",
        "residual-0.3": "d2bc009b4f7875c3db43d2a5e13f9cfb0d8f2562793f59a08917270b6d3f9ad2",
        "residual-1.0": "5d07d56771d69693ff66b83a8b701b75aeef2ae4bc4fea91bbaf15e3584e8373",
    }

    @pytest.mark.parametrize("case", sorted(OBJECT_NOISE_TRACED))
    def test_object_noise_scores_pinned(self, small_bench, case):
        scenes, episodes, kb = small_bench
        fusion_mode, _, noise = case.partition("-")
        agent = AgentConfig(
            confusion=ConfusionModel.eps_uniform(10, 0.2),
            visual=VisualWeights(noise_sd=0.1), fusion_mode=fusion_mode, seed=4,
            object_noise=float(noise),
        )
        batch = run_batch(scenes, episodes, kb, agent, "hspr", trace=True)
        assert not batch.failures
        assert trajectory_digest(batch.trajectories) == self.OBJECT_NOISE_TRACED[case]
        if noise == "1.0":
            # every instance is perceived as uniform, so all of them tie and
            # grounding falls back to the ascending object id
            for traj, episode in zip(batch.trajectories, episodes):
                objects = scenes[episode.scene_id].node(traj.stop_node).objects
                assert traj.selected_object == min((o.object_id for o in objects), default=None)

    # traced runs in the large-scene benchmark's shape (dynamic fusion, 40
    # actions), where most arrivals revisit a known node; recorded while
    # every arrival re-perceived the arrived node and all of its neighbours
    LARGE_SCENE_TRACED = {
        "distribution": "9d4310755494ee71752f373bd921d11eaccab408924b7e9ff5e241c11aa0cfee",
        "sampled": "3b7a7885c84ce4aa0102721ff8443f62a100a89dff02c022005ad4f9d937f5a7",
    }

    @pytest.mark.parametrize("mode", sorted(LARGE_SCENE_TRACED))
    def test_large_scene_scores_pinned(self, large_scenes, mode):
        scenes, episodes, kb = large_scenes
        agent = AgentConfig(
            confusion=ConfusionModel.eps_uniform(len(kb.type_vocabulary), 0.2, mode=mode),
            visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic", max_actions=40, seed=1,
        )
        batch = run_batch(scenes, episodes, kb, agent, "hspr", trace=True)
        assert not batch.failures
        assert trajectory_digest(batch.trajectories) == self.LARGE_SCENE_TRACED[mode]

    def test_sampled_mode_streams_pinned(self, small_bench):
        scenes, episodes, kb = small_bench
        agent = AgentConfig(
            confusion=ConfusionModel.eps_uniform(10, 0.3, mode="sampled"),
            visual=VisualWeights(noise_sd=0.15), fusion_mode="dynamic", seed=9,
        )
        batch = run_batch(scenes, episodes, kb, agent, "hspr")
        assert not batch.failures
        assert trajectory_digest(batch.trajectories) == self.SAMPLED_DYNAMIC

    def test_random_policy_streams_pinned(self, small_bench):
        scenes, episodes, kb = small_bench
        agent = AgentConfig(
            confusion=ConfusionModel.eps_uniform(10, 0.2),
            visual=VisualWeights(noise_sd=0.1), seed=3,
        )
        batch = run_batch(scenes, episodes, kb, agent, "random")
        assert not batch.failures
        assert trajectory_digest(batch.trajectories) == self.RANDOM_POLICY

    def test_pins_hold_under_python312_sum(self, small_bench, large_scenes, python312_sum):
        for case in sorted(self.DISTRIBUTION_TRACED):
            self.test_distribution_mode_scores_pinned(small_bench, case)
        for case in sorted(self.OBJECT_NOISE_TRACED):
            self.test_object_noise_scores_pinned(small_bench, case)
        for mode in sorted(self.LARGE_SCENE_TRACED):
            self.test_large_scene_scores_pinned(large_scenes, mode)
        self.test_sampled_mode_streams_pinned(small_bench)
        self.test_random_policy_streams_pinned(small_bench)

    def test_distribution_mode_derives_only_generators_that_draw(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        labels = count_derivations(monkeypatch)
        mixes = count_mixes(monkeypatch)
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2),
                            visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic")
        for episode in episodes[:4]:
            run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr")
        assert labels["perceive"] == 0
        assert labels["target"] == 0
        assert labels["visual-global"] > 0 and labels["visual-visited"] > 0
        # one batch per episode: three visual labels for every decision step
        assert mixes == [3 * agent.max_actions] * 4

    @pytest.mark.parametrize("policy", simulator.POLICIES)
    def test_distribution_mode_derives_no_keyed_generator(self, small_bench, monkeypatch, policy):
        # every stream it draws from comes from the episode's stream table
        derived = []
        patch_derive_rng(monkeypatch, lambda *parts: derived.append(parts))
        scenes, episodes, kb = small_bench
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2), object_noise=0.2,
                            visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic")
        for episode in episodes[:4]:
            run_episode(scenes[episode.scene_id], episode, kb, agent, policy)
        assert derived == []

    def test_noiseless_visual_scores_derive_nothing(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        labels = count_derivations(monkeypatch)
        mixes = count_mixes(monkeypatch)
        episode = episodes[0]
        run_episode(scenes[episode.scene_id], episode, kb, bench_agent(), "hspr")
        assert not labels
        assert not mixes

    def test_sampled_mode_derives_perception_generators(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        labels = count_derivations(monkeypatch)
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2, mode="sampled"))
        episode = episodes[0]
        traj = run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr")
        assert labels["target"] == 1
        assert labels["perceive"] == len(traj.node_sequence)


def all_type_paths(n_types, max_steps):
    """Every distinct-type sequence of 1..max_steps types."""
    paths = [(t,) for t in range(n_types)]
    frontier = list(paths)
    for _ in range(max_steps - 1):
        frontier = [p + (t,) for p in frontier for t in range(n_types) if t not in p]
        paths.extend(frontier)
    return paths


class TestRowScores:
    """Per-row tables against per-node values computed without them."""

    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    def test_match_per_node_scores_bit_for_bit(self, mode):
        rng = np.random.default_rng(17 if mode == "sampled" else 16)
        for _ in range(12):
            n = int(rng.integers(2, 6))
            M = rng.dirichlet(np.full(n, 0.5), size=n)
            M[rng.random((n, n)) < 0.2] = 0.0
            M[np.arange(n), np.arange(n)] += 1e-3
            confusion = ConfusionModel(M / M.sum(axis=1, keepdims=True), mode=mode)
            P_r = rng.uniform(0.0, 1.0, (n, n))
            P_r[rng.random((n, n)) < 0.3] = 0.0
            P_r[rng.random((n, n)) < 0.1] = -0.0
            kb = ProximityKB(
                P_r=P_r, P_o=np.eye(1), top_objects=[[0]] * n,
                type_vocabulary=[f"t{t}" for t in range(n)], object_vocabulary=["o"],
            )
            target = TargetSpec(Y_r=confusion.row(int(rng.integers(n)), rng), Y_o=np.ones(1))
            config = ReasonerConfig(
                gamma=float(rng.uniform(0.1, 1.0)), max_steps=4,
                feasibility_tau=float(rng.choice([0.0, 0.2, 0.5, 1.0])),
                omega=tuple(float(w) for w in rng.uniform(-1.0, 2.0, 4)),
            )
            beliefs = [
                confusion.belief(f"n{i}", confusion.perceive(int(rng.integers(n)), rng))
                for i in range(int(rng.integers(1, 15)))
            ]
            table = simulator._RowScores(confusion, np.eye(1), kb, target, config)
            assert len(table.direct) == len(table.alignment) == n
            for b in beliefs:
                assert same_float(table.direct[b.row], float(b.R @ (P_r @ target.Y_r)))
                assert same_float(table.alignment[b.row], float(b.R @ target.Y_r))
            for view in (beliefs[: len(beliefs) // 2], beliefs):
                tau = config.feasibility_tau
                assert table.present([b.row for b in view]) == {
                    t for b in view for t in range(n) if b.R[t] >= tau
                }
            for types in all_type_paths(n, 4):
                got = table.multi_step(TypePath(types, 1.0))
                assert len(got) == n
                # kept per episode by the path's types, which are all it reads
                assert table.multi_step(TypePath(types, 0.5)) is got
                for b in beliefs:
                    want = 0.0
                    for j, sub_goal in enumerate(types):
                        onehot = np.zeros(n)
                        onehot[sub_goal] = 1.0
                        want += config.gamma**j * config.omega[j] * float(b.R @ (P_r @ onehot))
                    assert same_float(got[b.row], want)

    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    def test_pulled_scores_match_proximity_scores(self, mode):
        rng = np.random.default_rng(19)
        for trial in range(40):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            confusion = ConfusionModel(rng.dirichlet(np.full(n, 0.5), size=n), mode=mode)
            P_r, P_o = rng.uniform(0.0, 1.0, (n, n)), rng.uniform(0.0, 0.95, (m, m))
            P_o[rng.random((m, m)) < 0.3] = 0.0
            kb = ProximityKB(
                P_r=P_r, P_o=P_o, top_objects=[[0]] * n,
                type_vocabulary=[f"t{t}" for t in range(n)],
                object_vocabulary=[f"o{t}" for t in range(m)],
            )
            O = object_rows(m, (0.0, 0.3, 1.0)[trial % 3])
            Y_o = O[int(rng.integers(m))] if trial % 2 else rng.dirichlet(np.ones(m))
            target = TargetSpec(Y_r=confusion.row(int(rng.integers(n)), rng), Y_o=Y_o)
            table = simulator._RowScores(confusion, O, kb, target, ReasonerConfig())
            assert table.direct == proximity_scores(list(confusion.rows), P_r, target.Y_r)
            assert table.objects == proximity_scores(list(O), P_o, Y_o)

    def test_distribution_mode_builds_one_belief_per_known_node(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        built = Counter()
        original = TypeBelief.__init__

        def counting(self, node_id, *args, **kwargs):
            built[node_id] += 1
            original(self, node_id, *args, **kwargs)

        monkeypatch.setattr(TypeBelief, "__init__", counting)
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2),
                            visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic")
        for episode in episodes[:6]:
            built.clear()
            scene = scenes[episode.scene_id]
            traj = run_episode(scene, episode, kb, agent, "hspr")
            known = set(traj.node_sequence)
            for node in traj.node_sequence:
                known.update(nbr for nbr, _ in scene.neighbors(node))
            assert set(built) == known
            assert set(built.values()) == {1}

    def test_distribution_mode_perceives_each_node_once(self, small_bench, large_scenes, monkeypatch):
        perceptions = [0]
        original = ConfusionModel.perceive

        def counting(self, true_type, rng):
            perceptions[0] += 1
            return original(self, true_type, rng)

        maps = []

        class CountingMap(simulator.SemanticTopoMap):
            def __init__(self):
                super().__init__()
                maps.append(self)
                self.arrivals = []  # (repeat arrival, perceptions it made)

            def observe(self, scene, arrived_node, confusion, rng):
                before, repeat = perceptions[0], arrived_node in oracles.visited_ids(self)
                super().observe(scene, arrived_node, confusion, rng)
                self.arrivals.append((repeat, perceptions[0] - before))

        monkeypatch.setattr(ConfusionModel, "perceive", counting)
        monkeypatch.setattr(simulator, "SemanticTopoMap", CountingMap)
        repeats = 0
        for scenes, episodes, kb in (small_bench, large_scenes):
            agent = bench_agent(confusion=ConfusionModel.eps_uniform(len(kb.type_vocabulary), 0.2),
                                visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic",
                                max_actions=40)
            for episode in episodes[:4]:
                maps.clear()
                perceptions[0] = 0
                run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr")
                (topo,) = maps
                # the target's type is perceived once; each node on the map once
                assert perceptions[0] == 1 + len(topo.nodes)
                assert sum(count for _, count in topo.arrivals) == len(topo.nodes)
                assert all(count == 0 for repeat, count in topo.arrivals if repeat)
                repeats += sum(repeat for repeat, _ in topo.arrivals)
        assert repeats > 100

    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    def test_only_sampled_arrivals_build_a_generator(self, large_scenes, monkeypatch, mode):
        # in the large-scene benchmark's shape, where most arrivals revisit
        built = count_derivations(monkeypatch)
        scenes, episodes, kb = large_scenes
        agent = AgentConfig(
            confusion=ConfusionModel.eps_uniform(len(kb.type_vocabulary), 0.2, mode=mode),
            visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic", max_actions=40, seed=1,
        )
        arrivals = 0
        for episode in episodes:
            arrivals += len(run_episode(scenes[episode.scene_id], episode, kb, agent).node_sequence)
        sampled = mode == "sampled"
        assert built["perceive"] == (arrivals if sampled else 0)
        assert built["target"] == (len(episodes) if sampled else 0)
        assert built["visual-global"] > 0

    def test_sampled_mode_draws_once_per_perceived_node(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        draws = Counter()

        class CountingGenerator(np.random.Generator):
            # a sampled perception draws one double (seeding.choose)
            def random(self, *args, **kwargs):
                draws[self.key] += 1
                return super().random(*args, **kwargs)

        def derive(*parts):
            generator = CountingGenerator(np.random.PCG64(seeding.stable_digest(*parts)))
            generator.key = parts
            return generator

        patch_derive_rng(monkeypatch, derive)
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.3, mode="sampled"))
        for episode in episodes[:6]:
            draws.clear()
            scene = scenes[episode.scene_id]
            traj = run_episode(scene, episode, kb, agent, "hspr")
            # one draw for the target, then one per node each arrival perceives
            want = {(agent.seed, episode.episode_id, "target"): 1}
            for k, node in enumerate(traj.node_sequence):
                key = (agent.seed, episode.episode_id, "perceive", k)
                want[key] = 1 + len(scene.neighbors(node))
            assert dict(draws) == want


class TestObjectScores:
    """Per-type object scores against the per-instance oracle."""

    def test_match_per_instance_oracle_bit_for_bit(self):
        rng = np.random.default_rng(23)
        ties = learned = 0
        for trial in range(300):
            n = int(rng.integers(1, 7))
            noise = (0.0, 0.3, 1.0)[trial % 3]
            P_o = rng.uniform(0.0, 0.95, (n, n))
            P_o[rng.random((n, n)) < 0.3] = 0.0
            if rng.random() < 0.5:
                np.fill_diagonal(P_o, 0.0)  # as build-kb makes it
                learned += 1
            if rng.random() < 0.5:
                Y_o = rng.dirichlet(np.ones(n))
            else:
                Y_o = object_rows(n, noise)[int(rng.integers(n))]
            kb = ProximityKB(
                P_r=np.zeros((1, 1)), P_o=P_o, top_objects=[[0]], type_vocabulary=["t"],
                object_vocabulary=[f"o{t}" for t in range(n)],
            )
            target = TargetSpec(Y_r=np.ones(1), Y_o=Y_o)
            table = simulator._RowScores(
                ConfusionModel.identity(1), object_rows(n, noise), kb, target, ReasonerConfig()
            )
            # few types and shuffled ids, so instances tie and the id decides
            count = int(rng.integers(0, 7))
            ids = [f"obj{k}" for k in rng.permutation(count)]
            objects = [(oid, int(rng.integers(n)), 0) for oid in ids]
            by_type = table.objects
            for view in (objects[: count // 2], objects):
                node = make_scene([("a", "r0", 0, (0.0, 0.0, 0.0), view)], [], 1, n).node("a")
                beliefs = oracles.object_beliefs(node, n, noise)
                mu = oracles.object_proximity_scores(beliefs, P_o, Y_o)
                scores = [by_type[o.object_type] for o in node.objects]
                for o, score in zip(node.objects, scores):
                    assert same_float(score, mu[o.object_id])
                weights = tuple(float(w) for w in rng.uniform(-1.0, 2.0, 2))
                alignment = float(rng.uniform())
                want = weights[0] * alignment
                if mu:
                    want += weights[1] * max(mu.values())
                assert same_float(stop_score(alignment, scores, weights), want)
                assert ground_object(node, by_type) == oracles.ground_object(node, beliefs, P_o, Y_o)
                ties += len(set(mu.values())) < len(mu)
        assert ties > 0 and learned > 0


class TestPathMemo:
    """Each episode searches each distinct present-type set once."""

    def test_one_search_per_distinct_present_set_per_episode(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        searched, presents = [], []
        original_present = simulator._RowScores.present

        def counting(present, *args):
            searched.append(frozenset(present))
            return enumerate_type_paths(present, *args)

        def recording(self, rows):
            present = original_present(self, rows)
            presents.append(frozenset(present))
            return present

        monkeypatch.setattr(simulator, "enumerate_type_paths", counting)
        monkeypatch.setattr(simulator._RowScores, "present", recording)
        agent = bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2),
                            visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic")
        repeats = 0
        for _ in range(2):  # the memo does not outlive its episode
            for episode in episodes:
                searched.clear()
                presents.clear()
                run_episode(scenes[episode.scene_id], episode, kb, agent, "hspr")
                assert searched == list(dict.fromkeys(presents))
                repeats += len(presents) - len(searched)
        assert repeats > 0

    def test_memo_hands_out_tuples(self):
        kb = mini_kb()
        target = TargetSpec(Y_r=np.eye(4)[3], Y_o=np.ones(4) / 4)
        config = ReasonerConfig(beam=4)
        scores = simulator._RowScores(ConfusionModel.identity(4), np.eye(4), kb, target, config)
        table = SuccessorTable(kb.P_r)
        first = scores.paths({0, 1})
        assert isinstance(first, tuple)
        assert first == tuple(enumerate_type_paths({0, 1}, 3, table, config))
        assert scores.paths({1, 0}) is first
        assert scores.paths({2}) == tuple(enumerate_type_paths({2}, 3, table, config))


class TestSharedPathSearch:
    """One successor table per KB, shared by every episode run on it."""

    @staticmethod
    def agent():
        return bench_agent(confusion=ConfusionModel.eps_uniform(10, 0.2),
                           visual=VisualWeights(noise_sd=0.1), fusion_mode="dynamic")

    def test_each_single_start_search_runs_once_per_batch(self, small_bench, monkeypatch):
        scenes, episodes, kb = small_bench
        kb = copy.deepcopy(kb)  # a cold table
        searched, asked = Counter(), [0]
        original_search = reasoner._best_first

        def counting_search(table, *key):
            searched[key] += 1
            return original_search(table, *key)

        def counting_enumerate(present, *args):
            asked[0] += len(present)
            return enumerate_type_paths(present, *args)

        monkeypatch.setattr(reasoner, "_best_first", counting_search)
        monkeypatch.setattr(simulator, "enumerate_type_paths", counting_enumerate)
        agent = self.agent()
        batch = run_batch(scenes, episodes, kb, agent, "hspr")
        assert not batch.failures
        assert searched and set(searched.values()) == {1}
        assert asked[0] > len(searched)  # episodes read lists that others searched
        # an episode on a cold KB of its own takes the same steps
        alone = [run_episode(scenes[e.scene_id], e, copy.deepcopy(small_bench[2]), agent, "hspr")
                 for e in episodes]
        assert trajectory_digest(alone) == trajectory_digest(batch.trajectories)

    def test_kb_pickles_to_the_same_bytes_after_episodes(self, small_bench):
        scenes, episodes, kb = small_bench
        kb = copy.deepcopy(kb)
        before = pickle.dumps(kb)
        run_batch(scenes, episodes, kb, self.agent(), "hspr")
        assert kb.successor_table() is kb.successor_table()
        assert kb._targets
        assert pickle.dumps(kb) == before
        loaded = pickle.loads(pickle.dumps(kb))
        assert loaded._successors is None and loaded._targets is None
        assert loaded == kb

    def test_one_kb_shared_by_several_confusion_models(self, small_bench):
        scenes, episodes, kb = small_bench
        shared = copy.deepcopy(kb)
        confusions = [
            ConfusionModel.eps_uniform(10, 0.2),
            ConfusionModel.identity(10),
            ConfusionModel.eps_uniform(10, 0.2, mode="sampled"),
        ]
        for _ in range(2):  # the second round reads tables the others filled
            for object_noise in (0.0, 0.2):
                for confusion in confusions:
                    agent = dataclasses.replace(
                        self.agent(), confusion=confusion, object_noise=object_noise
                    )
                    got = run_batch(scenes, episodes, shared, agent, "hspr")
                    fresh = run_batch(
                        scenes, episodes, copy.deepcopy(kb),
                        dataclasses.replace(agent, confusion=ConfusionModel(confusion.M, confusion.mode)),
                        "hspr",
                    )
                    assert not got.failures
                    assert trajectory_digest(got.trajectories) == trajectory_digest(fresh.trajectories)
        assert len(shared.successor_table()._gains) == len(confusions)
        # target tables: one key per node-type rows array, one per object noise
        n_objects = len(kb.object_vocabulary)
        assert {(objects, rows) for objects, rows, _ in shared._targets} == (
            {(False, id(confusion.rows)) for confusion in confusions}
            | {(True, id(object_rows(n_objects, noise))) for noise in (0.0, 0.2)}
        )

    def test_confusion_model_pickles_to_the_same_bytes_after_episodes(self, small_bench):
        scenes, episodes, kb = small_bench
        agent = self.agent()
        before = pickle.dumps(agent.confusion)
        run_batch(scenes, episodes, copy.deepcopy(kb), agent, "hspr")
        assert agent.confusion._present
        assert pickle.dumps(agent.confusion) == before
        assert pickle.loads(before)._present == {}

    def test_equality_ignores_the_table(self):
        warm, cold = mini_kb(), mini_kb()
        warm.successor_table().paths_from(0, 3, 3, 3)
        warm.target_scores(np.eye(4), np.eye(4)[3])
        assert warm == cold
        assert cold._successors is None and cold._targets is None

    def test_nan_proximity_fails_every_episode_alike(self, small_bench):
        scenes, episodes, kb = small_bench
        kb = copy.deepcopy(kb)
        kb.P_r[0, 1] = np.nan
        batch = run_batch(scenes, episodes, kb, self.agent(), "hspr")
        assert not batch.trajectories
        assert sorted(batch.failures) == sorted(e.episode_id for e in episodes)
        assert set(batch.failures.values()) == {"proximity matrix entries must lie in [0, 1]"}
        assert kb._successors is None
