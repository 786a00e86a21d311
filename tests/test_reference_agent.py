"""The engine against `oracles.reference_run_episode`, a whole episode at a time.

The reference agent is built only from the plain definitions in
`tests/oracles.py`, so equal trajectories, traces included, check every
fast path of a decision step at once: the per-row score tables, the
successor table's searches and multi-step floats, the map's routing and
route sums, the batched visual-noise streams and one-pass fusion.
"""

import itertools
import json

import pytest

from hspr import simulator
from hspr.bench import recovery_generator_kb, standard_benchmark
from hspr.fusion import FUSION_MODES, FixedBeta, LogisticBeta, VisitedFractionBeta
from hspr.perception import ConfusionModel, VisualWeights
from hspr.reasoner import SuccessorTable
from hspr.seeding import StreamTable, stable_digest
from hspr.simulator import POLICIES, AgentConfig, run_episode, trajectory_to_payload
from hspr.synth import GeneratorConfig, generate_scene, sample_episodes
from hspr.topo import SemanticTopoMap

from oracles import reference_run_episode

PERCEPTION = {
    "identity": lambda n: ConfusionModel.identity(n),
    "eps:0.2": lambda n: ConfusionModel.eps_uniform(n, 0.2),
    "sampled": lambda n: ConfusionModel.eps_uniform(n, 0.2, mode="sampled"),
}

# (episode index, visual noise sd, balance policy, max_actions), one per
# cell in turn; five scenarios, so each meets every value of the two- and
# three-valued axes.  Four actions cut about a third of the episodes short.
SCENARIOS = [
    (0, 0.0, FixedBeta(0.5), 15),
    (1, 0.2, FixedBeta(0.5), 15),
    (2, 0.2, VisitedFractionBeta(), 15),
    (3, 0.0, LogisticBeta(weights=(("step", 0.3), ("local_fraction", -1.0)), bias=-0.5), 15),
    (4, 0.2, FixedBeta(0.7), 4),
]


@pytest.fixture(scope="module")
def worlds():
    """{name: (scenes, five episodes, KB)}: two small house-benchmark scenes,
    and two scenes grown from the dense random recovery KB."""
    scenes, episodes, kb = standard_benchmark(n_scenes=2, episodes_per_scene=3)
    house = (scenes, sorted(episodes, key=lambda e: e.episode_id)[:5], kb)
    kb = recovery_generator_kb(n_types=8, seed=7)
    scenes, episodes = {}, []
    for i in range(2):
        config = GeneratorConfig(
            seed=stable_digest(3, "reference-agent", i), generator_kb=kb, region_count=8,
            nodes_per_region=(1, 2), extra_region_links=2, objects_per_node=(1, 2),
        )
        scene = generate_scene(config, scene_id=f"recovery{i}")
        scenes[scene.scene_id] = scene
        episodes.extend(sample_episodes(scene, 3, (3, "reference-agent", i)))
    return {"house": house, "recovery": (scenes, episodes[:5], kb)}


def grid(worlds):
    """Yield (cell label, scene, episode, kb, agent, policy) over every policy x
    fusion mode x eq11_literal x perception x object_noise x world."""
    axes = itertools.product(POLICIES, FUSION_MODES, (False, True), PERCEPTION, (0.0, 0.2), worlds)
    for k, (policy, mode, eq11, confusion, object_noise, world) in enumerate(axes):
        scenes, episodes, kb = worlds[world]
        index, noise_sd, beta, max_actions = SCENARIOS[k % len(SCENARIOS)]
        episode = episodes[index]
        agent = AgentConfig(
            confusion=PERCEPTION[confusion](kb.P_r.shape[0]), fusion_mode=mode, beta_policy=beta,
            object_noise=object_noise, visual=VisualWeights(noise_sd=noise_sd),
            max_actions=max_actions, seed=k, eq11_literal=eq11,
        )
        label = f"{policy}/{mode}/eq11={eq11}/{confusion}/object_noise={object_noise}/{world}/{episode.episode_id}"
        yield label, scenes[episode.scene_id], episode, kb, agent, policy


def as_json(trajectory):
    return json.dumps(trajectory_to_payload(trajectory))


def test_engine_matches_reference_agent_over_the_grid(worlds):
    cells = list(grid(worlds))
    assert len(cells) == 4 * 3 * 2 * 3 * 2 * 2
    mismatched = [
        f"{label} trace={trace}"
        for label, *cell in cells
        for trace in (False, True)
        if as_json(run_episode(*cell, trace)) != as_json(reference_run_episode(*cell, trace))
    ]
    assert mismatched == []


# every fast layer of a decision step, with each name the engine reads it by
FAST_LAYERS = {
    "SuccessorTable.multi_step": [(SuccessorTable, "multi_step")],
    "SuccessorTable.paths_from": [(SuccessorTable, "paths_from")],
    "SemanticTopoMap.shortest_paths": [(SemanticTopoMap, "shortest_paths")],
    "SemanticTopoMap.route_to": [(SemanticTopoMap, "route_to")],
    "SemanticTopoMap.route_sums": [(SemanticTopoMap, "route_sums")],
    "StreamTable.generator": [(StreamTable, "generator")],
    "simulator._scored_action": [(simulator, "_scored_action")],
}


class FastLayerCalled(Exception):
    pass


def _unreachable(*args, **kwargs):
    raise FastLayerCalled


def test_reference_agent_shares_no_fast_layer(worlds, monkeypatch):
    # hspr with dynamic fusion, sampled perception and visual noise reads
    # every layer above: patching any one of them breaks the engine
    cells = []
    for world, (scenes, episodes, kb) in worlds.items():
        agent = AgentConfig(
            confusion=PERCEPTION["sampled"](kb.P_r.shape[0]), fusion_mode="dynamic",
            visual=VisualWeights(noise_sd=0.2), object_noise=0.2, seed=3,
        )
        cells.extend((scenes[e.scene_id], e, kb, agent, "hspr", True) for e in episodes)
    want = [as_json(run_episode(*cell)) for cell in cells]
    unread = []
    for layer, bindings in FAST_LAYERS.items():
        with monkeypatch.context() as patch:
            for owner, name in bindings:
                patch.setattr(owner, name, _unreachable)
            try:
                for cell in cells:
                    run_episode(*cell)
                unread.append(layer)
            except FastLayerCalled:
                pass
    assert unread == []
    for bindings in FAST_LAYERS.values():
        for owner, name in bindings:
            monkeypatch.setattr(owner, name, _unreachable)
    assert [as_json(reference_run_episode(*cell)) for cell in cells] == want
