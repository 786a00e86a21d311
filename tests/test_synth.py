import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hspr import synth
from hspr.bench import benchmark_scene_config, house_generator_kb, recovery_generator_kb
from hspr.kb import ProximityKB
from hspr.scene import region_adjacency, save_scene, scene_to_payload, segment_regions
from hspr.synth import (
    GeneratorConfig,
    _sample_region_types,
    generate_scene,
    load_episodes,
    sample_episode,
    sample_episodes,
    save_episodes,
)

from conftest import make_scene
from oracles import dijkstra_single_source, node_objects, sample_episode_by_hops, sample_region_types


@pytest.fixture(scope="module")
def gen_kb():
    return recovery_generator_kb(n_types=6, seed=3)


def config_for(kb, seed, **overrides):
    base = dict(
        seed=seed,
        generator_kb=kb,
        region_count=4,
        nodes_per_region=(1, 2),
        extra_region_links=1,
        objects_per_node=(1, 2),
        unique_region_types=True,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGenerateScene:
    def test_same_seed_identical_scene(self, gen_kb):
        a = generate_scene(config_for(gen_kb, 42))
        b = generate_scene(config_for(gen_kb, 42))
        assert scene_to_payload(a) == scene_to_payload(b)

    def test_different_seed_differs(self, gen_kb):
        a = generate_scene(config_for(gen_kb, 1))
        b = generate_scene(config_for(gen_kb, 2))
        assert scene_to_payload(a) != scene_to_payload(b)

    def test_two_single_node_regions(self, gen_kb):
        scene = generate_scene(
            config_for(gen_kb, 5, region_count=2, nodes_per_region=(1, 1), extra_region_links=0)
        )
        assert len(scene.nodes) == 2
        assert len(scene.edges) == 1

    def test_zero_probability_pairs_never_adjacent(self):
        kb, weights = house_generator_kb()
        zero_pairs = set()
        n = len(kb.type_vocabulary)
        for a in range(n):
            for b in range(n):
                if a != b and kb.P_r[a, b] == 0.0:
                    zero_pairs.add((a, b))
        for seed in range(60):
            scene = generate_scene(
                config_for(kb, seed, region_count=8, object_weights=weights)
            )
            regions = segment_regions(scene)
            type_of = {r.region_id: r.region_type for r in regions}
            for ra, rb in region_adjacency(scene, regions):
                assert (type_of[ra], type_of[rb]) not in zero_pairs

    def test_adjacency_frequencies_track_generator_rows(self, gen_kb):
        n = len(gen_kb.type_vocabulary)
        tallies = np.zeros((n, n))
        for seed in range(1000):
            scene = generate_scene(config_for(gen_kb, seed, region_count=6, nodes_per_region=(1, 1)))
            regions = segment_regions(scene)
            type_of = {r.region_id: r.region_type for r in regions}
            for ra, rb in region_adjacency(scene, regions):
                ta, tb = type_of[ra], type_of[rb]
                tallies[ta, tb] += 1
                tallies[tb, ta] += 1
        rhos = []
        for t in range(n):
            mask = np.arange(n) != t
            if tallies[t][mask].std() > 0 and gen_kb.P_r[t][mask].std() > 0:
                rhos.append(stats.spearmanr(tallies[t][mask], gen_kb.P_r[t][mask]).statistic)
        assert np.mean(rhos) >= 0.8

    def test_unique_types_infeasible_when_exceeding_vocabulary(self, gen_kb):
        with pytest.raises(ValueError, match="infeasible"):
            generate_scene(config_for(gen_kb, 1, region_count=7))

    @pytest.mark.parametrize("field,value", [
        ("region_extent", math.nan),
        ("region_extent", math.inf),
        ("region_extent", -1.0),
        ("region_extent", 0.0),
        ("extra_region_links", -1),
        ("nodes_per_region", (1, 2**32 + 1)),
        ("objects_per_node", (0, 2**32)),
    ])
    def test_config_rejects_bad_setting(self, gen_kb, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            config_for(gen_kb, 1, **{field: value})

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_config_rejects_bad_object_weight(self, gen_kb, value):
        weights = np.ones((len(gen_kb.type_vocabulary), len(gen_kb.object_vocabulary)))
        weights[2, 1] = value
        with pytest.raises(ValueError, match="object_weights must be finite and >= 0"):
            config_for(gen_kb, 1, object_weights=weights)

    @pytest.mark.parametrize("cut", [lambda w: w[:-1], lambda w: w[:, :-1], lambda w: w[0]],
                             ids=["missing_row", "missing_column", "one_dimensional"])
    def test_config_rejects_misshapen_object_weights(self, gen_kb, cut):
        weights = np.ones((len(gen_kb.type_vocabulary), len(gen_kb.object_vocabulary)))
        with pytest.raises(ValueError, match="object_weights must have shape"):
            config_for(gen_kb, 1, object_weights=cut(weights))

    def test_config_rejects_non_finite_generator_kb(self, gen_kb):
        P_r = gen_kb.P_r.copy()
        P_r[0, 1] = math.inf
        kb = ProximityKB(P_r, gen_kb.P_o, gen_kb.top_objects, gen_kb.type_vocabulary, gen_kb.object_vocabulary)
        with pytest.raises(ValueError, match="generator_kb.P_r must be finite"):
            config_for(kb, 1)

    def test_house_weights_pass_and_zero_rows_stay_uniform(self):
        kb, weights = house_generator_kb()
        config_for(kb, 1, region_count=8, object_weights=weights)
        # an all-zero row falls back to uniform object weights
        zero = generate_scene(config_for(kb, 3, region_count=8, object_weights=np.zeros_like(weights)))
        uniform = generate_scene(config_for(kb, 3, region_count=8))
        assert scene_to_payload(zero) == scene_to_payload(uniform)

    def test_objects_respect_weights(self, gen_kb):
        n_o = len(gen_kb.object_vocabulary)
        weights = np.zeros((len(gen_kb.type_vocabulary), n_o))
        weights[:, 2] = 1.0  # every node can only hold object type 2
        scene = generate_scene(config_for(gen_kb, 9, object_weights=weights))
        for node in scene.nodes:
            for obj in node.objects:
                assert obj.object_type == 2

    def test_unique_objects_per_region(self, gen_kb):
        scene = generate_scene(
            config_for(gen_kb, 11, nodes_per_region=(3, 3), unique_objects_per_region=True)
        )
        for region in segment_regions(scene):
            seen = []
            for nid in region.member_nodes:
                seen.extend(o.object_type for o in scene.node(nid).objects)
            assert len(seen) == len(set(seen))


def _random_sparse_kb(rng, n):
    """A KB whose P_r is sparse and asymmetric, sometimes with a zero diagonal
    or zero rows, so growth can stall."""
    P_r = rng.uniform(0.05, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < rng.uniform(0.2, 0.8))
    if rng.uniform() < 0.5:
        np.fill_diagonal(P_r, 0.0)
    for _ in range(int(rng.integers(0, 3))):
        P_r[int(rng.integers(n))] = 0.0
    return ProximityKB(
        P_r=P_r,
        P_o=np.eye(2),
        top_objects=[[] for _ in range(n)],
        type_vocabulary=[f"t{i}" for i in range(n)],
        object_vocabulary=["o0", "o1"],
    )


class TestRegionTreeOracle:
    def test_matches_full_rebuild_on_random_sparse_kbs(self):
        rng = np.random.default_rng(12)
        outcomes = {"grown": 0, "infeasible": 0}
        for trial in range(600):
            n = int(rng.integers(2, 8))
            unique = bool(trial % 2)
            config = GeneratorConfig(
                seed=trial,
                generator_kb=_random_sparse_kb(rng, n),
                # n + 1 unique regions are infeasible; repeated types may grow long lists
                region_count=int(rng.integers(2, n + 2 if unique else 3 * n + 1)),
                extra_region_links=int(rng.integers(0, 4)),
                unique_region_types=unique,
            )
            fast, slow = np.random.default_rng(trial), np.random.default_rng(trial)
            try:
                want = sample_region_types(config, slow)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    _sample_region_types(config, fast)
                assert str(got.value) == str(exc)
                outcomes["infeasible"] += 1
            else:
                assert _sample_region_types(config, fast) == want
                outcomes["grown"] += 1
            assert fast.bit_generator.state == slow.bit_generator.state
        assert min(outcomes.values()) >= 100


# zeros, subnormals, weights that normalising against a huge one flushes
# to zero, and ordinary ones
_WEIGHT = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-17, 1e300]),
    st.floats(min_value=5e-324, max_value=10.0, allow_subnormal=True),
)


class TestNodeObjectsOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_former_block(self, gen_kb, data):
        """_node_objects picks what the former per-node block picked and
        leaves the same generator state, node after node of one region."""
        n_types, n_objects = len(gen_kb.type_vocabulary), len(gen_kb.object_vocabulary)
        weights = np.array(data.draw(st.lists(
            st.lists(_WEIGHT, min_size=n_objects, max_size=n_objects),
            min_size=n_types, max_size=n_types,
        )))
        zero_rows = data.draw(st.lists(st.integers(0, n_types - 1), max_size=2))
        weights[zero_rows] = 0.0
        lo = data.draw(st.integers(0, 3))
        config = config_for(
            gen_kb, 1,
            # 2**32 - 1 draws from the widest span the config allows
            objects_per_node=(lo, data.draw(st.integers(lo, n_objects + 2) | st.just(2**32 - 1))),
            unique_objects_per_region=data.draw(st.booleans()),
            object_weights=weights if data.draw(st.booleans()) else None,
        )
        rtype = data.draw(st.integers(0, n_types - 1))
        row = synth._object_type_weights(config, rtype, n_objects)
        kept = row.copy()
        seed = data.draw(st.integers(0, 2**32 - 1))
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        used_fast, used_slow = set(), set()
        for _ in range(data.draw(st.integers(1, 8))):
            got = synth._node_objects(fast, config, row, int(np.count_nonzero(row)), used_fast)
            assert got == node_objects(config, slow, {rtype: kept.copy()}, rtype, used_slow)
            assert used_fast == used_slow
            assert fast.bit_generator.state == slow.bit_generator.state
        assert row.tolist() == kept.tolist()


class TestSampleEpisode:
    def test_forced_target_on_two_node_scene(self, two_node_scene):
        episode = sample_episode(two_node_scene, seed=0)
        assert episode.target_node == "b"
        assert episode.start_node == "a"
        assert episode.target_object == "b-obj"
        assert episode.shortest_length == 3.0

    def test_deterministic_in_seed(self, gen_kb):
        scene = generate_scene(config_for(gen_kb, 21))
        assert sample_episode(scene, seed=4) == sample_episode(scene, seed=4)

    def test_start_differs_from_target(self, gen_kb):
        for seed in range(30):
            scene = generate_scene(config_for(gen_kb, seed))
            episode = sample_episode(scene, seed=seed)
            assert episode.start_node != episode.target_node
            assert episode.shortest_length > 0

    def test_shortest_length_matches_dijkstra_oracle(self, gen_kb):
        for seed in range(20):
            scene = generate_scene(config_for(gen_kb, 100 + seed, region_count=5))
            episode = sample_episode(scene, seed=seed)
            dist = dijkstra_single_source(scene.node_ids(), scene.edges, episode.start_node)
            assert math.isclose(episode.shortest_length, dist[episode.target_node], rel_tol=1e-12)

    def test_no_objects_is_an_error(self):
        scene = make_scene([("a", "r0", 0), ("b", "r1", 1)], [("a", "b", 1.0)])
        with pytest.raises(ValueError, match="object"):
            sample_episode(scene, seed=0)

    @pytest.mark.parametrize("name", ["house", "no_object_weights", "recovery_unique", "repeated_types"])
    def test_matches_hop_count_oracle(self, name):
        make = _pinned_configs()[name]
        for seed in range(30):
            scene = generate_scene(make(seed), scene_id=f"{name}{seed}")
            for k in range(3):
                assert sample_episode(scene, (seed, k)) == sample_episode_by_hops(scene, (seed, k))

    def test_two_node_scene_matches_hop_count_oracle(self, two_node_scene):
        def outcome(sample, seed):
            try:
                return sample(two_node_scene, seed)
            except ValueError as exc:  # a start at b leaves no target
                return str(exc)

        outcomes = [outcome(sample_episode, seed) for seed in range(12)]
        assert outcomes == [outcome(sample_episode_by_hops, seed) for seed in range(12)]
        assert len({type(o) for o in outcomes}) == 2

    def test_unreachable_target_is_an_error(self):
        # two components, a-b and c-d, with objects at a and c: from every
        # start the only eligible target lies in the other component
        scene = make_scene(
            [("a", "r0", 0, (0.0, 0.0, 0.0), [("a-obj", 1, 0)]), ("b", "r0", 0),
             ("c", "r1", 1, (5.0, 0.0, 0.0), [("c-obj", 2, 0)]), ("d", "r1", 1)],
            [("a", "b", 1.0), ("c", "d", 1.0)],
            scene_id="split",
            validate=False,
        )
        for seed in range(8):
            with pytest.raises(ValueError, match="scene 'split'.*cannot be reached"):
                sample_episode(scene, seed)

    def test_manifest_round_trip(self, gen_kb, tmp_path):
        scene = generate_scene(config_for(gen_kb, 33))
        episodes = sample_episodes(scene, 4, seed=8)
        path = tmp_path / "episodes.json"
        save_episodes(episodes, path)
        assert load_episodes(path) == episodes


def _pinned_configs():
    house, weights = house_generator_kb()
    recovery = recovery_generator_kb(20)
    common = dict(nodes_per_region=(1, 2), extra_region_links=1, objects_per_node=(1, 2))
    return {
        "house": lambda seed: benchmark_scene_config(house, weights, seed),
        "recovery_unique": lambda seed: GeneratorConfig(
            seed=seed, generator_kb=recovery, region_count=16, unique_region_types=True, **common
        ),
        "repeated_types": lambda seed: GeneratorConfig(
            seed=seed, generator_kb=house, region_count=60, nodes_per_region=(4, 5),
            extra_region_links=1, objects_per_node=(1, 2), unique_region_types=False,
            unique_objects_per_region=True, object_weights=weights,
        ),
        "no_object_weights": lambda seed: GeneratorConfig(
            seed=seed, generator_kb=house, region_count=10, nodes_per_region=(1, 3),
            extra_region_links=2, objects_per_node=(1, 3), unique_objects_per_region=True,
        ),
    }


# sha256 over the saved scene files and episode manifests of seeds 0-2; any
# change to a random draw, its order or its arguments changes these bytes
PINNED_DIGESTS = {
    "house": (
        "d1d948d4b2e85352521e2c22b50e74d540decf0e006924aece0430de1201a509",
        "6d73bad3fb9615df12223febf48176f50b9c9be366b3e3db0be2d7c884b46f25",
    ),
    "recovery_unique": (
        "29328ee2db8d76797358027a434e232d4c418eb8d79ee1485dd291b9c05056ef",
        "01819af0dd8b8138fc2879799f06f0c71751568c4f79751f982a406737b9469f",
    ),
    "repeated_types": (
        "548c204407cdfc650ef54d5c10e526a621495180641150e8de0f2caed848eaca",
        "7bf0e3f473116b38c48da515e681c4dc572e335730b3466ae68b54fd459fe1f7",
    ),
    "no_object_weights": (
        "430a4234885d584393d8c38a4728eb0fdb016eab577fad5285a1de4efe22e23d",
        "307bf01f9a23d61b57046381ddd48ee5f53e6711ecaf6c744b9b7446010e7108",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generator_output_is_pinned(name, tmp_path):
    make = _pinned_configs()[name]
    scenes, manifests = hashlib.sha256(), hashlib.sha256()
    for seed in (0, 1, 2):
        scene = generate_scene(make(seed), scene_id=f"{name}{seed}")
        save_scene(scene, tmp_path / "scene.json")
        scenes.update((tmp_path / "scene.json").read_bytes())
        save_episodes(sample_episodes(scene, 5, (seed, name)), tmp_path / "episodes.json")
        manifests.update((tmp_path / "episodes.json").read_bytes())
    assert (scenes.hexdigest(), manifests.hexdigest()) == PINNED_DIGESTS[name]


# sha256 over repr() of the unrounded floats of the same scenes (saved files
# round to 9 digits, so the digests above miss a last-bit drift) and over the
# bytes of recovery_generator_kb(20).P_r
PINNED_FLOATS = "85594876a2bc66b49e5db92e90e3d0904d6909c539954507c8e49d408c2d0dc6"


def test_generator_floats_are_pinned():
    digest = hashlib.sha256()
    for name, make in sorted(_pinned_configs().items()):
        for seed in (0, 1, 2):
            scene = generate_scene(make(seed))
            for node in scene.nodes:
                digest.update(repr(node.position).encode())
                for obj in node.objects:
                    digest.update(repr((obj.heading, obj.elevation)).encode())
            for _, _, length in scene.edges:
                digest.update(repr(length).encode())
    digest.update(recovery_generator_kb(20).P_r.tobytes())
    assert digest.hexdigest() == PINNED_FLOATS


# sha256 over the probability arrays that the region-tree draws of the pinned
# configs (seeds 0-2) pass to choose; Python 3.12's compensated sum() can
# round their totals differently, so these pin a left-to-right total
PINNED_REGION_WEIGHTS = "760bb0807ddd9c1c58ca8e24048952864a6d792f0572507b483242f01b316aec"


def test_region_type_weights_are_pinned(monkeypatch):
    drawn = hashlib.sha256()
    original = synth.choose

    def recording(rng, p):
        drawn.update(p.tobytes())
        return original(rng, p)

    monkeypatch.setattr(synth, "choose", recording)
    for name, make in sorted(_pinned_configs().items()):
        for seed in (0, 1, 2):
            _sample_region_types(make(seed), np.random.default_rng(seed))
    assert drawn.hexdigest() == PINNED_REGION_WEIGHTS


def test_generator_pins_hold_under_python312_sum(tmp_path, monkeypatch, python312_sum):
    for name in sorted(PINNED_DIGESTS):
        test_generator_output_is_pinned(name, tmp_path)
    test_generator_floats_are_pinned()
    test_region_type_weights_are_pinned(monkeypatch)
