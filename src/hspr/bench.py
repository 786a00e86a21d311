"""Fixed synthetic benchmarks.

A hand-built "house grammar" generator KB drives the standard benchmark:
ten region types wired like a residence (entry -> hallway -> wings), two
characteristic object types per room, and a sparse proximity matrix so
multi-step reasoning has room to matter.  Everything here is deterministic
in its seed arguments.
"""

from __future__ import annotations

import numpy as np

from .kb import ProximityKB, top_k_objects
from .scene import SceneGraph
from .seeding import derive_rng, stable_digest
from .synth import Episode, GeneratorConfig, generate_scene, sample_episodes

HOUSE_TYPES = [
    "entry", "hall", "west_corridor", "east_corridor", "kitchen",
    "dining", "storage", "bedroom", "bathroom", "living",
]

HOUSE_OBJECTS = [
    "doormat", "coatrack", "picture", "console_table", "runner_rug", "wall_lamp",
    "bench", "mirror", "stove", "fridge", "dining_table", "dining_chair",
    "crate", "shelf_unit", "bed", "wardrobe", "toilet", "shower",
    "sofa", "tv",
]

# symmetric type-adjacency grammar; unlisted pairs never touch.  Two deep
# wings hang off the hall so a wrong turn at the junction is expensive.
_HOUSE_LINKS = [
    ("entry", "hall", 0.95),
    ("hall", "west_corridor", 0.80),
    ("hall", "east_corridor", 0.80),
    ("hall", "living", 0.60),
    ("west_corridor", "kitchen", 0.90),
    ("kitchen", "dining", 0.85),
    ("dining", "storage", 0.70),
    ("east_corridor", "bedroom", 0.90),
    ("bedroom", "bathroom", 0.85),
]

# per room type, (object, sampling weight); each room owns its two objects
# so type-level grounding stays discriminative
_HOUSE_FURNITURE = {
    "entry": [("doormat", 1.0), ("coatrack", 1.0)],
    "hall": [("picture", 1.0), ("console_table", 1.0)],
    "west_corridor": [("runner_rug", 1.0), ("wall_lamp", 1.0)],
    "east_corridor": [("bench", 1.0), ("mirror", 1.0)],
    "kitchen": [("stove", 1.0), ("fridge", 1.0)],
    "dining": [("dining_table", 1.0), ("dining_chair", 1.0)],
    "storage": [("crate", 1.0), ("shelf_unit", 1.0)],
    "bedroom": [("bed", 1.0), ("wardrobe", 1.0)],
    "bathroom": [("toilet", 1.0), ("shower", 1.0)],
    "living": [("sofa", 1.0), ("tv", 1.0)],
}


def house_generator_kb() -> tuple[ProximityKB, np.ndarray]:
    """The house-grammar KB and its node-type/object-type sampling weights."""
    n_r, n_o = len(HOUSE_TYPES), len(HOUSE_OBJECTS)
    t_idx = {t: i for i, t in enumerate(HOUSE_TYPES)}
    o_idx = {o: i for i, o in enumerate(HOUSE_OBJECTS)}

    P_r = np.zeros((n_r, n_r))
    for a, b, p in _HOUSE_LINKS:
        P_r[t_idx[a], t_idx[b]] = P_r[t_idx[b], t_idx[a]] = p
    # same-type proximity: rooms of a type cluster, so a sub-goal type
    # attracts its own nodes during multi-step scoring
    np.fill_diagonal(P_r, 0.35)

    object_weights = np.zeros((n_r, n_o))
    for room, items in _HOUSE_FURNITURE.items():
        for obj, w in items:
            object_weights[t_idx[room], o_idx[obj]] = w

    # objects of the same room co-occur; an object always pairs with itself
    P_o = np.zeros((n_o, n_o))
    for items in _HOUSE_FURNITURE.values():
        objs = [o_idx[o] for o, _ in items]
        for a in objs:
            for b in objs:
                if a != b:
                    P_o[a, b] = 0.4
    np.fill_diagonal(P_o, 0.95)

    kb = ProximityKB(
        P_r=P_r,
        P_o=P_o,
        top_objects=top_k_objects(object_weights, K=10),
        type_vocabulary=list(HOUSE_TYPES),
        object_vocabulary=list(HOUSE_OBJECTS),
        provenance={"source": "hand-built house grammar"},
    )
    return kb, object_weights


def recovery_generator_kb(n_types: int = 8, seed: int = 7) -> ProximityKB:
    """A dense random generator KB for closed-loop recovery experiments.

    Off-diagonal entries are nonzero with probability ~0.75 and drawn from
    well-separated levels so row ranks are recoverable from finite samples;
    a random spanning tree is forced nonzero so every type stays reachable
    during scene growth.
    """
    rng = derive_rng(seed, "recovery-kb")
    levels = np.array([0.2, 0.35, 0.5, 0.65, 0.8, 0.95])

    def draw():
        return float(levels[int(rng.integers(len(levels)))])

    P = np.zeros((n_types, n_types))
    for a in range(n_types):
        for b in range(a + 1, n_types):
            if rng.random() < 0.75:
                P[a, b] = P[b, a] = draw()
    order = rng.permutation(n_types)
    for prev, nxt in zip(order, order[1:]):
        if P[prev, nxt] == 0.0:
            P[prev, nxt] = P[nxt, prev] = draw()
    type_vocab = [f"type{t}" for t in range(n_types)]
    object_vocab = [f"obj{o}" for o in range(2 * n_types)]
    return ProximityKB(
        P_r=P,
        P_o=np.eye(2 * n_types) * 0.95,
        top_objects=[[] for _ in range(n_types)],
        type_vocabulary=type_vocab,
        object_vocabulary=object_vocab,
        provenance={"source": f"random recovery grammar seed={seed}"},
    )


def benchmark_scene_config(kb: ProximityKB, object_weights, scene_seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        seed=scene_seed,
        generator_kb=kb,
        region_count=10,
        nodes_per_region=(1, 2),
        extra_region_links=1,
        objects_per_node=(1, 2),
        region_extent=2.0,
        unique_region_types=True,
        unique_objects_per_region=True,
        object_weights=object_weights,
    )


def standard_benchmark(
    n_scenes: int = 100,
    episodes_per_scene: int = 5,
    seed: int = 20240811,
) -> tuple[dict[str, SceneGraph], list[Episode], ProximityKB]:
    """The fixed house benchmark: scenes keyed by id, episodes, generator KB."""
    kb, object_weights = house_generator_kb()
    scenes: dict[str, SceneGraph] = {}
    episodes: list[Episode] = []
    for i in range(n_scenes):
        config = benchmark_scene_config(kb, object_weights, stable_digest(seed, "scene", i))
        scene = generate_scene(config, scene_id=f"bench{i:03d}")
        scenes[scene.scene_id] = scene
        episodes.extend(sample_episodes(scene, episodes_per_scene, (seed, "episodes", i)))
    return scenes, episodes, kb
