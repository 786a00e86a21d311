"""Tour of the synthetic house generator.

Shows one generated scene in detail (regions, nodes, objects, edges) and
the population-level statistics that make the benchmark controllable.
"""

from collections import Counter

from hspr.bench import house_generator_kb, benchmark_scene_config
from hspr.scene import region_adjacency, segment_regions
from hspr.seeding import stable_digest
from hspr.synth import generate_scene, sample_episodes

kb, object_weights = house_generator_kb()

print("=== one house, in detail ===")
config = benchmark_scene_config(kb, object_weights, stable_digest("scene-demo", 0))
scene = generate_scene(config, scene_id="demo-house")
regions = segment_regions(scene)
print(f"scene {scene.scene_id}: {len(scene.nodes)} nodes, {len(scene.edges)} edges, "
      f"{len(regions)} regions")
for region in regions:
    rtype = kb.type_vocabulary[region.region_type]
    objects = []
    for nid in sorted(region.member_nodes):
        objects += [kb.object_vocabulary[o.object_type] for o in scene.node(nid).objects]
    print(f"  {region.region_id} ({rtype:>13}): nodes={sorted(region.member_nodes)} "
          f"objects={objects}")

print("\nregion adjacency (which rooms touch):")
type_of = {r.region_id: r.region_type for r in regions}
for ra, rb in sorted(region_adjacency(scene, regions)):
    print(f"  {kb.type_vocabulary[type_of[ra]]:>13} -- {kb.type_vocabulary[type_of[rb]]}")

print("\n=== episodes sampled on this house ===")
for episode in sample_episodes(scene, 3, seed="scene-demo"):
    target = scene.node(episode.target_node)
    obj = next(o for o in target.objects if o.object_id == episode.target_object)
    print(f"  {episode.episode_id}: start {episode.start_node} -> "
          f"{kb.object_vocabulary[obj.object_type]} in {target.region_id} "
          f"({episode.shortest_length:.1f} m shortest)")

print("\n=== population statistics over 200 houses ===")
adjacency = Counter()
for i in range(200):
    cfg = benchmark_scene_config(kb, object_weights, stable_digest("scene-demo", i))
    sc = generate_scene(cfg)
    regs = segment_regions(sc)
    t_of = {r.region_id: r.region_type for r in regs}
    for ra, rb in region_adjacency(sc, regs):
        pair = tuple(sorted((kb.type_vocabulary[t_of[ra]], kb.type_vocabulary[t_of[rb]])))
        adjacency[pair] += 1
print("most frequent room adjacencies:")
# rank ties by pair name: most_common keeps insertion order, which follows
# the hash-seeded iteration order of region_adjacency's set
ranked = sorted(adjacency.items(), key=lambda item: (-item[1], item[0]))
for pair, count in ranked[:8]:
    print(f"  {pair[0]:>13} -- {pair[1]:<13} {count}")
print("\nPairs with zero proximity in the grammar never appear at all.")
