"""Benchmark ablations: reasoning depth, fusion variants, and baselines.

A compact version of the analysis the acceptance suite runs at full scale.
Each row is 150 episodes on the fixed house benchmark with noisy perception
(eps-uniform confusion 0.2, visual noise 0.1).
"""

from hspr.bench import standard_benchmark
from hspr.metrics import evaluate, format_report_table
from hspr.perception import ConfusionModel, VisualWeights
from hspr.reasoner import ReasonerConfig
from hspr.simulator import AgentConfig, run_batch

scenes, episodes, kb = standard_benchmark(n_scenes=30, episodes_per_scene=5)
n_types = len(kb.type_vocabulary)


def run_arm(policy, steps=3, fusion="residual"):
    agent = AgentConfig(
        confusion=ConfusionModel.eps_uniform(n_types, 0.2),
        reasoner=ReasonerConfig(max_steps=steps),
        fusion_mode=fusion,
        visual=VisualWeights(noise_sd=0.1),
        seed=42,
    )
    batch = run_batch(scenes, episodes, kb, agent, policy, parallelism=4)
    if batch.failures:
        raise SystemExit(f"{policy}: episodes failed: {sorted(batch.failures)}")
    return evaluate(batch.trajectories, episodes, scenes).aggregates


print("=== reasoning depth (hspr, residual fusion) ===")
rows = [(f"steps={m}", run_arm("hspr", steps=m)) for m in (1, 2, 3, 4, 5)]
print(format_report_table(rows, label="steps"))
print("Multi-step look-ahead concentrates its gains in SPL: with one step")
print("the agent is blind at junctions whose wings only pay off two rooms")
print("later.  Here the agent's matrix is the exact house grammar, so even")
print("long plans stay reliable and depth keeps helping.\n")

print("=== fusion variants (hspr, 3-step) ===")
rows = [(f"fusion={mode}", run_arm("hspr", fusion=mode)) for mode in ("residual", "average", "dynamic")]
print(format_report_table(rows, label="fusion"))

print("=== policy baselines ===")
rows = [
    ("hspr", run_arm("hspr")),
    ("greedy_eta", run_arm("greedy_eta")),
    ("visual_only", run_arm("visual_only")),
    ("random", run_arm("random")),
]
print(format_report_table(rows, label="policy"))
print("Proximity knowledge carries the gap over visual-only exploration;")
print("multi-step planning adds the rest.")
