"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with pytest -s or in this module's
captured output).  The synthetic-benchmark criteria share one module-scoped
run of the standard 100-scene / 500-episode benchmark.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from hspr.bench import recovery_generator_kb, standard_benchmark
from hspr.fusion import fuse_variant_table
from hspr.kb import CountMatrices, accumulate_scene, normalize_counts
from hspr.metrics import evaluate
from hspr.perception import ConfusionModel, TypeBelief, VisualWeights
from hspr.reasoner import ReasonerConfig, SuccessorTable, enumerate_type_paths
from hspr.simulator import AgentConfig, run_batch, run_episode
from hspr.synth import GeneratorConfig, generate_scene
from hspr.topo import CURRENT, NAVIGABLE, VISITED, SemanticTopoMap
from hspr.seeding import stable_digest

from oracles import (
    dijkstra_single_source,
    enumerate_paths_exhaustive,
    fuse_final,
    percentile_minmax_row,
)


RESULT_LINES: list[str] = []


def criterion(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} ({name}): {status} — {detail}"
    print(line)
    RESULT_LINES.append(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------- benchmark

BENCH_SEED = 20240811


@pytest.fixture(scope="module")
def bench():
    scenes, episodes, kb = standard_benchmark(n_scenes=100, episodes_per_scene=5, seed=BENCH_SEED)
    return scenes, sorted(episodes, key=lambda e: e.episode_id), kb


def run_arm(bench_data, policy, steps=3, fusion="residual", confusion_eps=0.2,
            noise_sd=0.1):
    scenes, episodes, kb = bench_data
    n_types = len(kb.type_vocabulary)
    confusion = (
        ConfusionModel.identity(n_types)
        if confusion_eps == 0.0
        else ConfusionModel.eps_uniform(n_types, confusion_eps)
    )
    agent = AgentConfig(
        confusion=confusion,
        reasoner=ReasonerConfig(max_steps=steps),
        fusion_mode=fusion,
        visual=VisualWeights(noise_sd=noise_sd),
        seed=42,
    )
    batch = run_batch(scenes, episodes, kb, agent, policy, parallelism=4)
    assert not batch.failures, batch.failures
    report = evaluate(batch.trajectories, episodes, scenes)
    return report.aggregates, report.episodes


@pytest.fixture(scope="module")
def bench_arms(bench):
    t0 = time.monotonic()
    arms = {
        "m3": run_arm(bench, "hspr", steps=3),
        "m1": run_arm(bench, "hspr", steps=1),
        "visual_only": run_arm(bench, "visual_only"),
        "dynamic": run_arm(bench, "hspr", fusion="dynamic"),
        "average": run_arm(bench, "hspr", fusion="average"),
        "oracle": run_arm(bench, "hspr", confusion_eps=0.0, noise_sd=0.0),
    }
    arms["elapsed"] = time.monotonic() - t0
    return arms


# ---------------------------------------------------------------- criteria

def test_criterion_1_normalization_oracle(rng):
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        row = rng.integers(0, 10_000, size=n)
        got = normalize_counts(row[None, :])[0]
        want = np.array(percentile_minmax_row(row.tolist()))
        worst = max(worst, float(np.max(np.abs(got - want))))
        ok = ok and np.all(np.abs(got - want) <= 1e-12)
        ok = ok and got.min() >= 0.0 and got.max() <= 0.95
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    criterion(1, "normalization oracle", ok,
              f"1000 rows, max |Δ|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_loop_kb_recovery():
    t0 = time.monotonic()
    gen = recovery_generator_kb(n_types=8, seed=7)
    counts = CountMatrices.zeros(8, len(gen.object_vocabulary))
    for i in range(500):
        config = GeneratorConfig(
            seed=stable_digest(BENCH_SEED, "recovery", i),
            generator_kb=gen,
            region_count=8,
            nodes_per_region=(1, 2),
            extra_region_links=2,
            objects_per_node=(0, 1),
            unique_region_types=True,
        )
        accumulate_scene(counts, generate_scene(config))
    recovered = normalize_counts(counts.C_r)
    rhos = []
    for i in range(8):
        if np.count_nonzero(counts.C_r[i]) >= 5:
            rhos.append(stats.spearmanr(recovered[i], gen.P_r[i]).statistic)
    elapsed = time.monotonic() - t0
    ok = len(rhos) > 0 and all(r >= 0.8 for r in rhos) and elapsed < 120.0
    criterion(2, "closed-loop KB recovery", ok,
              f"{len(rhos)} rows, min rho={min(rhos):.3f}, mean={np.mean(rhos):.3f}, {elapsed:.1f}s")


def test_criterion_3_shortest_path_equivalence(rng):
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 61))
        topo = SemanticTopoMap()
        ids = [f"n{i}" for i in range(n)]
        for i, nid in enumerate(ids):
            status = CURRENT if i == 0 else (VISITED if i % 3 else NAVIGABLE)
            topo.add_node(nid, status, TypeBelief(nid, np.array([1.0])))
        topo.current = ids[0]
        for i in range(1, n):
            j = int(rng.integers(i))
            topo.add_edge(ids[j], ids[i], float(rng.uniform(0.1, 9.0)))
        for _ in range(int(rng.integers(0, 2 * n))):
            a, b = rng.choice(n, 2, replace=False)
            if topo.edge_length(ids[int(a)], ids[int(b)]) is None:
                topo.add_edge(ids[int(a)], ids[int(b)], float(rng.uniform(0.1, 9.0)))
        edges = topo.snapshot()["edges"]
        for source in ids:
            table = topo.shortest_paths(source)
            want = dijkstra_single_source(ids, edges, source)
            for dest in ids:
                delta = abs(table.distance(dest) - want[dest])
                worst = max(worst, delta)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    criterion(3, "shortest-path equivalence", ok,
              f"200 maps, max |Δ|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_path_enumeration_oracle(rng):
    t0 = time.monotonic()
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        P = rng.uniform(0, 0.95, size=(n, n))
        P[rng.uniform(size=(n, n)) < 0.35] = 0.0
        max_steps = int(rng.integers(1, 4))
        beam = int(rng.integers(1, 6))
        target = int(rng.integers(n))
        k = int(rng.integers(1, n + 1))
        present = {int(t) for t in rng.choice(n, size=k, replace=False)}
        config = ReasonerConfig(max_steps=max_steps, beam=beam)
        got = [
            (p.types, p.confidence)
            for p in enumerate_type_paths(present, target, SuccessorTable(P), config)
        ]
        want = [
            (tuple(seq), conf)
            for seq, conf in enumerate_paths_exhaustive(present, target, P.tolist(), max_steps, beam)
        ]
        assert got == want, (present, target, max_steps, beam)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 100 and elapsed < 10.0
    criterion(4, "path-enumeration oracle", ok, f"{checked} KBs exact, {elapsed:.1f}s")


def test_criterion_5_reduction_property(bench):
    scenes, episodes, kb = bench
    n_types = len(kb.type_vocabulary)
    mismatches = 0
    steps_compared = 0
    for episode in episodes[:50]:
        scene = scenes[episode.scene_id]
        trajs = {}
        for policy in ("hspr", "greedy_eta"):
            agent = AgentConfig(
                confusion=ConfusionModel.identity(n_types),
                reasoner=ReasonerConfig(max_steps=1),
                visual=VisualWeights(noise_sd=0.1),
                seed=1234,
            )
            trajs[policy] = run_episode(scene, episode, kb, agent, policy, trace=True)
        a, b = trajs["hspr"], trajs["greedy_eta"]
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            steps_compared += 1
            if sa["l_final"] != sb["l_final"] or sa["chosen"] != sb["chosen"]:
                mismatches += 1
    ok = mismatches == 0 and steps_compared > 0
    criterion(5, "single-step reduction", ok,
              f"50 episodes, {steps_compared} steps compared, {mismatches} mismatches (exact equality)")


def test_criterion_6_fusion_properties(rng):
    argmax_flips = 0
    bound_violations = 0
    for _ in range(10_000):
        n_global = int(rng.integers(2, 8))
        n_local = int(rng.integers(0, n_global + 1))
        C = {f"n{i}" for i in range(n_global)}
        F = {f"n{i}" for i in range(n_local)}
        eta_c = {i: float(rng.normal()) for i in C}
        eps_c = {i: float(rng.normal()) for i in C}
        eta_f = {i: float(rng.normal()) for i in F}
        eps_f = {i: float(rng.normal()) for i in F}
        beta = float(rng.uniform())
        scores = fuse_variant_table("residual", eta_c, eta_f, eps_c, eps_f, F, C, beta)
        l_c, l_f, fused = scores.l_c, scores.l_f, scores.l_final
        shift = float(rng.normal())
        fused_shift = fuse_final(
            {i: v + shift for i, v in l_c.items()},
            {i: v + shift for i, v in l_f.items()},
            beta,
        )
        if max(fused, key=fused.get) != max(fused_shift, key=fused_shift.get):
            argmax_flips += 1
        for i in C:
            if not (min(l_c[i], l_f[i]) - 1e-9 <= fused[i] <= max(l_c[i], l_f[i]) + 1e-9):
                bound_violations += 1

    # three fixture maps with hand-computed variant outputs
    def fixture_map(edges, statuses):
        topo = SemanticTopoMap()
        for nid, status in statuses.items():
            topo.add_node(nid, status, TypeBelief(nid, np.array([1.0])))
            if status == CURRENT:
                topo.current = nid
        for (a, b), length in edges.items():
            topo.add_edge(a, b, length)
        return topo

    fixtures_ok = True
    # 1: everything local, residual == pure local blend
    got = fuse_variant_table(
        "residual", {"x": 0.2}, {"x": 0.4}, {"x": 0.1}, {"x": 0.3}, {"x"}, {"x"}, beta=0.25,
    ).l_final
    fixtures_ok &= abs(got["x"] - (0.25 * 0.3 + 0.75 * 0.7)) < 1e-12
    # 2: average zeroes the non-local local branch at beta 0.5
    got = fuse_variant_table(
        "average", {"x": 0.2, "y": 0.6}, {"x": 0.4}, {"x": 0.1, "y": 0.2}, {"x": 0.3},
        {"x"}, {"x", "y"}, beta=0.9,
    ).l_final
    fixtures_ok &= abs(got["y"] - 0.5 * 0.8) < 1e-12
    # 3: dynamic sums visited scores along the known route
    topo = fixture_map(
        {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "d"): 1.0},
        {"a": CURRENT, "b": VISITED, "c": NAVIGABLE, "d": NAVIGABLE},
    )
    table = topo.shortest_paths()
    got = fuse_variant_table(
        "dynamic", {"c": 0.5, "d": 0.1}, {"d": 0.2}, {"c": 0.0, "d": 0.0}, {"d": 0.05},
        {"d"}, {"c", "d"}, beta=0.5, topo_map=topo, table=table,
        visited_scores={"a": 1.0, "b": 10.0},
    ).l_final
    fixtures_ok &= abs(got["c"] - (0.5 * 0.5 + 0.5 * 11.0)) < 1e-12

    ok = argmax_flips == 0 and bound_violations == 0 and fixtures_ok
    criterion(6, "fusion properties", ok,
              f"10000 tables, {argmax_flips} argmax flips, {bound_violations} bound violations, "
              f"fixtures {'ok' if fixtures_ok else 'WRONG'}")


def test_criterion_7_benchmark_gaps(bench_arms):
    m3, m3_metrics = bench_arms["m3"]
    m1, _ = bench_arms["m1"]
    vo, vo_metrics = bench_arms["visual_only"]
    spl_gap = m3["SPL"] - m1["SPL"]
    sr_gap = m3["SR"] - vo["SR"]
    wins = sum(1 for a, b in zip(m3_metrics, vo_metrics) if a.success and not b.success)
    losses = sum(1 for a, b in zip(m3_metrics, vo_metrics) if b.success and not a.success)
    p = stats.binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue if wins + losses else 1.0
    elapsed = bench_arms["elapsed"]
    ok = spl_gap >= 2.0 and sr_gap >= 5.0 and p < 0.05 and elapsed < 300.0
    criterion(7, "benchmark reasoning gaps", ok,
              f"SPL(M=3)={m3['SPL']:.2f} vs SPL(M=1)={m1['SPL']:.2f} (gap {spl_gap:+.2f}); "
              f"SR(hspr)={m3['SR']:.2f} vs SR(visual)={vo['SR']:.2f} (gap {sr_gap:+.2f}); "
              f"binomial p={p:.2e}; arms took {elapsed:.0f}s")


def test_criterion_8_fusion_ablation_ordering(bench_arms):
    residual, _ = bench_arms["m3"]
    dynamic, _ = bench_arms["dynamic"]
    average, _ = bench_arms["average"]
    ok = residual["SPL"] >= dynamic["SPL"] and residual["SPL"] >= average["SPL"]
    criterion(8, "fusion ablation ordering", ok,
              f"SPL residual={residual['SPL']:.2f} >= dynamic={dynamic['SPL']:.2f} "
              f"and >= average={average['SPL']:.2f}")


def test_criterion_9_pipeline_determinism(tmp_path):
    def pipeline(base: Path, parallel: str):
        base.mkdir()
        cmds = [
            ("gen-scenes", "--kb", "house", "--n", "6", "--seed", "13", "--out", str(base / "scenes")),
            ("gen-episodes", "--scenes", str(base / "scenes"), "--per-scene", "2", "--seed", "4",
             "--out", str(base / "episodes.json")),
            ("build-kb", "--scenes", str(base / "scenes"), "--out", str(base / "kb.json")),
            ("run", "--scenes", str(base / "scenes"), "--kb", str(base / "kb.json"),
             "--episodes", str(base / "episodes.json"), "--confusion", "eps:0.2",
             "--visual", "0.3,1.5,10,0.1", "--seed", "21", "--parallel", parallel,
             "--out", str(base / "traj.jsonl")),
            ("eval", "--scenes", str(base / "scenes"), "--episodes", str(base / "episodes.json"),
             "--traj", str(base / "traj.jsonl"), "--out", str(base / "report")),
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "hspr.cli", *cmd], capture_output=True, text=True
            )
            assert proc.returncode == 0, (cmd, proc.stderr)
        return (
            (base / "traj.jsonl").read_bytes(),
            (base / "report" / "report.json").read_bytes(),
        )

    first = pipeline(tmp_path / "first", "1")
    second = pipeline(tmp_path / "second", "1")
    eight = pipeline(tmp_path / "eight", "8")
    ok = first == second == eight
    criterion(9, "pipeline determinism", ok,
              "reports byte-identical across two runs and parallelism 1 vs 8")


def test_criterion_10_oracle_agent_sanity(bench_arms):
    oracle, metrics = bench_arms["oracle"]
    failures = [m.episode_id for m in metrics if not (m.success and m.rgs)]
    ok = oracle["SR"] >= 95.0 and oracle["RGS"] >= 90.0
    criterion(10, "oracle-agent sanity", ok,
              f"SR={oracle['SR']:.2f} (>=95), RGS={oracle['RGS']:.2f} (>=90); "
              f"{len(failures)} failing episodes logged: {failures[:10]}")
