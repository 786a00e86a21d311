"""The benchmark's workloads.

Each workload is a closed loop with one caller: build the inputs from the
seed, submit one batch and wait for it, then score it.  Two run in-process
through the library (`large-scene`, `large-vocab`); `pipeline` runs
the CLI stages in-process through `hspr.cli.dispatch`, with files in between.
README.md says why each one exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

# layers are called through their modules, so the traced run's wrappers see
# the benchmark's own calls too
from hspr import bench, cli, metrics, seeding, simulator, synth
from hspr import scene as scenelib
from hspr import kb as kblib
from hspr.perception import ConfusionModel, VisualWeights
from hspr.reasoner import ReasonerConfig

CONFUSION_EPS = 0.2
VISUAL_NOISE = 0.1
POLICY = "hspr"


@dataclass
class Inputs:
    scenes: dict
    episodes: list
    kb: object
    agent: simulator.AgentConfig

    def jobs(self):
        """(scene, episode) in the order run_batch runs them."""
        for episode in sorted(self.episodes, key=lambda e: e.episode_id):
            yield self.scenes[episode.scene_id], episode

    def job_bytes(self) -> float:
        """Mean pickled size of one run_batch process-pool job."""
        sizes = [
            len(pickle.dumps((scene, episode, self.kb, self.agent, POLICY, False)))
            for scene, episode in self.jobs()
        ]
        return sum(sizes) / len(sizes)


def _agent(n_types: int, seed: int, **overrides) -> simulator.AgentConfig:
    return simulator.AgentConfig(
        confusion=ConfusionModel.eps_uniform(n_types, CONFUSION_EPS),
        visual=VisualWeights(noise_sd=VISUAL_NOISE),
        seed=seed,
        **overrides,
    )


def run_episodes_timed(inputs: Inputs, between=None) -> tuple[list, list[tuple[float, float]]]:
    """Serial run_episode calls in run_batch order, each timed as its
    (start, end) on the perf_counter clock; `between`, if given, is called
    untimed after each episode."""
    trajectories, spans = [], []
    for scene, episode in inputs.jobs():
        start = time.perf_counter()
        trajectories.append(simulator.run_episode(scene, episode, inputs.kb, inputs.agent, POLICY))
        spans.append((start, time.perf_counter()))
        if between is not None:
            between()
    return trajectories, spans


def quality_of(report_aggregates: dict) -> dict:
    return {k: report_aggregates[k] for k in ("SR", "SPL", "RGS")}


def decisions_in(traj_path: Path) -> tuple[int, int]:
    """(episodes, decisions) in a trajectory JSONL file."""
    episodes = decisions = 0
    with open(traj_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                episodes += 1
                decisions += len(json.loads(line)["action_sequence"])
    return episodes, decisions


class InProcess:
    """A workload run through the library: inputs in memory, serial run_batch."""

    parallel = 1

    def __init__(self, name: str, make_inputs, seeds_doc: str):
        self.name = name
        self._make_inputs = make_inputs
        self.seeds_doc = seeds_doc

    def setup(self, seed: int, work: Path) -> Inputs:
        return self._make_inputs(seed)

    def run(self, inputs: Inputs, work: Path, parallel: int | None = None):
        return simulator.run_batch(inputs.scenes, inputs.episodes, inputs.kb, inputs.agent, POLICY)

    def save(self, inputs: Inputs, batch, work: Path) -> tuple[Path, int]:
        """Write the batch's trajectory JSONL; returns (path, failures)."""
        path = work / "traj.jsonl"
        simulator.save_trajectories(batch.trajectories, path)
        return path, len(batch.failures)

    def evaluate(self, inputs: Inputs, batch, work: Path) -> dict:
        by_id = {e.episode_id: e for e in inputs.episodes}
        per_episode = [
            metrics.episode_metrics(t, by_id[t.episode_id], inputs.scenes[by_id[t.episode_id].scene_id])
            for t in batch.trajectories
        ]
        return quality_of(metrics.aggregate_report(per_episode).aggregates)

    def replay_inputs(self, inputs: Inputs, work: Path) -> Inputs:
        return inputs


def _generated(seed, label, kb, n_scenes, per_scene, **scene_kwargs) -> tuple[dict, list]:
    scenes, episodes = {}, []
    for i in range(n_scenes):
        config = synth.GeneratorConfig(
            seed=seeding.stable_digest(seed, label, "scene", i), generator_kb=kb, **scene_kwargs
        )
        generated = synth.generate_scene(config, scene_id=f"{label}{i:03d}")
        scenes[generated.scene_id] = generated
        episodes.extend(synth.sample_episodes(generated, per_scene, (seed, label, "episodes", i)))
    return scenes, episodes


def _large_scene(seed: int) -> Inputs:
    kb, object_weights = bench.house_generator_kb()
    scenes, episodes = _generated(
        seed, "large-scene", kb, n_scenes=40, per_scene=3,
        region_count=60, nodes_per_region=(4, 5), extra_region_links=1,
        objects_per_node=(1, 2), unique_region_types=False,
        unique_objects_per_region=True, object_weights=object_weights,
    )
    agent = _agent(len(kb.type_vocabulary), seed, fusion_mode="dynamic", max_actions=40)
    return Inputs(scenes, episodes, kb, agent)


def _large_vocab(seed: int) -> Inputs:
    kb = bench.recovery_generator_kb(n_types=20)
    scenes, episodes = _generated(
        seed, "large-vocab", kb, n_scenes=200, per_scene=1,
        region_count=16, nodes_per_region=(1, 2), extra_region_links=1,
        objects_per_node=(1, 2), unique_region_types=True,
    )
    agent = _agent(len(kb.type_vocabulary), seed, reasoner=ReasonerConfig(max_steps=4))
    return Inputs(scenes, episodes, kb, agent)


class Pipeline:
    """gen-scenes -> gen-episodes -> build-kb -> run --parallel 2 -> eval, via the CLI."""

    name = "pipeline"
    parallel = 2
    seeds_doc = "gen-scenes, gen-episodes and run all take --seed <seed>"

    @staticmethod
    def _cli(*argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"hspr {argv[0]} exited {code}: {err.getvalue().strip()}")

    def setup(self, seed: int, work: Path) -> dict:
        state = {
            "seed": seed,
            "scenes": work / "scenes",
            "episodes": work / "episodes.json",
            "kb": work / "kb.json",
        }
        self._cli("gen-scenes", "--kb", "house", "--n", 100, "--seed", seed, "--out", state["scenes"])
        self._cli("gen-episodes", "--scenes", state["scenes"], "--per-scene", 5, "--seed", seed,
                  "--out", state["episodes"])
        self._cli("build-kb", "--scenes", state["scenes"], "--out", state["kb"])
        return state

    def run(self, state: dict, work: Path, parallel: int | None = None) -> Path:
        out = work / f"traj-p{parallel or self.parallel}.jsonl"
        self._cli(
            "run", "--scenes", state["scenes"], "--kb", state["kb"], "--episodes", state["episodes"],
            "--confusion", f"eps:{CONFUSION_EPS}", "--visual", f"0.3,1.5,10,{VISUAL_NOISE}",
            "--seed", state["seed"], "--parallel", parallel or self.parallel, "--out", out,
        )
        return out

    def save(self, state: dict, traj_path: Path, work: Path) -> tuple[Path, int]:
        # `hspr run` exits non-zero on any failed episode, so reaching here means none failed
        return traj_path, 0

    def evaluate(self, state: dict, traj_path: Path, work: Path) -> dict:
        report = work / "report"
        self._cli("eval", "--scenes", state["scenes"], "--episodes", state["episodes"],
                  "--traj", traj_path, "--out", report)
        with open(report / "report.json", encoding="utf-8") as fh:
            return quality_of(json.load(fh)["aggregates"])

    def replay_inputs(self, state: dict, work: Path) -> Inputs:
        """The pipeline's files loaded back, for the serial per-episode replay."""
        scenes = {}
        for path in sorted(Path(state["scenes"]).glob("*.json")):
            loaded = scenelib.load_scene(path)
            scenes[loaded.scene_id] = loaded
        kb = kblib.load_kb(state["kb"])
        episodes = synth.load_episodes(state["episodes"])
        return Inputs(scenes, episodes, kb, _agent(len(kb.type_vocabulary), state["seed"]))


WORKLOADS = {
    "large-scene": InProcess(
        "large-scene", _large_scene,
        "scene i: stable_digest(<seed>, 'large-scene', 'scene', i); AgentConfig(seed=<seed>)",
    ),
    "large-vocab": InProcess(
        "large-vocab", _large_vocab,
        "scene i: stable_digest(<seed>, 'large-vocab', 'scene', i); AgentConfig(seed=<seed>)",
    ),
    "pipeline": Pipeline(),
}
