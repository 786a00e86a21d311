"""Command-line entry point.

Subcommands cover the full pipeline: build-kb, gen-scenes, gen-episodes,
run, eval, ablate.  Exit codes: 0 success, 2 usage error, 3 input/schema
error, 4 internal invariant failure.  HSPR_LOG={error,info,debug} controls
logging.
"""

from __future__ import annotations

import argparse
import errno
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bench import HOUSE_TYPES, house_generator_kb, standard_benchmark
from .errors import InternalError, SchemaError, write_json
from .fusion import FUSION_MODES, parse_beta_policy
from .kb import (
    CountMatrices,
    accumulate_scene,
    build_kb,
    load_kb,
    save_kb,
)
from .metrics import evaluate, format_report_table, save_report
from .perception import ConfusionModel, VisualWeights, load_confusion
from .reasoner import ReasonerConfig
from .scene import load_scene, save_scene
from .seeding import stable_digest
from .simulator import (
    POLICIES,
    AgentConfig,
    check_vocabularies,
    load_trajectories,
    run_batch,
    save_trajectories,
)
from .synth import GeneratorConfig, generate_scene, load_episodes, sample_episodes, save_episodes

log = logging.getLogger("hspr")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _setup_logging() -> None:
    level = os.environ.get("HSPR_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise SchemaError(f"HSPR_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


# what a flag expects, by the count of numbers it takes
_EXPECTED = {
    None: "comma-separated {}s",
    1: "a {}",
    2: "two comma-separated {}s",
    4: "four comma-separated {}s",
}


def _parse_numbers(text: str, flag: str, count: int | None = None, kind: type = float) -> tuple:
    """The comma-separated numbers given to a flag, exactly `count` of them when set."""
    try:
        values = tuple(kind(part) for part in text.split(","))
    except ValueError:
        values = ()
    if not values or count not in (None, len(values)):
        noun = "integer" if kind is int else "number"
        raise SchemaError(f"{flag} expects {_EXPECTED[count].format(noun)}, got {text!r}")
    return values


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise SchemaError(f"{flag} must be >= 1, got {value}")


def _flagged(flag: str, value, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError naming the flag and value."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{flag} {value}: {exc}") from None


def _check_out(path: str) -> None:
    """Refuse an --out file that cannot be created, before any work is done."""
    out = Path(path)
    if out.is_dir() or not out.parent.is_dir():
        reason = errno.EISDIR if out.is_dir() else errno.ENOENT
        raise SchemaError(f"--out {path}: {os.strerror(reason)}")


def _check_out_dir(path: str) -> None:
    """Refuse an --out directory that cannot be made, before any input is
    read: it must be a directory or absent, under a directory."""
    out = Path(path)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise SchemaError(f"--out {path}: {os.strerror(errno.ENOTDIR)}")


def _load_scenes_dir(path: str) -> dict:
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise SchemaError(f"scene directory {path!r} is missing or holds no *.json scene files")
    scenes = {}
    for file in files:
        scene = load_scene(file)
        if scene.scene_id in scenes:
            raise SchemaError(f"scene file {file} repeats scene id {scene.scene_id!r}")
        scenes[scene.scene_id] = scene
    return scenes


def _confusion_from_spec(spec: str, n_types: int) -> ConfusionModel:
    if spec == "identity":
        return ConfusionModel.identity(n_types)
    if spec.startswith("eps:"):
        (eps,) = _parse_numbers(spec[4:], "--confusion eps:<f>", 1)
        return _flagged("--confusion", spec, ConfusionModel.eps_uniform, n_types, eps)
    model = load_confusion(spec)
    if model.n_types != n_types:
        raise SchemaError(
            f"confusion matrix is {model.n_types}x{model.n_types}, the KB has {n_types} types"
        )
    return model


def _with_flags(config, **fields):
    """config with each field set in turn from its (flag, value); each step
    runs the config's checks, so a ValueError names the flag and value."""
    for name, (flag, value) in fields.items():
        config = _flagged(flag, value, replace, config, **{name: value})
    return config


def _agent_from_args(args, n_types: int) -> AgentConfig:
    reasoner = _with_flags(
        ReasonerConfig(), gamma=("--gamma", args.gamma), max_steps=("--steps", args.steps),
        beam=("--beam", args.beam), feasibility_tau=("--tau", args.tau),
    )
    if args.omega:  # after --steps, whose count it must cover
        omega = _parse_numbers(args.omega, "--omega")
        reasoner = _flagged("--omega", args.omega, replace, reasoner, omega=omega)
    agent = AgentConfig(
        confusion=_confusion_from_spec(args.confusion, n_types),
        reasoner=reasoner,
        fusion_mode=args.fusion,
        beta_policy=parse_beta_policy(args.beta),
        visual=_flagged("--visual", args.visual, VisualWeights, *_parse_numbers(args.visual, "--visual", 4)),
        seed=args.seed,
        eq11_literal=args.eq11_literal,
    )
    stop_weights = _parse_numbers(args.stop_weights, "--stop-weights", 2)
    agent = _flagged("--stop-weights", args.stop_weights, replace, agent, stop_weights=stop_weights)
    return _with_flags(
        agent, object_noise=("--object-noise", args.object_noise),
        max_actions=("--max-actions", args.max_actions),
    )


def cmd_build_kb(args) -> int:
    _check_positive("--top-k", args.top_k)
    _check_out(args.out)
    scenes = _load_scenes_dir(args.scenes)
    first = next(iter(scenes.values()))
    counts = CountMatrices.zeros(first.n_types, first.n_object_types)
    for scene_id in sorted(scenes):
        scene = scenes[scene_id]
        if (scene.type_vocabulary, scene.object_vocabulary) != (
            first.type_vocabulary, first.object_vocabulary
        ):
            raise SchemaError(
                f"scene {scene_id!r} has vocabularies different from scene {first.scene_id!r}"
            )
        accumulate_scene(counts, scene)
    kb = build_kb(counts, first.type_vocabulary, first.object_vocabulary, top_k=args.top_k)
    save_kb(kb, args.out)
    print(f"built KB from {counts.scene_count} scenes -> {args.out}")
    return EXIT_OK


def cmd_gen_scenes(args) -> int:
    _check_positive("--n", args.n)
    _check_out_dir(args.out)
    if args.kb == "house":
        kb, object_weights = house_generator_kb()
    else:
        kb, object_weights = load_kb(args.kb), None
    # built once so bad settings fail before any file is written
    config = GeneratorConfig(
        seed=args.seed,
        generator_kb=kb,
        region_count=args.regions,
        nodes_per_region=_parse_numbers(args.nodes_per_region, "--nodes-per-region", 2, int),
        extra_region_links=args.extra_links,
        objects_per_node=_parse_numbers(args.objects_per_node, "--objects-per-node", 2, int),
        region_extent=args.extent,
        unique_region_types=not args.repeat_types,
        unique_objects_per_region=args.kb == "house",
        object_weights=object_weights,
    )
    out_dir = Path(args.out)
    for i in range(args.n):
        scene_config = replace(config, seed=stable_digest(args.seed, "scene", i))
        scene = generate_scene(scene_config, scene_id=f"scene{i:04d}")
        out_dir.mkdir(parents=True, exist_ok=True)  # only once a scene exists to save
        save_scene(scene, out_dir / f"{scene.scene_id}.json")
    print(f"generated {args.n} scenes -> {out_dir}")
    return EXIT_OK


def cmd_gen_episodes(args) -> int:
    _check_positive("--per-scene", args.per_scene)
    _check_out(args.out)
    scenes = _load_scenes_dir(args.scenes)
    episodes = []
    for scene_id in sorted(scenes):
        episodes.extend(
            sample_episodes(scenes[scene_id], args.per_scene, (args.seed, scene_id))
        )
    save_episodes(episodes, args.out)
    print(f"sampled {len(episodes)} episodes -> {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    _check_positive("--parallel", args.parallel)
    _check_out(args.out)
    kb = load_kb(args.kb)
    # every scene is checked against the KB's vocabularies below
    agent = _agent_from_args(args, len(kb.type_vocabulary))
    episodes = load_episodes(args.episodes)
    scenes = _load_scenes_dir(args.scenes)
    for scene_id in sorted(scenes):
        check_vocabularies(scenes[scene_id], kb)
    result = run_batch(
        scenes, episodes, kb, agent, args.policy, parallelism=args.parallel, trace=args.trace
    )
    save_trajectories(result.trajectories, args.out)
    for episode_id, error in sorted(result.failures.items()):
        print(f"error: episode {episode_id} failed: {error}", file=sys.stderr)
    print(
        f"ran {len(result.trajectories)} episodes "
        f"({len(result.failures)} failed) -> {args.out}"
    )
    return EXIT_OK if not result.failures else EXIT_INPUT


def cmd_eval(args) -> int:
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise SchemaError(f"--threshold must be a finite number > 0, got {args.threshold}")
    _check_out_dir(args.out)
    scenes = _load_scenes_dir(args.scenes)
    episodes = load_episodes(args.episodes)
    trajectories = load_trajectories(args.traj)
    report = evaluate(trajectories, episodes, scenes, threshold=args.threshold, ne_mode=args.ne)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_report(report, out / "report.json", out / "report.txt")
    print(format_report_table([("run", report.aggregates)]), end="")
    return EXIT_OK


def _parse_sweep(spec: str) -> tuple[str, list]:
    key, _, values = spec.partition("=")
    if key == "steps":
        lo, _, hi = values.partition("..")
        try:
            steps = list(range(int(lo), int(hi) + 1)) if hi else [int(v) for v in values.split(",")]
        except ValueError:
            steps = []
        if not steps or min(steps) < 1:
            raise SchemaError(
                f"--sweep {spec!r}: expected steps=A..B with 1 <= A <= B, or steps=a,b,c with each >= 1"
            )
        return "steps", steps
    if key == "fusion":
        modes = values.split(",")
        for mode in modes:
            if mode not in FUSION_MODES:
                raise SchemaError(f"--sweep {spec!r}: unknown fusion mode {mode!r}")
        return "fusion", modes
    raise SchemaError(f"--sweep {spec!r}: expected steps=A..B or fusion=a,b,c")


def cmd_ablate(args) -> int:
    key, values = _parse_sweep(args.sweep)
    for flag, value in (("--scenes-n", args.scenes_n), ("--episodes-per", args.episodes_per),
                        ("--parallel", args.parallel)):
        _check_positive(flag, value)
    if args.out:
        _check_out_dir(args.out)
    base = AgentConfig(  # standard_benchmark's KB has the house grammar's types
        confusion=_confusion_from_spec(args.confusion, len(HOUSE_TYPES)),
        visual=_flagged("--visual-noise", args.visual_noise, VisualWeights, noise_sd=args.visual_noise),
        seed=args.seed,
    )
    scenes, episodes, kb = standard_benchmark(
        n_scenes=args.scenes_n, episodes_per_scene=args.episodes_per, seed=args.seed
    )
    rows = []
    results = {}
    for value in values:
        if key == "steps":
            agent = replace(base, reasoner=ReasonerConfig(max_steps=value))
        else:
            agent = replace(base, fusion_mode=value)
        batch = run_batch(scenes, episodes, kb, agent, "hspr", parallelism=args.parallel)
        # the benchmark is generated in-process, so a failed episode is an engine fault
        if batch.failures:
            failed = sorted(batch.failures)
            raise InternalError(
                f"ablation {key}={value}: {len(failed)} episodes failed: {', '.join(failed)}"
            )
        aggregates = evaluate(batch.trajectories, episodes, scenes).aggregates
        rows.append((f"{key}={value}", aggregates))
        results[str(value)] = aggregates
        log.info("ablation %s=%s done", key, value)
    table = format_report_table(rows, label=key)
    print(table, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "ablation.json", {"sweep": args.sweep, "results": results}, indent=1)
        with open(out / "ablation.txt", "w", encoding="utf-8") as fh:
            fh.write(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hspr",
        description="Proximity-knowledge navigation: build KBs, simulate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kb", help="accumulate scene statistics into a KB")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("gen-scenes", help="generate synthetic scenes")
    p.add_argument("--kb", required=True, help="generator KB file, or 'house' for the built-in grammar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--regions", type=int, default=10)
    p.add_argument("--nodes-per-region", default="1,2")
    p.add_argument("--extra-links", type=int, default=1)
    p.add_argument("--objects-per-node", default="1,2")
    p.add_argument("--extent", type=float, default=2.0)
    p.add_argument("--repeat-types", action="store_true", help="allow repeated region types")
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("gen-episodes", help="sample episodes over a scene directory")
    p.add_argument("--scenes", required=True)
    p.add_argument("--per-scene", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_episodes)

    p = sub.add_parser("run", help="run a batch of episodes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--policy", choices=POLICIES, default="hspr")
    p.add_argument("--fusion", choices=FUSION_MODES, default="residual")
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--omega", default=None, help="comma-separated per-step weights")
    p.add_argument("--beta", default="fixed:0.5")
    p.add_argument("--confusion", default="identity", help="identity | eps:<f> | file.json")
    p.add_argument("--object-noise", type=float, default=0.0)
    p.add_argument("--visual", default="0.3,1.5,10,0", help="w_d,w_t,decay,noise_sd")
    p.add_argument("--stop-weights", default="1.0,1.4")
    p.add_argument("--max-actions", type=int, default=15)
    p.add_argument("--eq11-literal", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score trajectories against ground truth")
    p.add_argument("--scenes", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=3.0)
    p.add_argument("--ne", choices=("geodesic", "euclidean"), default="geodesic")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep reasoning steps or fusion modes on the benchmark")
    p.add_argument("--sweep", required=True, help="steps=1..5 or fusion=average,dynamic,residual")
    p.add_argument("--scenes-n", type=int, default=30)
    p.add_argument("--episodes-per", type=int, default=3)
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--confusion", default="eps:0.2")
    p.add_argument("--visual-noise", type=float, default=0.1)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    return parser


def dispatch(argv=None) -> int:
    try:
        _setup_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:  # SchemaError is a ValueError; a bad --out, an OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
