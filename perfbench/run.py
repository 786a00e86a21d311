"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload large-scene --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the engine is imported from ./src.  With
--trace 0 the run repeats passes of the workload until --seconds have gone
and prints the end-to-end metrics, with their timings adjusted to the
reference host (perfbench/hostspeed.py); with --trace 1 it alternates two untraced
and two traced passes and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 1 when a correctness check fails and 2 when the engine
cannot be imported.

    python3 perfbench/run.py --record --workload large-vocab --seed 1

runs one pass and stores its trajectory digest and quality as the reference
for that seed in perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 3
# eval takes 0.02-0.2 s, so each scored pass repeats it at least this often
# and for at least this long, and latency passes re-run it every
# EVAL_INTERVAL_S, so that its samples are spread over the whole run
EVAL_REPEATS = 5
EVAL_MIN_S = 0.5
EVAL_INTERVAL_S = 1.0


def _import_engine():
    """Put ./src and the checkout root first on the path and import hspr from there."""
    source = ROOT / "src" / "hspr"
    if not (source / "__init__.py").is_file():
        print(f"error: no engine sources at {source}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import hspr

    if Path(hspr.__file__).resolve().parent != source:
        print(f"error: imported hspr from {hspr.__file__}, not from this checkout", file=sys.stderr)
        sys.exit(2)


def _metadata(workload, seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    return {
        "workload": workload.name,
        "seed": seed,
        "seeds": workload.seeds_doc.replace("<seed>", str(seed)),
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """State of one benchmark invocation: its passes, checks and failures.

    Every timed stage is kept as its (start, end) on the perf_counter clock,
    so that a metric can be read raw or adjusted to the reference host.
    """

    def __init__(self, workload, seed: int, work: Path):
        from perfbench import gate
        from perfbench.hostspeed import HostSpeed

        self.workload = workload
        self.seed = seed
        self.work = work
        self.expected = gate.load_expected()
        self.errors: list[str] = []
        self.digests: set[str] = set()
        self.qualities: list[dict] = []
        self.setups: list[tuple[float, float]] = []
        self.evals: list[tuple[float, float]] = []
        self._scored = None  # (state, output, work) of the last scored pass
        self._last_eval = 0.0
        self.attempted = 0
        self.failed = 0
        self._passes = 0
        self.host = HostSpeed()

    def _pass_dir(self) -> Path:
        self._passes += 1
        path = self.work / f"pass{self._passes}"
        path.mkdir()
        return path

    def _check(self, traj_path: Path, failed: int, quality: dict | None = None) -> tuple[int, int]:
        """Digest and count a trajectory file; returns (episodes, decisions)."""
        from perfbench import gate
        from perfbench.workloads import decisions_in

        digest = gate.trajectory_digest(traj_path)
        episodes, decisions = decisions_in(traj_path)
        self.attempted += episodes + failed
        self.failed += failed
        self.digests.add(digest)
        if quality is not None:
            self.errors += gate.check_expected(self.expected, self.workload.name, self.seed, digest, quality)
        return episodes, decisions

    def setup(self, work: Path):
        self.host.sample()
        gc.collect()
        start = time.perf_counter()
        state = self.workload.setup(self.seed, work)
        self.setups.append((start, time.perf_counter()))
        return state

    def _score(self, state, out, work: Path, repeat: bool) -> tuple[dict, list]:
        """Evaluate a pass's output: at least EVAL_REPEATS times for at least
        EVAL_MIN_S, or once; returns its quality and the eval spans."""
        if self._scored:
            shutil.rmtree(self._scored[2])
        self._scored = (state, out, work)
        spans = []
        while not spans or repeat and (len(spans) < EVAL_REPEATS or
                                       sum(end - start for start, end in spans) < EVAL_MIN_S):
            spans.append(self.eval_sample())
            self.host.sample_if_due()
        return self.qualities[-1], spans

    def eval_sample(self) -> tuple[float, float]:
        """Time one eval of the last scored pass's output."""
        state, out, work = self._scored
        gc.collect()
        start = time.perf_counter()
        self.qualities.append(self.workload.evaluate(state, out, work))
        self._last_eval = time.perf_counter()
        self.evals.append((start, self._last_eval))
        return self.evals[-1]

    def _between_episodes(self) -> None:
        if self._scored and time.perf_counter() - self._last_eval >= EVAL_INTERVAL_S:
            self.eval_sample()
        self.host.sample_if_due()

    def batch_pass(self, parallel: int | None = None, repeat_eval: bool = True) -> dict:
        """setup -> run (one batch) -> eval, each stage timed."""
        wl, work = self.workload, self._pass_dir()
        state = self.setup(work)
        start = time.perf_counter()
        out = wl.run(state, work, parallel)
        end = time.perf_counter()
        self.host.sample()
        quality, evals = self._score(state, out, work, repeat_eval)
        traj_path, failed = wl.save(state, out, work)
        episodes, decisions = self._check(traj_path, failed, quality)
        return {
            "setup": self.setups[-1], "run": [(start, end)], "evals": evals,
            "episodes": episodes, "decisions": decisions, "quality": quality,
        }

    def latency_pass(self, scored: bool) -> dict:
        """setup -> serial run_episode calls in run_batch order, each timed.

        A scored pass is also evaluated and gated like a batch pass; for the
        in-process workloads it is the only kind of pass, so that a host
        sample falls between episodes all through the run.
        """
        from hspr.simulator import BatchResult, save_trajectories
        from perfbench.workloads import run_episodes_timed

        wl, work = self.workload, self._pass_dir()
        state = self.setup(work)
        inputs = wl.replay_inputs(state, work)
        try:
            trajectories, spans = run_episodes_timed(inputs, between=self._between_episodes)
        except Exception as exc:  # an episode that raises is a failed run, not a crash
            self.errors.append(f"{wl.name}: serial replay failed: {exc!r}")
            self.attempted += len(inputs.episodes)
            self.failed += len(inputs.episodes)
            return {"setup": self.setups[-1], "run": None}
        self.host.sample()
        traj_path = work / "replay.jsonl"
        save_trajectories(trajectories, traj_path)
        result = {"setup": self.setups[-1], "run": spans}
        if scored:
            quality, result["evals"] = self._score(state, BatchResult(trajectories, {}), work, True)
            episodes, decisions = self._check(traj_path, 0, quality)
        else:
            episodes, decisions = self._check(traj_path, 0)
            shutil.rmtree(work)
        result.update(episodes=episodes, decisions=decisions)
        return result

    def parallel_check(self) -> None:
        """`run --parallel 1` must write the same bytes as the timed `--parallel 2` run."""
        from perfbench import gate

        work = self._pass_dir()
        state = self.workload.setup(self.seed, work)
        serial = self.workload.run(state, work, 1)
        digest = gate.trajectory_digest(serial)
        if digest not in self.digests or len(self.digests) != 1:
            self.errors.append(f"{self.workload.name}: --parallel 1 digest {digest} differs from --parallel 2")
        shutil.rmtree(work)

    def finish_checks(self) -> bool:
        if len(self.digests) > 1:
            self.errors.append(f"{self.workload.name}: passes disagree on trajectories: {sorted(self.digests)}")
        if any(q != self.qualities[0] for q in self.qualities):
            self.errors.append(f"{self.workload.name}: passes disagree on quality: {self.qualities}")
        if self.failed:
            self.errors.append(f"{self.workload.name}: {self.failed} of {self.attempted} episodes failed")
        return not self.errors


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Make passes until `seconds` have gone; returns the metrics adjusted
    to the reference host, and the raw ones.

    `pipeline` alternates batch passes (its timed path is the process pool)
    with latency passes; the in-process workloads make scored latency passes
    only, which run the same serial loop as run_batch.
    """
    kinds = ("batch", "latency") if run.workload.parallel > 1 else ("latency",)
    passes = {kind: [] for kind in kinds}
    from perfbench import gate
    from perfbench.hostspeed import REFERENCE_MS

    last = {}  # duration of the latest pass of each kind
    start = time.perf_counter()
    while True:
        kind = min(kinds, key=lambda k: len(passes[k]))
        if kind in last and time.perf_counter() - start + last[kind] > seconds:
            break
        pass_start = time.perf_counter()
        if kind == "batch":
            passes[kind].append(run.batch_pass())
        else:
            passes[kind].append(run.latency_pass(scored=run.workload.parallel == 1))
        last[kind] = time.perf_counter() - pass_start
    while len(run.setups) < MIN_SETUPS:
        work = run._pass_dir()
        run.setup(work)
        shutil.rmtree(work)
    run.host.sample()
    if run.workload.parallel > 1:
        run.parallel_check()

    timed = passes[kinds[0]]
    replays = [p for p in passes["latency"] if p["run"]]
    print(f"# {len(timed)} timed passes, {len(replays)} latency passes, {len(run.setups)} setups, "
          f"{len(run.evals)} evals in {time.perf_counter() - start:.1f} s")
    adjusted = summarize(run, timed, replays, run.host.adjusted_s)
    raw = summarize(run, timed, replays, span_s)
    if replays:
        n = len(replays[0]["run"])
        print(f"# per-episode latency over {n} episodes; the tail rule allows up to p{gate.tail_percentile(n)}")
    quality = run.qualities[0] if run.qualities else {}
    for key, value in quality.items():
        print(f"# quality.{key} {value!r} %")
    print(f"# failed_fraction {run.failed / max(run.attempted, 1)!r}")
    samples = run.host.samples_ms
    print(f"# host factor {run.host.factor():.4f}: reference kernel {min(samples):.3f}-{max(samples):.3f} ms "
          f"over {len(samples)} samples, reference {REFERENCE_MS} ms")
    for name, (value, unit) in sorted(raw.items()):
        print(f"# raw {name} {value!r} {unit}")
    return adjusted, raw


def span_s(span: tuple[float, float]) -> float:
    return span[1] - span[0]


def pass_s(p: dict, duration=span_s) -> float:
    """setup + run + the median eval of one scored pass."""
    return (duration(p["setup"]) + sum(duration(span) for span in p["run"])
            + statistics.median(duration(span) for span in p["evals"]))


def summarize(run: Run, timed: list, replays: list, duration) -> dict:
    """The end-to-end metrics, with each timed span's length read by `duration`."""
    from perfbench import gate

    run_s = sum(duration(span) for p in timed for span in p["run"])
    metrics = {
        "setup_s": (statistics.median(duration(span) for span in run.setups), "s"),
        "episodes_per_s": (sum(p["episodes"] for p in timed) / run_s, "1/s"),
        "decisions_per_s": (sum(p["decisions"] for p in timed) / run_s, "1/s"),
        "eval_s": (statistics.median(duration(span) for span in run.evals), "s"),
        "pipeline_s": (statistics.median(pass_s(p, duration) for p in timed), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    per_episode = [statistics.median(duration(span) for span in spans)
                   for spans in zip(*(p["run"] for p in replays))]
    if per_episode:
        if gate.tail_percentile(len(per_episode)) < 90:
            raise RuntimeError(f"{len(per_episode)} episodes leave fewer than 10 beyond p90")
        metrics["episode_ms_p50"] = (1e3 * statistics.median(per_episode), "ms")
        metrics["episode_ms_p90"] = (1e3 * gate.percentile(per_episode, 90), "ms")
    return metrics


def trace(run: Run) -> dict:
    """Untraced, traced, untraced, traced passes: per-layer metrics and tracing overhead.

    Every pass runs serially, because process-pool workers would not report
    their spans back.
    """
    from perfbench import tracing

    walls = {"untraced": [], "traced": []}
    layers, calls = [], []
    for kind in ("untraced", "traced", "untraced", "traced"):
        tracing.assert_untraced()
        if kind == "untraced":
            result = run.batch_pass(parallel=1, repeat_eval=False)
        else:
            tracer = tracing.Tracer()
            with tracer:
                result = run.batch_pass(parallel=1, repeat_eval=False)
            layers.append(tracing.layer_metrics(tracer))
            calls.append(dict(tracer.calls))
        walls[kind].append(pass_s(result))
    tracing.assert_untraced()
    if calls[0] != calls[1]:
        diff = sorted(k for k in calls[0].keys() | calls[1].keys() if calls[0].get(k) != calls[1].get(k))
        run.errors.append(f"call counts differ between traced passes: {diff}")
    if not calls[0].get("simulator.run_episode"):
        run.errors.append("traced passes recorded no episode spans")

    metrics = {name: statistics.mean(layer[name] for layer in layers) for name in layers[0]}
    total = sum(tracer.self_s.values())
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:8]
    print("# largest self times, last traced pass: " + ", ".join(
        f"{name} {100 * t / total:.1f}%" for name, t in top))
    work = run._pass_dir()
    metrics["simulator.run_batch.job_bytes"] = run.workload.replay_inputs(
        run.workload.setup(run.seed, work), work
    ).job_bytes()
    shutil.rmtree(work)
    metrics["trace.overhead_ratio"] = sum(walls["traced"]) / sum(walls["untraced"])
    return metrics


def record(run: Run) -> None:
    """Store this seed's digest and quality as its reference in expected.json."""
    from perfbench import gate

    run.expected.get(run.workload.name, {}).pop(str(run.seed), None)
    result = run.batch_pass(repeat_eval=False)
    if not run.finish_checks():
        raise SystemExit("\n".join(run.errors))
    expected = gate.load_expected()
    expected.setdefault(run.workload.name, {})[str(run.seed)] = {
        "digest": run.digests.pop(),
        "quality": result["quality"],
    }
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    _import_engine()
    from perfbench.tracing import unit_of
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        run = Run(workload, args.seed, work)
        if args.record:
            record(run)
            return 0
        meta = _metadata(workload, args.seed)
        print("# meta " + json.dumps(meta, sort_keys=True))
        if args.trace:
            metrics = {name: (value, unit_of(name)) for name, value in trace(run).items()}
        else:
            metrics, raw = measure(run, args.seconds)
            meta["host_factor"] = run.host.factor()
            meta["host_samples_ms"] = run.host.samples_ms
            meta["host_samples_at_s"] = run.host.at
            meta["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = run.finish_checks()
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} {value!r} {unit}")
    payload = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    _save_result(meta, payload, args)
    print(json.dumps(payload, sort_keys=True))
    return 0 if correct else 1


def _save_result(meta: dict, payload: dict, args) -> None:
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **payload}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
