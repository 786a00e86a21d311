import hashlib
import os
import subprocess
import sys
from pathlib import Path

import hspr

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, hash_seed):
    src = str(Path(hspr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_scene_generation_demo_independent_of_hash_seed():
    assert run_demo("02_scene_generation.py", 1) == run_demo("02_scene_generation.py", 2)


def test_single_episode_demo_runs():
    lines = run_demo("03_single_episode.py", 0).splitlines()
    steps = [line for line in lines if line.startswith("step ")]
    assert steps
    assert len(steps) == sum(line.strip().startswith("top action scores:") for line in lines)


# recorded before demo 04 scored through metrics.evaluate
DEMO_04_SHA256 = "702befd42eb1a3f44ea38b7535c62e53bf6c117d9a42654c02ae0dbfeeb7f4e5"


def test_benchmark_ablations_demo_output_is_pinned():
    stdout = run_demo("04_benchmark_ablations.py", 0)
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == DEMO_04_SHA256
