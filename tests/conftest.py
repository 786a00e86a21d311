import contextlib
import importlib
import io
import math
import os
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the CLI and demo tests start Python subprocesses; they import hspr from
# this checkout's src/ as the test process does
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import hspr
from hspr.bench import house_generator_kb
from hspr.cli import dispatch
from hspr.scene import NodeRecord, ObjectInstance, SceneGraph, validate_scene
from hspr.seeding import stable_digest
from hspr.synth import GeneratorConfig, generate_scene, sample_episodes


def cli_in_process(*argv):
    """Run the CLI in this process: (exit code, stderr); stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch([str(a) for a in argv])
    return code, err.getvalue()


def compensated_sum(values):
    """Built-in sum() as Python 3.12 and later compute it: ints add exactly,
    and once the total is a float each addition is Neumaier-compensated."""
    total, comp = 0, 0.0
    for value in values:
        if isinstance(total, float) and isinstance(value, (int, float)):
            step = total + value
            if abs(total) >= abs(value):
                comp += (total - step) + value
            else:
                comp += (value - step) + total
            total = step
        else:
            total = total + value
    if isinstance(total, float) and comp and math.isfinite(comp):
        total += comp
    return total


@pytest.fixture
def python312_sum(monkeypatch):
    """Every hspr module's sum() replaced by Python 3.12's compensated one for
    the test: what hspr writes must not depend on the Python version."""
    for info in pkgutil.iter_modules(hspr.__path__):
        module = importlib.import_module(f"hspr.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def same_float(a, b):
    """Equal as IEEE values, including the sign of a zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def make_scene(
    nodes,
    edges,
    n_types=4,
    n_object_types=4,
    scene_id="test",
    validate=True,
):
    """Compact scene builder for tests.

    nodes: list of (node_id, region_id, node_type) or
    (node_id, region_id, node_type, position) or
    (node_id, region_id, node_type, position, [(obj_id, obj_type, view)]).
    edges: list of (a, b, length).
    """
    records = []
    for i, spec in enumerate(nodes):
        node_id, region_id, node_type = spec[0], spec[1], spec[2]
        position = spec[3] if len(spec) > 3 else (float(i), 0.0, 0.0)
        objects = tuple(
            ObjectInstance(oid, otype, view, 0.0, 0.0)
            for oid, otype, view in (spec[4] if len(spec) > 4 else [])
        )
        records.append(NodeRecord(node_id, position, region_id, node_type, objects))
    scene = SceneGraph(
        scene_id=scene_id,
        nodes=records,
        edges=[(a, b, float(length)) for a, b, length in edges],
        type_vocabulary=[f"type{t}" for t in range(n_types)],
        object_vocabulary=[f"obj{t}" for t in range(n_object_types)],
    )
    if validate:
        validate_scene(scene)
    return scene


@pytest.fixture
def two_node_scene():
    return make_scene(
        nodes=[
            ("a", "r0", 0),
            ("b", "r1", 1, (3.0, 0.0, 0.0), [("b-obj", 2, 5)]),
        ],
        edges=[("a", "b", 3.0)],
    )


@pytest.fixture(scope="session")
def large_scenes():
    """(scenes, episodes, kb): two scenes in the large-scene benchmark's shape,
    60 regions of repeated types with 4-5 nodes each, and two episodes per
    scene.  Walks on them revisit known nodes far more than on the house
    benchmark."""
    kb, object_weights = house_generator_kb()
    scenes, episodes = {}, []
    for i in range(2):
        config = GeneratorConfig(
            seed=stable_digest(1, "large-scene", "scene", i), generator_kb=kb,
            region_count=60, nodes_per_region=(4, 5), extra_region_links=1,
            objects_per_node=(1, 2), unique_region_types=False,
            unique_objects_per_region=True, object_weights=object_weights,
        )
        scene = generate_scene(config, scene_id=f"large{i:03d}")
        scenes[scene.scene_id] = scene
        episodes.extend(sample_episodes(scene, 2, (1, "large-scene", "episodes", i)))
    return scenes, episodes, kb


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter):
    """Surface the acceptance criteria verdicts even under output capture."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULT_LINES:
            terminalreporter.write_line(line)
