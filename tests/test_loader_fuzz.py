"""Fuzz every file loader through the CLI with one mutated JSON field.

Each example takes one valid input file (scene, KB, confusion matrix,
episode manifest or trajectory record), replaces one field anywhere in it
with another JSON value, and runs the subcommands that read that file
in-process.  Bad input must come back as an exit code with an `error:` line:
never an exception, and never exit 4, which is kept for engine bugs.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspr.cli import EXIT_INTERNAL
from hspr.perception import ConfusionModel

from conftest import cli_in_process
from oracles import save_confusion

REPLACEMENTS = [None, "x", "nan", [], [1, "a"], {}, {"k": 1}, -1, -2.5, 1e300, -1e300, 10**400]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Two small scenes with their manifest, KB, confusion file and trajectories."""
    root = tmp_path_factory.mktemp("fuzz")
    steps = [
        ("gen-scenes", "--kb", "house", "--n", 2, "--seed", 5, "--regions", 4,
         "--out", root / "scenes"),
        ("gen-episodes", "--scenes", root / "scenes", "--per-scene", 2, "--seed", 5,
         "--out", root / "episodes.json"),
        ("build-kb", "--scenes", root / "scenes", "--out", root / "kb.json"),
    ]
    for argv in steps:
        assert cli_in_process(*argv)[0] == 0
    n_types = len(json.loads((root / "kb.json").read_text())["type_vocabulary"])
    save_confusion(ConfusionModel.eps_uniform(n_types, 0.2), root / "confusion.json")
    code, err = cli_in_process("run", "--scenes", root / "scenes", "--kb", root / "kb.json",
                               "--episodes", root / "episodes.json", "--seed", 1,
                               "--out", root / "traj.jsonl")
    assert code == 0, err
    return root


def _paths(value, prefix=()):
    """Every index path into a JSON value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(value, path, new):
    for key in path[:-1]:
        value = value[key]
    value[path[-1]] = new


def _commands(kind, w):
    """The subcommands that read a file of this kind, over the world copy w."""
    run = ("run", "--scenes", w / "scenes", "--kb", w / "kb.json",
           "--episodes", w / "episodes.json", "--seed", 1, "--out", w / "out.jsonl")
    evaluate = ("eval", "--scenes", w / "scenes", "--episodes", w / "episodes.json",
                "--traj", w / "traj.jsonl", "--out", w / "report")
    return {
        "scene": [
            ("build-kb", "--scenes", w / "scenes", "--out", w / "out-kb.json"),
            ("gen-episodes", "--scenes", w / "scenes", "--per-scene", 1, "--seed", 2,
             "--out", w / "out-episodes.json"),
            run,
            evaluate,
        ],
        "kb": [
            run,
            ("gen-scenes", "--kb", w / "kb.json", "--n", 1, "--seed", 3, "--regions", 4,
             "--out", w / "out-scenes"),
        ],
        "confusion": [run + ("--confusion", w / "confusion.json")],
        "manifest": [run, evaluate],
        "trajectory": [evaluate],
    }[kind]


def _load(kind, w):
    """(file, parsed records) of the file this kind mutates; JSONL gives a list."""
    file = {
        "scene": next(iter(sorted((w / "scenes").glob("*.json")))),
        "kb": w / "kb.json",
        "confusion": w / "confusion.json",
        "manifest": w / "episodes.json",
        "trajectory": w / "traj.jsonl",
    }[kind]
    if kind == "trajectory":
        return file, [json.loads(line) for line in file.read_text().splitlines()]
    return file, json.loads(file.read_text())


@pytest.mark.parametrize("kind", ["scene", "kb", "confusion", "manifest", "trajectory"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_one_mutated_field_exits_cleanly(kind, world, data):
    with tempfile.TemporaryDirectory() as tmp:
        w = Path(tmp)
        shutil.copytree(world, w, dirs_exist_ok=True)
        file, payload = _load(kind, w)
        path = data.draw(st.sampled_from(list(_paths(payload))), label="path")
        new = data.draw(st.sampled_from(REPLACEMENTS), label="value")
        _replace(payload, path, new)
        if kind == "trajectory":
            file.write_text("".join(json.dumps(r) + "\n" for r in payload))
        else:
            file.write_text(json.dumps(payload))
        for argv in _commands(kind, w):
            code, err = cli_in_process(*argv)
            assert code != EXIT_INTERNAL, (argv[0], err)
            if code != 0:
                assert any(line.startswith("error:") for line in err.splitlines()), (argv[0], err)
