"""Every file loader reads through hspr.errors: a missing file, text that is
not UTF-8 or not JSON, a wrong top-level type and a wrong schema_version all
raise SchemaError naming the file kind and path."""

import json

import pytest

from hspr.bench import house_generator_kb
from hspr.errors import SchemaError
from hspr.kb import load_kb, save_kb
from hspr.perception import ConfusionModel, load_confusion
from hspr.scene import load_scene, save_scene
from hspr.simulator import Trajectory, load_trajectories, save_trajectories
from hspr.synth import load_episodes, sample_episodes, save_episodes

from conftest import make_scene
from oracles import save_confusion


def _two_node_scene():
    return make_scene(
        [("a", "r0", 0, (0.0, 0.0, 0.0), [("a-o", 1, 3)]), ("b", "r1", 1)],
        [("a", "b", 1.5)],
    )


def _trajectory():
    return Trajectory("test-ep0", "hspr", ["a", "b"], ["b", "<stop>"], "b", None, 1.5)


# kind as the messages name it: (loader, writer of one valid file)
LOADERS = {
    "scene": (load_scene, lambda path: save_scene(_two_node_scene(), path)),
    "KB": (load_kb, lambda path: save_kb(house_generator_kb()[0], path)),
    "confusion": (load_confusion, lambda path: save_confusion(ConfusionModel.eps_uniform(3, 0.2), path)),
    "episode manifest": (
        load_episodes, lambda path: save_episodes(sample_episodes(_two_node_scene(), 2, 0), path)
    ),
    "trajectory": (load_trajectories, lambda path: save_trajectories([_trajectory()], path)),
}


def _set_version(value):
    def mutate(text):
        payload = json.loads(text)
        payload["schema_version"] = value
        return json.dumps(payload)
    return mutate


def _drop_version(text):
    payload = json.loads(text)
    del payload["schema_version"]
    return json.dumps(payload)


# case: (rewrite of a valid file's text to text or bytes, or None to leave no file; message part)
CASES = {
    "missing": (None, "cannot be read"),
    "truncated": (lambda text: text[: len(text) // 2], "is not valid JSON"),
    "too_deep": (lambda text: "[" * 100_000, "is not valid JSON"),
    "not_utf8": (lambda text: b"\xff" + text.encode(), "is not UTF-8 text"),
    "wrong_top_level": (lambda text: "[1, 2]" if text.startswith("{") else "{}", "must contain a JSON"),
    "version_99": (_set_version(99), "schema_version 99"),
    "version_missing": (_drop_version, "schema_version None"),
    "version_true": (_set_version(True), "schema_version True"),
    "version_only": (lambda text: '{"schema_version": 5}', "schema_version 5"),
}
VERSIONED = ("scene", "KB", "confusion", "trajectory")


@pytest.mark.parametrize("kind,case", [
    pytest.param(kind, case, id=f"{kind.replace(' ', '_')}-{case}")
    for kind in LOADERS for case in CASES
    if kind in VERSIONED or not case.startswith("version")
])
def test_bad_file_is_schema_error(kind, case, tmp_path):
    load, write = LOADERS[kind]
    rewrite, message = CASES[case]
    path = tmp_path / "input.json"
    if rewrite is not None:
        write(path)
        text = rewrite(path.read_text())
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(SchemaError, match=message) as info:
        load(path)
    assert kind in str(info.value)
    assert str(path) in str(info.value)

