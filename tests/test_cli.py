import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import pytest

from hspr import cli as cli_module, simulator
from hspr.cli import dispatch
from hspr.errors import InternalError
from hspr.kb import load_kb
from hspr.perception import ConfusionModel
from hspr.scene import load_scene
from hspr.simulator import BatchResult, run_batch
from hspr.topo import SemanticTopoMap

from conftest import cli_in_process
from oracles import save_confusion


def cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "hspr.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


# recorded before the report writer moved to hspr.errors
REPORT_JSON_SHA256 = "21f7213359b3e8bc07d84c053a767107059f42b1c34b19b6dc30c06d2645ded9"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small generated world shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert cli("gen-scenes", "--kb", "house", "--n", "5", "--seed", "7",
               "--out", str(root / "scenes")).returncode == 0
    assert cli("gen-episodes", "--scenes", str(root / "scenes"), "--per-scene", "2",
               "--seed", "3", "--out", str(root / "episodes.json")).returncode == 0
    assert cli("build-kb", "--scenes", str(root / "scenes"),
               "--out", str(root / "kb.json")).returncode == 0
    return root


class TestSubcommands:
    def test_built_kb_is_normalized(self, pipeline_dir):
        kb = load_kb(pipeline_dir / "kb.json")
        assert kb.P_r.min() >= 0.0
        assert kb.P_r.max() <= 0.95
        assert kb.provenance["scene_count"] == 5

    def test_run_then_eval(self, pipeline_dir):
        run = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                  "--kb", str(pipeline_dir / "kb.json"),
                  "--episodes", str(pipeline_dir / "episodes.json"),
                  "--policy", "hspr", "--seed", "11",
                  "--out", str(pipeline_dir / "traj.jsonl"))
        assert run.returncode == 0, run.stderr
        ev = cli("eval", "--scenes", str(pipeline_dir / "scenes"),
                 "--episodes", str(pipeline_dir / "episodes.json"),
                 "--traj", str(pipeline_dir / "traj.jsonl"),
                 "--out", str(pipeline_dir / "report"))
        assert ev.returncode == 0, ev.stderr
        assert (pipeline_dir / "report" / "report.json").exists()
        assert (pipeline_dir / "report" / "report.txt").exists()
        header = ev.stdout.splitlines()[0].split()
        assert header[1:] == ["TL", "NE", "OSR", "SR", "SPL", "RGS", "RGSPL"]
        assert _sha256(pipeline_dir / "report" / "report.json") == REPORT_JSON_SHA256
        assert _sha256(pipeline_dir / "report" / "report.txt") == (
            "2ac3e6957ad8b1f5cea2733fa94b84b03ed13d3b856991eda54db3baf23470e8"
        )

    def test_report_pin_holds_under_python312_sum(self, pipeline_dir, tmp_path, python312_sum):
        # the run and eval above, in this process, so that a patched sum() reaches hspr
        code, stderr = cli_in_process(
            "run", "--scenes", pipeline_dir / "scenes", "--kb", pipeline_dir / "kb.json",
            "--episodes", pipeline_dir / "episodes.json", "--policy", "hspr", "--seed", "11",
            "--out", tmp_path / "traj.jsonl",
        )
        assert code == 0, stderr
        code, stderr = cli_in_process(
            "eval", "--scenes", pipeline_dir / "scenes", "--episodes", pipeline_dir / "episodes.json",
            "--traj", tmp_path / "traj.jsonl", "--out", tmp_path / "report",
        )
        assert code == 0, stderr
        assert _sha256(tmp_path / "report" / "report.json") == REPORT_JSON_SHA256

    def test_pipeline_reproducible_and_parallel_invariant(self, tmp_path):
        outputs = []
        for name, parallel in [("one", "1"), ("two", "1"), ("par", "4")]:
            base = tmp_path / name
            base.mkdir()
            for step in (
                ("gen-scenes", "--kb", "house", "--n", "4", "--seed", "5", "--out", str(base / "scenes")),
                ("gen-episodes", "--scenes", str(base / "scenes"), "--per-scene", "2", "--seed", "2",
                 "--out", str(base / "episodes.json")),
                ("build-kb", "--scenes", str(base / "scenes"), "--out", str(base / "kb.json")),
                ("run", "--scenes", str(base / "scenes"), "--kb", str(base / "kb.json"),
                 "--episodes", str(base / "episodes.json"), "--confusion", "eps:0.2",
                 "--visual", "0.3,1.5,10,0.1", "--seed", "9", "--parallel", parallel,
                 "--out", str(base / "traj.jsonl")),
                ("eval", "--scenes", str(base / "scenes"), "--episodes", str(base / "episodes.json"),
                 "--traj", str(base / "traj.jsonl"), "--out", str(base / "report")),
            ):
                code, stderr = cli_in_process(*step)
                assert code == 0, stderr
            outputs.append(
                (
                    (base / "traj.jsonl").read_bytes(),
                    (base / "report" / "report.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]

    def test_every_pipeline_file_is_byte_identical_across_runs(self, tmp_path):
        """gen-scenes -> gen-episodes -> build-kb -> run -> eval is a pure
        function of its arguments: two runs write the same files, the KB too."""
        runs = []
        for base in (tmp_path / "a", tmp_path / "b"):
            for step in (
                ("gen-scenes", "--kb", "house", "--n", "4", "--seed", "5", "--out", base / "scenes"),
                ("gen-episodes", "--scenes", base / "scenes", "--per-scene", "2", "--seed", "2",
                 "--out", base / "episodes.json"),
                ("build-kb", "--scenes", base / "scenes", "--out", base / "kb.json"),
                ("run", "--scenes", base / "scenes", "--kb", base / "kb.json",
                 "--episodes", base / "episodes.json", "--seed", "9", "--out", base / "traj.jsonl"),
                ("eval", "--scenes", base / "scenes", "--episodes", base / "episodes.json",
                 "--traj", base / "traj.jsonl", "--out", base / "report"),
            ):
                code, stderr = cli_in_process(*step)
                assert code == 0, stderr
            runs.append({p.relative_to(base).as_posix(): p.read_bytes() for p in base.rglob("*") if p.is_file()})
        assert sorted(runs[0]) == [
            "episodes.json", "kb.json", "report/report.json", "report/report.txt",
            *(f"scenes/scene000{i}.json" for i in range(4)), "traj.jsonl",
        ]
        assert runs[0] == runs[1]
        assert load_kb(tmp_path / "a" / "kb.json") == load_kb(tmp_path / "b" / "kb.json")

    def test_ablate_steps_table_layout(self, tmp_path):
        result = cli("ablate", "--sweep", "steps=1..2", "--scenes-n", "4",
                     "--episodes-per", "1", "--out", str(tmp_path / "ab"))
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0].split()[0] == "steps"
        assert lines[0].split()[1:] == ["TL", "NE", "OSR", "SR", "SPL", "RGS", "RGSPL"]
        assert lines[2].startswith("steps=1")
        assert lines[3].startswith("steps=2")
        payload = json.loads((tmp_path / "ab" / "ablation.json").read_text())
        assert set(payload["results"]) == {"1", "2"}
        # recorded before the ablation writer moved to hspr.errors
        assert _sha256(tmp_path / "ab" / "ablation.json") == (
            "696b98dfa636c786ee435ecf03455ca330fbed3833b1fe1295ba4c48882fed4c"
        )

    def test_ablate_fusion_sweep(self, tmp_path):
        result = cli("ablate", "--sweep", "fusion=average,residual", "--scenes-n", "3",
                     "--episodes-per", "1")
        assert result.returncode == 0, result.stderr
        assert "fusion=average" in result.stdout
        assert "fusion=residual" in result.stdout


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert cli("run", "--nope").returncode == 2
        assert cli().returncode == 2

    def test_missing_file_is_3(self, tmp_path):
        result = cli("build-kb", "--scenes", str(tmp_path / "missing"), "--out", str(tmp_path / "kb.json"))
        assert result.returncode == 3
        assert "error" in result.stderr.lower()

    def test_unwritable_out_is_3(self, pipeline_dir, tmp_path):
        code, err = cli_in_process("build-kb", "--scenes", pipeline_dir / "scenes", "--out", tmp_path)
        _assert_input_error(code, err, "Is a directory")

    def test_schema_error_is_3(self, pipeline_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 42}')
        result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(bad), "--episodes", str(pipeline_dir / "episodes.json"),
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
        assert result.returncode == 3

    def test_bad_log_level_is_3(self, monkeypatch):
        import os

        env = dict(os.environ, HSPR_LOG="chatty")
        result = cli("ablate", "--sweep", "steps=1..1", "--scenes-n", "2", "--episodes-per", "1", env=env)
        assert result.returncode == 3

    def test_unknown_confusion_file_is_3(self, pipeline_dir, tmp_path):
        result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(pipeline_dir / "kb.json"),
                     "--episodes", str(pipeline_dir / "episodes.json"),
                     "--confusion", str(tmp_path / "nope.json"),
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
        assert result.returncode == 3

    def test_kb_top_level_array_is_3(self, pipeline_dir, tmp_path):
        bad = tmp_path / "kb.json"
        bad.write_text("[1,2]")
        result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(bad), "--episodes", str(pipeline_dir / "episodes.json"),
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
        assert result.returncode == 3
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_confusion_top_level_array_is_3(self, pipeline_dir, tmp_path):
        bad = tmp_path / "confusion.json"
        bad.write_text("[1,2]")
        result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(pipeline_dir / "kb.json"),
                     "--episodes", str(pipeline_dir / "episodes.json"),
                     "--confusion", str(bad),
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
        assert result.returncode == 3
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr


def test_cli_import_loads_no_scipy():
    code = "import sys, hspr.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


RUN_FAULTS = {
    "missing_scene_dir": (("--scenes", "missing-scenes"), "scene directory"),
    "missing_kb": (("--kb", "missing-kb.json"), "KB file"),
    "missing_manifest": (("--episodes", "missing-episodes.json"), "episode manifest file"),
    "parallel_zero": (("--parallel", "0"), "--parallel must be >= 1"),
}


@pytest.mark.parametrize("fault", sorted(RUN_FAULTS))
def test_run_argument_fault_is_3(fault, pipeline_dir, tmp_path, capsys):
    (flag, value), message = RUN_FAULTS[fault]
    args = {
        "--scenes": str(pipeline_dir / "scenes"),
        "--kb": str(pipeline_dir / "kb.json"),
        "--episodes": str(pipeline_dir / "episodes.json"),
        "--parallel": "1",
    }
    args[flag] = value if flag == "--parallel" else str(tmp_path / value)
    argv = ["run", "--seed", "1", "--out", str(tmp_path / "t.jsonl")]
    for name, arg in args.items():
        argv += [name, arg]
    code = dispatch(argv)
    stderr = capsys.readouterr().err
    assert code == 3
    assert stderr.startswith("error:")
    assert message in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "t.jsonl").exists()


AGENT_FAULTS = {
    "stop_weights_nan": (("--stop-weights", "nan,1"), "--stop-weights nan,1: stop_weights must be finite"),
    "stop_weights_infinite": (("--stop-weights", "1,inf"), "--stop-weights 1,inf: stop_weights must be finite"),
    "tau_nan": (("--tau", "nan"), "--tau nan: feasibility_tau must be finite"),
    "visual_noise_negative": (("--visual", "0.3,1.5,10,-1"), "--visual 0.3,1.5,10,-1: noise_sd must be >= 0"),
    "visual_weight_infinite": (("--visual", "0.3,inf,10,0"), "--visual 0.3,inf,10,0: visual weights must be finite"),
    "omega_shorter_than_steps": (("--omega", "1,1", "--steps", "3"), "--omega 1,1: omega must supply"),
    "omega_shorter_than_more_steps": (("--omega", "1,1,1", "--steps", "4"), "--omega 1,1,1: omega must supply"),
    "omega_nan": (("--omega", "1,nan,1"), "--omega 1,nan,1: omega must supply"),
    "object_noise_above_one": (("--object-noise", "2"), "--object-noise 2.0: object_noise must be in [0, 1]"),
    "stop_weights_not_a_number": (("--stop-weights", "1,abc"), "--stop-weights expects two"),
    "visual_not_a_number": (("--visual", "1,2,3,x"), "--visual expects four"),
    "omega_not_a_number": (("--omega", "1,x,3"), "--omega expects comma-separated numbers"),
    "eps_not_a_number": (("--confusion", "eps:abc"), "--confusion eps:<f> expects a number"),
    "beta_fixed_nan": (("--beta", "fixed:nan"), "'nan' is not a finite number"),
    "beta_bias_nan": (("--beta", "logistic:bias=nan"), "'nan' is not a finite number"),
    "beta_unknown_feature": (("--beta", "logistic:foo=1"), "unknown balance feature 'foo'"),
    "max_actions_zero": (("--max-actions", "0"), "--max-actions 0: max_actions must be >= 1"),
    "gamma_above_one": (("--gamma", "2"), "--gamma 2.0: gamma must be in (0, 1]"),
    "beam_zero": (("--beam", "0"), "--beam 0: beam must be >= 1"),
    "steps_zero": (("--steps", "0"), "--steps 0: max_steps must be >= 1"),
    "eps_above_one": (("--confusion", "eps:2"), "--confusion eps:2: eps must be in [0, 1]"),
    "confusion_file_wrong_size": (("--confusion", "<tmp>/confusion-2x2.json"),
                                  "confusion matrix is 2x2, the KB has 10 types"),
}


@pytest.mark.parametrize("fault", sorted(AGENT_FAULTS))
def test_bad_agent_setting_fails_before_any_episode(fault, pipeline_dir, tmp_path, monkeypatch, capsys):
    extra, message = AGENT_FAULTS[fault]
    save_confusion(ConfusionModel.identity(2), tmp_path / "confusion-2x2.json")
    extra = [arg.replace("<tmp>", str(tmp_path)) for arg in extra]
    monkeypatch.setattr(cli_module, "_load_scenes_dir", _no_scene_read)
    code = dispatch(["run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(pipeline_dir / "kb.json"),
                     "--episodes", str(pipeline_dir / "episodes.json"),
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl"), *extra])
    stderr = capsys.readouterr().err
    assert code == 3
    assert stderr.startswith("error:")
    assert message in stderr
    assert len(stderr.strip().splitlines()) == 1  # no per-episode failure lines
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("pair", ["1e400,2", "1.7,2.9"])
def test_gen_scenes_rejects_non_integer_pair(pair, tmp_path, capsys):
    code = dispatch(["gen-scenes", "--kb", "house", "--n", "1", "--seed", "1",
                     "--nodes-per-region", pair, "--out", str(tmp_path / "scenes")])
    stderr = capsys.readouterr().err
    assert code == 3
    assert stderr.startswith(f"error: --nodes-per-region expects two comma-separated integers, got {pair!r}")
    assert "Traceback" not in stderr
    assert not (tmp_path / "scenes").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--extent", "nan", "region_extent"),
    ("--extent", "inf", "region_extent"),
    ("--extent", "-1", "region_extent"),
    ("--extent", "0", "region_extent"),
    ("--extra-links", "-3", "extra_region_links"),
    ("--nodes-per-region", "1,5000000000", "nodes_per_region"),
    ("--n", "-2", "--n"),
    ("--n", "0", "--n"),
    ("--regions", "12", "infeasible"),
])
def test_gen_scenes_rejects_bad_setting(flag, value, field, tmp_path):
    argv = {"--kb": "house", "--n": "1", "--seed": "1", "--out": tmp_path / "scenes", flag: value}
    code, err = cli_in_process("gen-scenes", *(item for pair in argv.items() for item in pair))
    _assert_input_error(code, err, field)
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "scenes").exists()


def _set_entry(value):
    def mutate(payload):
        payload["P_r"][0][1] = value
    return mutate


def _drop_last(key):
    def mutate(payload):
        payload[key] = payload[key][:-1]
    return mutate


def _shrink_object_matrix(payload):
    m = len(payload["object_vocabulary"]) - 1
    payload["P_o"] = [[0.0] * m for _ in range(m)]


def _sparse_triple_out_of_range(payload):
    m = len(payload["object_vocabulary"])
    payload["P_o"] = {"format": "sparse", "shape": [m, m], "triples": [[m, 0, 0.5]]}


def _object_index_out_of_range(payload):
    payload["top_objects"][0] = [999]


KB_VIOLATIONS = {
    "P_r_missing_row": (_drop_last("P_r"), "shape"),
    "P_o_size_differs_from_vocabulary": (_shrink_object_matrix, "shape"),
    "P_r_nan": (_set_entry(float("nan")), "not in [0, 1]"),
    "P_r_infinite": (_set_entry(float("inf")), "not in [0, 1]"),
    "P_r_negative": (_set_entry(-3.0), "not in [0, 1]"),
    "P_r_above_one": (_set_entry(7.0), "not in [0, 1]"),
    "P_o_sparse_triple_out_of_range": (_sparse_triple_out_of_range, "outside shape"),
    "top_objects_row_count": (_drop_last("top_objects"), "one per type"),
    "top_objects_index_out_of_range": (_object_index_out_of_range, "object 999"),
}


@pytest.mark.parametrize("violation", sorted(KB_VIOLATIONS))
def test_invalid_kb_value_is_rejected_at_load(violation, pipeline_dir, tmp_path):
    mutate, message = KB_VIOLATIONS[violation]
    payload = json.loads((pipeline_dir / "kb.json").read_text())
    mutate(payload)
    bad = tmp_path / "kb.json"
    bad.write_text(json.dumps(payload))
    result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                 "--kb", str(bad), "--episodes", str(pipeline_dir / "episodes.json"),
                 "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
    assert result.returncode == 3
    assert "error:" in result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "t.jsonl").exists()


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


# (patched object, attribute, exception, the internal error line it gives);
# {first} is the id of the first episode, which fails first in both modes
ENGINE_FAULTS = [
    (SemanticTopoMap, "shortest_paths", InternalError("routing invariant broken"),
     "internal error: routing invariant broken"),
    (simulator, "stop_score", KeyError("n3"), "internal error: episode {first}: KeyError: 'n3'"),
]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_engine_bug_exits_4(parallel, pipeline_dir, tmp_path, monkeypatch, capsys):
    if parallel != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the patched method only when forked")
    first = min(e["episode_id"] for e in json.loads((pipeline_dir / "episodes.json").read_text()))
    for target, name, exc, line in ENGINE_FAULTS:
        with monkeypatch.context() as patch:
            patch.setattr(target, name, _raise(exc))
            code = dispatch(["run", "--scenes", str(pipeline_dir / "scenes"),
                             "--kb", str(pipeline_dir / "kb.json"),
                             "--episodes", str(pipeline_dir / "episodes.json"),
                             "--seed", "1", "--parallel", parallel,
                             "--out", str(tmp_path / "t.jsonl")])
        stderr = capsys.readouterr().err
        assert code == 4
        assert stderr.splitlines() == [line.format(first=first)]
        assert not (tmp_path / "t.jsonl").exists()


def test_logistic_beta_past_float_range_is_its_limit(pipeline_dir, tmp_path):
    # exp(800) overflows a float; the sigmoid there is 0, the same as fixed:0
    outputs = []
    for beta in ("logistic:bias=-800", "fixed:0"):
        out = tmp_path / f"{beta}.jsonl"
        code, err = cli_in_process("run", "--scenes", pipeline_dir / "scenes",
                                   "--kb", pipeline_dir / "kb.json",
                                   "--episodes", pipeline_dir / "episodes.json",
                                   "--beta", beta, "--trace", "--seed", "1", "--out", out)
        assert code == 0, err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _set_shortest_length(value):
    def mutate(records):
        records[1]["shortest_length"] = value
    return mutate


def _replace_record(records):
    records[1] = ["not", "an", "object"]


def _other_target_type(records):
    target_type = records[1]["target_type"]
    records[1]["target_type"] = target_type - 1 if target_type else 1


MANIFEST_VIOLATIONS = {
    "target_type_not_the_target_node_type": (_other_target_type, "does not match target node"),
    "shortest_length_zero": (_set_shortest_length(0), "shortest_length"),
    "shortest_length_negative": (_set_shortest_length(-2), "shortest_length"),
    "shortest_length_nan": (_set_shortest_length("NaN"), "shortest_length"),
    "shortest_length_infinite": (_set_shortest_length("inf"), "shortest_length"),
    "record_not_an_object": (_replace_record, "record 1 is not a JSON object"),
}


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("violation", sorted(MANIFEST_VIOLATIONS))
def test_invalid_manifest_record_is_3(violation, command, pipeline_dir, tmp_path):
    mutate, message = MANIFEST_VIOLATIONS[violation]
    records = json.loads((pipeline_dir / "episodes.json").read_text())
    mutate(records)
    bad = tmp_path / "episodes.json"
    bad.write_text(json.dumps(records))
    if command == "run":
        result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(pipeline_dir / "kb.json"), "--episodes", str(bad),
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
    else:
        assert cli("run", "--scenes", str(pipeline_dir / "scenes"),
                   "--kb", str(pipeline_dir / "kb.json"),
                   "--episodes", str(pipeline_dir / "episodes.json"),
                   "--seed", "1", "--out", str(tmp_path / "t.jsonl")).returncode == 0
        result = cli("eval", "--scenes", str(pipeline_dir / "scenes"), "--episodes", str(bad),
                     "--traj", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "report"))
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert message in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("field, value", [("start_node", None), ("target_node", "no-such-node")])
def test_episode_node_missing_from_scene_is_3(field, value, pipeline_dir, tmp_path, capsys):
    records = json.loads((pipeline_dir / "episodes.json").read_text())
    records[0][field] = value
    bad = tmp_path / "episodes.json"
    bad.write_text(json.dumps(records))
    code = dispatch(["run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(pipeline_dir / "kb.json"), "--episodes", str(bad),
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl")])
    stderr = capsys.readouterr().err
    assert code == 3
    assert stderr.startswith(f"error: episode {records[0]['episode_id']} failed:")
    assert f"{field} {str(value)!r} is not a node of scene {records[0]['scene_id']!r}" in stderr
    assert "Traceback" not in stderr
    written = [json.loads(line)["episode_id"] for line in (tmp_path / "t.jsonl").open()]
    assert written == sorted(r["episode_id"] for r in records[1:])


def _no_scene_read(path):
    raise AssertionError("scenes were read before the flags were checked")


@pytest.mark.parametrize("command", ["run", "build-kb", "gen-episodes"])
@pytest.mark.parametrize("out", ["missing-dir/out.json", "."])
def test_unusable_out_fails_before_any_work(out, command, pipeline_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_module, "_load_scenes_dir", _no_scene_read)
    argv = {
        "run": ("--kb", pipeline_dir / "kb.json", "--episodes", pipeline_dir / "episodes.json",
                "--seed", 1),
        "build-kb": (),
        "gen-episodes": ("--per-scene", 1, "--seed", 3),
    }[command]
    code, err = cli_in_process(command, "--scenes", pipeline_dir / "scenes", *argv,
                               "--out", tmp_path / out)
    _assert_input_error(code, err, f"--out {tmp_path / out}")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "missing-dir").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("build-kb", "--top-k", "0"),
    ("gen-episodes", "--per-scene", "0"),
    ("gen-episodes", "--per-scene", "-2"),
], ids=["top_k_zero", "per_scene_zero", "per_scene_negative"])
def test_count_below_one_fails_before_any_scene_is_read(command, flag, value, pipeline_dir, tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(cli_module, "_load_scenes_dir", _no_scene_read)
    seed = ("--seed", 3) if command == "gen-episodes" else ()
    code, err = cli_in_process(command, "--scenes", pipeline_dir / "scenes", *seed, flag, value,
                               "--out", tmp_path / "out.json")
    assert code == 3
    assert err == f"error: {flag} must be >= 1, got {value}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("threshold", ["nan", "-1", "0", "inf"])
def test_eval_threshold_must_be_finite_and_positive(threshold, pipeline_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_module, "_load_scenes_dir", _no_scene_read)
    code, err = cli_in_process("eval", "--scenes", pipeline_dir / "scenes",
                               "--episodes", pipeline_dir / "episodes.json",
                               "--traj", tmp_path / "t.jsonl", "--threshold", threshold,
                               "--out", tmp_path / "report")
    _assert_input_error(code, err, "--threshold must be a finite number > 0")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "report").exists()


def _no_benchmark(**kwargs):
    raise AssertionError("the benchmark was built before the flags were checked")


ABLATE_FAULTS = {
    "sweep_empty_range": ("--sweep", "steps=3..1"),
    "sweep_three_bounds": ("--sweep", "steps=1..2..3"),
    "sweep_zero_steps": ("--sweep", "steps=0,1"),
    "parallel_negative": ("--parallel", "-3"),
    "scenes_n_zero": ("--scenes-n", "0"),
    "episodes_per_zero": ("--episodes-per", "0"),
    "confusion_eps_above_one": ("--confusion", "eps:2"),
    "visual_noise_negative": ("--visual-noise", "-1"),
}


@pytest.mark.parametrize("fault", sorted(ABLATE_FAULTS))
def test_ablate_bad_flag_fails_before_any_episode(fault, tmp_path, monkeypatch, capsys):
    flag, value = ABLATE_FAULTS[fault]
    monkeypatch.setattr(cli_module, "standard_benchmark", _no_benchmark)
    args = {"--sweep": "fusion=residual", "--scenes-n": "2", "--episodes-per": "1", flag: value}
    code = dispatch(["ablate", *(arg for pair in args.items() for arg in pair),
                     "--out", str(tmp_path / "ab")])
    captured = capsys.readouterr()
    _assert_input_error(code, captured.err, flag)
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""  # no table
    assert not (tmp_path / "ab").exists()


def _no_input_read(*args, **kwargs):
    raise AssertionError("input was read before --out was checked")


@pytest.mark.parametrize("command", ["eval", "ablate", "gen-scenes"])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_that_is_a_file_fails_before_any_work(out, command, pipeline_dir, tmp_path, monkeypatch):
    for name in ("_load_scenes_dir", "standard_benchmark", "load_kb"):
        monkeypatch.setattr(cli_module, name, _no_input_read)
    (tmp_path / "taken").write_text("a file, not a directory")
    argv = {
        "eval": ("--scenes", pipeline_dir / "scenes", "--episodes", pipeline_dir / "episodes.json",
                 "--traj", tmp_path / "t.jsonl"),
        "ablate": ("--sweep", "fusion=residual", "--scenes-n", 2, "--episodes-per", 1),
        "gen-scenes": ("--kb", pipeline_dir / "kb.json", "--n", 2, "--seed", 1),
    }[command]
    code, err = cli_in_process(command, *argv, "--out", tmp_path / out)
    assert code == 3
    assert err == f"error: --out {tmp_path / out}: Not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == "a file, not a directory"


def test_kb_vocabulary_mismatch_fails_before_any_episode(pipeline_dir, tmp_path):
    payload = json.loads((pipeline_dir / "kb.json").read_text())
    vocabulary = payload["type_vocabulary"]
    vocabulary[0], vocabulary[1] = vocabulary[1], vocabulary[0]
    bad = tmp_path / "kb.json"
    bad.write_text(json.dumps(payload))
    result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                 "--kb", str(bad), "--episodes", str(pipeline_dir / "episodes.json"),
                 "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
    assert result.returncode == 3
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: KB vocabularies do not match scene")
    assert not (tmp_path / "t.jsonl").exists()


@pytest.fixture(scope="module")
def trajectory_lines(pipeline_dir, tmp_path_factory):
    """The JSONL records of one valid run over the shared world."""
    out = tmp_path_factory.mktemp("traj") / "t.jsonl"
    assert cli("run", "--scenes", str(pipeline_dir / "scenes"),
               "--kb", str(pipeline_dir / "kb.json"),
               "--episodes", str(pipeline_dir / "episodes.json"),
               "--seed", "1", "--out", str(out)).returncode == 0
    return out.read_text().splitlines()


def _set_field(name, value):
    def mutate(record, scenes_dir):
        record[name] = value
    return mutate


def _object_elsewhere(record, scenes_dir):
    # a real object of the scene, but at a node other than the stop node
    scene = load_scene(scenes_dir / f"{record['episode_id'].split('-')[0]}.json")
    record["selected_object"] = next(
        o.object_id
        for node_id in scene.node_ids() if node_id != record["stop_node"]
        for o in scene.node(node_id).objects
    )


def _stop_node_not_last(record, scenes_dir):
    # the walk's first node, which it leaves
    assert record["node_sequence"][0] != record["node_sequence"][-1]
    record["stop_node"] = record["node_sequence"][0]


def _start_node_elsewhere(record, scenes_dir):
    # the walk with its first node dropped
    assert len(record["node_sequence"]) > 1
    del record["node_sequence"][0]


TRAJECTORY_VIOLATIONS = {
    "total_length_nan": (_set_field("total_length", "nan"), "total_length"),
    "total_length_negative": (_set_field("total_length", -5.0), "total_length"),
    "total_length_infinite": (_set_field("total_length", "inf"), "total_length"),
    "total_length_too_large_for_float": (
        _set_field("total_length", 10**400), "malformed trajectory record"
    ),
    "node_sequence_string": (_set_field("node_sequence", "r0_n0"), "node_sequence"),
    "action_sequence_string": (_set_field("action_sequence", "STOP"), "action_sequence"),
    "node_sequence_empty": (_set_field("node_sequence", []), "node_sequence"),
    "stop_node_not_last": (_stop_node_not_last, "stop_node"),
    "start_node_elsewhere": (_start_node_elsewhere, "start_node"),
    "selected_object_elsewhere": (_object_elsewhere, "selected_object"),
    "schema_version_99": (_set_field("schema_version", 99), "t.jsonl:2 has schema_version 99"),
    "schema_version_missing": (
        lambda record, scenes_dir: record.pop("schema_version"), "t.jsonl:2 has schema_version None"
    ),
}


@pytest.mark.parametrize("violation", sorted(TRAJECTORY_VIOLATIONS))
def test_invalid_trajectory_record_is_3(violation, pipeline_dir, trajectory_lines, tmp_path):
    mutate, field = TRAJECTORY_VIOLATIONS[violation]
    records = [json.loads(line) for line in trajectory_lines]
    mutate(records[1], pipeline_dir / "scenes")
    bad = tmp_path / "t.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    result = cli("eval", "--scenes", str(pipeline_dir / "scenes"),
                 "--episodes", str(pipeline_dir / "episodes.json"),
                 "--traj", str(bad), "--out", str(tmp_path / "report"))
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert len(result.stderr.strip().splitlines()) == 1
    assert field in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "report").exists()


def _copy_scenes(pipeline_dir, tmp_path):
    scenes = tmp_path / "scenes"
    shutil.copytree(pipeline_dir / "scenes", scenes)
    return scenes


def _assert_input_error(code, stderr, *names):
    assert code == 3
    assert stderr.startswith("error:")
    assert all(name in stderr for name in names)
    assert "Traceback" not in stderr


@pytest.mark.parametrize("command", ["gen-episodes", "build-kb"])
def test_repeated_scene_id_is_3(command, pipeline_dir, tmp_path):
    scenes = _copy_scenes(pipeline_dir, tmp_path)
    shutil.copy(scenes / "scene0000.json", scenes / "scene0000-copy.json")
    if command == "gen-episodes":
        argv = ("--per-scene", 1, "--seed", 3)
    else:
        argv = ()
    code, err = cli_in_process(command, "--scenes", scenes, *argv, "--out", tmp_path / "out.json")
    _assert_input_error(code, err, "repeats scene id 'scene0000'")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["run", "eval"])
def test_repeated_episode_id_is_3(command, pipeline_dir, trajectory_lines, tmp_path):
    records = json.loads((pipeline_dir / "episodes.json").read_text())
    records.append(dict(records[0], start_node=records[1]["start_node"]))
    bad = tmp_path / "episodes.json"
    bad.write_text(json.dumps(records))
    traj = tmp_path / "t.jsonl"
    if command == "run":
        argv = ("--kb", pipeline_dir / "kb.json", "--seed", 1, "--out", traj)
        written = traj
    else:
        traj.write_text("".join(line + "\n" for line in trajectory_lines))
        argv = ("--traj", traj, "--out", tmp_path / "report")
        written = tmp_path / "report"
    code, err = cli_in_process(command, "--scenes", pipeline_dir / "scenes", "--episodes", bad, *argv)
    _assert_input_error(code, err, f"repeats episode id {records[0]['episode_id']!r}")
    assert not written.exists()


def test_eval_rejects_repeated_trajectory_id(pipeline_dir, trajectory_lines, tmp_path):
    traj = tmp_path / "t.jsonl"
    traj.write_text("".join(line + "\n" for line in trajectory_lines + trajectory_lines[:1]))
    code, err = cli_in_process("eval", "--scenes", pipeline_dir / "scenes",
                               "--episodes", pipeline_dir / "episodes.json",
                               "--traj", traj, "--out", tmp_path / "report")
    repeated = json.loads(trajectory_lines[0])["episode_id"]
    _assert_input_error(code, err, f"repeats episode id {repeated!r}")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("keep", [slice(0, 1), slice(1, None)])
def test_eval_rejects_episodes_without_trajectory(keep, pipeline_dir, trajectory_lines, tmp_path):
    traj = tmp_path / "t.jsonl"
    traj.write_text("".join(line + "\n" for line in trajectory_lines[keep]))
    code, err = cli_in_process("eval", "--scenes", pipeline_dir / "scenes",
                               "--episodes", pipeline_dir / "episodes.json",
                               "--traj", traj, "--out", tmp_path / "report")
    ids = sorted(json.loads(line)["episode_id"] for line in trajectory_lines)
    missing = sorted(set(ids) - {json.loads(line)["episode_id"] for line in trajectory_lines[keep]})
    _assert_input_error(
        code, err, f"{len(missing)} of {len(ids)} manifest episodes have no trajectory",
        f"(first: {missing[0]!r})",
    )
    assert not (tmp_path / "report").exists()


def test_ablate_refuses_a_batch_with_a_failed_episode(monkeypatch, tmp_path, capsys):
    dropped = []

    def drop_second(*args, **kwargs):
        batch = run_batch(*args, **kwargs)
        traj = batch.trajectories.pop(1)
        dropped.append(traj.episode_id)
        return BatchResult(batch.trajectories, {traj.episode_id: "dropped by the test"})

    monkeypatch.setattr("hspr.cli.run_batch", drop_second)
    code = dispatch(["ablate", "--sweep", "fusion=residual", "--scenes-n", "2",
                     "--episodes-per", "2", "--out", str(tmp_path / "ab")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("internal error: ablation fusion=residual: 1 episodes failed")
    assert dropped[0] in captured.err
    assert captured.out == ""  # no table
    assert not (tmp_path / "ab").exists()


@pytest.mark.parametrize("vocabulary", ["type_vocabulary", "object_vocabulary"])
def test_build_kb_rejects_mismatched_vocabulary(vocabulary, pipeline_dir, tmp_path):
    # same length, different order: the counts would merge under wrong names
    scenes = _copy_scenes(pipeline_dir, tmp_path)
    path = scenes / "scene0003.json"
    payload = json.loads(path.read_text())
    payload[vocabulary].reverse()
    path.write_text(json.dumps(payload))
    code, err = cli_in_process("build-kb", "--scenes", scenes, "--out", tmp_path / "kb.json")
    _assert_input_error(code, err, "scene 'scene0003'", "vocabularies")
    assert not (tmp_path / "kb.json").exists()


def test_traced_run_is_independent_of_hash_seed(pipeline_dir, tmp_path):
    # F and C are sets of node ids, whose order follows the hash seed
    outputs = []
    for hash_seed in (1, 2):
        out = tmp_path / f"t{hash_seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        result = cli("run", "--scenes", str(pipeline_dir / "scenes"),
                     "--kb", str(pipeline_dir / "kb.json"),
                     "--episodes", str(pipeline_dir / "episodes.json"),
                     "--fusion", "dynamic", "--confusion", "eps:0.2", "--visual", "0.3,1.5,10,0.1",
                     "--trace", "--seed", "5", "--out", str(out), env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
