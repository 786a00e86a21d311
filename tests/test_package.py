import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import hspr


def test_package_root_reexports_no_names():
    """Each name is imported from its module; the root holds only submodules and __version__."""
    public = {name: value for name, value in vars(hspr).items() if not name.startswith("_")}
    reexported = [name for name, value in public.items()
                  if not (inspect.ismodule(value) and value.__name__ == f"hspr.{name}")]
    assert reexported == []


def test_importing_the_package_loads_every_traced_layer():
    """perfbench's tracer looks each layer it wraps up in sys.modules, and its
    own tests import only some of them, so a fresh `import hspr` must load all."""
    root = Path(hspr.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")]))
    code = ("import sys, hspr; from perfbench.tracing import TRACED_MODULES; "
            "print([m for m in TRACED_MODULES if f'hspr.{m}' not in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_weighted_choice_in_the_package():
    """Weighted draws go through seeding.choose/choose_distinct, whose weights
    are checked where they are built; Generator.choice(p=...) re-checks them
    on every call."""
    calls = []
    for path in sorted(Path(hspr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "choice" and any(k.arg == "p" for k in node.keywords)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_no_zero_based_uniform_in_the_package():
    """A draw in [0, x) is `x * rng.random()`: the same double and generator
    state as `rng.uniform(0, x)` or `rng.uniform()`, without uniform's
    per-call handling of its bounds (tests/test_seeding.py::TestZeroBasedDraws)."""
    calls = []
    for path in sorted(Path(hspr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "uniform"):
                continue
            low = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "low"), None)
            if low is None or (isinstance(low, ast.Constant) and low.value == 0):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_every_public_name_is_named_outside_its_definition():
    """Each public module-level function and class of hspr is named (read,
    imported or looked up as an attribute) by the package, `demos/` or
    `perfbench/` somewhere other than its own definition.  A name that only
    tests use is a reference for them and lives in tests/oracles.py."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    package = sorted(Path(hspr.__file__).parent.glob("*.py"))
    root = Path(hspr.__file__).resolve().parents[2]
    readers = package + sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    owners = {}  # name -> the (file, top-level definition) of each place that names it
    for path in readers:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path, stmt.name) if isinstance(stmt, definitions) else (path, None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    owners.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    owners.setdefault(node.attr, set()).add(owner)
                elif isinstance(node, ast.alias):
                    owners.setdefault(node.name, set()).add(owner)
    unnamed = [
        f"{path.stem}.{stmt.name}"
        for path in package
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, definitions) and not stmt.name.startswith("_")
        and not owners.get(stmt.name, set()) - {(path, stmt.name)}
    ]
    assert unnamed == []
