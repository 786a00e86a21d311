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


def test_no_module_reaches_into_another_objects_private_attributes():
    """An underscore attribute is touched only through self or cls; what another
    module reads, such as a scene's node numbering, is public."""
    reads = []
    for path in sorted(Path(hspr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert reads == []


def test_every_public_name_is_named_outside_its_definition():
    """Each public module-level function and class of hspr, and each public
    method of its public classes, is named (read, imported or looked up as an
    attribute) by the package, `demos/`, `perfbench/` or the acceptance
    criteria somewhere other than its own definition.  A name that only
    tests use is a reference for them and lives in tests/oracles.py."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    package = sorted(Path(hspr.__file__).parent.glob("*.py"))
    root = Path(hspr.__file__).resolve().parents[2]
    readers = (package + sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
               + [root / "tests" / "test_acceptance.py"])
    sites = {}  # name -> the (file, enclosing definitions) of each place that names it

    def visit(path, node, scope):
        if isinstance(node, definitions):
            scope += (node.name,)
        elif isinstance(node, ast.Name):
            sites.setdefault(node.id, set()).add((path, scope))
        elif isinstance(node, ast.Attribute):
            sites.setdefault(node.attr, set()).add((path, scope))
        elif isinstance(node, ast.alias):
            sites.setdefault(node.name, set()).add((path, scope))
        for child in ast.iter_child_nodes(node):
            visit(path, child, scope)

    for path in readers:
        visit(path, ast.parse(path.read_text(encoding="utf-8")), ())

    def public(body):
        return [stmt for stmt in body if isinstance(stmt, definitions) and not stmt.name.startswith("_")]

    unnamed = []
    for path in package:
        for stmt in public(ast.parse(path.read_text(encoding="utf-8")).body):
            methods = public(stmt.body) if isinstance(stmt, ast.ClassDef) else []
            for scope in [(stmt.name,)] + [(stmt.name, method.name) for method in methods]:
                # a site inside the definition itself does not count
                if all(site_path == path and site[:len(scope)] == scope
                       for site_path, site in sites.get(scope[-1], ())):
                    unnamed.append(".".join((path.stem,) + scope))
    assert unnamed == []
