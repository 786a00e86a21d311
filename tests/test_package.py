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
