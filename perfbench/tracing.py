"""Per-layer tracing by wrapping the public API of hspr's modules.

A `Tracer` keeps a span stack: each wrapped call pushes a frame, and on
return its duration minus the time its wrapped callees took is added to the
layer's self time.  `install()` replaces every public function of the traced
modules at each name a caller looks it up by (``hspr.simulator`` imports
``enumerate_type_paths`` by name, so the copy there is patched too), and the
public methods of the map and routing classes on the class itself.
`uninstall()` puts every original back.

A few layers also feed probes that count work where it happens: map size at
each routing build, table entries built versus read, how many derived
generators ever draw, and how often path selection falls back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "topo", "reasoner", "perception", "seeding", "fusion",
    "simulator", "metrics", "scene", "kb", "synth",
)
# classes whose public methods are wrapped on the class; the constructor of
# TypeBelief is wrapped because belief re-validation is a cost of its own
TRACED_CLASSES = {
    "topo": ("SemanticTopoMap", "RoutingTable"),
}
TRACED_CONSTRUCTORS = {
    "perception": ("TypeBelief",),
}
_MARK = "__perfbench_original__"


class Tracer:
    """Span stack with per-layer call counts and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._rngs: list[tuple[object, object]] = []

    # -- span accounting -------------------------------------------------
    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    # -- patching ----------------------------------------------------------
    def wrap(self, name: str, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the traced layers everywhere hspr looks them up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"hspr.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value, PROBES.get(f"{short}.{attr}"))
        hspr_modules = [m for n, m in sorted(sys.modules.items()) if n == "hspr" or n.startswith("hspr.")]
        for module in hspr_modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for short, class_names in TRACED_CLASSES.items():
            module = sys.modules[f"hspr.{short}"]
            for class_name in class_names:
                cls = getattr(module, class_name)
                for attr, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and not attr.startswith("_"):
                        name = f"{short}.{attr}"
                        self._patch(cls, attr, self.wrap(name, value, PROBES.get(name)))
        for short, class_names in TRACED_CONSTRUCTORS.items():
            module = sys.modules[f"hspr.{short}"]
            for class_name in class_names:
                cls = getattr(module, class_name)
                self._patch(cls, "__init__", self.wrap(f"{short}.{class_name}", cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.flush_rngs()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def flush_rngs(self) -> None:
        """Count derived generators whose state moved, i.e. that drew."""
        for rng, state in self._rngs:
            self.counters["derive_rng.used"] += rng.bit_generator.state["state"] != state
        self._rngs.clear()


def assert_untraced() -> None:
    """Raise if any wrapper is still installed in hspr."""
    for name, module in list(sys.modules.items()):
        if name != "hspr" and not name.startswith("hspr."):
            continue
        owners = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if hasattr(value, _MARK):
                    raise RuntimeError(f"tracing wrapper left on {name}.{attr}")


# -- probes: counts measured where the work happens -------------------------
def _probe_routing_build(tracer, args, kwargs, table):
    n = len(table.order)
    tracer.counters["routing.known_nodes"] += n
    tracer.counters["routing.entries_built"] += n * n


def _probe_routing_read(tracer, args, kwargs, result):
    tracer.counters["routing.reads"] += 1


def _probe_enumerate(tracer, args, kwargs, result):
    present = args[0] if args else kwargs["present_types"]
    tracer.counters["enumerate.present_types"] += len(present)


def _probe_select(tracer, args, kwargs, result):
    tracer.counters["select_path.fallbacks"] += result is None


def _probe_derive_rng(tracer, args, kwargs, rng):
    tracer._rngs.append((rng, rng.bit_generator.state["state"]))


def _probe_episode_done(tracer, args, kwargs, result):
    # generators never outlive their episode, so check them here to keep
    # memory flat
    tracer.flush_rngs()


PROBES = {
    "topo.all_pairs_shortest_paths": _probe_routing_build,
    "topo.distance": _probe_routing_read,
    "topo.first_hop": _probe_routing_read,
    "reasoner.enumerate_type_paths": _probe_enumerate,
    "reasoner.select_path": _probe_select,
    "seeding.derive_rng": _probe_derive_rng,
    "simulator.run_episode": _probe_episode_done,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    # copies, so that reading a layer that never ran adds nothing to the tracer
    calls = defaultdict(int, tracer.calls)
    self_s = defaultdict(float, tracer.self_s)
    c = defaultdict(float, tracer.counters)
    out: dict[str, float] = {}
    for name in (
        "topo.all_pairs_shortest_paths", "topo.route_to", "reasoner.enumerate_type_paths",
        "seeding.derive_rng", "perception.TypeBelief", "metrics.episode_metrics",
    ):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in (
        "topo.observe", "reasoner.multi_step_scores", "reasoner.present_types_from_beliefs",
        "perception.visual_score_table", "fusion.fuse_variant_table", "fusion.balance_factor",
        "simulator.run_episode", "simulator.stop_score",
        "scene.load_scene", "scene.save_scene", "synth.generate_scene", "synth.sample_episodes",
        "kb.accumulate_scene", "kb.build_kb",
        "simulator.save_trajectories", "simulator.load_trajectories",
    ):
        out[f"{name}.self_s"] = self_s[name]
    apsp = calls["topo.all_pairs_shortest_paths"]
    out["topo.known_nodes_mean"] = _ratio(c["routing.known_nodes"], apsp)
    out["topo.routing.read_ratio"] = _ratio(c["routing.reads"], c["routing.entries_built"])
    enum = calls["reasoner.enumerate_type_paths"]
    out["reasoner.enumerate_type_paths.us_per_call"] = 1e6 * _ratio(
        self_s["reasoner.enumerate_type_paths"], enum
    )
    out["reasoner.enumerate_type_paths.present_types_mean"] = _ratio(c["enumerate.present_types"], enum)
    out["reasoner.select_path.fallback_ratio"] = _ratio(
        c["select_path.fallbacks"], calls["reasoner.select_path"]
    )
    out["seeding.derive_rng.used_ratio"] = _ratio(c["derive_rng.used"], calls["seeding.derive_rng"])
    out["scene.geodesic_distances.calls"] = calls["scene.geodesic_distances"]
    total = sum(self_s.values())
    for name in ("topo.all_pairs_shortest_paths", "reasoner.enumerate_type_paths"):
        out[f"{name}.self_share"] = _ratio(self_s[name], total)
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        (".calls", "count"), (".self_s", "s"), (".us_per_call", "us"), (".job_bytes", "bytes"),
        ("_ratio", "ratio"), ("_share", "ratio"), ("_mean", "count"),
    ):
        if metric.endswith(suffix):
            return unit
    raise KeyError(f"no unit for per-layer metric {metric!r}")
