"""Proximity-knowledge navigation: scene graphs, KBs, reasoning, simulation.

Import each name from its module (`from hspr.simulator import run_batch`).
`import hspr` still loads every engine layer, since perfbench's tracer looks
the layers it wraps up in sys.modules and does not import them itself.
"""
from . import fusion, kb, metrics, perception, reasoner, scene, seeding, simulator, synth, topo  # noqa: F401

__version__ = "0.1.0"
