"""Proximity-knowledge navigation: scene graphs, KBs, reasoning, simulation."""

from .scene import (
    SceneGraph,
    NodeRecord,
    ObjectInstance,
    Region,
    load_scene,
    save_scene,
    segment_regions,
    region_adjacency,
)
from .kb import (
    CountMatrices,
    ProximityKB,
    accumulate_scene,
    normalize_counts,
    top_k_objects,
    build_kb,
    save_kb,
    load_kb,
)
from .synth import Episode, GeneratorConfig, generate_scene, sample_episode, sample_episodes
from .perception import (
    ConfusionModel,
    TargetSpec,
    TypeBelief,
    VisualWeights,
    target_spec_from_episode,
)
from .topo import SemanticTopoMap, RoutingTable
from .reasoner import (
    ReasonerConfig,
    SuccessorTable,
    TypePath,
    proximity_scores,
    enumerate_type_paths,
    multi_step_scores,
)
from .fusion import (
    STOP,
    ActionScoreTable,
    balance_factor,
    fuse_variant_table,
    FixedBeta,
    VisitedFractionBeta,
    LogisticBeta,
    parse_beta_policy,
)
from .simulator import AgentConfig, Trajectory, run_episode, run_batch, stop_score, ground_object
from .metrics import EpisodeMetrics, EvalReport, episode_metrics, aggregate_report

__version__ = "0.1.0"
