"""Navigation evaluation: TL, NE, SR, OSR, SPL, RGS, RGSPL.

Navigation error defaults to geodesic (graph) distance because scenes are
graphs; a straight-line mode exists for comparison.  Success is strict:
NE < threshold.

Geodesic mode runs one Dijkstra from the target that stops once the stop
node is settled.  That is exact: nodes settle in order of distance, so a
walked node nearer than NE already holds its final distance, every other
node is at least NE away, and the stop node is on the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import write_json
from .scene import SceneGraph, dijkstra
from .simulator import Trajectory, check_episode
from .synth import Episode

SUCCESS_THRESHOLD_M = 3.0
REPORT_COLUMNS = ("TL", "NE", "OSR", "SR", "SPL", "RGS", "RGSPL")


@dataclass(frozen=True)
class EpisodeMetrics:
    episode_id: str
    tl: float
    ne: float
    success: bool
    oracle_success: bool
    spl: float
    rgs: bool
    rgspl: float


@dataclass
class EvalReport:
    episodes: list[EpisodeMetrics]
    aggregates: dict[str, float]
    config: dict


def episode_metrics(
    trajectory: Trajectory,
    episode: Episode,
    scene: SceneGraph,
    threshold: float = SUCCESS_THRESHOLD_M,
    ne_mode: str = "geodesic",
) -> EpisodeMetrics:
    """Score one executed episode against its ground truth."""
    if trajectory.episode_id != episode.episode_id:
        raise ValueError(
            f"trajectory {trajectory.episode_id!r} does not match episode {episode.episode_id!r}"
        )
    walk = trajectory.node_sequence
    if not walk:
        raise ValueError(f"trajectory {trajectory.episode_id}: node_sequence is empty")
    stop_node = trajectory.stop_node
    if stop_node != walk[-1]:
        raise ValueError(
            f"trajectory {trajectory.episode_id}: stop_node {stop_node!r} "
            f"is not the last node of node_sequence"
        )
    walked = dict.fromkeys(walk)  # distinct nodes in first-visit order
    for node_id in walked:
        if not scene.has_node(node_id):
            raise ValueError(f"trajectory visits unknown node {node_id!r}")
    if walk[0] != episode.start_node:
        raise ValueError(
            f"trajectory {trajectory.episode_id}: node_sequence starts at {walk[0]!r}, "
            f"not at the episode's start_node {episode.start_node!r}"
        )
    selected = trajectory.selected_object
    if selected is not None and all(
        o.object_id != selected for o in scene.node(stop_node).objects
    ):
        raise ValueError(
            f"trajectory {trajectory.episode_id}: selected_object {selected!r} "
            f"is not an object at stop node {stop_node!r}"
        )
    if ne_mode not in ("geodesic", "euclidean"):
        raise ValueError(f"unknown ne mode {ne_mode!r}")
    if not scene.has_node(episode.target_node):
        raise ValueError(f"unknown node {episode.target_node!r}")
    L = episode.shortest_length
    if not (math.isfinite(L) and L > 0):
        raise ValueError(
            f"episode {episode.episode_id}: shortest_length must be a finite number > 0, got {L}"
        )

    if ne_mode == "geodesic":
        index = scene._index
        dist, _ = dijkstra(scene._nbrs, scene._ids, index[episode.target_node], index[stop_node])
        ne = dist[index[stop_node]]
        nearest = min(dist[index[nid]] for nid in walked)
    else:
        tp = scene.node(episode.target_node).position
        ne = math.dist(scene.node(stop_node).position, tp)
        nearest = min(math.dist(scene.node(nid).position, tp) for nid in walked)

    success = ne < threshold
    oracle_success = nearest < threshold
    tl = trajectory.total_length
    spl = (L / max(L, tl)) if success else 0.0
    rgs = success and trajectory.selected_object == episode.target_object
    rgspl = (L / max(L, tl)) if rgs else 0.0
    return EpisodeMetrics(
        episode_id=episode.episode_id,
        tl=tl,
        ne=ne,
        success=success,
        oracle_success=oracle_success,
        spl=spl,
        rgs=rgs,
        rgspl=rgspl,
    )


def _left_sum(values) -> float:
    """The values added one at a time from the integer 0, rounding each
    addition: what built-in sum() gives before Python 3.12, whose float sum
    compensates and so would move a report's last digits."""
    total = 0
    for value in values:
        total += value
    return total


def aggregate_report(metrics: list[EpisodeMetrics], config: dict | None = None) -> EvalReport:
    """Arithmetic means; rate metrics reported as percentages."""
    if not metrics:
        raise ValueError("cannot aggregate an empty metrics list")
    n = len(metrics)
    aggregates = {
        "episodes": n,
        "TL": _left_sum(m.tl for m in metrics) / n,
        "NE": _left_sum(m.ne for m in metrics) / n,
        "OSR": 100.0 * _left_sum(m.oracle_success for m in metrics) / n,
        "SR": 100.0 * _left_sum(m.success for m in metrics) / n,
        "SPL": 100.0 * _left_sum(m.spl for m in metrics) / n,
        "RGS": 100.0 * _left_sum(m.rgs for m in metrics) / n,
        "RGSPL": 100.0 * _left_sum(m.rgspl for m in metrics) / n,
    }
    return EvalReport(episodes=metrics, aggregates=aggregates, config=dict(config or {}))


def evaluate(
    trajectories: list[Trajectory],
    episodes: list[Episode],
    scenes: dict[str, SceneGraph],
    threshold: float = SUCCESS_THRESHOLD_M,
    ne_mode: str = "geodesic",
) -> EvalReport:
    """Score every manifest episode from its trajectory, in episode-id order.

    Every episode needs a trajectory: scoring without one would drop it from
    every rate's denominator.  Every trajectory needs its manifest episode,
    and every episode its scene.
    """
    by_id = {e.episode_id: e for e in episodes}
    missing = sorted(by_id.keys() - {t.episode_id for t in trajectories})
    if missing:
        raise ValueError(
            f"{len(missing)} of {len(by_id)} manifest episodes have no trajectory "
            f"(first: {missing[0]!r})"
        )
    metrics = []
    for traj in sorted(trajectories, key=lambda t: t.episode_id):
        episode = by_id.get(traj.episode_id)
        if episode is None:
            raise ValueError(f"trajectory {traj.episode_id!r} has no episode in the manifest")
        scene = scenes.get(episode.scene_id)
        if scene is None:
            raise ValueError(f"episode {episode.episode_id!r} names unknown scene {episode.scene_id!r}")
        check_episode(scene, episode)
        metrics.append(episode_metrics(traj, episode, scene, threshold, ne_mode))
    return aggregate_report(
        metrics, config={"threshold": threshold, "ne": ne_mode, "episodes": len(metrics)}
    )


def report_to_payload(report: EvalReport) -> dict:
    return {
        "config": report.config,
        "aggregates": report.aggregates,
        "episodes": [
            {
                "episode_id": m.episode_id,
                "tl": m.tl,
                "ne": m.ne,
                "success": m.success,
                "oracle_success": m.oracle_success,
                "spl": m.spl,
                "rgs": m.rgs,
                "rgspl": m.rgspl,
            }
            for m in report.episodes
        ],
    }


def format_report_table(rows: list[tuple[str, dict]], label: str = "config") -> str:
    """Aligned text table; one row per (name, aggregates) pair."""
    header = [label, *REPORT_COLUMNS]
    body = [[name, *(f"{agg[column]:.2f}" for column in REPORT_COLUMNS)] for name, agg in rows]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, json_path, text_path) -> None:
    write_json(json_path, report_to_payload(report), indent=1)
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(format_report_table([("run", report.aggregates)]))
