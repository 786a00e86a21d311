"""Episode execution.

Each decision step observes the current node, replans the type path,
and scores the candidates in one pass (`_scored_action`).  A step's state
is read by map node index: the candidates are the map's navigable index
list, already in id order, the visited nodes its visited list, a node's
belief row is the map's row list entry, its distance the routing table's,
and F is the current node's (index, length) list.  Each candidate's
proximity and type alignment are read from whole tables by its row, its
global and local visual scores are computed and fused, and a running
argmax picks the action, or STOP.  Only trace keys, the chosen action,
trajectories and snapshots name nodes by id; a traced step fills its score
tables from the same values.  Dynamic fusion keeps its visited scores, and
reads its route sums, in lists by map node index.  The agent then stops
or routes to the chosen navigable node along the map's `route_to`,
observing every hop on the way and reading each hop's length from the
map's (index, length) lists.  In distribution mode an arrival perceives
only the nodes new to the map, so each node is perceived once per episode,
a repeat arrival only moves the current node, and no arrival builds a
generator; in sampled mode every arrival draws once for each node it
reaches.  All randomness derives from (agent seed, episode id, step), so
batches replay identically under any parallelism.  The per-step streams of
the visual views (or of the random policy) come from one stream table per
episode, whose seed words are mixed in one batch on the episode's first
such draw; a view builds its generator only if it draws, and draws its
noise in one call, so noiseless or empty views hash nothing.

Every belief on the map is one of the confusion model's rows, so each
belief-dependent score is kept per row, as a list over every row, and read
for every node at that row.  The multi-step scores of a path are summed for
every row once per episode, on the first step that selects the path.  What
does not depend on the episode is kept across episodes: the confusion
model keeps each row's present types per tau, and the KB keeps
- its successor table: the single-start type-path searches, and, per
  confusion rows array, each row's score against each type's column, so a
  row's multi-step score is a weighted sum of kept floats along the path;
- its target tables, computed whole when first asked for: per confusion
  rows array and Y_r, each row's direct proximity R . P_r . Y_r and visual
  type alignment R . Y_r, and per object rows array and Y_o, each object
  type's object proximity O . P_o . Y_o, which drives stopping and
  grounding.
Episodes whose targets share Y_r (or Y_o) share those tables.  Type-path
searches go through the KB's one successor table, which searches each
start type once per target and config; each distinct present-type set
sorts its starts' cached lists together once per episode.  A step walks
only the top path, so an untraced episode searches with beam 1: the top
path is the head of every beam's ranking, and only a traced step records
the `beam` candidates.
"""

from __future__ import annotations

import contextlib
import logging
import math
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InternalError, SchemaError, malformed, read_json_lines, write_json
from .fusion import FUSION_MODES, STOP, BetaPolicy, FixedBeta, balance_factor
from .kb import ProximityKB
from .perception import (
    ConfusionModel,
    TargetSpec,
    VisualWeights,
    object_rows,
    target_spec_from_episode,
)
from .reasoner import ReasonerConfig, TypePath, enumerate_type_paths
from .scene import SceneGraph
from .seeding import LazyRng, StreamTable
from .synth import Episode
from .topo import SemanticTopoMap

log = logging.getLogger("hspr")

POLICIES = ("hspr", "greedy_eta", "visual_only", "random")
TRAJECTORY_SCHEMA_VERSION = 1


@dataclass
class AgentConfig:
    confusion: ConfusionModel
    reasoner: ReasonerConfig = field(default_factory=ReasonerConfig)
    fusion_mode: str = "residual"
    beta_policy: BetaPolicy = field(default_factory=lambda: FixedBeta(0.5))
    object_noise: float = 0.0
    visual: VisualWeights = field(default_factory=VisualWeights)
    max_actions: int = 15
    stop_weights: tuple[float, float] = (1.0, 1.4)
    seed: int = 0
    eq11_literal: bool = False

    def __post_init__(self):
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(
                f"unknown fusion mode {self.fusion_mode!r}; expected one of {', '.join(FUSION_MODES)}"
            )
        if self.max_actions < 1:
            raise ValueError("max_actions must be >= 1")
        if not 0.0 <= self.object_noise <= 1.0:
            raise ValueError("object_noise must be in [0, 1]")
        if not all(math.isfinite(w) for w in self.stop_weights):
            raise ValueError("stop_weights must be finite")


@dataclass
class Trajectory:
    episode_id: str
    policy: str
    node_sequence: list[str]
    action_sequence: list[str]
    stop_node: str
    selected_object: str | None
    total_length: float
    steps: list[dict] | None = None


def stop_score(
    type_alignment: float,
    object_scores: Sequence[float],
    stop_weights: tuple[float, float],
) -> float:
    """Evidence that the agent is standing at the target.

    Type match of the current node (type_alignment, its R . Y_r) plus the
    best object-proximity score (O . P_o . Y_o) over the node's instances; a
    node with no objects contributes zero there.
    """
    w_type, w_obj = stop_weights
    score = w_type * type_alignment
    if object_scores:
        score += w_obj * max(object_scores)
    return score


def ground_object(node_record, by_type: dict[int, float]) -> str | None:
    """Pick the object instance at the stop node with the highest proximity.

    by_type maps an object type to its O . P_o . Y_o.  Ties break toward the
    ascending object id; None when the node is bare.
    """
    if not node_record.objects:
        return None
    return min(node_record.objects, key=lambda o: (-by_type[o.object_type], o.object_id)).object_id


def check_vocabularies(scene: SceneGraph, kb: ProximityKB) -> None:
    """Raise ValueError unless the KB was built over the scene's vocabularies."""
    if (
        kb.type_vocabulary != scene.type_vocabulary
        or kb.object_vocabulary != scene.object_vocabulary
    ):
        raise ValueError(f"KB vocabularies do not match scene {scene.scene_id!r}")


def check_episode(scene: SceneGraph, episode: Episode) -> None:
    """Raise ValueError unless the episode's nodes and target type are its scene's."""
    if episode.scene_id != scene.scene_id:
        raise ValueError(
            f"episode {episode.episode_id} belongs to scene {episode.scene_id!r}, "
            f"got {scene.scene_id!r}"
        )
    for name in ("start_node", "target_node"):
        node_id = getattr(episode, name)
        if not scene.has_node(node_id):
            raise ValueError(
                f"episode {episode.episode_id} {name} {node_id!r} "
                f"is not a node of scene {scene.scene_id!r}"
            )
    node_type = scene.node(episode.target_node).node_type
    if episode.target_type != node_type:
        raise ValueError(
            f"episode {episode.episode_id} target_type {episode.target_type} does not match "
            f"target node {episode.target_node!r} of type {node_type}"
        )


def _check_compatible(scene: SceneGraph, episode: Episode, kb: ProximityKB, agent: AgentConfig) -> None:
    check_episode(scene, episode)
    check_vocabularies(scene, kb)
    if agent.confusion.n_types != kb.P_r.shape[0]:
        raise ValueError(
            f"confusion model has {agent.confusion.n_types} types, "
            f"proximity matrix has {kb.P_r.shape[0]}"
        )


class _RowScores:
    """One episode's belief-dependent scores, one entry per confusion row.

    Each table is a list by row index of the score of the distribution at
    that row of the confusion model, or, for `objects`, by object type of
    the score of its object-perception row, so every node or instance at a
    row reads the same value.

    The direct and alignment tables live on the KB, not here: its
    `TargetScores` for the episode's Y_r and for its Y_o hold every row's
    score through the pulled vectors P_r . Y_r and P_o . Y_o, shared by every
    episode with the same target and rows.  The multi-step table of a path
    is summed once per episode, on the first step that selects the path,
    from the row-against-column floats that the KB's successor table keeps.
    The confusion model keeps each row's present types per tau.

    Top-K type paths are kept per present-type set, as tuples, for this
    episode only.  A set's paths are the first K of the single-start lists
    that the KB's successor table keeps, sorted together; that is exact
    because each path has one start and the ranking key is a total order.
    """

    def __init__(
        self, confusion: ConfusionModel, object_rows: np.ndarray, kb: ProximityKB,
        target: TargetSpec, reasoner: ReasonerConfig,
    ):
        self.rows = confusion.rows
        self.kb = kb
        self.target = target
        self.reasoner = reasoner
        self._present_of = confusion.present_types(reasoner.feasibility_tau)
        types = kb.target_scores(self.rows, target.Y_r)
        self.alignment: list[float] = types.alignment  # R . Y_r
        self.direct: list[float] = types.through  # R . P_r . Y_r
        # O . P_o . Y_o by object type
        self.objects: list[float] = kb.target_scores(object_rows, target.Y_o, objects=True).through
        self._multi_step: dict[tuple[int, ...], list[float]] = {}
        self._paths: dict[frozenset[int], tuple[TypePath, ...]] = {}

    def multi_step(self, path: TypePath) -> list[float]:
        """The multi-step score of every row along path."""
        found = self._multi_step.get(path.types)
        if found is None:
            found = self._multi_step[path.types] = self.kb.successor_table().multi_step(
                self.rows, range(len(self.rows)), path, self.reasoner
            )
        return found

    def paths(self, present: set[int]) -> tuple[TypePath, ...]:
        key = frozenset(present)
        found = self._paths.get(key)
        if found is None:
            found = self._paths[key] = tuple(enumerate_type_paths(
                present, self.target.target_type, self.kb.successor_table(), self.reasoner
            ))
        return found

    def present(self, rows: Iterable[int]) -> set[int]:
        """The types that some row of rows holds with mass >= tau."""
        return set().union(*(self._present_of[row] for row in rows))


def run_episode(
    scene: SceneGraph,
    episode: Episode,
    kb: ProximityKB,
    agent: AgentConfig,
    policy: str = "hspr",
    trace: bool = False,
) -> Trajectory:
    """Execute one episode under the given policy."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    _check_compatible(scene, episode, kb, agent)

    ep = episode.episode_id
    target = target_spec_from_episode(
        episode, scene, agent.confusion, agent.object_noise,
        LazyRng(agent.seed, ep, "target"),
    )

    # a step walks only the top path, the head of every beam's ranking, so
    # only a traced run, which records the candidates, searches a full beam
    reasoner = agent.reasoner if trace else replace(agent.reasoner, beam=1)
    row_scores = _RowScores(
        agent.confusion, object_rows(scene.n_object_types, agent.object_noise),
        kb, target, reasoner,
    )
    topo = SemanticTopoMap()
    index, nbrs = topo.index, topo.nbrs

    sampled = agent.confusion.mode == "sampled"
    if policy == "random":
        labels = ("random",)
    elif agent.fusion_mode == "dynamic":
        labels = ("visual-global", "visual-local", "visual-visited")
    else:
        labels = ("visual-global", "visual-local")
    streams = StreamTable((agent.seed, ep), labels, agent.max_actions)

    def arrive(node_id: str) -> None:  # topo.step counts arrivals
        rng = LazyRng(agent.seed, ep, "perceive", topo.step) if sampled else None
        topo.observe(scene, node_id, agent.confusion, rng)

    arrive(episode.start_node)
    node_sequence = [episode.start_node]
    action_sequence: list[str] = []
    total_length = 0.0
    stopped = False
    traces: list[dict] = [] if trace else None

    for decision_step in range(agent.max_actions):
        table = topo.shortest_paths()

        if policy == "random":
            options = topo.navigable_sets()[0] + [STOP]
            rng = streams.generator("random", decision_step)
            chosen = options[int(rng.integers(len(options)))]
            step_trace = {"chosen": chosen} if trace else None
        else:
            chosen, step_trace = _scored_action(
                scene, agent, policy, row_scores, topo, table, decision_step, streams, trace,
            )
        if trace:
            traces.append(step_trace)

        if chosen == STOP:
            action_sequence.append(STOP)
            stopped = True
            break

        # each hop's length from its tail's (index, length) list; the map
        # grows in place as the walk observes, so index and nbrs stay its own
        k = table.source
        for nxt in topo.route_to(table, chosen)[1:]:
            k_next = index[nxt]
            for j, length in nbrs[k]:
                if j == k_next:
                    break
            else:
                raise InternalError(f"route hop {topo.ids[k]!r}-{nxt!r} is not a known edge")
            total_length += length
            arrive(nxt)
            node_sequence.append(nxt)
            k = k_next
        action_sequence.append(chosen)

    stop_node = topo.current
    selected = ground_object(scene.node(stop_node), row_scores.objects)
    log.debug(
        "episode %s policy %s: stop=%s actions=%d voluntary=%s",
        ep, policy, stop_node, len(action_sequence), stopped,
    )
    return Trajectory(
        episode_id=ep,
        policy=policy,
        node_sequence=node_sequence,
        action_sequence=action_sequence,
        stop_node=stop_node,
        selected_object=selected,
        total_length=total_length,
        steps=traces,
    )


def _noise(streams: StreamTable, label: str, step: int, sd: float, n: int) -> list[float] | None:
    """One view's visual noise: n normal draws from its stream in one sized
    call, or None when the view is noiseless or empty, which builds no
    generator."""
    if sd > 0 and n > 0:
        return streams.generator(label, step).normal(0.0, sd, n).tolist()
    return None


def _scored_action(scene, agent, policy, row_scores, topo, table, decision_step, streams, trace):
    """One fused scoring round in one pass over the candidates in id order;
    returns (chosen action, optional trace).

    A candidate i in C (the map's navigable index list, in id order)
    reads its proximity eta and type alignment by its belief's row.  Its
    global visual score is w_d * exp(-d / decay) + w_t * alignment (+ noise)
    at its route distance d, and l_c = eta + that.  On F (the candidates
    next to the current node) the local entry is eta plus the same visual
    score at the edge length (eta alone with eq11_literal).  Off F it is l_c in residual
    fusion, 0.0 in average fusion, whose beta is pinned at 0.5, and in
    dynamic fusion the sum of eta + visual over the visited nodes on the
    known route to i.  The fused score beta * l_c + (1 - beta) * l_f picks
    the action: the first strict maximum over STOP, then C in id order.
    Each view (global, local, visited) draws its noise in one call, in id
    order, from its own stream.
    """
    current = topo.current
    ids, rows, dist = topo.ids, topo.rows, table.dist
    candidates = topo.navigable  # node indices in id order
    # the current node's neighbours by index, with their edge lengths; the navigable ones are F
    near = dict(topo.nbrs[table.source])
    n_local = sum(1 for k in candidates if k in near)
    mode = agent.fusion_mode
    current_row = rows[table.source]

    selected_path = None
    paths = ()
    eta_of = None  # by row; None scores every node 0.0
    if policy == "greedy_eta":
        eta_of = row_scores.direct
    elif policy == "hspr":
        paths = row_scores.paths(row_scores.present([rows[k] for k in candidates]))
        # the search starts every path at a type some candidate holds with
        # mass >= tau, so the first feasible path is always the top one,
        # and only an empty result falls back to direct scores
        if paths:
            selected_path = paths[0]
            eta_of = row_scores.multi_step(selected_path)
        else:
            eta_of = row_scores.direct
    alignment = row_scores.alignment

    visual = agent.visual
    w_d, w_t, decay, sd, exp = visual.w_d, visual.w_t, visual.decay, visual.noise_sd, np.exp
    noise_c = _noise(streams, "visual-global", decision_step, sd, len(candidates))
    noise_f = _noise(streams, "visual-local", decision_step, sd, n_local)

    route = None
    if mode == "dynamic":
        visited = topo.visited  # node indices in id order
        noise_v = _noise(streams, "visual-visited", decision_step, sd, len(visited))
        # by node index, None where the node is not visited
        visited_scores: list[float | None] = [None] * len(ids)
        for j, k in enumerate(visited):
            row = rows[k]
            value = w_d * float(exp(-dist[k] / decay)) + w_t * alignment[row]
            if noise_v is not None:
                value = value + noise_v[j]
            visited_scores[k] = (0.0 if eta_of is None else eta_of[row]) + value
        route = topo.route_sums(table, visited_scores, [k for k in candidates if k not in near])

    # average fusion blends at a pinned 0.5, so that is the beta it records
    beta = 0.5 if mode == "average" else balance_factor(agent.beta_policy, topo)
    record = scene.node(current)
    by_type = row_scores.objects
    stop = stop_score(
        alignment[current_row], [by_type[o.object_type] for o in record.objects], agent.stop_weights
    )

    if trace:
        eta_c, eta_f, eps_c, eps_f, l_c, l_f, l_final = {}, {}, {}, {}, {}, {}, {}
    residual, average, eq11_literal = mode == "residual", mode == "average", agent.eq11_literal
    chosen, best = STOP, stop
    j_local = 0
    for j, k in enumerate(candidates):
        row = rows[k]
        eta = 0.0 if eta_of is None else eta_of[row]
        aligned = w_t * alignment[row]
        visual_c = w_d * float(exp(-dist[k] / decay)) + aligned
        if noise_c is not None:
            visual_c = visual_c + noise_c[j]
        g = eta + visual_c
        length = near.get(k)
        if length is not None:
            visual_f = w_d * float(exp(-length / decay)) + aligned
            if noise_f is not None:
                visual_f = visual_f + noise_f[j_local]
            j_local += 1
            local = eta if eq11_literal else eta + visual_f
            if trace:
                eta_f[ids[k]], eps_f[ids[k]] = eta, visual_f
        elif residual:
            local = g
        elif average:
            local = 0.0
        else:
            local = route[k]
        fused = beta * g + (1.0 - beta) * local
        if fused > best:
            best, chosen = fused, ids[k]
        if trace:
            i = ids[k]
            eta_c[i], eps_c[i], l_c[i], l_f[i], l_final[i] = eta, visual_c, g, local, fused

    if not trace:
        return chosen, None
    l_c[STOP] = l_f[STOP] = l_final[STOP] = stop
    return chosen, {
        "step": decision_step,
        "current": current,
        "beta": beta,
        "candidate_paths": [[list(p.types), p.confidence] for p in paths] if policy == "hspr" else None,
        "selected_path": list(selected_path.types) if selected_path else None,
        "path_confidence": selected_path.confidence if selected_path else None,
        "scores": {
            "eta_c": eta_c,
            "eta_f": eta_f,
            "epsilon_c": eps_c,
            "epsilon_f": eps_f,
            "l_c": dict(sorted(l_c.items())),
            "l_f": dict(sorted(l_f.items())),
        },
        "l_final": dict(sorted(l_final.items())),
        "chosen": chosen,
        "map": topo.snapshot(),
    }


@dataclass
class BatchResult:
    trajectories: list[Trajectory]
    failures: dict[str, str]


def _run_one(job) -> tuple[Trajectory | None, str | None]:
    """Run one job: (trajectory, None), or (None, message) on an input error, which
    is a ValueError; any other exception is an engine fault, raised as InternalError."""
    try:
        return run_episode(*job), None
    except ValueError as exc:
        return None, str(exc)
    except InternalError:
        raise
    except Exception as exc:
        raise InternalError(f"episode {job[1].episode_id}: {type(exc).__name__}: {exc}") from exc


def run_batch(
    scenes: dict[str, SceneGraph],
    episodes: list[Episode],
    kb: ProximityKB,
    agent: AgentConfig,
    policy: str = "hspr",
    parallelism: int = 1,
    trace: bool = False,
) -> BatchResult:
    """Run many episodes; results are sorted by episode id and independent
    of the worker count.  Per-episode input errors are captured, not
    raised; an engine fault propagates as InternalError."""
    jobs = []
    failures: dict[str, str] = {}
    for episode in sorted(episodes, key=lambda e: e.episode_id):
        scene = scenes.get(episode.scene_id)
        if scene is None:
            error = failures[episode.episode_id] = f"unknown scene {episode.scene_id!r}"
            log.warning("episode %s failed: %s", episode.episode_id, error)
            continue
        jobs.append((scene, episode, kb, agent, policy, trace))

    trajectories: list[Trajectory] = []
    # a fork-started pool forks all its workers at the first submit, so start
    # no more than there are jobs
    workers = min(parallelism, len(jobs))
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            results = map(_run_one, jobs)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # ~4 chunks per worker, each pickled as one message: the KB, the agent
            # and each scene (ids sort by scene) travel once per chunk, not per job
            chunksize = max(1, math.ceil(len(jobs) / (4 * workers)))
            results = pool.map(_run_one, jobs, chunksize=chunksize)
        for job, (traj, error) in zip(jobs, results):
            if error is None:
                trajectories.append(traj)
            else:
                failures[job[1].episode_id] = error
                log.warning("episode %s failed: %s", job[1].episode_id, error)
    log.info("batch complete: %d ok, %d failed", len(trajectories), len(failures))
    return BatchResult(trajectories=trajectories, failures=failures)


def trajectory_to_payload(traj: Trajectory) -> dict:
    payload = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "episode_id": traj.episode_id,
        "policy": traj.policy,
        "node_sequence": traj.node_sequence,
        "action_sequence": traj.action_sequence,
        "stop_node": traj.stop_node,
        "selected_object": traj.selected_object,
        "total_length": traj.total_length,
    }
    if traj.steps is not None:
        payload["steps"] = traj.steps
    return payload


def _string_list(payload: dict, name: str) -> list[str]:
    value = payload[name]
    if not isinstance(value, list):  # a string would split into characters
        raise TypeError(f"{name} must be a list, got {value!r}")
    return [str(item) for item in value]


def save_trajectories(trajectories: list[Trajectory], path) -> None:
    """JSON-lines, one trajectory per line."""
    write_json(path, (trajectory_to_payload(traj) for traj in trajectories), lines=True)


def load_trajectories(path) -> list[Trajectory]:
    """Read a JSON-lines trajectory file; an episode id may appear only once."""
    out = []
    seen = set()
    for label, payload in read_json_lines(path, "trajectory", TRAJECTORY_SCHEMA_VERSION):
        with malformed(label):
            traj = Trajectory(
                episode_id=str(payload["episode_id"]),
                policy=str(payload.get("policy", "hspr")),
                node_sequence=_string_list(payload, "node_sequence"),
                action_sequence=_string_list(payload, "action_sequence"),
                stop_node=str(payload["stop_node"]),
                selected_object=(
                    None if payload["selected_object"] is None else str(payload["selected_object"])
                ),
                total_length=float(payload["total_length"]),
                steps=payload.get("steps"),
            )
        if not (math.isfinite(traj.total_length) and traj.total_length >= 0):
            raise SchemaError(
                f"{label}: total_length must be finite and >= 0, got {payload['total_length']!r}"
            )
        if not traj.node_sequence:
            raise SchemaError(f"{label}: node_sequence is empty")
        if traj.stop_node != traj.node_sequence[-1]:
            raise SchemaError(
                f"{label}: stop_node {traj.stop_node!r} is not the last node of node_sequence"
            )
        if traj.episode_id in seen:
            raise SchemaError(f"{label} repeats episode id {traj.episode_id!r}")
        seen.add(traj.episode_id)
        out.append(traj)
    return out
