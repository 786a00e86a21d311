"""Spatial proximity knowledge base.

Counts three kinds of co-occurrence over annotated scenes — region-type
adjacency, object-type co-presence per view, and node-type/object-type
correlation — then turns the count rows into probabilities in [0, 0.95]
by clamping each row at its 95th percentile and min-max normalizing.

A KB also keeps what every episode run on it shares: the successor table
of its P_r, and `TargetScores`, whole lists of every perception row's
score against one target distribution, computed when first asked for.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import SchemaError, malformed, read_json, write_json
from .reasoner import SuccessorTable
from .scene import SceneGraph, region_adjacency, segment_regions

KB_SCHEMA_VERSION = 1
PROB_CEILING = 0.95
DEFAULT_TOP_K = 10
OBJECT_SPARSE_THRESHOLD = 0.25  # save_kb writes P_o as triples below this nonzero share


@dataclass
class CountMatrices:
    """Raw co-occurrence tallies accumulated over scenes."""

    C_r: np.ndarray
    C_o: np.ndarray
    C_ro: np.ndarray
    scene_count: int = 0

    @classmethod
    def zeros(cls, n_types: int, n_object_types: int) -> "CountMatrices":
        return cls(
            C_r=np.zeros((n_types, n_types), dtype=np.int64),
            C_o=np.zeros((n_object_types, n_object_types), dtype=np.int64),
            C_ro=np.zeros((n_types, n_object_types), dtype=np.int64),
        )


@dataclass(eq=False)
class ProximityKB:
    """Normalized proximity matrices plus per-type top co-occurring objects.

    The KB also keeps what every episode run on it shares, so P_r and P_o
    are read-only once an episode has run:
    - the `SuccessorTable` that type-path searches go through, built from
      P_r on the first search;
    - a store of `TargetScores`, one per rows array and target
      distribution: each confusion row's R . Y_r and R . P_r . Y_r, and
      each object row's O . P_o . Y_o.
      The two sides have keys of their own, so an episode reuses one
      side's table whatever the other side's target is.
    Both are caches: they take no part in `==`, and a pickled KB (a
    process-pool chunk) leaves them behind, so each worker starts cold.
    """

    P_r: np.ndarray
    P_o: np.ndarray
    top_objects: list[list[int]]
    type_vocabulary: list[str]
    object_vocabulary: list[str]
    provenance: dict = field(default_factory=dict)
    _successors: SuccessorTable | None = field(default=None, init=False, repr=False)
    _targets: dict[tuple[bool, int, bytes], TargetScores] | None = field(default=None, init=False, repr=False)

    def successor_table(self) -> SuccessorTable:
        """The table of P_r; a ValueError from building it leaves nothing cached."""
        if self._successors is None:
            self._successors = SuccessorTable(self.P_r)
        return self._successors

    def target_scores(self, rows: np.ndarray, Y: np.ndarray, objects: bool = False) -> TargetScores:
        """The kept scores of `rows` against Y, through P_o if objects, else P_r.

        Keyed by the side, the identity of `rows` (which the table holds, so
        the id stays that array's) and the bytes of Y.
        """
        if self._targets is None:
            self._targets = {}
        key = (objects, id(rows), Y.tobytes())
        found = self._targets.get(key)
        if found is None:
            found = self._targets[key] = TargetScores(rows, self.P_o if objects else self.P_r, Y)
        return found

    def __getstate__(self):
        state = self.__dict__.copy()
        # unset, they read the class defaults
        state.pop("_successors", None)
        state.pop("_targets", None)
        return state

    def __eq__(self, other):
        if not isinstance(other, ProximityKB):
            return NotImplemented
        return (
            np.array_equal(self.P_r, other.P_r)
            and np.array_equal(self.P_o, other.P_o)
            and self.top_objects == other.top_objects
            and self.type_vocabulary == other.type_vocabulary
            and self.object_vocabulary == other.object_vocabulary
            and self.provenance == other.provenance
        )


class TargetScores:
    """Scores of every row of one distribution array against one target
    distribution Y through one proximity matrix P, computed when built.

    `alignment[k]` is rows[k] . Y and `through[k]` is rows[k] . P . Y, by the
    per-row matvecs an episode would make afresh, so each value is the same
    bit for bit (one rows @ vector product could round differently).  The
    table holds rows, so the array's id stays its key on the KB.
    """

    def __init__(self, rows: np.ndarray, P: np.ndarray, Y: np.ndarray):
        self.rows = rows
        pulled = P @ Y  # P . Y
        self.alignment = [float(row @ Y) for row in rows]
        self.through = [float(row @ pulled) for row in rows]


def accumulate_scene(counts: CountMatrices, scene: SceneGraph) -> CountMatrices:
    """Add one scene's tallies into counts (in place) and return counts.

    Region adjacency counts connectivity between segmented regions, once per
    region pair regardless of how many edges join them.  Objects sharing a
    view sector at a node co-occur once per unordered type pair.  Node-object
    correlation counts one per object instance at a node.
    """
    n_r = counts.C_r.shape[0]
    n_o = counts.C_o.shape[0]
    if scene.n_types != n_r or scene.n_object_types != n_o:
        raise ValueError(
            f"scene vocabularies ({scene.n_types} types, {scene.n_object_types} objects) "
            f"do not match count matrices ({n_r}, {n_o})"
        )

    regions = segment_regions(scene)
    type_of = {r.region_id: r.region_type for r in regions}
    for ra, rb in region_adjacency(scene, regions):
        ta, tb = type_of[ra], type_of[rb]
        if ta == tb:
            counts.C_r[ta, ta] += 1
        else:
            counts.C_r[ta, tb] += 1
            counts.C_r[tb, ta] += 1

    for node in scene.nodes:
        per_view: dict[int, set[int]] = {}
        for obj in node.objects:
            per_view.setdefault(obj.view_index, set()).add(obj.object_type)
            counts.C_ro[node.node_type, obj.object_type] += 1
        for types_in_view in per_view.values():
            for a, b in combinations(sorted(types_in_view), 2):
                counts.C_o[a, b] += 1
                counts.C_o[b, a] += 1

    counts.scene_count += 1
    return counts


def normalize_counts(C: np.ndarray) -> np.ndarray:
    """Turn a non-negative count matrix into per-row probabilities in [0, 0.95].

    Per row: clamp entries above the row's 95th percentile (linear
    interpolation at rank 0.95*(n-1) over the sorted row) down to that
    percentile, then min-max scale the clamped row to [0, 0.95].  A row whose
    clamped max equals its min maps to all zeros.
    """
    C = np.asarray(C, dtype=np.float64)
    if np.any(C < 0):
        raise ValueError("count matrix has a negative entry")
    out = np.zeros_like(C)
    for i, row in enumerate(C):
        p95 = np.percentile(row, 95, method="linear")
        clamped = np.minimum(row, p95)
        lo, hi = clamped.min(), clamped.max()
        if hi > lo:
            # divide before scaling so the row extremes land exactly on
            # 0 and the ceiling
            out[i] = PROB_CEILING * ((clamped - lo) / (hi - lo))
    return out


def top_k_objects(C_ro: np.ndarray, K: int) -> list[list[int]]:
    """Per node type, the K object types with the highest correlation counts.

    Descending by count, ties broken by ascending object index; zero-count
    object types are never included.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    result = []
    for row in np.asarray(C_ro):
        ranked = sorted(
            (o for o in range(len(row)) if row[o] > 0),
            key=lambda o: (-row[o], o),
        )
        result.append(ranked[:K])
    return result


def build_kb(
    counts: CountMatrices,
    type_vocabulary: list[str],
    object_vocabulary: list[str],
    top_k: int = DEFAULT_TOP_K,
    config: dict | None = None,
) -> ProximityKB:
    """Normalize accumulated counts into an immutable knowledge base."""
    config = dict(config or {})
    config.setdefault("top_k", top_k)
    fingerprint = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return ProximityKB(
        P_r=normalize_counts(counts.C_r),
        P_o=normalize_counts(counts.C_o),
        top_objects=top_k_objects(counts.C_ro, top_k),
        type_vocabulary=list(type_vocabulary),
        object_vocabulary=list(object_vocabulary),
        provenance={
            "scene_count": counts.scene_count,
            "built_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config_hash": fingerprint,
        },
    )


def _matrix_to_payload(M: np.ndarray, sparse_threshold: float | None) -> dict | list:
    if sparse_threshold is not None and M.size:
        nz = np.argwhere(M != 0.0)
        if len(nz) / M.size < sparse_threshold:
            return {
                "format": "sparse",
                "shape": list(M.shape),
                "triples": [[int(r), int(c), float(M[r, c])] for r, c in nz],
            }
    return [[float(v) for v in row] for row in M]


def _matrix_from_payload(payload) -> np.ndarray:
    if isinstance(payload, dict):
        if payload.get("format") != "sparse":
            raise SchemaError(f"unknown matrix format {payload.get('format')!r}")
        M = np.zeros(tuple(payload["shape"]), dtype=np.float64)
        if M.ndim != 2:
            raise SchemaError(f"sparse matrix shape {payload['shape']} is not 2-D")
        for r, c, v in payload["triples"]:
            if not (isinstance(r, int) and isinstance(c, int)
                    and 0 <= r < M.shape[0] and 0 <= c < M.shape[1]):
                raise SchemaError(f"sparse triple index ({r}, {c}) outside shape {M.shape}")
            M[r, c] = v
        return M
    return np.array(payload, dtype=np.float64)


def save_kb(kb: ProximityKB, path) -> None:
    """Serialize a KB; P_o switches to [row, col, value] triples when sparse."""
    payload = {
        "schema_version": KB_SCHEMA_VERSION,
        "type_vocabulary": kb.type_vocabulary,
        "object_vocabulary": kb.object_vocabulary,
        "P_r": _matrix_to_payload(kb.P_r, None),
        "P_o": _matrix_to_payload(kb.P_o, OBJECT_SPARSE_THRESHOLD),
        "top_objects": kb.top_objects,
        "provenance": kb.provenance,
    }
    write_json(path, payload)


def load_kb(path) -> ProximityKB:
    payload = read_json(path, "KB", KB_SCHEMA_VERSION)
    with malformed(f"KB file {path}"):
        kb = ProximityKB(
            P_r=_matrix_from_payload(payload["P_r"]),
            P_o=_matrix_from_payload(payload["P_o"]),
            top_objects=[[int(o) for o in row] for row in payload["top_objects"]],
            type_vocabulary=[str(t) for t in payload["type_vocabulary"]],
            object_vocabulary=[str(t) for t in payload["object_vocabulary"]],
            provenance=payload.get("provenance", {}),
        )
    _check_kb(kb, path)
    return kb


def _check_kb(kb: ProximityKB, path) -> None:
    """Reject a KB whose matrices or object lists the engine cannot use.

    Both matrices must be square, sized to their vocabulary, and hold only
    finite entries in [0, 1]; top_objects needs one row per type and valid
    object indices.
    """
    for name, M, vocab in (
        ("P_r", kb.P_r, kb.type_vocabulary),
        ("P_o", kb.P_o, kb.object_vocabulary),
    ):
        if M.shape != (len(vocab), len(vocab)):
            raise SchemaError(
                f"KB file {path}: {name} has shape {M.shape}, "
                f"expected ({len(vocab)}, {len(vocab)}) from its vocabulary"
            )
        # NaN fails both comparisons
        bad = np.argwhere(~((M >= 0.0) & (M <= 1.0)))
        if len(bad):
            r, c = bad[0]
            raise SchemaError(
                f"KB file {path}: {name}[{r}, {c}] = {M[r, c]} is not in [0, 1]"
            )
    n_types, n_objects = len(kb.type_vocabulary), len(kb.object_vocabulary)
    if len(kb.top_objects) != n_types:
        raise SchemaError(
            f"KB file {path}: top_objects has {len(kb.top_objects)} rows, "
            f"expected one per type ({n_types})"
        )
    for t, row in enumerate(kb.top_objects):
        for o in row:
            if not 0 <= o < n_objects:
                raise SchemaError(
                    f"KB file {path}: top_objects[{t}] names object {o}, "
                    f"outside the {n_objects} object types"
                )
