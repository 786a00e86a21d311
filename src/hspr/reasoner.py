"""Proximity reasoning over node types.

Finds the top-K multi-hop type paths toward the target through the
proximity matrix, and turns a path into discounted multi-step scores of
type distributions.  The search starts every path at a present type, one
that some distribution holds with mass >= tau, so its start set is the
feasibility check.

The top-K search runs once per start type: an exact best-first search
whose proximity entries lie in [0, 1], so a path's confidence never rises
as it grows, and the search can stop at the K-th completed path with
exactly the ranking a full enumeration would give.  The top K over a
present set are the first K of its starts' lists sorted together on the
ranking key, which is exact because every path has one start and the key
is a total order.  A `SuccessorTable`, one per KB, checks the matrix once,
refusing a NaN or an entry outside [0, 1], sorts each row's successors
once and keeps each single-start list, so every episode on the KB shares
that work.  It also keeps each type's column P_r . e_s and, per confusion
`rows` array, each row's score against a column, so a multi-step score is
a weighted sum of kept floats.

The reference definitions over plain distributions, `proximity_scores`,
`present_types_from_beliefs` and `multi_step_scores`, live in
`tests/oracles.py`; the engine reads the same values from the per-KB,
per-model and per-episode tables.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Collection, Iterable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReasonerConfig:
    gamma: float = 0.9
    max_steps: int = 3
    beam: int = 3
    feasibility_tau: float = 0.5
    omega: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if not math.isfinite(self.feasibility_tau):
            raise ValueError("feasibility_tau must be finite")
        if self.omega is not None and not (
            len(self.omega) >= self.max_steps and all(math.isfinite(w) for w in self.omega)
        ):
            raise ValueError("omega must supply a finite weight per reasoning step")

    def weights(self) -> tuple[float, ...]:
        """Per-step weight coefficients, defaulting to all ones."""
        if self.omega is None:
            return (1.0,) * self.max_steps
        return tuple(self.omega)


@dataclass(frozen=True)
class TypePath:
    """A distinct-type sequence ending at the target type.

    confidence is the product of consecutive proximity entries; a
    single-type path (the target is directly in view) has confidence 1.
    """

    types: tuple[int, ...]
    confidence: float


class SuccessorTable:
    """Proximity rows of one KB, checked once, with sorted successor lists
    and the single-start searches already run over them.

    Holds P_r as nested lists.  A row's nonzero successors are sorted by
    (-p, type) the first time a search expands that row, and kept for every
    later search over the same matrix.  Each single-start search is kept
    too, by (start, target, max_steps, beam), which is everything it reads
    besides P_r.  Raises ValueError when P_r holds a NaN or an entry
    outside [0, 1], because the search's ordering argument needs that
    bound.

    For multi-step scores it keeps each type's column P_r . e_s, by the
    one-hot matvec that the reference `multi_step_scores` in
    `tests/oracles.py` makes, and for each confusion `rows` array (held, so
    its identity stays its key) a table G[r][s] = rows[r] . column_s, built
    whole when a score first reads that array: n^2 floats per rows array.
    """

    def __init__(self, P_r: np.ndarray):
        # NaN fails both comparisons
        if not (P_r.min() >= 0.0 and P_r.max() <= 1.0):
            raise ValueError("proximity matrix entries must lie in [0, 1]")
        self.n = P_r.shape[0]
        self.rows: list[list[float]] = P_r.tolist()
        self._sorted: dict[int, list[tuple[int, float]]] = {}
        self._searched: dict[tuple[int, int, int, int], list[TypePath]] = {}
        self._columns = [P_r @ onehot for onehot in np.eye(P_r.shape[1])]
        self._gains: dict[int, tuple[np.ndarray, list[list[float]]]] = {}

    def successors(self, t: int) -> list[tuple[int, float]]:
        """Nonzero (type, p) of row t, by p descending, then type."""
        succ = self._sorted.get(t)
        if succ is None:
            succ = self._sorted[t] = sorted(
                ((u, p) for u, p in enumerate(self.rows[t]) if p != 0.0),
                key=lambda item: (-item[1], item[0]),
            )
        return succ

    def paths_from(self, start: int, target: int, max_steps: int, beam: int) -> list[TypePath]:
        """The top `beam` paths from `start` to `target`, searched once."""
        key = (start, target, max_steps, beam)
        found = self._searched.get(key)
        if found is None:
            found = self._searched[key] = _best_first(self, start, target, max_steps, beam)
        return found

    def multi_step(
        self, rows: np.ndarray, indices: Iterable[int], path: TypePath, config: ReasonerConfig
    ) -> list[float]:
        """The multi-step score of rows[r] for each r in indices, in order.

        The same products and the same left-to-right sum from 0.0 as the
        reference `multi_step_scores` in `tests/oracles.py`, read from G, so
        every value equals the reference bit for bit.
        """
        if not path.types:
            raise ValueError("selected path is empty")
        omega = config.weights()
        if len(path.types) > len(omega):
            raise ValueError("path longer than configured weight list")
        terms = [(config.gamma**j * omega[j], s) for j, s in enumerate(path.types)]
        gains = self._gains_of(rows)
        out = []
        for r in indices:
            row_gains = gains[r]
            total = 0.0
            for factor, s in terms:
                total += factor * row_gains[s]
            out.append(total)
        return out

    def _gains_of(self, rows: np.ndarray) -> list[list[float]]:
        entry = self._gains.get(id(rows))
        if entry is None:
            if rows.ndim != 2 or rows.shape[1] != self.n:
                raise ValueError(
                    f"type distributions have {rows.shape[-1]} types, matrix has {self.n}"
                )
            columns = self._columns
            entry = self._gains[id(rows)] = (
                rows, [[float(row @ column) for column in columns] for row in rows]
            )
        return entry[1]


def _rank(path: TypePath) -> tuple:
    return (-path.confidence, len(path.types), path.types)


def enumerate_type_paths(
    present_types: Collection[int],
    target_type: int,
    table: SuccessorTable,
    config: ReasonerConfig,
) -> list[TypePath]:
    """Top-K type paths from a currently visible type to the target.

    Paths are distinct-type sequences (s_1, ..., target) with at most
    max_steps types, s_1 visible now, and every transition nonzero in P_r
    (zero entries prune the branch).  Ranked by confidence descending, then
    shorter path, then lexicographic type order; the first config.beam are
    returned.

    Every path starts at exactly one present type, and the ranking key
    (-confidence, length, types) is a total order, so the top K over the
    set are the first K of its start types' top-K lists sorted together.
    Those lists come from the table, which searches each start once.  Each
    search emits its paths in ranking order and the beam only stops it, so
    the list at beam 1 is the head of the list at any larger beam.
    """
    n = table.n
    if not 0 <= target_type < n:
        raise ValueError(f"target type {target_type} outside vocabulary of {n}")
    starts = sorted(present_types)
    for s1 in starts:
        if not 0 <= s1 < n:
            raise ValueError(f"present type {s1} outside vocabulary of {n}")
    merged = [
        path
        for s1 in starts
        for path in table.paths_from(s1, target_type, config.max_steps, config.beam)
    ]
    merged.sort(key=_rank)
    return merged[: config.beam]


def _best_first(
    table: SuccessorTable, start: int, target_type: int, max_steps: int, beam: int
) -> list[TypePath]:
    """Top-`beam` paths from one start type, by best-first search.

    Best-first search over partial paths keyed (-confidence, length, types).
    Every entry of P_r lies in [0, 1] and IEEE rounding is monotone, so
    extending a path by p gives conf * p <= conf, and the length grows by
    one: a child's key is strictly greater than its parent's.  Completed
    paths therefore leave the heap in ranking order, and the search stops at
    the beam-th.  Confidences are multiplied left to right, so they are
    bit-identical to an exhaustive enumeration.

    Successors enter the heap one at a time: a popped path pushes its best
    child that is not already on it, and the next such sibling after itself
    in its parent's (-p, type) order, whose key is no smaller in confidence.
    Siblings whose products tie by rounding may then leave the heap out of
    type order, but only siblings of one parent can fall between their keys,
    at most one of those ends at the target, and every descendant is longer,
    so the completed paths still leave in ranking order.

    A child of length max_steps - 1 that is not the target can only grow
    into the target, so it is pushed only when its P_r entry at the target
    is nonzero: a dead end would be popped and dropped without ever
    completing, and skipping it leaves every completed path and its order
    as they were.
    """
    # entries are (-confidence, length, types, -parent confidence, parent's
    # successor list, index in it); types are unique, so the tail never
    # takes part in a comparison.  Negation is exact, so products match
    # conf * p bit for bit.  A path without siblings to advance (the start
    # type, or a full-length child) has no successor list.
    rows = table.rows

    def can_complete(t: int, length: int) -> bool:
        return length < max_steps - 1 or t == target_type or rows[t][target_type] != 0.0

    heap = [(-1.0, 1, (start,), 0.0, None, 0)]
    found: list[TypePath] = []
    while heap and len(found) < beam:
        neg_conf, length, types, parent_neg_conf, siblings, k = heapq.heappop(heap)
        if siblings is not None:
            parent = types[:-1]
            for j in range(k + 1, len(siblings)):
                t, p = siblings[j]
                if t not in parent and can_complete(t, length):
                    heapq.heappush(heap, (
                        parent_neg_conf * p, length, parent + (t,), parent_neg_conf, siblings, j
                    ))
                    break
        last = types[-1]
        if last == target_type:
            found.append(TypePath(types=types, confidence=-neg_conf))
            continue
        if length == max_steps:
            continue
        if length + 1 == max_steps:
            # a full-length child completes only at the target
            p = rows[last][target_type]
            if p != 0.0:
                heapq.heappush(heap, (neg_conf * p, length + 1, types + (target_type,), 0.0, None, 0))
            continue
        children = table.successors(last)
        for j, (t, p) in enumerate(children):
            if t not in types and can_complete(t, length + 1):
                heapq.heappush(heap, (neg_conf * p, length + 1, types + (t,), neg_conf, children, j))
                break
    return found

