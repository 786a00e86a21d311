"""Action-score fusion.

Combines proximity and visual evidence into one score per candidate action.
Residual fusion fills the local table's non-local entries with the global
scores; the average and dynamic variants exist for ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .topo import SemanticTopoMap, RoutingTable

STOP = "<stop>"

FUSION_MODES = ("residual", "average", "dynamic")


@dataclass
class ActionScoreTable:
    """Per-step fusion state kept for traces."""

    eta_c: dict[str, float] = field(default_factory=dict)
    eta_f: dict[str, float] = field(default_factory=dict)
    epsilon_c: dict[str, float] = field(default_factory=dict)
    epsilon_f: dict[str, float] = field(default_factory=dict)
    l_c: dict[str, float] = field(default_factory=dict)
    l_f: dict[str, float] = field(default_factory=dict)
    l_final: dict[str, float] = field(default_factory=dict)
    beta: float = 0.5


def compose_scores(
    eta_c: dict[str, float],
    eta_f: dict[str, float],
    epsilon_c: dict[str, float],
    epsilon_f: dict[str, float],
    F: set[str],
    C: set[str],
    eq11_literal: bool = False,
) -> tuple[dict[str, float], dict[str, float]]:
    """Build the global and local action tables.

    Global: l_c[i] = eta_c[i] + epsilon_c[i] over all of C.  Local: for
    adjacent nodes the local proximity and visual scores combine (with
    eq11_literal the local entry is the proximity score alone); non-local
    nodes receive the residual assignment eta_c + epsilon_c.
    """
    if not F <= C:
        raise ValueError("local set F must be a subset of global set C")
    missing = [i for i in F if i not in eta_f or i not in epsilon_f]
    if missing:
        raise ValueError(f"nodes in F missing local scores: {sorted(missing)}")
    l_c = {i: eta_c[i] + epsilon_c[i] for i in C}
    l_f = {}
    for i in C:
        if i in F:
            l_f[i] = eta_f[i] if eq11_literal else eta_f[i] + epsilon_f[i]
        else:
            l_f[i] = eta_c[i] + epsilon_c[i]
    return l_c, l_f


@dataclass(frozen=True)
class FixedBeta:
    value: float = 0.5


@dataclass(frozen=True)
class VisitedFractionBeta:
    pass


@dataclass(frozen=True)
class LogisticBeta:
    """Sigmoid of an affine function of named state features."""

    weights: tuple[tuple[str, float], ...] = ()
    bias: float = 0.0


BetaPolicy = FixedBeta | VisitedFractionBeta | LogisticBeta


def parse_beta_policy(spec: str) -> BetaPolicy:
    """Parse CLI-style policy specs: fixed:0.5 | visited_fraction | logistic:f=w,...,bias=b."""
    name, _, args = spec.partition(":")
    if name == "fixed":
        try:
            return FixedBeta(float(args))
        except ValueError as exc:
            raise ValueError(f"bad fixed beta value {args!r}") from exc
    if name == "visited_fraction":
        return VisitedFractionBeta()
    if name == "logistic":
        weights = []
        bias = 0.0
        for item in filter(None, args.split(",")):
            key, _, raw = item.partition("=")
            if not raw:
                raise ValueError(f"bad logistic term {item!r}")
            if key == "bias":
                bias = float(raw)
            else:
                weights.append((key, float(raw)))
        return LogisticBeta(weights=tuple(weights), bias=bias)
    raise ValueError(f"unknown beta policy {spec!r}")


def balance_features(topo_map: SemanticTopoMap) -> dict[str, float]:
    known = max(len(topo_map.nodes), 1)
    F, C = topo_map.navigable_sets() if topo_map.nodes else (set(), set())
    return {
        "visited_fraction": len(topo_map.visited_ids()) / known,
        "frontier_fraction": len(C) / known,
        "local_fraction": len(F) / max(len(C), 1),
        "step": float(topo_map.step),
    }


def balance_factor(policy: BetaPolicy, state: dict[str, float] | SemanticTopoMap) -> float:
    """Evaluate a balance policy; the result is clamped to [0, 1]."""
    if isinstance(state, SemanticTopoMap):
        state = balance_features(state)
    if isinstance(policy, FixedBeta):
        beta = policy.value
    elif isinstance(policy, VisitedFractionBeta):
        beta = state["visited_fraction"]
    elif isinstance(policy, LogisticBeta):
        z = policy.bias
        for feature, weight in policy.weights:
            if feature not in state:
                raise ValueError(f"unknown balance feature {feature!r}")
            z += weight * state[feature]
        beta = 1.0 / (1.0 + math.exp(-z))
    else:
        raise ValueError(f"malformed balance policy {policy!r}")
    return min(1.0, max(0.0, beta))


def fuse_final(
    l_c: dict[str, float], l_f: dict[str, float], beta: float
) -> dict[str, float]:
    """Weighted sum of the global and local tables over one action set."""
    if set(l_c) != set(l_f):
        raise ValueError("global and local tables cover different action sets")
    return {i: beta * l_c[i] + (1.0 - beta) * l_f[i] for i in l_c}


def fuse_variant_table(
    mode: str,
    eta_c: dict[str, float],
    eta_f: dict[str, float],
    epsilon_c: dict[str, float],
    epsilon_f: dict[str, float],
    F: set[str],
    C: set[str],
    beta: float,
    topo_map: SemanticTopoMap | None = None,
    table: RoutingTable | None = None,
    visited_scores: dict[str, float] | None = None,
    eq11_literal: bool = False,
) -> ActionScoreTable:
    """Fuse with one of the ablation variants, keeping all intermediates.

    residual: the standard pipeline.  average: beta pinned at 0.5 and
    non-local local entries zeroed.  dynamic: non-local local entries are
    the summed scores of visited nodes along the known shortest route.
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    l_c, l_f = compose_scores(eta_c, eta_f, epsilon_c, epsilon_f, F, C, eq11_literal)
    if mode == "average":
        beta = 0.5
        for i in C - F:
            l_f[i] = 0.0
    elif mode == "dynamic":
        if topo_map is None or table is None or visited_scores is None:
            raise ValueError("dynamic fusion needs the map, routing table, and visited scores")
        visited = {v: visited_scores[v] for v in topo_map.visited_ids()}
        l_f.update(topo_map.route_sums(table, visited, C - F))
    return ActionScoreTable(
        eta_c=dict(eta_c),
        eta_f=dict(eta_f),
        epsilon_c=dict(epsilon_c),
        epsilon_f=dict(epsilon_f),
        l_c=l_c,
        l_f=l_f,
        l_final=fuse_final(l_c, l_f, beta),
        beta=beta,
    )
