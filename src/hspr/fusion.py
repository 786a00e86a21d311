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
    """One decision's global, local and fused action tables."""

    l_c: dict[str, float] = field(default_factory=dict)
    l_f: dict[str, float] = field(default_factory=dict)
    l_final: dict[str, float] = field(default_factory=dict)


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


# the state features a logistic balance policy can weight, in balance_features' order
BALANCE_FEATURES = ("visited_fraction", "frontier_fraction", "local_fraction", "step")


def _finite(raw: str, spec: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"beta policy {spec!r}: {raw!r} is not a finite number")
    return value


def parse_beta_policy(spec: str) -> BetaPolicy:
    """Parse CLI-style policy specs: fixed:0.5 | visited_fraction | logistic:f=w,...,bias=b.

    Every number must be finite and every logistic feature one of BALANCE_FEATURES.
    """
    name, _, args = spec.partition(":")
    if name == "fixed":
        return FixedBeta(_finite(args, spec))
    if name == "visited_fraction":
        return VisitedFractionBeta()
    if name == "logistic":
        weights = []
        bias = 0.0
        for item in filter(None, args.split(",")):
            key, _, raw = item.partition("=")
            if key == "bias":
                bias = _finite(raw, spec)
            elif key in BALANCE_FEATURES:
                weights.append((key, _finite(raw, spec)))
            else:
                raise ValueError(
                    f"beta policy {spec!r}: unknown balance feature {key!r}; "
                    f"expected bias or one of {', '.join(BALANCE_FEATURES)}"
                )
        return LogisticBeta(weights=tuple(weights), bias=bias)
    raise ValueError(f"unknown beta policy {spec!r}")


def balance_features(topo_map: SemanticTopoMap) -> dict[str, float]:
    known = max(len(topo_map.nodes), 1)
    F, C = topo_map.navigable_sets()
    values = (
        len(topo_map.visited_ids()) / known,
        len(C) / known,
        len(F) / max(len(C), 1),
        float(topo_map.step),
    )
    return dict(zip(BALANCE_FEATURES, values))


def balance_factor(policy: BetaPolicy, state: dict[str, float] | SemanticTopoMap) -> float:
    """Evaluate a balance policy; the result is clamped to [0, 1].

    Map features are built only for the policies that read them.
    """
    if isinstance(state, SemanticTopoMap) and not isinstance(policy, FixedBeta):
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
        try:
            beta = 1.0 / (1.0 + math.exp(-z))
        except OverflowError:  # exp(-z) exceeds the largest float: the sigmoid's limit
            beta = 0.0
    else:
        raise ValueError(f"malformed balance policy {policy!r}")
    return min(1.0, max(0.0, beta))


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
    """Fuse the global and local action tables in one pass over C.

    Global: l_c[i] = eta_c[i] + epsilon_c[i].  Local: on F the local
    proximity and visual scores combine (with eq11_literal the local entry
    is the proximity score alone).  Off F the local entry depends on the
    mode -- residual: the global entry l_c[i]; average: 0.0, with beta
    pinned at 0.5; dynamic: the summed visited_scores along the known route
    to i, where visited_scores holds exactly the map's visited ids (the
    simulator builds it that way).  Fused: beta * l_c + (1 - beta) * l_f.
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    if not F <= C:
        raise ValueError("local set F must be a subset of global set C")
    missing = [i for i in F if i not in eta_f or i not in epsilon_f]
    if missing:
        raise ValueError(f"nodes in F missing local scores: {sorted(missing)}")
    if mode == "average":
        beta = 0.5
    elif mode == "dynamic":
        if topo_map is None or table is None or visited_scores is None:
            raise ValueError("dynamic fusion needs the map, routing table, and visited scores")
        route = topo_map.route_sums(table, visited_scores, C - F)
    scores = ActionScoreTable()
    l_c, l_f, l_final = scores.l_c, scores.l_f, scores.l_final
    for i in C:
        g = l_c[i] = eta_c[i] + epsilon_c[i]
        if i in F:
            local = eta_f[i] if eq11_literal else eta_f[i] + epsilon_f[i]
        elif mode == "residual":
            local = g
        elif mode == "average":
            local = 0.0
        else:
            local = route[i]
        l_f[i] = local
        l_final[i] = beta * g + (1.0 - beta) * local
    return scores
