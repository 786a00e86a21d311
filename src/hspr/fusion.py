"""Action-score fusion: the fusion modes and the balance factor beta.

Fusion blends a global and a local score per candidate action into
beta * l_c + (1 - beta) * l_f.  Residual fusion fills the local table's
non-local entries with the global scores; the average and dynamic variants
exist for ablation.  `simulator._scored_action` fuses each decision's
candidates in its one pass over them; the table-at-a-time reference
`fuse_variant_table` is in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .topo import SemanticTopoMap

STOP = "<stop>"

FUSION_MODES = ("residual", "average", "dynamic")


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
    known = max(len(topo_map.ids), 1)
    F, C = topo_map.navigable_sets()
    values = (
        len(topo_map.visited) / known,
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
