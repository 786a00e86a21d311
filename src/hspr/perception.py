"""Pluggable perception stand-ins.

Neural predictors are replaced by distributions with controllable fidelity:
a row-stochastic confusion model for node types, an eps-uniform confusion
model at level object_noise for object types (the target's and every
instance's), and the weights of a heuristic visual score, which
`simulator._scored_action` computes for each candidate as it fuses.  Identity confusion with zero
noise reproduces ground truth exactly (the oracle configuration).

The confusion matrix is validated once, when the model is built, and then
frozen.  Perceiving a node yields a row index; the belief for row k shares
row k of the model's read-only `rows` (the matrix itself, or a one-hot
identity in sampled mode) instead of copying and re-checking it, so every
belief the agent holds is one of only n_types rows.  The model also keeps,
per feasibility tau, the types each row holds with mass >= tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import malformed, read_json
from .seeding import choose

CONFUSION_SCHEMA_VERSION = 1
_SUM_TOL = 1e-9


def _check_distribution(vec: np.ndarray, what: str) -> None:
    """Refuse a vector, or each row of a matrix, that is not a distribution."""
    # NaN fails every comparison below, so it is refused first
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} has a non-finite entry")
    # array methods, not np.any: TargetSpec checks two vectors per episode
    if (vec < 0).any():
        raise ValueError(f"{what} has a negative entry")
    sums = vec.sum(axis=-1)
    if (abs(sums - 1.0) > _SUM_TOL).any():
        raise ValueError(f"{what} does not sum to 1 (got {sums!r})")


@dataclass(eq=False)
class TargetSpec:
    """Believed target node type and target object type distributions."""

    Y_r: np.ndarray
    Y_o: np.ndarray

    def __post_init__(self):
        self.Y_r = np.asarray(self.Y_r, dtype=np.float64)
        self.Y_o = np.asarray(self.Y_o, dtype=np.float64)
        _check_distribution(self.Y_r, "target node-type distribution")
        _check_distribution(self.Y_o, "target object-type distribution")

    @property
    def target_type(self) -> int:
        return int(np.argmax(self.Y_r))


@dataclass(eq=False)
class TypeBelief:
    node_id: str
    R: np.ndarray
    # the confusion row R was read from; None for a belief built directly
    row: int | None = field(default=None, kw_only=True)
    # set only by ConfusionModel.belief, whose rows are read-only and were
    # validated with the matrix
    _checked: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, _checked: bool):
        if not _checked:
            self.R = np.asarray(self.R, dtype=np.float64)
            _check_distribution(self.R, f"type belief for {self.node_id}")


@dataclass(eq=False)
class ConfusionModel:
    """Row-stochastic confusion matrix over node types.

    distribution mode emits the confusion row itself as the belief; sampled
    mode draws a label from the row and emits a one-hot belief.  M is a
    private copy, validated here and then made read-only, so every row
    handed out stays a valid distribution.
    """

    M: np.ndarray
    mode: str = "distribution"

    def __post_init__(self):
        self.M = np.array(self.M, dtype=np.float64)
        if self.mode not in ("distribution", "sampled"):
            raise ValueError(f"unknown confusion mode {self.mode!r}")
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise ValueError("confusion matrix must be square")
        _check_distribution(self.M, "confusion matrix")
        self.M.flags.writeable = False
        if self.mode == "distribution":
            self.rows = self.M
        else:
            self.rows = np.eye(self.n_types)
            self.rows.flags.writeable = False
        self._present: dict[float, list[frozenset[int]]] = {}

    def __reduce__(self):
        # unpickled arrays come back writeable; rebuilding re-freezes them.
        # The present-type lists are left behind, so a pickle holds no cache
        return (type(self), (self.M, self.mode))

    @property
    def n_types(self) -> int:
        return self.M.shape[0]

    def perceive(self, true_type: int, rng: np.random.Generator | None) -> int:
        """Index into `rows` of the perceived type distribution.

        distribution mode returns true_type and draws nothing, so rng may be
        None; sampled mode draws one label from the confusion row.
        """
        if self.mode == "distribution":
            return true_type
        if rng is None:
            raise ValueError("sampled confusion mode needs a generator to perceive with")
        return choose(rng, self.M[true_type])

    def row(self, true_type: int, rng: np.random.Generator | None) -> np.ndarray:
        """The perceived type distribution, a read-only row; rng as in `perceive`."""
        return self.rows[self.perceive(true_type, rng)]

    def present_types(self, tau: float) -> list[frozenset[int]]:
        """Per row of `rows`, the types it holds with mass >= tau.

        The reference `present_types_from_beliefs` in `tests/oracles.py` of
        each row alone, computed on the first call for a tau and kept for
        every episode that reads this model.
        """
        present = self._present.get(tau)
        if present is None:
            present = self._present[tau] = [
                frozenset(int(t) for t in np.nonzero(R >= tau)[0]) for R in self.rows
            ]
        return present

    def belief(self, node_id: str, row: int) -> TypeBelief:
        """The belief holding rows[row]; the row was validated with the matrix."""
        return TypeBelief(node_id, self.rows[row], row=row, _checked=True)

    @classmethod
    def identity(cls, n_types: int, mode: str = "distribution") -> "ConfusionModel":
        return cls(np.eye(n_types), mode=mode)

    @classmethod
    def eps_uniform(cls, n_types: int, eps: float, mode: str = "distribution") -> "ConfusionModel":
        """Identity mixed with the uniform distribution at level eps."""
        if not 0.0 <= eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")
        M = (1.0 - eps) * np.eye(n_types) + eps * np.full((n_types, n_types), 1.0 / n_types)
        return cls(M, mode=mode)


def load_confusion(path) -> ConfusionModel:
    payload = read_json(path, "confusion", CONFUSION_SCHEMA_VERSION)
    with malformed(f"confusion file {path}"):
        return ConfusionModel(
            np.array(payload["matrix"], dtype=np.float64),
            mode=payload.get("mode", "distribution"),
        )


@functools.lru_cache
def object_rows(n_object_types: int, object_noise: float) -> np.ndarray:
    """Perceived object-type distributions, read-only, one row per true type.

    Object perception is eps-uniform confusion at level object_noise in
    distribution mode; the rows are built once per (n_object_types,
    object_noise) and shared by every episode.
    """
    return ConfusionModel.eps_uniform(n_object_types, object_noise).rows


def target_spec_from_episode(
    episode, scene, model: ConfusionModel, object_noise: float, rng: np.random.Generator | None
) -> TargetSpec:
    """Build the believed target spec for an episode.

    The node-type side passes the target's true type through the confusion
    model, drawing from the generator `rng` in sampled mode (distribution
    mode draws nothing, so rng may be None); the object-type side is the
    object-perception row of the true object type.
    """
    target = scene.node(episode.target_node)
    objects = {o.object_id: o for o in target.objects}
    if episode.target_object not in objects:
        raise ValueError(
            f"episode {episode.episode_id} target object {episode.target_object!r} "
            f"not found at node {episode.target_node!r}"
        )
    Y_r = model.row(target.node_type, rng)
    Y_o = object_rows(scene.n_object_types, object_noise)[objects[episode.target_object].object_type]
    return TargetSpec(Y_r=Y_r, Y_o=Y_o)


@dataclass(frozen=True)
class VisualWeights:
    """Heuristic visual score of a node at distance d with type alignment
    R . Y_r: w_d * exp(-d / decay) + w_t * alignment + N(0, noise_sd)."""

    w_d: float = 0.3
    w_t: float = 1.5
    decay: float = 10.0
    noise_sd: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.w_d, self.w_t, self.decay, self.noise_sd)):
            raise ValueError("visual weights must be finite")
        if self.decay <= 0:
            raise ValueError("decay length must be positive")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
