"""Deterministic RNG derivation.

Every random draw in the package comes from a generator derived here so
results depend only on (seed, labels), never on execution or scheduling
order.  This is what makes batch runs reproducible under any parallelism.

Weighted draws go through `choose` and `choose_distinct`: they consume the
same doubles and run the same cumsum/searchsorted steps as
`Generator.choice(..., p=...)`, so every pick and generator state is the
same, but they skip its per-call argument checks.  The weights are checked
where they are built instead.  A draw in [0, x) is `x * rng.random()`: the
double and state `uniform(0, x)` gives, fused multiply-add or not.  Keep
`uniform(lo, hi)` when lo != 0: a fused `lo + (hi - lo) * d` can round otherwise.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_digest(*parts) -> int:
    """Hash a tuple of ints/strings into a 128-bit integer, stably across runs."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:16], "big")


def derive_rng(*parts) -> np.random.Generator:
    """Return a Generator keyed by the given parts (seed, episode id, step, ...)."""
    return np.random.default_rng(stable_digest(*parts))


class LazyRng:
    """Stands in for derive_rng(*parts) and derives it on the first draw.

    Many keyed streams never draw (the target spec in distribution mode,
    noiseless or empty visual views), so they never pay for the hash and
    the generator seeding.  The first draw sees exactly the stream that
    derive_rng(*parts) gives.
    """

    def __init__(self, *parts):
        self._parts = parts
        self._rng = None

    def __getattr__(self, name: str):
        # reached only for names not yet on the instance: Generator methods
        if name.startswith("_"):
            raise AttributeError(name)
        if self._rng is None:
            self._rng = derive_rng(*self._parts)
        value = getattr(self._rng, name)
        setattr(self, name, value)  # later lookups skip __getattr__
        return value


def choose(rng: np.random.Generator | LazyRng, p: np.ndarray) -> int:
    """The index `int(rng.choice(len(p), p=p))` gives, drawing the same double.

    p must be a 1-D float64 array of finite, nonnegative weights with a
    positive sum; it is not checked here.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def choose_distinct(rng: np.random.Generator | LazyRng, p: np.ndarray, k: int) -> list[int]:
    """The indices `rng.choice(len(p), size=k, replace=False, p=p)` gives, in its order.

    p is checked as in `choose`, and needs at least k nonzero entries.
    Each round draws one double per missing index and keeps each new index
    at its first occurrence; found indices have zero weight in later rounds.
    """
    p = p.copy()
    found: list[int] = []
    while len(found) < k:
        x = rng.random(k - len(found))
        if found:
            p[found] = 0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
    return found
