"""Deterministic RNG derivation.

Every random draw in the package comes from a generator derived here so
results depend only on (seed, labels), never on execution or scheduling
order.  This is what makes batch runs reproducible under any parallelism.

`derive_rng(*parts)` is `default_rng(stable_digest(*parts))`.  A
`StreamTable` gives the same generators for one key prefix and many
(label, step) keys, but cheaper: it hashes the prefix once, and mixes all
the digests into PCG64 seed words in one vectorised SeedSequence pass,
the first time one of its generators is built.  A `LazyRng` handle
derives its generator on its first draw, so a stream that never draws
costs nothing; a table's stream costs nothing until its generator is
asked for.

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
from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _hash_parts(h, parts) -> None:
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")


def stable_digest(*parts) -> int:
    """Hash a tuple of ints/strings into a 128-bit integer, stably across runs."""
    h = hashlib.sha256()
    _hash_parts(h, parts)
    return int.from_bytes(h.digest()[:16], "big")


def derive_rng(*parts) -> np.random.Generator:
    """Return a Generator keyed by the given parts (seed, episode id, step, ...)."""
    return np.random.default_rng(stable_digest(*parts))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # pool words; 128 bits of entropy fill it exactly


def _constants(init: int, mult: int, n: int) -> np.ndarray:
    """The first n+1 hash constants, init * mult**k mod 2**32: the k-th
    hash XORs with constant k and multiplies by constant k+1."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# the constants do not depend on the data: 4 + 4*3 hashes of mix_entropy,
# then 8 of generate_state(4, np.uint64), each in its call order
_HASH_A = _constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_HASH_B = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]


def _hashmix(value: np.ndarray, consts: np.ndarray, start: int, n: int) -> np.ndarray:
    """n hashes of value, one per row, the first one the start-th hash."""
    value = (value ^ consts[start:start + n]) * consts[start + 1:start + n + 1]
    return value ^ (value >> np.uint32(16))


def seed_state_words(digests: bytes) -> np.ndarray:
    """PCG64 seed words of many 128-bit digests, in one vectorised pass.

    digests holds K 16-byte big-endian integers back to back; row k of the
    C-contiguous uint64 (K, 4) result equals
    `SeedSequence(e_k).generate_state(4, np.uint64)`, the words
    `default_rng(e_k)` seeds its PCG64 with.  Entropy words missing from
    the top of a small e_k count as 0, as in numpy.
    """
    # pool[i] is entropy word i, least significant first, one column per digest
    pool = np.frombuffer(digests, dtype=">u4").reshape(-1, _POOL)[:, ::-1].T.astype(np.uint32)
    pool = _hashmix(pool, _HASH_A, 0, _POOL)
    for src, dst in enumerate(_OTHERS):
        # the three hashes of pool[src] read it before any of them is mixed in
        hashed = _hashmix(pool[src], _HASH_A, _POOL + 3 * src, 3)
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0, 2 * _POOL)
    # two uint32 words, low first, make each uint64 (a native-order view, as numpy's)
    return np.ascontiguousarray(words.T).view(np.uint64)


class _StateWords(ISeedSequence):
    """Hands PCG64 precomputed seed words in place of a SeedSequence.

    PCG64 reads the words through a raw pointer, so a strided view would
    seed it from the wrong memory: only a C-contiguous uint64[4] is taken.
    """

    def __init__(self, words: np.ndarray):
        if words.dtype != np.uint64 or words.shape != (4,) or not words.flags.c_contiguous:
            raise ValueError("PCG64 seed words must be a C-contiguous uint64[4]")
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


class StreamTable:
    """The generators derive_rng(*prefix, label, step) for every label and
    step in range(n_steps), derived from one batch.

    Nothing is hashed until a generator is first asked for; then every
    key's digest is taken from one copy of the hashed prefix and all are
    mixed in one `seed_state_words` pass.  Each generator is built on
    request, so the engine asks only for the streams it draws from.
    """

    def __init__(self, prefix: tuple, labels: Sequence[str], n_steps: int):
        self._prefix = prefix
        self._rows = {label: k * n_steps for k, label in enumerate(labels)}
        self._n_steps = n_steps
        self._words: np.ndarray | None = None

    def _mix(self) -> np.ndarray:
        h = hashlib.sha256()
        _hash_parts(h, self._prefix)
        steps = [repr(step).encode("utf-8") + b"\x1f" for step in range(self._n_steps)]
        digests = []
        for label in self._rows:
            head = repr(label).encode("utf-8") + b"\x1f"
            for step in steps:
                # the bytes stable_digest(*prefix, label, step) hashes
                key = h.copy()
                key.update(head + step)
                digests.append(key.digest()[:16])
        return seed_state_words(b"".join(digests))

    def generator(self, label: str, step: int) -> np.random.Generator:
        """derive_rng(*prefix, label, step), built from the table's words."""
        if not 0 <= step < self._n_steps:
            raise IndexError(f"step {step} is outside the table's {self._n_steps} steps")
        if self._words is None:
            self._words = self._mix()
        words = self._words[self._rows[label] + step]
        return np.random.Generator(np.random.PCG64(_StateWords(words)))


class LazyRng:
    """Stands in for derive_rng(*parts) and derives it on the first draw.

    Some keyed streams never draw (the target spec in distribution mode),
    so they never pay for the hash and the generator seeding.  The first
    draw sees exactly the stream that derive_rng(*parts) gives.
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


# a generator, or a lazy handle that derives one on its first draw
Rng = np.random.Generator | LazyRng


def choose(rng: Rng, p: np.ndarray) -> int:
    """The index `int(rng.choice(len(p), p=p))` gives, drawing the same double.

    p must be a 1-D float64 array of finite, nonnegative weights with a
    positive sum; it is not checked here.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def choose_distinct(rng: Rng, p: np.ndarray, k: int) -> list[int]:
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
