"""Deterministic RNG derivation.

Every random draw in the package comes from a generator derived here so
results depend only on (seed, labels), never on execution or scheduling
order.  This is what makes batch runs reproducible under any parallelism.

`derive_rng(*parts)` is `default_rng(stable_digest(*parts))`.  A
`StreamTable` gives the same generators for one key prefix and many
(label, step) keys, but cheaper: it hashes the prefix once, and mixes all
the digests into PCG64 seed words in one vectorised SeedSequence pass,
in place on the pool with hash constants sliced at import, the first time
one of its generators is built.  Its one seed source, checked once, then
hands PCG64 a row of those words per generator, so a table's stream
costs nothing until its generator is asked for.  A caller derives a
keyed generator only where it draws from it: the engine derives its
perception streams only in sampled mode, and passes None otherwise.

Weighted draws go through `choose` and `choose_distinct`: they consume the
same doubles and run the same cumsum/searchsorted steps as
`Generator.choice(..., p=...)`, so every pick and generator state is the
same, but they skip its per-call argument checks.  The weights are checked
where they are built instead.  A draw in [0, x) is `x * rng.random()`: the
double and state `uniform(0, x)` gives, fused multiply-add or not.  Keep
`uniform(lo, hi)` when lo != 0: a fused `lo + (hi - lo) * d` can round otherwise.

`below(rng, n)` is `int(rng.integers(n))`, integer and state, for
1 <= n <= 2**32: numpy's bounded method run on the bit generator's 32-bit
words, at about half the cost of a scalar `integers` call.  Scene
generation draws all its bounded integers through it.  Reaching the words
costs 5-10 us once per generator, so generators that draw only a few times
(episode sampling, the random policy) keep `integers`.
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
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _slices(consts: np.ndarray, start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of n hashes, the first the start-th."""
    return consts[start:start + n], consts[start + 1:start + n + 1]


# sliced once: the first hash of each pool word; per source word, the rows
# it mixes into and the three hashes of it they take; the 8 output hashes
_HASH_POOL = _slices(_HASH_A, 0, _POOL)
_MIXES = [
    (src, np.array([dst for dst in range(_POOL) if dst != src]), _slices(_HASH_A, _POOL + 3 * src, 3))
    for src in range(_POOL)
]
_HASH_OUT = tuple(c.reshape(2, _POOL, 1) for c in _slices(_HASH_B, 0, 2 * _POOL))


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray], out: np.ndarray) -> None:
    """Hash value into out, one hash per row of the constants (broadcast)."""
    xor, mult = consts
    np.bitwise_xor(value, xor, out=out)
    out *= mult
    out ^= out >> _SHIFT


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
    n = pool.shape[1]
    _hashmix(pool, _HASH_POOL, out=pool)
    hashed = np.empty((_POOL - 1, n), dtype=np.uint32)
    for src, dst, consts in _MIXES:
        # the three hashes of pool[src] read it before any of them is mixed in
        _hashmix(pool[src], consts, out=hashed)
        hashed *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    # each digest's 8 output words, low uint32 first: each pair of them is
    # one native-order uint64, as numpy's
    words = np.empty((n, 2, _POOL), dtype=np.uint32)
    _hashmix(pool, _HASH_OUT, out=words.transpose(1, 2, 0))
    return words.reshape(n, 2 * _POOL).view(np.uint64)


class _StateWords(ISeedSequence):
    """Hands PCG64 precomputed seed words in place of a SeedSequence, one
    row of a table per generator.

    PCG64 reads a row through a raw pointer, so a strided table would seed
    it from the wrong memory: only a C-contiguous uint64 (K, 4) table is
    taken, and then each of its rows is.
    """

    def __init__(self, words: np.ndarray):
        if words.dtype != np.uint64 or words.shape[1:] != (_POOL,) or not words.flags.c_contiguous:
            raise ValueError("PCG64 seed words must be a C-contiguous uint64 (K, 4) table")
        self._words = words
        self._row = 0

    def pcg64(self, row: int) -> np.random.PCG64:
        """A PCG64 seeded with the words of the given row."""
        self._row = row
        return np.random.PCG64(self)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words[self._row]


class StreamTable:
    """The generators derive_rng(*prefix, label, step) for every label and
    step in range(n_steps), derived from one batch.

    Nothing is hashed until a generator is first asked for; then every
    key's digest is taken from one copy of the hashed prefix and all are
    mixed in one `seed_state_words` pass into the table's seed source.  Each
    generator is built on request from its row, so the engine asks only for
    the streams it draws from.
    """

    def __init__(self, prefix: tuple, labels: Sequence[str], n_steps: int):
        self._prefix = prefix
        self._rows = {label: k * n_steps for k, label in enumerate(labels)}
        self._n_steps = n_steps
        self._words: _StateWords | None = None

    def _mix(self) -> _StateWords:
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
        return _StateWords(seed_state_words(b"".join(digests)))

    def generator(self, label: str, step: int) -> np.random.Generator:
        """derive_rng(*prefix, label, step), built from the table's words."""
        if not 0 <= step < self._n_steps:
            raise IndexError(f"step {step} is outside the table's {self._n_steps} steps")
        if self._words is None:
            self._words = self._mix()
        return np.random.Generator(self._words.pcg64(self._rows[label] + step))


def choose(rng: np.random.Generator, p: np.ndarray) -> int:
    """The index `int(rng.choice(len(p), p=p))` gives, drawing the same double.

    p must be a 1-D float64 array of finite, nonnegative weights with a
    positive sum; it is not checked here.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def choose_distinct(rng: np.random.Generator, p: np.ndarray, k: int) -> list[int]:
    """The indices `rng.choice(len(p), size=k, replace=False, p=p)` gives, in its order.

    p is checked as in `choose`, and needs at least k nonzero entries.
    Each round draws one double per missing index and keeps each new index
    at its first occurrence; found indices have zero weight in later rounds.
    """
    found: list[int] = []
    while len(found) < k:
        x = rng.random(k - len(found))
        if found:
            p = p.copy()  # the caller's weights stay as they are
            p[found] = 0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
    return found


_WORD = 1 << 32


def below(rng: np.random.Generator, n: int) -> int:
    """The integer `int(rng.integers(n))` gives, leaving the same generator state.

    For 1 <= n <= 2**32.  numpy draws a one-value range without a word and
    any other such range by Lemire's bounded method on 32-bit words: the
    high half of word * n, redrawn while the low half falls under
    2**32 mod n.  This runs the same method on the words of the bit
    generator's `ctypes.next_uint32`, the function numpy calls, without
    `integers`' per-call argument handling.  The first `ctypes` access
    costs 5-10 us per generator, so a generator that draws only a few times
    keeps `integers`.
    """
    if not 1 <= n <= _WORD:
        raise ValueError(f"below draws from 1 to 2**32 values, got n={n}")
    if n == 1:
        return 0
    words = rng.bit_generator.ctypes
    next_word, state = words.next_uint32, words.state
    m = next_word(state) * n
    if m & 0xFFFFFFFF < n:
        threshold = (_WORD - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = next_word(state) * n
    return m >> 32
