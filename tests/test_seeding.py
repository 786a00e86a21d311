import itertools

import numpy as np
import pytest

from hspr.seeding import (
    StreamTable,
    _StateWords,
    below,
    choose,
    choose_distinct,
    derive_rng,
    seed_state_words,
)


def test_weighted_draws_match_generator_choice():
    """choose/choose_distinct give Generator.choice's picks and leave the same state.

    Weights are cubed and ~40% zero, so some entries are tiny and zero
    entries sit anywhere, first and last included; k runs up to the number
    of nonzero entries.  Odd trials draw from a derive_rng generator.
    """
    rng = np.random.default_rng(19)
    for trial in range(10_000):
        n = int(rng.integers(1, 701))
        weights = rng.uniform(size=n) ** 3 * (rng.uniform(size=n) >= 0.4)
        if not weights.any():
            weights[int(rng.integers(n))] = 1.0
        p = weights / weights.sum()
        k = int(rng.integers(1, np.count_nonzero(p) + 1))
        if trial % 2:
            fast, slow = derive_rng(trial, "oracle"), derive_rng(trial, "oracle")
        else:
            fast, slow = np.random.default_rng(trial), np.random.default_rng(trial)
        assert choose(fast, p) == int(slow.choice(n, p=p))
        assert choose_distinct(fast, p, k) == slow.choice(n, size=k, replace=False, p=p).tolist()
        assert fast.bit_generator.state == slow.bit_generator.state


def test_choose_distinct_leaves_the_callers_weights_alone():
    # 0.3 and 0.35 both land on index 1, so a second round zeroes it
    p = np.array([0.2, 0.5, 0.3])
    kept = p.copy()
    rng = ScriptedRng([0.3, 0.35, 0.1])
    assert choose_distinct(rng, p, 2) == [1, 0]
    assert rng.doubles == [] and p.tolist() == kept.tolist()


def test_choose_distinct_of_nothing_draws_nothing():
    rng, untouched = np.random.default_rng(3), np.random.default_rng(3)
    assert choose_distinct(rng, np.zeros(4), 0) == []
    assert rng.bit_generator.state == untouched.bit_generator.state


class ScriptedRng(np.random.Generator):
    """A Generator whose random() returns the given doubles in order;
    Generator.choice draws through it too."""

    def __init__(self, doubles):
        super().__init__(np.random.PCG64(0))
        self.doubles = list(doubles)

    def random(self, size=None):
        if size is None or size == ():
            return self.doubles.pop(0)
        return np.array([self.doubles.pop(0) for _ in range(int(np.prod(size)))])


EDGE_DOUBLES = (0.0, 0.25, 0.5, 0.75, 1 - 2**-53)


@pytest.mark.parametrize("p", [
    [0.0, 0.5, 0.5],  # 0.0 must skip the leading zero; 0.5 lands on a cdf step
    [0.25, 0.75 - 1e-8, 0.0],  # sums a little under 1, within choice's tolerance
    [0.25, 0.25, 0.0, 0.5],
])
def test_edge_doubles_pick_what_generator_choice_picks(p):
    p = np.array(p)
    n, k = len(p), int(np.count_nonzero(p))
    for x in EDGE_DOUBLES:
        assert choose(ScriptedRng([x]), p) == int(ScriptedRng([x]).choice(n, p=p))
    for order in itertools.permutations(EDGE_DOUBLES):
        doubles = order * 3  # repeats force later rounds
        want = ScriptedRng(doubles).choice(n, size=k, replace=False, p=p).tolist()
        assert choose_distinct(ScriptedRng(doubles), p, k) == want


class TestZeroBasedDraws:
    """`x * random()` is `uniform(0, x)` and `random()` is `uniform()`, bit for bit.

    numpy computes uniform(low, high) as low + (high - low) * next_double,
    and random() returns that next_double from the same 64-bit draw.  With
    low = 0 the sum is round(x * d) whether or not the add is fused.
    """

    BOUNDS = (1e-300, 3e-17, 0.1, 1.0, 2.0, 3.141592653589793, 7.5, 1e9, 1e300, 1, 2, 3, 17, 10**6, 10**300)

    def test_same_doubles_and_state_over_seeds(self):
        for seed in range(1000):
            slow, fast = np.random.default_rng(seed), np.random.default_rng(seed)
            for x in self.BOUNDS:
                steps = (
                    (lambda: slow.uniform(0, x), lambda: x * fast.random()),
                    (lambda: slow.uniform(), lambda: fast.random()),
                    (lambda: int(slow.integers(36)), lambda: below(fast, 36)),
                )
                for want, got in steps:
                    assert want() == got(), (seed, x)  # both >= 0, so no signed zeros
                    assert slow.bit_generator.state == fast.bit_generator.state


class TestBelow:
    """below(rng, n) against Generator.integers(n), its oracle."""

    # 2**31 + 1 rejects about half the words, 2**32 takes each word as it is
    BOUNDS = (1, 2, 3, 36, 2**31 + 1, 2**32)
    # doubles between the words, so a buffered half-word is carried over
    OTHERS = (
        lambda rng: rng.random(),
        lambda rng: rng.random(3).tolist(),
        lambda rng: rng.uniform(-0.5, 0.5),
        lambda rng: rng.normal(size=2).tolist(),
    )

    def test_same_integers_and_state_over_seeds(self):
        for seed in range(300):
            if seed % 2:
                fast, slow = derive_rng(seed, "below"), derive_rng(seed, "below")
            else:
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for k, n in enumerate(self.BOUNDS * 4):
                got = below(fast, n)
                assert got == int(slow.integers(n)), (seed, n)
                assert type(got) is int and 0 <= got < n
                assert fast.bit_generator.state == slow.bit_generator.state, (seed, n)
                if k % 3 == 0:
                    other = self.OTHERS[(seed + k) % len(self.OTHERS)]
                    assert other(fast) == other(slow)

    def test_rejection_redraws_as_integers_does(self):
        # at n = 2**31 + 1 the first word is rejected about half the time;
        # a draw that took one word leaves the state one word gives
        redraws = 0
        for seed in range(200):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert below(fast, 2**31 + 1) == int(slow.integers(2**31 + 1))
            assert fast.bit_generator.state == slow.bit_generator.state
            one_word = np.random.default_rng(seed)
            one_word.integers(2**32)
            redraws += fast.bit_generator.state != one_word.bit_generator.state
        assert 60 <= redraws <= 140

    def test_one_value_draws_nothing(self):
        rng, untouched = np.random.default_rng(8), np.random.default_rng(8)
        # both hold the other half of one 64-bit word, which n = 1 leaves
        assert below(rng, 2**32) == untouched.integers(2**32)
        assert below(rng, 1) == 0
        assert rng.bit_generator.state == untouched.bit_generator.state

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_out_of_range_is_refused(self, n):
        rng, untouched = np.random.default_rng(8), np.random.default_rng(8)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            below(rng, n)
        assert rng.bit_generator.state == untouched.bit_generator.state


class TestStreamTable:
    """The batched derivation against SeedSequence and derive_rng, its oracles."""

    EDGES = (0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**128 - 1)

    @staticmethod
    def words_of(entropies):
        return seed_state_words(b"".join(e.to_bytes(16, "big") for e in entropies))

    def test_words_match_seed_sequence(self):
        rng = np.random.default_rng(41)
        # 1 to 128 bits, so every count of missing top words is covered
        bits = rng.integers(1, 129, 10_000)
        entropies = list(self.EDGES) + [
            int.from_bytes(rng.bytes(16), "big") >> (128 - int(b)) | 1 << (int(b) - 1) for b in bits
        ]
        words = self.words_of(entropies)
        assert words.dtype == np.uint64 and words.shape == (len(entropies), 4)
        assert words.flags.c_contiguous
        for row, e in zip(words, entropies):
            assert row.tolist() == np.random.SeedSequence(e).generate_state(4, np.uint64).tolist(), e

    @pytest.mark.parametrize("prefix", [
        (0, "ep-0"),
        (-7, "ep-1"),
        (2**64 + 3, "ep-2"),
        (4, "it's \"quoted\""),
        (4, "épisode-ü-漢字"),
    ])
    def test_generators_match_derive_rng(self, prefix):
        labels = ("visual-global", "visual-local", "random")
        table = StreamTable(prefix, labels, 6)
        for label in labels:
            for step in range(6):
                fast = table.generator(label, step)
                slow = derive_rng(*prefix, label, step)
                assert fast.bit_generator.state == slow.bit_generator.state
                assert fast.normal(0.0, 0.1, 3).tolist() == slow.normal(0.0, 0.1, 3).tolist()
                assert fast.integers(1000) == slow.integers(1000)

    def test_large_scene_shape_matches_derive_rng(self):
        # dynamic fusion's three views over 40 actions; generators are built
        # in shuffled order through the table's one seed source, and each
        # draws only after all are built
        labels = ("visual-global", "visual-local", "visual-visited")
        table = StreamTable((1, "ep-17"), labels, 40)
        keys = [(label, step) for label in labels for step in range(40)]
        order = np.random.default_rng(5).permutation(len(keys))
        built = {keys[k]: table.generator(*keys[k]) for k in order}
        for key in keys:
            slow = derive_rng(1, "ep-17", *key)
            assert built[key].bit_generator.state == slow.bit_generator.state
            assert built[key].normal(0.0, 0.2, 4).tolist() == slow.normal(0.0, 0.2, 4).tolist()

    def test_handles_hash_nothing_until_one_draws(self):
        table = StreamTable((4, "ep"), ("visual-global", "visual-local"), 3)
        assert table._words is None
        want = derive_rng(4, "ep", "visual-local", 2)
        assert table.generator("visual-local", 2).normal() == want.normal()
        assert table._words is not None

    def test_strided_words_cannot_seed_pcg64(self):
        words = self.words_of([12345, 2**100 + 1])
        # a Fortran-ordered copy holds the same values, but its rows are strided
        strided = np.asfortranarray(words)
        assert strided.tolist() == words.tolist() and not strided.flags.c_contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            _StateWords(strided)
        for bad in (words.astype(np.int64), words[:, :2].copy(), words[0].copy(), words[:, :, None]):
            with pytest.raises(ValueError):
                _StateWords(bad)
        source = _StateWords(words)
        assert source.pcg64(0).state == np.random.PCG64(12345).state
        assert source.pcg64(1).state == np.random.PCG64(2**100 + 1).state
