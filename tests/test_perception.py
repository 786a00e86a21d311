import hashlib
import math
import pickle

import numpy as np
import pytest

from hspr.perception import (
    ConfusionModel,
    TargetSpec,
    TypeBelief,
    VisualWeights,
    load_confusion,
    target_spec_from_episode,
)
from hspr.seeding import derive_rng
from hspr.synth import sample_episode

from conftest import same_float
from oracles import (
    present_types_from_beliefs,
    save_confusion,
    visual_score_table,
    visual_score_table_per_node,
)


def perceive(model, true_types, seed):
    rng = np.random.default_rng(seed)
    return [model.row(t, rng) for t in true_types]


class TestConfusionModel:
    def test_identity_gives_one_hot_truth(self):
        model = ConfusionModel.identity(4)
        beliefs = perceive(model, [2, 0], seed=0)
        assert np.array_equal(beliefs[0], [0, 0, 1, 0])
        assert np.array_equal(beliefs[1], [1, 0, 0, 0])

    def test_uniform_rows_give_uniform_beliefs(self):
        model = ConfusionModel(np.full((4, 4), 0.25))
        beliefs = perceive(model, [1], seed=0)
        assert np.allclose(beliefs[0], 0.25)

    def test_eps_uniform_mixes_identity_and_uniform(self):
        model = ConfusionModel.eps_uniform(4, 0.2)
        assert np.allclose(model.M[0], [0.85, 0.05, 0.05, 0.05])

    def test_sampled_mode_frequencies_match_row(self):
        model = ConfusionModel(
            np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]),
            mode="sampled",
        )
        beliefs = perceive(model, [0] * 10_000, seed=7)
        freqs = np.mean(beliefs, axis=0)
        assert np.all(np.abs(freqs - [0.5, 0.3, 0.2]) <= 0.02)

    def test_sampled_mode_without_generator_is_a_clear_error(self):
        # distribution mode draws nothing, so it needs no generator
        assert ConfusionModel.eps_uniform(4, 0.5).perceive(2, None) == 2
        with pytest.raises(ValueError, match="sampled confusion mode needs a generator"):
            ConfusionModel.eps_uniform(4, 0.5, mode="sampled").perceive(2, None)

    def test_sampled_mode_deterministic_in_seed(self):
        model = ConfusionModel.eps_uniform(5, 0.5, mode="sampled")
        a = perceive(model, [i % 5 for i in range(20)], seed=3)
        b = perceive(model, [i % 5 for i in range(20)], seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_perceive_returns_the_row_index(self):
        model = ConfusionModel.eps_uniform(4, 0.5)
        assert model.perceive(3, None) == 3  # distribution mode draws nothing
        belief = model.belief("n", 3)
        assert belief.row == 3
        assert np.shares_memory(belief.R, model.rows) and np.array_equal(belief.R, model.rows[3])
        sampled = ConfusionModel.eps_uniform(4, 0.5, mode="sampled")
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(20):
            row = sampled.perceive(1, a)
            assert row == int(b.choice(4, p=sampled.M[1]))
            assert sampled.belief("n", row).R[row] == 1.0

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionModel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ConfusionModel(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_non_finite_entry_rejected(self):
        # a NaN row sums to NaN, which no tolerance check rejects
        with pytest.raises(ValueError, match="non-finite"):
            ConfusionModel(np.array([[np.nan, 0.5], [0.5, 0.5]]), mode="sampled")

    def test_file_round_trip(self, tmp_path):
        model = ConfusionModel.eps_uniform(3, 0.3, mode="sampled")
        path = tmp_path / "confusion.json"
        save_confusion(model, path)
        loaded = load_confusion(path)
        assert np.array_equal(loaded.M, model.M)
        assert loaded.mode == "sampled"

    def test_file_bytes_are_pinned(self, tmp_path):
        # sha256 of the file hspr.perception.save_confusion wrote, recorded before the
        # writer moved to tests/oracles.py: it pins hspr.errors.write_json's format
        path = tmp_path / "confusion.json"
        save_confusion(ConfusionModel.eps_uniform(10, 0.2), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "81a20a856bfdc2dc7231122a179a57f19e7f982be229a1ec1d474009c514e8b4"


class TestReadOnlyRows:
    def test_matrix_is_read_only(self):
        model = ConfusionModel.eps_uniform(4, 0.2)
        with pytest.raises(ValueError, match="read-only"):
            model.M[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.M[1] *= 2.0

    def test_matrix_is_a_private_copy(self):
        source = np.full((3, 3), 1.0 / 3.0)
        model = ConfusionModel(source)
        source[0] = [1.0, 0.0, 0.0]
        assert source.flags.writeable
        assert np.allclose(model.M, 1.0 / 3.0)

    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    def test_belief_rows_are_read_only(self, mode):
        model = ConfusionModel.eps_uniform(4, 0.4, mode=mode)
        belief = model.belief("n", model.perceive(2, np.random.default_rng(0)))
        assert belief.node_id == "n"
        assert math.isclose(belief.R.sum(), 1.0)
        with pytest.raises(ValueError, match="read-only"):
            belief.R[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            model.row(2, np.random.default_rng(0))[1] = 0.5

    def test_distribution_beliefs_share_the_row(self):
        model = ConfusionModel.eps_uniform(4, 0.2)
        belief = model.belief("n", model.perceive(3, np.random.default_rng(0)))
        assert np.shares_memory(belief.R, model.M)
        assert np.array_equal(belief.R, model.M[3])

    def test_sampled_beliefs_are_one_hot(self):
        model = ConfusionModel.eps_uniform(5, 0.5, mode="sampled")
        rng = np.random.default_rng(4)
        for _ in range(20):
            R = model.belief("n", model.perceive(1, rng)).R
            assert sorted(R.tolist()) == [0.0] * 4 + [1.0]

    def test_unpickled_model_is_read_only(self):
        model = pickle.loads(pickle.dumps(ConfusionModel.eps_uniform(3, 0.3, mode="sampled")))
        assert model.mode == "sampled"
        with pytest.raises(ValueError, match="read-only"):
            model.M[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.belief("n", model.perceive(0, np.random.default_rng(0))).R[0] = 0.5

    def test_direct_type_belief_is_still_validated(self):
        with pytest.raises(ValueError, match="negative"):
            TypeBelief("n", np.array([1.2, -0.2]))
        with pytest.raises(ValueError, match="sum to 1"):
            TypeBelief("n", np.array([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_direct_type_belief_with_a_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="type belief for n has a non-finite entry"):
            TypeBelief("n", np.array([bad, 1.0]))


class TestPresentTypesPerModel:
    """Each row's present types, kept per tau, against
    `present_types_from_beliefs` of that row alone."""

    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    def test_match_reference(self, mode):
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(1, 12))
            if trial % 2:  # quarters, so entries land exactly on a tau
                M = rng.integers(0, 5, (n, n)).astype(float)
                M[:, 0] += 1.0
                M /= M.sum(axis=1, keepdims=True)
            else:
                M = rng.dirichlet(np.full(n, 0.5), size=n)
            model = ConfusionModel(M, mode=mode)
            for tau in (0.0, 0.25, 0.5, 1.0, float(rng.uniform()), float(model.M[0, 0])):
                present = model.present_types(tau)
                assert len(present) == n
                for row, types in enumerate(present):
                    assert types == present_types_from_beliefs([model.rows[row]], tau)
                assert model.present_types(tau) is present

    def test_pickle_leaves_the_lists_behind(self):
        model = ConfusionModel.eps_uniform(4, 0.4)
        before = pickle.dumps(model)
        model.present_types(0.5)
        assert pickle.dumps(model) == before
        assert pickle.loads(before)._present == {}


class TestTargetSpec:
    def test_oracle_spec_is_one_hot(self, two_node_scene):
        episode = sample_episode(two_node_scene, seed=0)
        spec = target_spec_from_episode(
            episode, two_node_scene, ConfusionModel.identity(4), object_noise=0.0,
            rng=np.random.default_rng(0),
        )
        assert np.array_equal(spec.Y_r, [0, 1, 0, 0])
        assert np.array_equal(spec.Y_o, [0, 0, 1, 0])
        assert spec.target_type == 1

    def test_full_noise_gives_uniform_objects(self, two_node_scene):
        episode = sample_episode(two_node_scene, seed=0)
        spec = target_spec_from_episode(
            episode, two_node_scene, ConfusionModel.identity(4), object_noise=1.0,
            rng=np.random.default_rng(0),
        )
        assert np.allclose(spec.Y_o, 0.25)

    def test_half_noise_mixture_values(self, two_node_scene):
        episode = sample_episode(two_node_scene, seed=0)
        spec = target_spec_from_episode(
            episode, two_node_scene, ConfusionModel.identity(4), object_noise=0.5,
            rng=np.random.default_rng(0),
        )
        assert np.allclose(spec.Y_o, [0.125, 0.125, 0.625, 0.125])

    def test_distributions_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TargetSpec(Y_r=np.array([0.5, 0.4]), Y_o=np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="target object-type distribution has a non-finite entry"):
            TargetSpec(Y_r=[1.0], Y_o=[bad])
        with pytest.raises(ValueError, match="target node-type distribution has a non-finite entry"):
            TargetSpec(Y_r=[bad, 1.0], Y_o=[1.0])


class TestVisualScores:
    def target(self, n=3, hot=1):
        Y_r = np.zeros(n)
        Y_r[hot] = 1.0
        return TargetSpec(Y_r=Y_r, Y_o=np.array([1.0]))

    def test_alignment_term_only(self):
        weights = VisualWeights(w_d=0.0, w_t=2.0, decay=5.0, noise_sd=0.0)
        belief = TypeBelief("n", np.array([0.2, 0.7, 0.1]))
        alignment = float(belief.R @ self.target().Y_r)
        table = visual_score_table([("n", 4.0, alignment)], weights, np.random.default_rng(0))
        assert math.isclose(table["n"], 2.0 * 0.7)

    def test_distance_term_only_at_zero_distance(self):
        weights = VisualWeights(w_d=0.8, w_t=0.0, decay=5.0, noise_sd=0.0)
        belief = TypeBelief("n", np.array([1.0, 0.0, 0.0]))
        alignment = float(belief.R @ self.target().Y_r)
        table = visual_score_table([("n", 0.0, alignment)], weights, np.random.default_rng(0))
        assert math.isclose(table["n"], 0.8)

    def test_fixed_seed_replays_identically(self):
        weights = VisualWeights(w_d=0.5, w_t=1.0, decay=8.0, noise_sd=0.3)
        beliefs = [TypeBelief(f"n{i}", np.array([0.5, 0.25, 0.25])) for i in range(6)]
        view = [(b.node_id, float(i), float(b.R @ self.target().Y_r)) for i, b in enumerate(beliefs)]
        a = visual_score_table(view, weights, np.random.default_rng(99))
        b = visual_score_table(view, weights, np.random.default_rng(99))
        assert a == b
        c = visual_score_table(view, weights, np.random.default_rng(100))
        assert a != c

    @pytest.mark.parametrize("noise_sd", [0.0, 0.1, 2.5])
    @pytest.mark.parametrize("keyed", [False, True])
    def test_matches_per_node_oracle_bit_for_bit(self, noise_sd, keyed):
        # one sized draw per view gives the values of one scalar draw per
        # entry, and leaves the generator where the scalar draws leave it
        weights = VisualWeights(w_d=0.3, w_t=1.5, decay=10.0, noise_sd=noise_sd)
        views = np.random.default_rng(31)
        repeats = 0
        for length in range(41):
            # odd lengths draw ids from as many as the view holds, so they repeat
            span = max(1, length) if length % 2 else 10_000
            ids = [f"n{k}" for k in views.integers(0, span, length)]
            repeats += len(set(ids)) < length
            view = [(i, float(views.exponential(8.0)), float(views.uniform(-0.1, 1.0))) for i in ids]

            def make():
                if keyed:  # a view's stream, as the engine derives it
                    return derive_rng(4, "ep", "visual-global", length)
                return np.random.default_rng(length)

            fast_rng, slow_rng = make(), make()
            fast = visual_score_table(view, weights, fast_rng)
            slow = visual_score_table_per_node(view, weights, slow_rng)
            assert list(fast) == list(slow)
            for node_id, value in fast.items():
                assert same_float(value, slow[node_id])
            assert fast_rng.normal() == slow_rng.normal()
        assert repeats >= 15

    def test_repeated_node_keeps_last_entry_and_every_entry_draws(self):
        weights = VisualWeights(w_d=0.0, w_t=1.0, noise_sd=1.0)
        view = [("a", 1.0, 0.0), ("b", 1.0, 10.0), ("a", 1.0, 20.0)]
        table = visual_score_table(view, weights, np.random.default_rng(5))
        noise = np.random.default_rng(5).normal(0.0, 1.0, 3)
        assert table == {"a": 20.0 + float(noise[2]), "b": 10.0 + float(noise[1])}

    def test_decay_must_be_positive(self):
        with pytest.raises(ValueError):
            VisualWeights(decay=0.0)
