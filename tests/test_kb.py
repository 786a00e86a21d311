import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspr.bench import house_generator_kb
from hspr.kb import (
    CountMatrices,
    ProximityKB,
    accumulate_scene,
    build_kb,
    load_kb,
    normalize_counts,
    save_kb,
    top_k_objects,
)

from conftest import make_scene
from oracles import percentile_minmax_row


class TestAccumulateScene:
    def test_bare_scene_only_bumps_scene_count(self):
        scene = make_scene([("a", "r0", 0), ("b", "r0", 0)], [("a", "b", 1.0)])
        counts = CountMatrices.zeros(4, 4)
        accumulate_scene(counts, scene)
        assert counts.scene_count == 1
        assert not counts.C_r.any()
        assert not counts.C_o.any()
        assert not counts.C_ro.any()

    def test_objects_in_one_view_cooccur_pairwise(self):
        scene = make_scene(
            [("a", "r0", 0, (0.0, 0.0, 0.0),
              [("o1", 0, 7), ("o2", 1, 7), ("o3", 2, 7)]),
             ("b", "r0", 0)],
            [("a", "b", 1.0)],
        )
        counts = accumulate_scene(CountMatrices.zeros(4, 4), scene)
        expected = np.zeros((4, 4), dtype=np.int64)
        for x, y in [(0, 1), (0, 2), (1, 2)]:
            expected[x, y] = expected[y, x] = 1
        assert np.array_equal(counts.C_o, expected)

    def test_objects_in_different_views_do_not_cooccur(self):
        scene = make_scene(
            [("a", "r0", 0, (0.0, 0.0, 0.0), [("o1", 0, 3), ("o2", 1, 9)]),
             ("b", "r0", 0)],
            [("a", "b", 1.0)],
        )
        counts = accumulate_scene(CountMatrices.zeros(4, 4), scene)
        assert not counts.C_o.any()

    def test_hand_built_three_region_tally(self):
        # kitchen(0)-hall(1), hall-bed(2); kitchen and bed never touch
        scene = make_scene(
            [("k", "kitchen", 0), ("h", "hall", 1), ("b", "bed", 2)],
            [("k", "h", 1.0), ("h", "b", 1.0)],
            n_types=3,
        )
        counts = accumulate_scene(CountMatrices.zeros(3, 4), scene)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = expected[1, 0] = 1
        expected[1, 2] = expected[2, 1] = 1
        assert np.array_equal(counts.C_r, expected)

    def test_same_type_adjacency_hits_diagonal_once(self):
        scene = make_scene(
            [("a", "r0", 1), ("b", "r1", 1)],
            [("a", "b", 1.0)],
        )
        counts = accumulate_scene(CountMatrices.zeros(4, 4), scene)
        assert counts.C_r[1, 1] == 1
        assert counts.C_r.sum() == 1

    def test_node_object_correlation_per_instance(self):
        scene = make_scene(
            [("a", "r0", 2, (0.0, 0.0, 0.0), [("o1", 3, 0), ("o2", 3, 1)]),
             ("b", "r0", 2)],
            [("a", "b", 1.0)],
        )
        counts = accumulate_scene(CountMatrices.zeros(4, 4), scene)
        assert counts.C_ro[2, 3] == 2

    def test_vocabulary_mismatch_rejected(self, two_node_scene):
        with pytest.raises(ValueError, match="vocabularies"):
            accumulate_scene(CountMatrices.zeros(7, 4), two_node_scene)

    def test_accumulation_is_order_independent_and_merge_matches(self, rng):
        scenes = []
        for k in range(4):
            ids = [f"n{i}" for i in range(5)]
            scenes.append(
                make_scene(
                    [(ids[i], f"r{int(rng.integers(3))}", int(rng.integers(4)),
                      (float(i), 0.0, 0.0),
                      [(f"{ids[i]}o", int(rng.integers(4)), int(rng.integers(4)))])
                     for i in range(5)],
                    [(ids[i], ids[i + 1], 1.0) for i in range(4)],
                    scene_id=f"s{k}",
                )
            )
        forward = CountMatrices.zeros(4, 4)
        backward = CountMatrices.zeros(4, 4)
        for s in scenes:
            accumulate_scene(forward, s)
        for s in reversed(scenes):
            accumulate_scene(backward, s)
        partials = []
        for s in scenes:
            partials.append(accumulate_scene(CountMatrices.zeros(4, 4), s))
        merged = CountMatrices(
            C_r=sum(p.C_r for p in partials),
            C_o=sum(p.C_o for p in partials),
            C_ro=sum(p.C_ro for p in partials),
            scene_count=sum(p.scene_count for p in partials),
        )
        for result in (backward, merged):
            assert np.array_equal(forward.C_r, result.C_r)
            assert np.array_equal(forward.C_o, result.C_o)
            assert np.array_equal(forward.C_ro, result.C_ro)
            assert forward.scene_count == result.scene_count

    def test_symmetry_preserved(self, rng):
        counts = CountMatrices.zeros(4, 4)
        for k in range(6):
            ids = [f"n{i}" for i in range(6)]
            scene = make_scene(
                [(ids[i], f"r{int(rng.integers(4))}", int(rng.integers(4)),
                  (float(i), 0.0, 0.0),
                  [(f"{ids[i]}o{j}", int(rng.integers(4)), int(rng.integers(3)))
                   for j in range(2)])
                 for i in range(6)],
                [(ids[i], ids[i + 1], 1.0) for i in range(5)],
            )
            accumulate_scene(counts, scene)
        assert np.array_equal(counts.C_r, counts.C_r.T)
        assert np.array_equal(counts.C_o, counts.C_o.T)


class TestNormalizeCounts:
    def test_constant_row_maps_to_zero(self):
        out = normalize_counts(np.array([[4, 4, 4, 4]]))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_clamped_row_frozen_values(self):
        # oracle: p95 of [0,2,8,100] = 86.2, then min-max to [0, 0.95]
        out = normalize_counts(np.array([[0, 2, 8, 100]]))[0]
        expected = [0.0, 0.022041763341067295, 0.08816705336426918, 0.95]
        assert np.allclose(out, expected, atol=1e-12)
        assert out[3] == 0.95

    def test_small_row_frozen_values(self):
        # p95 of [1,2,3] is 2.9, which clamps the 3 before min-max
        out = normalize_counts(np.array([[1, 2, 3]]))[0]
        assert np.allclose(out, [0.0, 0.5, 0.95], atol=1e-12)

    def test_matches_oracle_on_random_rows(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 65))
            row = rng.integers(0, 1000, size=n)
            got = normalize_counts(row[None, :])[0]
            want = percentile_minmax_row(row.tolist())
            assert np.allclose(got, want, atol=1e-12)

    def test_output_range_and_row_extremes(self, rng):
        C = rng.integers(0, 50, size=(12, 9))
        out = normalize_counts(C)
        assert out.min() >= 0.0 and out.max() <= 0.95
        for i in range(12):
            p95 = np.percentile(C[i], 95)
            clamped = np.minimum(C[i], p95)
            if clamped.max() > clamped.min():
                assert out[i].max() == 0.95
                assert out[i].min() == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        row=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=32),
        scale=st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
    )
    def test_scale_covariant_in_rank(self, row, scale):
        base = normalize_counts(np.array([row], dtype=float))[0]
        scaled = normalize_counts(scale * np.array([row], dtype=float))[0]
        assert np.allclose(base, scaled, atol=1e-9)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            normalize_counts(np.array([[1, -1]]))


class TestTopKObjects:
    def test_all_zero_row_gives_empty_list(self):
        assert top_k_objects(np.zeros((2, 5)), K=3) == [[], []]

    def test_tie_broken_by_ascending_index(self):
        assert top_k_objects(np.array([[5, 9, 9, 1]]), K=2) == [[1, 2]]

    def test_matches_full_sort_oracle(self, rng):
        C = rng.integers(0, 30, size=(6, 10))
        got = top_k_objects(C, K=3)
        for t in range(6):
            ranked = sorted(range(10), key=lambda o: (-C[t, o], o))
            ranked = [o for o in ranked if C[t, o] > 0][:3]
            assert got[t] == ranked

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_objects(np.zeros((1, 1)), K=0)


class TestKBRoundTrip:
    def roundtrip(self, kb, tmp_path):
        path = tmp_path / "kb.json"
        save_kb(kb, path)
        return load_kb(path)

    def test_small_kb(self, tmp_path):
        kb = ProximityKB(
            P_r=np.array([[0.0, 0.95], [0.95, 0.0]]),
            P_o=np.array([[0.95, 0.0], [0.0, 0.95]]),
            top_objects=[[0], [1]],
            type_vocabulary=["a", "b"],
            object_vocabulary=["x", "y"],
            provenance={"scene_count": 2, "built_at": "t0", "config_hash": "h"},
        )
        assert self.roundtrip(kb, tmp_path) == kb

    def test_extreme_values_survive(self, tmp_path):
        kb = ProximityKB(
            P_r=np.array([[0.95, 0.0], [0.0, 0.95]]),
            P_o=np.zeros((2, 2)),
            top_objects=[[], []],
            type_vocabulary=["a", "b"],
            object_vocabulary=["x", "y"],
        )
        assert self.roundtrip(kb, tmp_path) == kb

    def test_randomized_paper_scale_dims(self, tmp_path, rng):
        # 31 node types, 1600 object types; sparse object matrix exercises
        # the triple encoding
        P_r = rng.uniform(0, 0.95, size=(31, 31))
        P_o = np.zeros((1600, 1600))
        idx = rng.integers(0, 1600, size=(4000, 2))
        P_o[idx[:, 0], idx[:, 1]] = rng.uniform(0, 0.95, size=4000)
        kb = ProximityKB(
            P_r=P_r,
            P_o=P_o,
            top_objects=[sorted(map(int, rng.choice(1600, 10, replace=False))) for _ in range(31)],
            type_vocabulary=[f"t{i}" for i in range(31)],
            object_vocabulary=[f"o{i}" for i in range(1600)],
        )
        loaded = self.roundtrip(kb, tmp_path)
        assert loaded == kb

    def test_dense_object_matrix_roundtrip(self, tmp_path, rng):
        kb = ProximityKB(
            P_r=rng.uniform(0, 0.95, size=(3, 3)),
            P_o=rng.uniform(0, 0.95, size=(5, 5)),
            top_objects=[[0], [1], [2]],
            type_vocabulary=["a", "b", "c"],
            object_vocabulary=[f"o{i}" for i in range(5)],
        )
        assert self.roundtrip(kb, tmp_path) == kb

    def test_house_kb_bytes_are_pinned(self, tmp_path):
        # sha256 of save_kb's output, recorded before the KB writer moved to hspr.errors
        path = tmp_path / "kb.json"
        save_kb(house_generator_kb()[0], path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "a9c07ed38362af3e9a1b22759b71e26a6317e2c997878bc145428081eee743ca"


class TestBuildKB:
    def test_build_produces_normalized_matrices(self, rng):
        counts = CountMatrices.zeros(3, 4)
        counts.C_r = np.array([[0, 4, 1], [4, 0, 2], [1, 2, 0]])
        counts.C_ro = np.array([[3, 0, 0, 1], [0, 2, 2, 0], [0, 0, 0, 5]])
        counts.scene_count = 7
        kb = build_kb(counts, ["a", "b", "c"], ["w", "x", "y", "z"], top_k=2)
        assert kb.P_r.max() <= 0.95
        assert kb.top_objects[0] == [0, 3]
        assert kb.provenance["scene_count"] == 7
        assert "config_hash" in kb.provenance
