import heapq
import math
from itertools import combinations

import numpy as np
import pytest

from hspr.bench import recovery_generator_kb
from hspr.perception import ConfusionModel, TypeBelief
from hspr.reasoner import (
    ReasonerConfig,
    SuccessorTable,
    TypePath,
    enumerate_type_paths,
)

import oracles
from oracles import (
    enumerate_paths_exhaustive,
    multi_step_scores,
    present_types_from_beliefs,
    proximity_scores,
    select_path,
)


def one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def belief(node_id, vec):
    return TypeBelief(node_id, np.asarray(vec, dtype=float))


class TestProximityScores:
    def test_one_hots_select_single_entry(self, rng):
        P = rng.uniform(0, 0.95, size=(5, 5))
        scores = proximity_scores([one_hot(5, 2)], P, one_hot(5, 4))
        assert math.isclose(scores[0], P[2, 4])

    def test_uniform_vectors_give_matrix_mean(self, rng):
        P = rng.uniform(0, 0.95, size=(6, 6))
        scores = proximity_scores([np.full(6, 1 / 6)], P, np.full(6, 1 / 6))
        assert math.isclose(scores[0], P.mean())

    def test_matches_double_loop_oracle(self, rng):
        P = rng.uniform(0, 0.95, size=(5, 5))
        R = rng.dirichlet(np.ones(5))
        Y = rng.dirichlet(np.ones(5))
        got = proximity_scores([R], P, Y)[0]
        want = sum(R[a] * P[a, b] * Y[b] for a in range(5) for b in range(5))
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_bilinear_in_belief_and_target(self, rng):
        P = rng.uniform(0, 0.95, size=(4, 4))
        R1, R2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        Y = rng.dirichlet(np.ones(4))
        lam = 0.3
        mix = lam * R1 + (1 - lam) * R2
        got = (mix @ P @ Y)
        parts = lam * (R1 @ P @ Y) + (1 - lam) * (R2 @ P @ Y)
        assert math.isclose(got, parts, rel_tol=1e-12)

    def test_range_bounded_by_ceiling(self, rng):
        P = rng.uniform(0, 0.95, size=(5, 5))
        R = rng.dirichlet(np.ones(5))
        Y = rng.dirichlet(np.ones(5))
        score = proximity_scores([R], P, Y)[0]
        assert 0.0 <= score <= 0.95

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="types|match"):
            proximity_scores([one_hot(3, 0)], np.zeros((4, 4)), one_hot(4, 0))
        with pytest.raises(ValueError, match="match"):
            proximity_scores([one_hot(4, 0)], np.zeros((4, 4)), one_hot(3, 0))


class TestObjectProximityScores:
    """Object instances are scored by proximity_scores with P_o and Y_o."""

    def test_one_hot_selects_entry(self, rng):
        P_o = rng.uniform(0, 0.95, size=(6, 6))
        mu = proximity_scores([one_hot(6, 1), one_hot(6, 3)], P_o, one_hot(6, 5))
        assert math.isclose(mu[0], P_o[1, 5])
        assert math.isclose(mu[1], P_o[3, 5])

    def test_matches_loop_oracle(self, rng):
        P_o = rng.uniform(0, 0.95, size=(4, 4))
        O = rng.dirichlet(np.ones(4))
        Y = rng.dirichlet(np.ones(4))
        mu = proximity_scores([O], P_o, Y)[0]
        want = sum(O[a] * P_o[a, b] * Y[b] for a in range(4) for b in range(4))
        assert math.isclose(mu, want, rel_tol=1e-12)


class TestEnumerateTypePaths:
    def test_single_type_path_when_target_visible(self):
        P = np.array([[0.0, 0.9], [0.9, 0.0]])
        config = ReasonerConfig(max_steps=1)
        paths = enumerate_type_paths({1}, 1, SuccessorTable(P), config)
        assert paths == [TypePath(types=(1,), confidence=1.0)]

    def test_no_paths_when_target_unreachable_at_depth_one(self):
        P = np.array([[0.0, 0.9], [0.9, 0.0]])
        config = ReasonerConfig(max_steps=1)
        assert enumerate_type_paths({0}, 1, SuccessorTable(P), config) == []

    def test_forced_detour_route(self):
        # a cannot reach t directly; a->b->t is the only nonzero route
        P = np.zeros((3, 3))
        P[0, 1] = P[1, 0] = 0.9  # a-b
        P[1, 2] = P[2, 1] = 0.9  # b-t
        config = ReasonerConfig(max_steps=3)
        paths = enumerate_type_paths({0}, 2, SuccessorTable(P), config)
        assert paths[0].types == (0, 1, 2)
        assert math.isclose(paths[0].confidence, 0.81)

    def test_zero_transitions_prune(self):
        P = np.zeros((3, 3))
        P[0, 2] = 0.0
        P[0, 1] = P[1, 2] = 0.5
        config = ReasonerConfig(max_steps=2)
        paths = enumerate_type_paths({0}, 2, SuccessorTable(P), config)
        assert all(0.0 not in [P[a, b] for a, b in zip(p.types, p.types[1:])] for p in paths)

    def test_matches_exhaustive_oracle_on_random_kbs(self, rng):
        for trial in range(40):
            n = int(rng.integers(3, 7))
            P = rng.uniform(0, 0.95, size=(n, n))
            P[rng.uniform(size=(n, n)) < 0.4] = 0.0
            max_steps = int(rng.integers(1, 4))
            beam = int(rng.integers(1, 5))
            target = int(rng.integers(n))
            present = {int(t) for t in rng.choice(n, size=rng.integers(1, n + 1), replace=False)}
            config = ReasonerConfig(max_steps=max_steps, beam=beam)
            got = enumerate_type_paths(present, target, SuccessorTable(P), config)
            want = enumerate_paths_exhaustive(present, target, P.tolist(), max_steps, beam)
            assert [(p.types, p.confidence) for p in got] == [
                (tuple(seq), conf) for seq, conf in want
            ]

    @pytest.mark.parametrize("beam", [3, 10])
    def test_matches_exhaustive_oracle_at_large_vocabulary(self, beam):
        # the large-vocab benchmark KB: 20 types, ~75% of P_r nonzero, M=4
        P = recovery_generator_kb(n_types=20).P_r
        table = SuccessorTable(P)  # shared, as by the episodes on a KB
        config = ReasonerConfig(max_steps=4, beam=beam)
        cases = [({0}, 19), ({3, 11}, 7), ({1, 5, 9, 14}, 2), ({2, 6, 12, 17, 18}, 0),
                 ({4, 8}, 8)]
        for present, target in cases:
            got = enumerate_type_paths(present, target, table, config)
            want = enumerate_paths_exhaustive(present, target, P.tolist(), 4, beam)
            assert [(p.types, p.confidence) for p in got] == [
                (tuple(seq), conf) for seq, conf in want
            ]

    def test_ties_on_quantised_kbs_match_exhaustive_oracle(self, rng):
        # few distinct levels, including exact 1.0 entries that extend a path
        # at equal confidence, so the length and lexicographic tie-breaks
        # decide the order
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        for trial in range(150):
            n = int(rng.integers(3, 7))
            P = rng.choice(levels, size=(n, n))
            if trial % 2:
                P[rng.uniform(size=(n, n)) < 0.5] = 1.0
            max_steps = int(rng.integers(1, 5))
            beam = int(rng.integers(1, 8))
            target = int(rng.integers(n))
            present = {int(t) for t in rng.choice(n, size=rng.integers(1, n + 1), replace=False)}
            config = ReasonerConfig(max_steps=max_steps, beam=beam)
            got = enumerate_type_paths(present, target, SuccessorTable(P), config)
            want = enumerate_paths_exhaustive(present, target, P.tolist(), max_steps, beam)
            assert [(p.types, p.confidence) for p in got] == [
                (tuple(seq), conf) for seq, conf in want
            ]

    def test_ties_by_rounding_on_ulp_neighbours_match_exhaustive_oracle(self, rng):
        # entries one ulp apart sort as different successors, but their
        # products with a parent's confidence can round to the same value
        assert 0.1 * 0.7 == 0.1 * np.nextafter(0.7, 0.0)
        levels = [0.1, 0.3, 0.7, 0.9]
        for trial in range(300):
            n = int(rng.integers(3, 7))
            P = rng.choice(levels, size=(n, n))
            shift = rng.integers(-1, 2, size=(n, n))
            P = np.where(shift < 0, np.nextafter(P, 0.0), P)
            P = np.where(shift > 0, np.nextafter(P, 1.0), P)
            P[rng.uniform(size=(n, n)) < 0.2] = 0.0
            max_steps = int(rng.integers(2, 5))
            beam = int(rng.integers(1, 10))
            target = int(rng.integers(n))
            present = {int(t) for t in rng.choice(n, size=rng.integers(1, n + 1), replace=False)}
            config = ReasonerConfig(max_steps=max_steps, beam=beam)
            got = enumerate_type_paths(present, target, SuccessorTable(P), config)
            want = enumerate_paths_exhaustive(present, target, P.tolist(), max_steps, beam)
            assert [(p.types, p.confidence) for p in got] == [
                (tuple(seq), conf) for seq, conf in want
            ]

    def test_siblings_tied_by_rounding_keep_the_ranking(self):
        # from (0, 3), type 1 at 0.7 - 1 ulp sorts after type 2 at 0.7, so
        # (0, 3, 1) enters the heap only when (0, 3, 2) leaves it, although
        # both products are 0.1 * 0.7 and (0, 3, 1) has the smaller key
        P = np.zeros((4, 4))
        P[0, 3] = 0.1
        P[3, 2] = 0.7
        P[3, 1] = np.nextafter(0.7, 0.0)
        P[1, 2] = 1.0
        paths = enumerate_type_paths({0}, 2, SuccessorTable(P), ReasonerConfig(max_steps=4, beam=5))
        assert [(p.types, p.confidence) for p in paths] == [
            ((0, 3, 2), 0.1 * 0.7), ((0, 3, 1, 2), 0.1 * 0.7)
        ]
        assert paths[0].confidence == 0.1 * P[3, 1]

    @pytest.mark.parametrize("beam", [1, 3])
    def test_search_pops_no_dead_end(self, beam, monkeypatch):
        # a path of length M-1 that is not at the target and has a zero entry
        # at it can never complete; on the large-vocab KB such paths were
        # ~13% of the pops before the search stopped pushing them; the paths
        # stay those of the one-heap search that still pushed them
        P = recovery_generator_kb(n_types=20).P_r
        rows, max_steps = P.tolist(), 4
        popped = []
        heappop = heapq.heappop

        def counting_pop(heap):
            entry = heappop(heap)
            popped.append(entry[2])
            return entry

        monkeypatch.setattr(heapq, "heappop", counting_pop)
        for start in range(20):
            for target in range(20):
                want = oracles.enumerate_paths_best_first({start}, target, rows, max_steps, beam)
                popped.clear()
                got = SuccessorTable(P).paths_from(start, target, max_steps, beam)
                assert [(p.types, p.confidence) for p in got] == want
                dead = [
                    types for types in popped
                    if len(types) == max_steps - 1 and types[-1] != target
                    and rows[types[-1]][target] == 0.0
                ]
                assert popped and not dead, (start, target, dead)

    def test_successor_table_sorts_nonzero_entries_by_value_then_type(self):
        P = np.array([[0.0, 0.5, 0.9, 0.5], [0.2, 0.0, -0.0, 0.0], [0.0] * 4, [1.0] * 4])
        table = SuccessorTable(P)
        assert table.successors(0) == [(2, 0.9), (1, 0.5), (3, 0.5)]
        assert table.successors(1) == [(0, 0.2)]
        assert table.successors(2) == []
        assert table.successors(3) == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]
        assert table.successors(0) is table.successors(0)

    def test_equal_confidence_extension_ranks_shorter_first(self):
        P = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
        config = ReasonerConfig(max_steps=3, beam=3)
        paths = enumerate_type_paths({0, 1}, 2, SuccessorTable(P), config)
        assert [(p.types, p.confidence) for p in paths] == [
            ((0, 2), 0.5), ((1, 2), 0.5), ((0, 1, 2), 0.5)
        ]

    @pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5])
    def test_entry_outside_unit_interval_rejected(self, value):
        P = np.full((3, 3), 0.5)
        P[1, 2] = value
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            enumerate_type_paths({0}, 2, SuccessorTable(P), ReasonerConfig())

    def test_order_independent_of_present_set_iteration(self):
        P = np.full((4, 4), 0.5)
        np.fill_diagonal(P, 0.0)
        config = ReasonerConfig(max_steps=3, beam=10)
        a = enumerate_type_paths({0, 1, 2}, 3, SuccessorTable(P), config)
        b = enumerate_type_paths({2, 1, 0}, 3, SuccessorTable(P), config)
        assert a == b


class TestSharedSingleStartSearches:
    """One table answering many queries against the former multi-start search."""

    def test_shared_table_matches_both_oracles_in_any_query_order(self, rng):
        # few distinct levels, with ties and exact 1.0 entries, and one table
        # per matrix for queries that mix targets and configs, so later
        # queries read single-start lists that earlier ones searched
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        asked = searched = 0
        for trial in range(300):
            n = int(rng.integers(2, 7))
            P = rng.choice(levels, size=(n, n))
            if trial % 2:
                P[rng.uniform(size=(n, n)) < 0.5] = 1.0
            rows = P.tolist()
            configs = [
                ReasonerConfig(max_steps=int(rng.integers(1, 6)), beam=int(rng.integers(1, 6)))
                for _ in range(3)
            ]
            queries = []
            for _ in range(16):
                size = int(rng.integers(1, n + 1))
                present = {int(t) for t in rng.choice(n, size=size, replace=False)}
                queries.append((present, int(rng.integers(n)), configs[int(rng.integers(3))]))
            answers = []
            table = SuccessorTable(P)
            for present, target, config in queries:
                got = [(p.types, p.confidence) for p in enumerate_type_paths(present, target, table, config)]
                assert got == oracles.enumerate_paths_best_first(
                    present, target, rows, config.max_steps, config.beam
                )
                want = enumerate_paths_exhaustive(present, target, rows, config.max_steps, config.beam)
                assert got == [(tuple(seq), conf) for seq, conf in want]
                answers.append(got)
            keys = {(s, target, c.max_steps, c.beam) for present, target, c in queries for s in present}
            asked += sum(len(present) for present, _, _ in queries)
            searched += len(keys)
            table = SuccessorTable(P)
            for k in rng.permutation(len(queries)):
                present, target, config = queries[k]
                got = enumerate_type_paths(present, target, table, config)
                assert [(p.types, p.confidence) for p in got] == answers[k]
        assert asked > 1.25 * searched  # a quarter of the starts were answered from the memo


class TestOneSortMerge:
    """The top K over a present set, one sort of the start lists, against a
    `heapq.merge` of them."""

    def test_matches_heapq_merge_oracle(self, rng):
        # few levels, so paths from different starts tie on confidence and
        # the length and type order decide between them
        levels = [0.0, 0.25, 0.5, 1.0]
        tied = 0
        for trial in range(300):
            n = int(rng.integers(2, 8))
            P = rng.choice(levels, size=(n, n))
            table = SuccessorTable(P)
            config = ReasonerConfig(max_steps=int(rng.integers(1, 5)), beam=int(rng.integers(1, 8)))
            present = {int(t) for t in rng.choice(n, size=rng.integers(1, n + 1), replace=False)}
            target = int(rng.integers(n))
            got = enumerate_type_paths(present, target, table, config)
            assert got == oracles.merge_start_lists(present, target, table, config)
            confidences = [
                {p.confidence for p in table.paths_from(s, target, config.max_steps, config.beam)}
                for s in present
            ]
            tied += any(a & b for a, b in combinations(confidences, 2))
        assert tied > 50


class TestMultiStepTable:
    """The successor table's multi-step scores, read from its kept
    row-against-column floats, against `multi_step_scores`."""

    @pytest.mark.parametrize("mode", ["distribution", "sampled"])
    def test_matches_reference_exactly(self, rng, mode):
        for trial in range(60):
            n = int(rng.integers(3, 26))
            P = rng.uniform(0.0, 1.0, (n, n))
            P[rng.uniform(size=(n, n)) < 0.3] = 0.0
            P[rng.uniform(size=(n, n)) < 0.05] = -0.0
            confusion = ConfusionModel(rng.dirichlet(np.full(n, 0.5), size=n), mode=mode)
            max_steps = int(rng.integers(1, 6))
            omega = None if trial % 3 == 0 else tuple(float(w) for w in rng.uniform(-1.0, 2.0, max_steps))
            config = ReasonerConfig(
                gamma=float(rng.uniform(0.05, 1.0)), max_steps=max_steps, omega=omega
            )
            table = SuccessorTable(P)  # shared by every path below, as by the episodes on a KB
            for _ in range(10):
                length = int(rng.integers(1, min(max_steps, n) + 1))
                path = TypePath(tuple(int(t) for t in rng.choice(n, size=length, replace=False)), 1.0)
                indices = [int(r) for r in rng.integers(n, size=int(rng.integers(1, 2 * n)))]
                got = table.multi_step(confusion.rows, indices, path, config)
                want = multi_step_scores([confusion.rows[r] for r in indices], path, P, config)
                assert got == want
                assert all(math.copysign(1.0, a) == math.copysign(1.0, b) for a, b in zip(got, want))

    def test_each_rows_array_has_its_own_table(self):
        P = np.array([[0.2, 0.8, 0.0], [0.5, 0.1, 0.4], [0.0, 0.9, 0.3]])
        table = SuccessorTable(P)
        config = ReasonerConfig(gamma=0.7, max_steps=3)
        path = TypePath((1, 0, 2), 0.5)
        models = [ConfusionModel.eps_uniform(3, 0.3), ConfusionModel.identity(3),
                  ConfusionModel.eps_uniform(3, 0.3, mode="sampled")]
        for _ in range(2):  # the second round reads the kept floats
            for model in models:
                got = table.multi_step(model.rows, range(3), path, config)
                assert got == multi_step_scores(list(model.rows), path, P, config)

    def test_path_checks_match_reference(self):
        P = np.full((3, 3), 0.5)
        rows = ConfusionModel.identity(3).rows
        table = SuccessorTable(P)
        config = ReasonerConfig(max_steps=2)
        for path, message in ((TypePath((), 1.0), "empty"), (TypePath((0, 1, 2), 1.0), "longer")):
            with pytest.raises(ValueError, match=message):
                multi_step_scores(list(rows), path, P, config)
            with pytest.raises(ValueError, match=message):
                table.multi_step(rows, [0], path, config)
        with pytest.raises(ValueError, match="types"):
            table.multi_step(ConfusionModel.identity(4).rows, [0], TypePath((1,), 1.0), config)


class TestSelectPath:
    def beliefs(self, types, n=4, mass=0.9):
        out = []
        for i, t in enumerate(types):
            R = np.full(n, (1 - mass) / (n - 1))
            R[t] = mass
            out.append(belief(f"n{i}", R))
        return out

    def test_top_feasible_path_selected(self):
        paths = [TypePath((2, 3), 0.9), TypePath((1, 3), 0.5)]
        sel = select_path(paths, self.beliefs([2]), tau=0.5)
        assert sel == (paths[0], 2)

    def test_suboptimal_when_top_infeasible(self):
        paths = [TypePath((2, 3), 0.9), TypePath((1, 3), 0.5)]
        sel = select_path(paths, self.beliefs([1]), tau=0.5)
        assert sel == (paths[1], 1)

    def test_fallback_when_none_feasible(self):
        paths = [TypePath((2, 3), 0.9)]
        assert select_path(paths, self.beliefs([0]), tau=0.5) is None

    def test_selection_monotone_in_confidence(self):
        paths = [TypePath((2, 3), 0.9), TypePath((1, 3), 0.5)]
        beliefs = self.beliefs([2, 1])
        first = select_path(paths, beliefs, tau=0.5)
        boosted = [TypePath((2, 3), 0.95), TypePath((1, 3), 0.5)]
        second = select_path(boosted, beliefs, tau=0.5)
        assert first[1] == second[1] == 2

    def test_search_start_set_makes_the_top_path_feasible(self, rng):
        # every path starts at a present type, so the feasibility check the
        # engine no longer makes would always pick the first path
        selected = fallbacks = 0
        for trial in range(300):
            n = int(rng.integers(2, 7))
            P = rng.uniform(0, 0.95, size=(n, n))
            P[rng.uniform(size=(n, n)) < 0.4] = 0.0
            M = rng.dirichlet(np.full(n, 0.5), size=n)
            rows_of_C = [M[r] for r in rng.integers(n, size=int(rng.integers(0, 6)))]
            tau = float(rng.choice([0.0, 0.2, 0.5, 0.9, 1.0, rng.uniform()]))
            config = ReasonerConfig(max_steps=int(rng.integers(1, 5)), beam=int(rng.integers(1, 6)))
            present = present_types_from_beliefs(rows_of_C, tau)
            paths = enumerate_type_paths(
                present, int(rng.integers(n)), SuccessorTable(P), config
            )
            assert all(p.types[0] in present for p in paths)
            beliefs = [belief(f"c{k}", R) for k, R in enumerate(rows_of_C)]
            sel = select_path(paths, beliefs, tau)
            if paths:
                assert sel == (paths[0], paths[0].types[0])
                selected += 1
            else:
                assert sel is None
                fallbacks += 1
        assert selected > 0 and fallbacks > 0


class TestMultiStepScores:
    def test_single_type_path_reduces_to_direct_scores(self, rng):
        P = rng.uniform(0, 0.95, size=(5, 5))
        distributions = [rng.dirichlet(np.ones(5)) for _ in range(4)]
        Y = one_hot(5, 3)
        config = ReasonerConfig(max_steps=3)
        direct = proximity_scores(distributions, P, Y)
        multi = multi_step_scores(distributions, TypePath((3,), 1.0), P, config)
        assert multi == direct

    def test_discounted_two_term_arithmetic(self):
        # per-step raw terms 0.5 and 0.4 at gamma 0.9
        P = np.zeros((3, 3))
        P[0, 1] = 0.5
        P[0, 2] = 0.4
        config = ReasonerConfig(gamma=0.9, max_steps=2)
        scores = multi_step_scores([one_hot(3, 0)], TypePath((1, 2), 1.0), P, config)
        assert math.isclose(scores[0], 0.5 + 0.9 * 0.4)

    def test_matches_term_by_term_oracle(self, rng):
        P = rng.uniform(0, 0.95, size=(4, 4))
        distributions = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        path = TypePath((2, 0, 1), 0.5)
        config = ReasonerConfig(gamma=0.8, max_steps=3)
        got = multi_step_scores(distributions, path, P, config)
        for k, R in enumerate(distributions):
            want = 0.0
            for j, s in enumerate(path.types):
                want += 0.8**j * sum(R[a] * P[a, s] for a in range(4))
            assert math.isclose(got[k], want, rel_tol=1e-12)

    def test_omega_weights_apply(self):
        P = np.zeros((3, 3))
        P[0, 1] = 1.0 * 0.5
        P[0, 2] = 0.4
        config = ReasonerConfig(gamma=1.0, max_steps=2, omega=(2.0, 3.0))
        scores = multi_step_scores([one_hot(3, 0)], TypePath((1, 2), 1.0), P, config)
        assert math.isclose(scores[0], 2.0 * 0.5 + 3.0 * 0.4)

    def test_defaults_match_stated_values(self):
        config = ReasonerConfig()
        assert config.gamma == 0.9
        assert config.max_steps == 3
        assert config.beam == 3
        assert config.feasibility_tau == 0.5
        assert config.weights() == (1.0, 1.0, 1.0)


class TestPresentTypes:
    def test_threshold_gates_membership(self):
        distributions = [
            np.array([0.6, 0.4, 0.0]),
            np.array([0.2, 0.3, 0.5]),
        ]
        assert present_types_from_beliefs(distributions, tau=0.5) == {0, 2}
        assert present_types_from_beliefs(distributions, tau=0.3) == {0, 1, 2}
