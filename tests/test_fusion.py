import math

import numpy as np
import pytest

from hspr import fusion
from hspr.fusion import (
    BALANCE_FEATURES,
    FUSION_MODES,
    FixedBeta,
    LogisticBeta,
    VisitedFractionBeta,
    balance_factor,
    balance_features,
    parse_beta_policy,
)
from hspr.perception import TypeBelief
from hspr.topo import CURRENT, NAVIGABLE, VISITED, SemanticTopoMap

from oracles import compose_scores, fuse_final, fuse_variant_table, visited_ids


def random_tables(rng, n_local=3, n_global=6):
    C = {f"n{i}" for i in range(n_global)}
    F = {f"n{i}" for i in range(n_local)}
    def tab(ids):
        return {i: float(rng.normal()) for i in ids}
    return tab(C), tab(F), tab(C), tab(F), F, C


def residual(eta_c, eta_f, eps_c, eps_f, F, C, beta=0.5, **kwargs):
    return fuse_variant_table("residual", eta_c, eta_f, eps_c, eps_f, F, C, beta, **kwargs)


class TestComposeScores:
    """The global and local tables that fusion builds over C."""

    def test_all_local_uses_local_scores(self):
        F = C = {"a", "b"}
        scores = residual(
            {"a": 0.1, "b": 0.2}, {"a": 0.3, "b": 0.4},
            {"a": 0.05, "b": 0.06}, {"a": 0.07, "b": 0.08}, F, C,
        )
        assert scores.l_f == {"a": 0.3 + 0.07, "b": 0.4 + 0.08}
        assert scores.l_c == {"a": 0.1 + 0.05, "b": 0.2 + 0.06}

    def test_residual_branch_for_non_local(self):
        C, F = {"far"}, set()
        scores = residual({"far": 0.3}, {}, {"far": 0.2}, {}, F, C)
        assert scores.l_f["far"] == 0.5
        assert scores.l_c["far"] == 0.5

    def test_literal_form_drops_local_visual(self):
        F = C = {"a"}
        scores = residual({"a": 0.1}, {"a": 0.3}, {"a": 0.9}, {"a": 0.7}, F, C, eq11_literal=True)
        assert scores.l_f == {"a": 0.3}

    def test_matches_branch_by_branch_oracle(self, rng):
        for _ in range(50):
            eta_c, eta_f, eps_c, eps_f, F, C = random_tables(rng)
            scores = residual(eta_c, eta_f, eps_c, eps_f, F, C)
            for i in C:
                assert math.isclose(scores.l_c[i], eta_c[i] + eps_c[i])
                if i in F:
                    assert math.isclose(scores.l_f[i], eta_f[i] + eps_f[i])
                else:
                    assert math.isclose(scores.l_f[i], eta_c[i] + eps_c[i])

    def test_missing_local_scores_rejected(self):
        with pytest.raises(ValueError, match="missing local"):
            residual({"a": 1.0}, {}, {"a": 1.0}, {}, {"a"}, {"a"})

    def test_local_set_outside_global_rejected(self):
        with pytest.raises(ValueError, match="subset"):
            residual({"a": 1.0}, {"b": 1.0}, {"a": 1.0}, {"b": 1.0}, {"b"}, {"a"})


class TestBalanceFactor:
    def test_fixed(self):
        assert balance_factor(FixedBeta(0.5), {}) == 0.5
        assert balance_factor(FixedBeta(2.0), {}) == 1.0  # clamped

    def test_visited_fraction(self):
        assert balance_factor(VisitedFractionBeta(), {"visited_fraction": 0.3}) == 0.3

    def test_logistic_zero_weights_is_half(self):
        assert balance_factor(LogisticBeta(), {"anything": 9.0}) == 0.5

    def test_logistic_affine(self):
        policy = LogisticBeta(weights=(("x", 2.0),), bias=-1.0)
        got = balance_factor(policy, {"x": 1.0})
        assert math.isclose(got, 1 / (1 + math.exp(-1.0)))

    def test_logistic_far_from_zero_reaches_the_sigmoid_limits(self):
        # exp(800) overflows a float; exp(-800) underflows to 0.0
        assert balance_factor(LogisticBeta(bias=-800.0), {}) == 0.0
        assert balance_factor(LogisticBeta(bias=800.0), {}) == 1.0

    def test_fixed_builds_no_map_features(self, monkeypatch):
        def unread(topo_map):
            raise AssertionError("FixedBeta reads no map features")

        monkeypatch.setattr(fusion, "balance_features", unread)
        assert balance_factor(FixedBeta(2.0), hand_map()) == 1.0  # clamped
        with pytest.raises(AssertionError):
            balance_factor(VisitedFractionBeta(), hand_map())

    def test_visited_fraction_from_map(self):
        topo = SemanticTopoMap()
        belief = TypeBelief("x", np.array([1.0]))
        statuses = [CURRENT] + [VISITED] * 2 + [NAVIGABLE] * 7
        for i, status in enumerate(statuses):
            topo.add_node(f"n{i}", status, belief)
        topo.current = "n0"
        assert balance_factor(VisitedFractionBeta(), topo) == 0.3

    def test_parse_specs(self):
        assert parse_beta_policy("fixed:0.25") == FixedBeta(0.25)
        assert parse_beta_policy("visited_fraction") == VisitedFractionBeta()
        policy = parse_beta_policy("logistic:step=0.1,bias=-2")
        assert policy == LogisticBeta(weights=(("step", 0.1),), bias=-2.0)
        with pytest.raises(ValueError):
            parse_beta_policy("nonsense:1")
        for spec in ("fixed:nan", "fixed:inf", "logistic:bias=nan", "logistic:step=-inf"):
            with pytest.raises(ValueError, match="not a finite number"):
                parse_beta_policy(spec)
        with pytest.raises(ValueError, match="unknown balance feature 'foo'"):
            parse_beta_policy("logistic:foo=1")

    def test_features_are_the_parseable_names(self):
        assert tuple(balance_features(hand_map())) == BALANCE_FEATURES


def blend(l_c, l_f, beta):
    """Fuse given global and local tables: each enters as eta with a zero epsilon."""
    zeros = dict.fromkeys(l_c, 0.0)
    return residual(l_c, l_f, zeros, zeros, set(l_f), set(l_c), beta).l_final


class TestFuseFinal:
    """The weighted blend of the global and local tables."""

    def test_extremes_select_tables(self):
        l_c = {"a": 1.0, "b": 2.0}
        l_f = {"a": -1.0, "b": 0.5}
        assert blend(l_c, l_f, 1.0) == l_c
        assert blend(l_c, l_f, 0.0) == l_f

    def test_quarter_blend(self):
        got = blend({"a": 0.8}, {"a": 0.4}, 0.25)
        assert math.isclose(got["a"], 0.5)

    def test_shift_invariance_of_argmax(self, rng):
        for _ in range(200):
            eta_c, eta_f, eps_c, eps_f, F, C = random_tables(rng)
            beta = float(rng.uniform())
            base = residual(eta_c, eta_f, eps_c, eps_f, F, C, beta).l_final
            c = float(rng.normal())
            shifted = residual(
                {i: v + c for i, v in eta_c.items()},
                {i: v + c for i, v in eta_f.items()},
                eps_c, eps_f, F, C, beta,
            ).l_final
            for i in C:
                assert math.isclose(shifted[i], base[i] + c, rel_tol=1e-9, abs_tol=1e-9)
            assert max(base, key=base.get) == max(shifted, key=shifted.get)

    def test_convex_combination_bounds(self, rng):
        for _ in range(200):
            eta_c, eta_f, eps_c, eps_f, F, C = random_tables(rng)
            beta = float(rng.uniform())
            scores = residual(eta_c, eta_f, eps_c, eps_f, F, C, beta)
            for i in C:
                lo = min(scores.l_c[i], scores.l_f[i]) - 1e-12
                hi = max(scores.l_c[i], scores.l_f[i]) + 1e-12
                assert lo <= scores.l_final[i] <= hi


def hand_map():
    """current a - visited b - navigable d, with navigable c adjacent to a."""
    topo = SemanticTopoMap()
    belief = TypeBelief("x", np.array([1.0]))
    for nid, status in [("a", CURRENT), ("b", VISITED), ("c", NAVIGABLE), ("d", NAVIGABLE)]:
        topo.add_node(nid, status, belief)
    topo.current = "a"
    topo.add_edge("a", "b", 1.0)
    topo.add_edge("a", "c", 1.0)
    topo.add_edge("b", "d", 1.0)
    return topo


def random_map(rng):
    """Current v0 and visited v1.. in a tree; navigable n0.. hang off them."""
    topo = SemanticTopoMap()
    belief = TypeBelief("x", np.array([1.0]))
    visited = [f"v{k}" for k in range(int(rng.integers(1, 4)))]
    for nid in visited:
        topo.add_node(nid, CURRENT if nid == "v0" else VISITED, belief)
    topo.current = "v0"
    for k in range(1, len(visited)):
        topo.add_edge(visited[k], visited[int(rng.integers(k))], float(rng.uniform(0.5, 2.0)))
    for k in range(int(rng.integers(1, 7))):
        topo.add_node(f"n{k}", NAVIGABLE, belief)
        topo.add_edge(f"n{k}", visited[int(rng.integers(len(visited)))], float(rng.uniform(0.5, 2.0)))
    return topo


class TestVariantFusion:
    def tables(self):
        eta_c = {"c": 0.6, "d": 0.2}
        eta_f = {"c": 0.6}
        eps_c = {"c": 0.1, "d": 0.3}
        eps_f = {"c": 0.15}
        return eta_c, eta_f, eps_c, eps_f, {"c"}, {"c", "d"}

    def test_one_pass_equals_oracle_bit_for_bit(self, rng):
        def bits(table):
            return [(i, float(v).hex()) for i, v in table.items()]

        for _ in range(500):
            topo = random_map(rng)
            table = topo.shortest_paths()
            F, C = (set(ids) for ids in topo.navigable_sets())
            eta_c, eta_f, eps_c, eps_f, visited_scores = (
                {i: float(rng.normal()) for i in ids}
                for ids in (C, F, C, F, visited_ids(topo))
            )
            beta = float(rng.uniform())
            # the engine's route sums, read by index, for the off-F entries
            # that the oracle sums with route_visited_sum
            sums = topo.route_sums(
                table, [visited_scores.get(i) for i in topo.ids], [topo.index[i] for i in C - F]
            )
            for mode in FUSION_MODES:
                for literal in (False, True):
                    got = fuse_variant_table(
                        mode, eta_c, eta_f, eps_c, eps_f, F, C, beta, topo_map=topo,
                        table=table, visited_scores=visited_scores, eq11_literal=literal,
                    )
                    l_c, l_f = compose_scores(eta_c, eta_f, eps_c, eps_f, F, C, literal)
                    want_beta = 0.5 if mode == "average" else beta
                    for i in C - F:
                        if mode == "average":
                            l_f[i] = 0.0
                        elif mode == "dynamic":
                            l_f[i] = sums[topo.index[i]]
                    assert bits(got.l_c) == bits(l_c)
                    assert bits(got.l_f) == bits(l_f)
                    assert bits(got.l_final) == bits(fuse_final(l_c, l_f, want_beta))

    def test_residual_equals_compose_plus_fuse(self):
        eta_c, eta_f, eps_c, eps_f, F, C = self.tables()
        got = fuse_variant_table("residual", eta_c, eta_f, eps_c, eps_f, F, C, beta=0.4).l_final
        l_c, l_f = compose_scores(eta_c, eta_f, eps_c, eps_f, F, C)
        assert got == fuse_final(l_c, l_f, 0.4)

    def test_average_pins_beta_and_zeroes_non_local(self):
        eta_c, eta_f, eps_c, eps_f, F, C = self.tables()
        got = fuse_variant_table("average", eta_c, eta_f, eps_c, eps_f, F, C, beta=0.9).l_final
        assert math.isclose(got["d"], 0.5 * (0.2 + 0.3) + 0.5 * 0.0)
        assert math.isclose(got["c"], 0.5 * (0.6 + 0.1) + 0.5 * (0.6 + 0.15))

    def test_dynamic_sums_visited_route_scores(self):
        topo = hand_map()
        table = topo.shortest_paths()
        eta_c, eta_f, eps_c, eps_f, F, C = self.tables()
        visited_scores = {"a": 0.25, "b": 0.5}
        got = fuse_variant_table(
            "dynamic", eta_c, eta_f, eps_c, eps_f, F, C, beta=0.4,
            topo_map=topo, table=table, visited_scores=visited_scores,
        ).l_final
        # route a -> b -> d passes visited nodes a and b
        l_f_d = 0.25 + 0.5
        assert math.isclose(got["d"], 0.4 * (0.2 + 0.3) + 0.6 * l_f_d)
        assert math.isclose(got["c"], 0.4 * (0.6 + 0.1) + 0.6 * (0.6 + 0.15))

    def test_unknown_mode_rejected(self):
        eta_c, eta_f, eps_c, eps_f, F, C = self.tables()
        with pytest.raises(ValueError, match="fusion mode"):
            fuse_variant_table("blend", eta_c, eta_f, eps_c, eps_f, F, C, beta=0.5)

    def test_dynamic_requires_map_inputs(self):
        eta_c, eta_f, eps_c, eps_f, F, C = self.tables()
        with pytest.raises(ValueError, match="dynamic"):
            fuse_variant_table("dynamic", eta_c, eta_f, eps_c, eps_f, F, C, beta=0.5)
