import math

import numpy as np
import pytest

from hspr.fusion import (
    FixedBeta,
    LogisticBeta,
    VisitedFractionBeta,
    balance_factor,
    compose_scores,
    fuse_final,
    fuse_variant_table,
    parse_beta_policy,
)
from hspr.perception import TypeBelief
from hspr.topo import CURRENT, NAVIGABLE, VISITED, SemanticTopoMap


def random_tables(rng, n_local=3, n_global=6):
    C = {f"n{i}" for i in range(n_global)}
    F = {f"n{i}" for i in range(n_local)}
    def tab(ids):
        return {i: float(rng.normal()) for i in ids}
    return tab(C), tab(F), tab(C), tab(F), F, C


class TestComposeScores:
    def test_all_local_uses_local_scores(self):
        F = C = {"a", "b"}
        l_c, l_f = compose_scores(
            {"a": 0.1, "b": 0.2}, {"a": 0.3, "b": 0.4},
            {"a": 0.05, "b": 0.06}, {"a": 0.07, "b": 0.08}, F, C,
        )
        assert l_f == {"a": 0.3 + 0.07, "b": 0.4 + 0.08}
        assert l_c == {"a": 0.1 + 0.05, "b": 0.2 + 0.06}

    def test_residual_branch_for_non_local(self):
        C, F = {"far"}, set()
        l_c, l_f = compose_scores({"far": 0.3}, {}, {"far": 0.2}, {}, F, C)
        assert l_f["far"] == 0.5
        assert l_c["far"] == 0.5

    def test_literal_form_drops_local_visual(self):
        F = C = {"a"}
        _, l_f = compose_scores({"a": 0.1}, {"a": 0.3}, {"a": 0.9}, {"a": 0.7}, F, C, eq11_literal=True)
        assert l_f == {"a": 0.3}

    def test_matches_branch_by_branch_oracle(self, rng):
        for _ in range(50):
            eta_c, eta_f, eps_c, eps_f, F, C = random_tables(rng)
            l_c, l_f = compose_scores(eta_c, eta_f, eps_c, eps_f, F, C)
            for i in C:
                assert math.isclose(l_c[i], eta_c[i] + eps_c[i])
                if i in F:
                    assert math.isclose(l_f[i], eta_f[i] + eps_f[i])
                else:
                    assert math.isclose(l_f[i], eta_c[i] + eps_c[i])

    def test_missing_local_scores_rejected(self):
        with pytest.raises(ValueError, match="missing local"):
            compose_scores({"a": 1.0}, {}, {"a": 1.0}, {}, {"a"}, {"a"})


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

    def test_visited_fraction_from_map(self):
        topo = SemanticTopoMap()
        belief = TypeBelief("x", np.array([1.0]))
        statuses = [CURRENT] + [VISITED] * 2 + [NAVIGABLE] * 7
        for i, status in enumerate(statuses):
            topo.add_node(f"n{i}", status, (0.0, 0.0, 0.0), belief)
        topo.current = "n0"
        assert balance_factor(VisitedFractionBeta(), topo) == 0.3

    def test_parse_specs(self):
        assert parse_beta_policy("fixed:0.25") == FixedBeta(0.25)
        assert parse_beta_policy("visited_fraction") == VisitedFractionBeta()
        policy = parse_beta_policy("logistic:step=0.1,bias=-2")
        assert policy == LogisticBeta(weights=(("step", 0.1),), bias=-2.0)
        with pytest.raises(ValueError):
            parse_beta_policy("nonsense:1")


class TestFuseFinal:
    def test_extremes_select_tables(self):
        l_c = {"a": 1.0, "b": 2.0}
        l_f = {"a": -1.0, "b": 0.5}
        assert fuse_final(l_c, l_f, 1.0) == l_c
        assert fuse_final(l_c, l_f, 0.0) == l_f

    def test_quarter_blend(self):
        got = fuse_final({"a": 0.8}, {"a": 0.4}, 0.25)
        assert math.isclose(got["a"], 0.5)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError, match="action sets"):
            fuse_final({"a": 1.0}, {"b": 1.0}, 0.5)

    def test_shift_invariance_of_argmax(self, rng):
        for _ in range(200):
            eta_c, eta_f, eps_c, eps_f, F, C = random_tables(rng)
            l_c, l_f = compose_scores(eta_c, eta_f, eps_c, eps_f, F, C)
            beta = float(rng.uniform())
            base = fuse_final(l_c, l_f, beta)
            c = float(rng.normal())
            shifted = fuse_final(
                {i: v + c for i, v in l_c.items()},
                {i: v + c for i, v in l_f.items()},
                beta,
            )
            for i in C:
                assert math.isclose(shifted[i], base[i] + c, rel_tol=1e-9, abs_tol=1e-9)
            assert max(base, key=base.get) == max(shifted, key=shifted.get)

    def test_convex_combination_bounds(self, rng):
        for _ in range(200):
            eta_c, eta_f, eps_c, eps_f, F, C = random_tables(rng)
            l_c, l_f = compose_scores(eta_c, eta_f, eps_c, eps_f, F, C)
            beta = float(rng.uniform())
            fused = fuse_final(l_c, l_f, beta)
            for i in C:
                lo = min(l_c[i], l_f[i]) - 1e-12
                hi = max(l_c[i], l_f[i]) + 1e-12
                assert lo <= fused[i] <= hi


def hand_map():
    """current a - visited b - navigable d, with navigable c adjacent to a."""
    topo = SemanticTopoMap()
    belief = TypeBelief("x", np.array([1.0]))
    for nid, status in [("a", CURRENT), ("b", VISITED), ("c", NAVIGABLE), ("d", NAVIGABLE)]:
        topo.add_node(nid, status, (0.0, 0.0, 0.0), belief)
    topo.current = "a"
    topo.add_edge("a", "b", 1.0)
    topo.add_edge("a", "c", 1.0)
    topo.add_edge("b", "d", 1.0)
    return topo


class TestVariantFusion:
    def tables(self):
        eta_c = {"c": 0.6, "d": 0.2}
        eta_f = {"c": 0.6}
        eps_c = {"c": 0.1, "d": 0.3}
        eps_f = {"c": 0.15}
        return eta_c, eta_f, eps_c, eps_f, {"c"}, {"c", "d"}

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
