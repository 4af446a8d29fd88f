"""Budget lines, action pricing, waste accounting, and prefix feasibility."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame.energy import (
    CostModel,
    EnergyParams,
    attack_cost,
    budget_at,
    defense_cost,
)

ATT = EnergyParams.attacker(kappa=1.5, rho=1.5, beta_normal=1, beta_strong=2)
DEF = EnergyParams.defender(kappa=0.5, rho=0.5, beta_recover=1)
CM = CostModel()

E1 = (1, 2)
E2 = (2, 3)


class TestParams:
    def test_values_become_exact(self):
        assert ATT.kappa == Fraction(3, 2)
        assert DEF.rho == Fraction(1, 2)

    def test_kappa_must_cover_rho(self):
        with pytest.raises(ValueError):
            EnergyParams.attacker(kappa=1, rho=2, beta_normal=1, beta_strong=2)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            EnergyParams.defender(kappa=0, rho=0, beta_recover=1)

    def test_strong_beta_must_exceed_normal(self):
        with pytest.raises(ValueError):
            EnergyParams.attacker(kappa=1, rho=1, beta_normal=2, beta_strong=2)


class TestBudgetAt:
    def test_attacker_line(self):
        assert budget_at(ATT, 0) == Fraction(3, 2)
        assert budget_at(ATT, 2) == Fraction(9, 2)

    def test_defender_line(self):
        assert budget_at(DEF, 1) == 1

    def test_start_equals_kappa(self):
        assert budget_at(DEF, 0) == DEF.kappa

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            budget_at(ATT, -1)


class TestAttackCost:
    def test_empty_attack_is_free(self):
        assert attack_cost([], [], ATT) == 0

    def test_single_strong_edge(self):
        assert attack_cost([E1], [], ATT) == 2

    def test_mixed_attack(self):
        assert attack_cost([E1], [E2, (1, 3)], ATT) == 4

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            attack_cost([E1], [E1], ATT)

    def test_node_mode_prices_nodes(self):
        p = EnergyParams.attacker(kappa=5, rho=5, beta_normal=2, beta_strong=3)
        assert attack_cost([2], [1, 3], p) == 3 + 4

    @settings(max_examples=100)
    @given(st.sets(st.integers(1, 8)), st.sets(st.integers(1, 8)))
    def test_additive_over_disjoint_sets(self, strong, normal):
        normal = normal - strong
        total = attack_cost(strong, normal, ATT)
        split = attack_cost(strong, [], ATT) + attack_cost([], normal, ATT)
        assert total == split


class TestDefenseCost:
    def test_empty_recovery(self):
        assert defense_cost([], [E1], CM, DEF) == (0, 0)

    def test_miss_on_strongly_attacked_edge_is_waste(self):
        cost, waste = defense_cost([E1], [], CM, DEF)
        assert (cost, waste) == (1, 1)

    def test_free_mode_never_wastes(self):
        cm = CostModel(waste="free")
        cost, waste = defense_cost([E1], [], cm, DEF)
        assert (cost, waste) == (0, 0)

    def test_effective_recovery_costs_without_waste(self):
        cost, waste = defense_cost([E1], [E1, E2], CM, DEF)
        assert (cost, waste) == (1, 0)

    def test_mixed_hit_and_miss(self):
        cost, waste = defense_cost([E1, E2], [E2], CM, DEF)
        assert (cost, waste) == (2, 1)

    @settings(max_examples=100)
    @given(st.sets(st.integers(1, 6)), st.sets(st.integers(1, 6)))
    def test_waste_bounded_by_cost(self, recover, attacked):
        for cm in (CostModel(), CostModel(waste="free")):
            cost, waste = defense_cost(recover, attacked, cm, DEF)
            assert 0 <= waste <= cost


def feasible_plan(spent, per_step_costs, k_start):
    """Add the costed steps one by one, checking the budget line after each, as a run does."""
    for m, cost in enumerate(per_step_costs):
        spent += cost
        if spent > budget_at(ATT, k_start + m):
            return False
    return True


class TestFeasiblePlan:
    def test_zero_cost_plan_always_fits(self):
        assert feasible_plan(0, [0, 0, 0], 0)

    def test_first_step_overdraw_rejected(self):
        assert not feasible_plan(0, [Fraction(2)], 0)

    def test_prefix_check_allows_later_supply(self):
        assert feasible_plan(0, [Fraction(1), Fraction(2)], 0)

    def test_mid_plan_overdraw_rejected_despite_recovery(self):
        # Spending 2 at step 0 breaks the line even though the step-1 budget
        # would cover the total.
        assert not feasible_plan(0, [Fraction(2), Fraction(0)], 0)

    def test_prior_spend_counts(self):
        assert not feasible_plan(Fraction(3, 2), [Fraction(1)], 0)
        assert feasible_plan(Fraction(3, 2), [Fraction(1)], 1)

    @settings(max_examples=100)
    @given(
        st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4), min_size=1, max_size=5),
        st.integers(0, 3),
        st.data(),
    )
    def test_monotone_under_cost_reduction(self, costs, k_start, data):
        if not feasible_plan(0, costs, k_start):
            return
        idx = data.draw(st.integers(0, len(costs) - 1))
        cheaper = list(costs)
        cheaper[idx] = data.draw(st.fractions(min_value=0, max_value=costs[idx], max_denominator=4))
        assert feasible_plan(0, cheaper, k_start)

