import numpy as np
import pytest

from chain_rivalry import (
    Choice,
    InvalidParamsError,
    Scenario,
    UserPopulation,
    equilibrium,
    simulate_game,
    simulate_period,
    stage_demand,
)


class TestUserPopulation:
    def test_midpoint_types(self):
        pop = UserPopulation.create(4)
        assert np.array_equal(pop.types, [0.125, 0.375, 0.625, 0.875])
        assert pop.m == 4
        assert pop.period1 is None and pop.period2 is None

    def test_single_user(self):
        pop = UserPopulation.create(1)
        assert np.array_equal(pop.types, [0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            UserPopulation.create(0)

    def test_period_choices_record_decisions(self, reference):
        pop = UserPopulation.create(10)
        simulate_period(pop, reference, Scenario.SAME_CHAIN, 1, 3.0, 3.0)
        assert pop.types[0] == 0.05 and pop.period1[0] == Choice.FIRM_A.value
        assert pop.types[9] == 0.95 and pop.period1[9] == Choice.FIRM_B.value
        assert pop.period2 is None


class TestTieRules:
    def test_indifferent_between_firms_picks_b(self, reference):
        # equal shared-chain prices make the middle type exactly indifferent
        pop = UserPopulation.create(5)
        out = simulate_period(pop, reference, Scenario.SAME_CHAIN, 1, 3.0, 3.0)
        assert out.share_a == 0.4
        assert out.share_b == 0.6
        assert pop.period1[2] == Choice.FIRM_B.value

    def test_indifferent_with_staying_out_participates(self, reference):
        # alpha=0 kills the network feedback so utilities are exact in
        # binary arithmetic: type 0.625 gets utility exactly 0 from A
        p = reference.with_values(alpha=0.0)
        pop = UserPopulation.create(4)
        out = simulate_period(pop, p, Scenario.SAME_CHAIN, 1,
                              p.k - 1.875, 100.0)
        assert out.share_a == 0.75
        assert pop.period1[2] == Choice.FIRM_A.value
        assert pop.period1[3] == Choice.NEITHER.value


class TestSimulatePeriod:
    def test_even_split_at_equal_prices(self, reference):
        pop = UserPopulation.create(10)
        out = simulate_period(pop, reference, Scenario.SAME_CHAIN, 1, 3.0, 3.0)
        assert out.converged
        assert out.share_a == 0.5
        assert out.share_b == 0.5
        assert out.cutoff == 0.5
        assert out.revenue_a == pytest.approx(1.5)

    @pytest.mark.parametrize("m,tol", [(1000, 1e-3), (10000, 1e-4)])
    def test_matches_analytic_split(self, reference, m, tol):
        closed = equilibrium(reference, Scenario.COMPATIBLE)
        pop = UserPopulation.create(m)
        out = simulate_period(pop, reference, Scenario.COMPATIBLE, 1,
                              closed.pA1, closed.pB1)
        assert out.converged
        assert out.share_a == pytest.approx(closed.nA1, abs=tol)
        assert out.share_b == pytest.approx(closed.nB1, abs=tol)
        assert out.cutoff == pytest.approx(closed.cutoff1, abs=tol)

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("prices", [
        (3.0, 3.0), (0.0, 0.0), (-5.0, 2.0), (8.0, 6.0), (21.0, 3.0),
    ])
    def test_agrees_with_demand_solver(self, reference, scenario, prices):
        m = 4000
        pop = UserPopulation.create(m)
        out = simulate_period(pop, reference, scenario, 1, *prices)
        dem = stage_demand(reference, scenario, *prices)
        assert out.share_a == pytest.approx(dem.nA, abs=2.0 / m)
        assert out.share_b == pytest.approx(dem.nB, abs=2.0 / m)
        # A's adopters are one block from x = 0, whose upper edge is the cutoff
        assert out.cutoff == out.share_a

    def test_partial_participation(self, reference):
        # pricing at the stand-alone value leaves the middle out
        pop = UserPopulation.create(10000)
        out = simulate_period(pop, reference, Scenario.SAME_CHAIN, 1,
                              reference.k, reference.k)
        dem = stage_demand(reference, Scenario.SAME_CHAIN,
                           reference.k, reference.k)
        assert out.share_a + out.share_b < 1.0
        assert out.share_a == pytest.approx(dem.nA, abs=2e-4)

    def test_two_user_lattice(self, reference):
        pop = UserPopulation.create(2)
        out = simulate_period(pop, reference, Scenario.SAME_CHAIN, 1, 3.0, 3.0)
        assert out.share_a == 0.5 and out.share_b == 0.5
        assert out.cutoff == 0.5


class TestLockin:
    def test_locks_required_for_lockin_period_2(self, reference):
        pop = UserPopulation.create(10)
        simulate_period(pop, reference, Scenario.INCOMPATIBLE, 1, -14.8, -15.1)
        with pytest.raises(ValueError, match="requires the period-1 choices"):
            simulate_period(pop, reference, Scenario.INCOMPATIBLE, 2,
                            19.45, 19.15)

    def test_locks_rejected_elsewhere(self, reference):
        pop = UserPopulation.create(10)
        simulate_period(pop, reference, Scenario.COMPATIBLE, 1, 3.0, 3.0)
        locks = pop.period1
        with pytest.raises(ValueError, match="only meaningful"):
            simulate_period(pop, reference, Scenario.COMPATIBLE, 2,
                            3.0, 3.0, locks=locks)
        with pytest.raises(ValueError, match="only meaningful"):
            simulate_period(pop, reference, Scenario.INCOMPATIBLE, 1,
                            3.0, 3.0, locks=locks)

    def test_equilibrium_prices_retain_every_adopter(self, reference):
        closed = equilibrium(reference, Scenario.INCOMPATIBLE)
        run = simulate_game(reference, Scenario.INCOMPATIBLE,
                            (closed.pA1, closed.pB1, closed.pA2, closed.pB2),
                            m=10000)
        pop = run.population
        assert np.array_equal(pop.period1, pop.period2)
        assert np.all(pop.period1 != Choice.NEITHER.value)
        assert run.period2.share_a == run.period1.share_a

    def test_locked_users_can_drop_out_but_not_switch(self, reference):
        pop = UserPopulation.create(1000)
        simulate_period(pop, reference, Scenario.INCOMPATIBLE, 1, -14.8, -15.1)
        # pushing A's harvest price past its base's reach sheds users to
        # NEITHER, never to B
        out = simulate_period(pop, reference, Scenario.INCOMPATIBLE, 2,
                              reference.k + reference.alpha * reference.n1,
                              19.15, locks=pop.period1)
        was_a = pop.period1 == Choice.FIRM_A.value
        now_b = pop.period2 == Choice.FIRM_B.value
        assert not np.any(was_a & now_b)
        assert out.share_a < 0.9 * np.count_nonzero(was_a) / pop.m

    def test_unattached_users_join_freely_in_period_2(self, reference):
        pop = UserPopulation.create(1000)
        stay_out = reference.k + reference.alpha * reference.n1
        first = simulate_period(pop, reference, Scenario.INCOMPATIBLE, 1,
                                stay_out, stay_out)
        assert first.share_a == 0.0 and first.share_b == 0.0
        second = simulate_period(pop, reference, Scenario.INCOMPATIBLE, 2,
                                 0.0, 0.0, locks=pop.period1)
        assert second.share_a + second.share_b == 1.0
        assert np.all(pop.period1 == Choice.NEITHER.value)


class TestSimulateGame:
    def test_aggregates_revenue_across_periods(self, reference):
        run = simulate_game(reference, Scenario.SAME_CHAIN,
                            (3.0, 3.0, 3.0, 3.0), m=100)
        assert run.revenue_a == run.period1.revenue_a + run.period2.revenue_a
        assert run.revenue_b == run.period1.revenue_b + run.period2.revenue_b
        assert run.revenue_a == pytest.approx(3.0)

    def test_matches_closed_profits_at_equilibrium(self, reference):
        closed = equilibrium(reference, Scenario.COMPATIBLE)
        run = simulate_game(reference, Scenario.COMPATIBLE,
                            (closed.pA1, closed.pB1, closed.pA2, closed.pB2),
                            m=10000)
        tol = (abs(closed.pA1) + abs(closed.pA2)) / 10000 + 1e-6
        assert run.revenue_a == pytest.approx(closed.profitA, abs=tol)
        tol_b = (abs(closed.pB1) + abs(closed.pB2)) / 10000 + 1e-6
        assert run.revenue_b == pytest.approx(closed.profitB, abs=tol_b)

    def test_validation_gate(self, reference):
        bad = reference.with_values(alpha=0.13)
        with pytest.raises(InvalidParamsError):
            simulate_game(bad, Scenario.SAME_CHAIN, (3.0, 3.0, 3.0, 3.0), m=10)
        run = simulate_game(bad, Scenario.SAME_CHAIN, (3.0, 3.0, 3.0, 3.0),
                            m=10, validate=False)
        assert run.period1.converged

    def test_population_is_returned_with_both_periods(self, reference):
        run = simulate_game(reference, Scenario.COMPATIBLE,
                            (3.0, 3.0, 3.0, 3.0), m=50)
        assert run.population.period1 is not None
        assert run.population.period2 is not None
        assert run.population.period2.shape == (50,)
