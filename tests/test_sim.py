import dataclasses
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chain_rivalry import model, sim
from chain_rivalry.closed_form import equilibrium
from chain_rivalry.model import InvalidParamsError, ModelParams, Scenario
from chain_rivalry.sim import SimOutcome, _play, simulate_game
from chain_rivalry.oracle import _demand
from chain_rivalry.verify import run_verification
from conftest import REFERENCE, _edge_draws, _off_gate_draws, midpoint_types


def _masks(m, out, bounds, locks=None):
    """A period's adopter masks (take_a, take_b), built from its returned
    boundaries (a_exit, b_entry): A's adopters are [0, a_exit) and B's
    [b_entry, m), and the shares count them. Under locks (lo, hi) no locked
    user switches: A's adopters stay in [0, hi) and B's in [lo, m)."""
    lo, hi = (0, m) if locks is None else locks
    a_exit, b_entry = bounds
    assert 0 <= a_exit <= hi and lo <= b_entry <= m and a_exit <= b_entry
    assert out.share_a == a_exit / m and out.share_b == (m - b_entry) / m
    take_a = np.zeros(m, dtype=bool)
    take_b = np.zeros(m, dtype=bool)
    take_a[:a_exit] = True
    take_b[b_entry:] = True
    return take_a, take_b


def _evaluated_types(p, prices, m):
    """The set of types whose taste distances a game evaluates, over every
    scenario."""
    with mock.patch.object(sim, "taste_distances",
                           wraps=model.taste_distances) as evaluated:
        runs = [simulate_game(p, scenario, prices, m=m) for scenario in Scenario]
    return {call.args[1] for call in evaluated.call_args_list}, runs


class TestMidpointTypes:
    def test_midpoint_types(self, reference):
        seen, _ = _evaluated_types(reference, (3.0, 3.0, 4.0, 2.0), 4)
        assert seen and seen <= {0.125, 0.375, 0.625, 0.875}

    def test_single_user(self, reference):
        # one type of mass 1, at the middle of the taste line
        seen, runs = _evaluated_types(reference, (3.0, 3.0, 4.0, 2.0), 1)
        assert seen == {0.5}
        for run in runs:
            for out in (run.period1, run.period2):
                assert out.converged
                assert {out.share_a, out.share_b} <= {0.0, 1.0}
                assert out.share_a + out.share_b <= 1.0

    def test_period_choices_record_decisions(self, reference):
        # A's adopters are [0, a_exit) and B's [b_entry, 10)
        out, (a_exit, b_entry) = _play(10, reference, Scenario.SAME_CHAIN,
                                       3.0, 3.0, 0, 10)
        assert (a_exit, b_entry) == (5, 5)
        assert out.share_a == 0.5 and out.share_b == 0.5

    @pytest.mark.parametrize("m", [7, 999, 10000])
    def test_simulated_types_are_the_population_types(self, reference, m):
        # type i is computed as (i + 1/2)/m, bitwise the tests' array of types
        types = set(midpoint_types(reference, m)[0].tolist())
        seen, _ = _evaluated_types(reference, (3.0, 3.0, 4.0, 2.0), m)
        assert seen and seen <= types


class TestFirst:
    def test_returns_the_boundary_within_its_call_budget(self):
        # a clamped guess at the boundary or just below it costs two calls;
        # a miss, or a guess that is NaN or infinite, costs a bisection more
        for lo in range(10):
            for hi in range(lo, 10):
                for b in range(lo, hi + 1):
                    guesses = [g + half for g in range(lo - 2, hi + 3)
                               for half in (0.0, 0.5)]
                    for guess in guesses + [math.nan, math.inf, -math.inf]:
                        calls = []

                        def holds(i):
                            assert lo <= i < hi
                            calls.append(i)
                            return i >= b

                        assert sim._first(holds, lo, hi, guess) == b
                        start = (lo if math.isnan(guess)
                                 else math.floor(min(max(guess, lo), hi - 1)))
                        budget = (2 if start in (b - 1, b)
                                  else (hi - lo).bit_length() + 2)
                        assert len(calls) <= budget, (lo, hi, b, guess)


class TestTieRules:
    def test_indifferent_between_firms_picks_b(self, reference):
        # equal shared-chain prices make the middle type exactly indifferent
        out, bounds = _play(5, reference, Scenario.SAME_CHAIN, 3.0, 3.0, 0, 5)
        assert out.share_a == 0.4
        assert out.share_b == 0.6
        assert bounds == (2, 2)  # type 2 is B's first adopter

    def test_indifferent_with_staying_out_participates(self, reference):
        # alpha=0 kills the network feedback so utilities are exact in
        # binary arithmetic: type 0.625 gets utility exactly 0 from A
        p = reference.with_values(alpha=0.0)
        out, bounds = _play(4, p, Scenario.SAME_CHAIN, p.k - 1.875, 100.0,
                            0, 4)
        assert out.share_a == 0.75 and out.share_b == 0.0
        assert bounds == (3, 4)  # type 2 adopts A, type 3 nothing

    def test_indifferent_between_b_and_staying_out_participates(self, reference):
        # the mirror case: type 0.375 gets utility exactly 0 from B
        p = reference.with_values(alpha=0.0)
        out, bounds = _play(4, p, Scenario.SAME_CHAIN, 100.0, p.k - 1.875,
                            0, 4)
        assert out.share_b == 0.75 and out.share_a == 0.0
        assert bounds == (0, 1)  # type 1 adopts B, type 0 nothing


class TestPeriod:
    def test_even_split_at_equal_prices(self, reference):
        out, _ = _play(10, reference, Scenario.SAME_CHAIN, 3.0, 3.0, 0, 10)
        assert out.converged
        assert out.share_a == 0.5
        assert out.share_b == 0.5
        assert out.cutoff == 0.5
        assert out.revenue_a == pytest.approx(1.5)

    @pytest.mark.parametrize("m,tol", [(1000, 1e-3), (10000, 1e-4)])
    def test_matches_analytic_split(self, reference, m, tol):
        closed = equilibrium(reference, Scenario.COMPATIBLE)
        out, _ = _play(m, reference, Scenario.COMPATIBLE, closed.pA1,
                       closed.pB1, 0, m)
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
        out, _ = _play(m, reference, scenario, *prices, 0, m)
        nA, nB, _ = _demand(reference, scenario, *prices)
        assert out.share_a == pytest.approx(nA, abs=2.0 / m)
        assert out.share_b == pytest.approx(nB, abs=2.0 / m)
        # A's adopters are one block from x = 0, whose upper edge is the cutoff
        assert out.cutoff == out.share_a

    def test_partial_participation(self, reference):
        # pricing at the stand-alone value leaves the middle out
        out, _ = _play(10000, reference, Scenario.SAME_CHAIN,
                       reference.k, reference.k, 0, 10000)
        nA, _, _ = _demand(reference, Scenario.SAME_CHAIN,
                           reference.k, reference.k)
        assert out.share_a + out.share_b < 1.0
        assert out.share_a == pytest.approx(nA, abs=2e-4)

    def test_two_user_lattice(self, reference):
        out, _ = _play(2, reference, Scenario.SAME_CHAIN, 3.0, 3.0, 0, 2)
        assert out.share_a == 0.5 and out.share_b == 0.5
        assert out.cutoff == 0.5

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("prices", [(3.0, 3.0), (-5.0, 2.0), (20.0, 20.0)])
    def test_choices_are_best_replies_to_the_converged_shares(
            self, reference, scenario, prices):
        m = 1000
        out, bounds = _play(m, reference, scenario, *prices, 0, m)
        take_a, take_b = _masks(m, out, bounds)
        _, distances = midpoint_types(reference, m)
        uA, uB = model.user_utility(reference, scenario, distances, *prices,
                                    out.share_a, out.share_b)
        participates = np.maximum(uA, uB) >= 0.0
        assert out.converged
        assert np.array_equal(take_b, participates & (uB >= uA))
        assert np.array_equal(take_a, participates & (uB < uA))

    def test_zero_iterations_leave_everyone_out(self, reference, monkeypatch):
        monkeypatch.setattr(sim, "MAX_FIXED_POINT_ITER", 0)
        out, bounds = _play(10, reference, Scenario.SAME_CHAIN, 3.0, 3.0, 0, 10)
        assert not out.converged and out.iterations == 0
        assert out.cutoff == 0.0
        assert bounds == (0, 10)  # A's adopters [0, 0), B's [10, 10)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_types_evaluated_per_step_do_not_grow_with_m(self, reference,
                                                         scenario,
                                                         monkeypatch):
        # a step searches for its boundaries from their analytic positions,
        # so it evaluates the same few types at a thousand types as at a
        # million; a walk or a pass over the types would grow with m
        per_step = []
        real_step = sim._step

        def counted_step(*args):
            per_step.append(0)
            return real_step(*args)

        def counted_distances(*args):
            per_step[-1] += 1
            return model.taste_distances(*args)

        monkeypatch.setattr(sim, "_step", counted_step)
        monkeypatch.setattr(sim, "taste_distances", counted_distances)
        closed = equilibrium(reference, scenario)
        prices = (closed.pA1, closed.pB1, closed.pA2, closed.pB2)
        counts = []
        for m in (1000, 1000000):
            per_step.clear()
            run = simulate_game(reference, scenario, prices, m=m)
            assert run.period1.converged and run.period2.converged
            counts.append((per_step[0], max(per_step)))
        assert counts[0] == counts[1]
        assert counts[0][1] <= 3

    def test_a_step_without_locks_searches_only_for_its_split(
            self, reference, draws100, monkeypatch):
        # at the closed-form prices every type participates, so the split's
        # neighbours settle A's exit and B's entry, and a step without
        # locks makes one search, for the split
        steps = []  # [free of locks, searches] per step
        real_step, real_first = sim._step, sim._first

        def counted_step(p, scenario, m, pA, pB, nA, nB, lo, hi):
            steps.append([lo == 0 and hi == m, 0])
            return real_step(p, scenario, m, pA, pB, nA, nB, lo, hi)

        def counted_first(*args):
            steps[-1][1] += 1
            return real_first(*args)

        monkeypatch.setattr(sim, "_step", counted_step)
        monkeypatch.setattr(sim, "_first", counted_first)
        for p in [reference, *draws100]:
            for scenario in Scenario:
                closed = equilibrium(p, scenario)
                simulate_game(p, scenario, (closed.pA1, closed.pB1,
                                            closed.pA2, closed.pB2))
        free = [searches for unlocked, searches in steps if unlocked]
        assert len(free) > 300 and set(free) == {1}

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_a_game_allocates_nothing_that_grows_with_m(self, reference,
                                                        scenario):
        # a game holds no array over the types: after a warm-up call at a
        # thousand types, the heap peak of the first game at a million types
        # stays far below one byte per type, so nothing sized by m is built
        # or cached. Period 2 is shifted, so it is solved in every scenario.
        m = 2 ** 20
        closed = equilibrium(reference, scenario)
        prices = (closed.pA1, closed.pB1,
                  closed.pA2 + 0.1 * reference.s, closed.pB2 - 0.1 * reference.s)
        simulate_game(reference, scenario, prices, m=1000)
        tracemalloc.start()
        try:
            simulate_game(reference, scenario, prices, m=m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("prices,name", [
        ((np.nan, 3.0, 3.0, 3.0), "pA"),
        ((np.inf, 3.0, np.inf, 3.0), "pA"),
        ((3.0, -np.inf, 3.0, 3.0), "pB"),
        ((3.0, 3.0, 3.0, np.nan), "pB"),
    ])
    def test_rejects_non_finite_prices(self, reference, prices, name):
        for scenario in Scenario:
            with pytest.raises(ValueError, match=f"price {name} must be finite"):
                simulate_game(reference, scenario, prices, m=100)


class TestPopulationSize:
    @pytest.mark.parametrize("m", [100.5, 100.0, True, "100", None])
    def test_rejects_a_size_that_is_not_an_integer(self, reference, m):
        with pytest.raises(ValueError, match="population size m must be an "
                                             "integer, got "):
            simulate_game(reference, Scenario.SAME_CHAIN, (3.0, 3.0, 3.0, 3.0),
                          m=m)

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_an_empty_population(self, reference, m):
        with pytest.raises(ValueError, match="at least one type"):
            simulate_game(reference, Scenario.SAME_CHAIN, (3.0, 3.0, 3.0, 3.0),
                          m=m)

    def test_numpy_integers_count_as_integers(self, reference):
        prices = (3.0, 3.0, 4.0, 2.0)
        for scenario in Scenario:
            run = simulate_game(reference, scenario, prices, m=np.int64(999))
            want = simulate_game(reference, scenario, prices, m=999)
            assert (run.period1, run.period2) == (want.period1, want.period2)
            assert type(run.period1.share_a) is float


class TestLockin:
    def test_equilibrium_prices_retain_every_adopter(self, reference):
        m = 10000
        closed = equilibrium(reference, Scenario.INCOMPATIBLE)
        run = simulate_game(reference, Scenario.INCOMPATIBLE,
                            (closed.pA1, closed.pB1, closed.pA2, closed.pB2),
                            m=m)
        first, locks = _play(m, reference, Scenario.INCOMPATIBLE,
                             closed.pA1, closed.pB1, 0, m)
        second, bounds = _play(m, reference, Scenario.INCOMPATIBLE,
                               closed.pA2, closed.pB2, *locks)
        assert (first, second) == (run.period1, run.period2)
        was_a, was_b = _masks(m, first, locks)
        now_a, now_b = _masks(m, second, bounds, locks)
        assert np.array_equal(was_a, now_a) and np.array_equal(was_b, now_b)
        assert np.all(was_a | was_b)
        assert run.period2.share_a == run.period1.share_a

    def test_locked_users_can_drop_out_but_not_switch(self, reference):
        m = 1000
        _, locks = _play(m, reference, Scenario.INCOMPATIBLE, -14.8, -15.1,
                         0, m)
        # pushing A's harvest price past its base's reach sheds users to
        # NEITHER, never to B
        out, bounds = _play(m, reference, Scenario.INCOMPATIBLE,
                            reference.k + reference.alpha * reference.n1,
                            19.15, *locks)
        _, now_b = _masks(m, out, bounds, locks)
        assert not np.any(now_b[:locks[0]])
        assert out.share_a < 0.9 * locks[0] / m

    def test_unattached_users_join_freely_in_period_2(self, reference):
        m = 1000
        stay_out = reference.k + reference.alpha * reference.n1
        first, locks = _play(m, reference, Scenario.INCOMPATIBLE,
                             stay_out, stay_out, 0, m)
        assert first.share_a == 0.0 and first.share_b == 0.0
        assert locks == (0, m)  # nobody is locked
        second, _ = _play(m, reference, Scenario.INCOMPATIBLE, 0.0, 0.0,
                          *locks)
        assert second.share_a + second.share_b == 1.0

    def test_boundaries_are_plain_ints(self, reference):
        _, locks = _play(200, reference, Scenario.INCOMPATIBLE, 3.0, 3.0,
                         0, 200)
        assert all(type(b) is int for b in locks)
        _, bounds = _play(200, reference, Scenario.INCOMPATIBLE,
                          reference.k + reference.alpha * reference.n1, 19.15,
                          *locks)
        assert all(type(b) is int for b in bounds)

    def test_accepts_every_segment(self, reference):
        # no locked user switches firms: A's adopters stay in [0, hi) and
        # B's in [lo, m)
        m = 4
        for lo in range(m + 1):
            for hi in range(lo, m + 1):
                out, bounds = _play(m, reference, Scenario.INCOMPATIBLE,
                                    3.0, 3.0, lo, hi)
                take_a, take_b = _masks(m, out, bounds, (lo, hi))
                assert not np.any(take_b[:lo]) and not np.any(take_a[hi:])


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

    @pytest.mark.parametrize("name", [sc.value for sc in Scenario])
    def test_rejects_a_scenario_name(self, reference, name):
        # dispatch is by identity: unchecked, "same" would play B on n3,
        # and with n3=4 split 0.6/0.4 at equal prices, not 0.5/0.5
        with pytest.raises(TypeError, match=f"must be a Scenario, got '{name}'"):
            simulate_game(reference.with_values(n3=4.0), name,
                          (3.0, 3.0, 3.0, 3.0), m=100)

    def test_population_argument_is_accepted_and_ignored(self, reference):
        # a run holds no population; the argument is only accepted, so that
        # dataclasses.replace(run, population=None) still copies a run
        run = simulate_game(reference, Scenario.COMPATIBLE,
                            (3.0, 3.0, 4.0, 2.0), m=50)
        assert "population" not in [f.name for f in dataclasses.fields(run)]
        assert "population" not in vars(run)
        assert dataclasses.replace(run, population=None) == run

    def test_agrees_with_closed_forms_off_the_gate(self):
        # n3 != n2, a quality edge and subsidies: parameters the verify gate
        # never varies, checked at its own simulator tolerances
        for p in _off_gate_draws(seed=2024, count=30):
            report = run_verification(p, trials=0, use_oracle=False, m=10000)
            assert report.sim_unconverged == 0
            assert report.ok, report.failures

    def test_lock_in_at_shifted_period_2_prices_off_the_gate(self):
        # away from the harvest prices: the game is period 1, then period 2
        # locked by period 1's lock segment. The firm that raises its price
        # sheds adopters, the locks keep them from the rival's lowered
        # price, and the rival keeps exactly its period-1 base.
        m = 2000
        scenario = Scenario.INCOMPATIBLE
        for p in _off_gate_draws(seed=2024, count=30):
            closed = equilibrium(p, scenario)
            for shift in (0.1 * p.s, -0.1 * p.s):
                prices = (closed.pA1, closed.pB1,
                          closed.pA2 + shift, closed.pB2 - shift)
                run = simulate_game(p, scenario, prices, m=m)
                first, locks = _play(m, p, scenario, *prices[:2], 0, m)
                second, bounds = _play(m, p, scenario, *prices[2:], *locks)
                assert (run.period1, run.period2) == (first, second)
                assert run.revenue_a == first.revenue_a + second.revenue_a
                assert run.revenue_b == first.revenue_b + second.revenue_b
                was_a, was_b = _masks(m, first, locks)
                now_a, now_b = _masks(m, second, bounds, locks)
                assert not np.any(was_a & now_b)
                assert not np.any(was_b & now_a)
                if shift > 0.0:
                    assert second.share_a < first.share_a
                    assert second.share_b == first.share_b
                else:
                    assert second.share_b < first.share_b
                    assert second.share_a == first.share_a

    @pytest.mark.parametrize("prices,problem", [
        ((True, 3.0, 3.0, 3.0), "price pA must be a number, got True"),
        ((3.0, np.True_, 3.0, 3.0), "price pB must be a number, got np.True_"),
        ((3.0, 3.0, "3", 3.0), "price pA must be a number, got '3'"),
        ((3.0, 3.0, 3.0), r"must be four numbers \(pA1, pB1, pA2, pB2\), got 3"),
        ((3.0,) * 5, r"must be four numbers \(pA1, pB1, pA2, pB2\), got 5"),
        ((3.0, 3.0, 3.0, 10 ** 400), "price pB must be finite"),
        ((3.0, 3.0, 3.0, np.float32(3.0)),
         r"price pB must be a number, got np.float32\(3.0\)"),
        ((3.0, 3.0, 10 ** 5000, 3.0), "price pA must be finite: pA=inf$"),
    ])
    def test_rejects_prices_that_are_not_four_numbers(self, reference, prices,
                                                      problem):
        for scenario in Scenario:
            with pytest.raises(ValueError, match=problem):
                simulate_game(reference, scenario, prices, m=100)

    def test_numpy_and_integer_prices_are_numbers(self, reference):
        for scenario in Scenario:
            run = simulate_game(reference, scenario,
                                (np.float64(3.0), np.int64(3), 4, 2), m=100)
            want = simulate_game(reference, scenario, (3.0, 3.0, 4.0, 2.0),
                                 m=100)
            assert (run.period1, run.period2) == (want.period1, want.period2)


class TestRepeatedPeriod:
    @pytest.mark.parametrize("scenario", [Scenario.SAME_CHAIN,
                                          Scenario.COMPATIBLE])
    def test_repeated_prices_give_a_fresh_solve(self, reference, scenario):
        closed = equilibrium(reference, scenario)
        prices = (closed.pA1, closed.pB1, closed.pA2, closed.pB2)
        assert prices[2:] == prices[:2]
        run = simulate_game(reference, scenario, prices, m=10000)
        fresh, _ = _play(10000, reference, scenario, closed.pA2, closed.pB2,
                         0, 10000)
        assert run.period2 == fresh

    @pytest.mark.parametrize("scenario,prices,periods", [
        (Scenario.SAME_CHAIN, (3.0, 3.0, 3.0, 3.0), 1),
        (Scenario.COMPATIBLE, (3.0, 3.0, 3.0, 3.0), 1),
        (Scenario.INCOMPATIBLE, (3.0, 3.0, 3.0, 3.0), 2),
        (Scenario.SAME_CHAIN, (3.0, 3.0, 4.0, 2.0), 2),
        (Scenario.COMPATIBLE, (3.0, 3.0, 4.0, 2.0), 2),
        (Scenario.INCOMPATIBLE, (3.0, 3.0, 4.0, 2.0), 2),
    ])
    def test_period_2_is_solved_only_when_it_can_differ(
            self, reference, monkeypatch, scenario, prices, periods):
        calls = []
        real = sim._play

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sim, "_play", counted)
        simulate_game(reference, scenario, prices, m=100)
        assert len(calls) == periods


# sha256 of _run_digest over the reference and draws100 (gate),
# _off_gate_draws(2024, 100) (wide) and _edge_draws(123, 400) (edge) at
# m = 7, 999 and 10 000: every outcome field of both periods and both
# revenues, floats as float.hex(). A game plays the closed-form prices, and
# again with period 2 shifted by 0.1*s, which locks a part of period 1's
# adopters under lock-in.
RUN_DIGEST = "3ffecaed0e21d97feb06ee3a9bfedcc73add185cc331c28f95db5b06fe1b027b"


def _run_digest(configs, ms):
    digest = hashlib.sha256()
    for m in ms:
        for p in configs:
            for scenario in Scenario:
                closed = equilibrium(p, scenario)
                for shift in (0.0, 0.1 * p.s):
                    run = simulate_game(p, scenario,
                                        (closed.pA1, closed.pB1,
                                         closed.pA2 + shift, closed.pB2 - shift),
                                        m=m)
                    values = [*dataclasses.astuple(run.period1),
                              *dataclasses.astuple(run.period2),
                              run.revenue_a, run.revenue_b]
                    digest.update(" ".join(v.hex() if isinstance(v, float)
                                           else repr(v) for v in values).encode()
                                  + b"\n")
    return digest.hexdigest()


def test_games_match_their_pinned_bits(reference, draws100):
    # A rewrite of the simulator must leave every outcome bitwise as it was.
    configs = ([reference, *draws100] + _off_gate_draws(seed=2024, count=100)
               + _edge_draws(seed=123, count=400))
    assert _run_digest(configs, (7, 999, 10000)) == RUN_DIGEST


def _reference_period(m, p, scenario, pA, pB, locks=None):
    """The simulator's fixed point written plainly: every type's utilities
    inline, fresh arrays each step, np.where locks from the lock masks
    (lock_a, lock_b), a flatnonzero cutoff. Returns the outcome and the
    adopter masks (take_a, take_b)."""
    _, (dist_a, dist_b) = midpoint_types(p, m)
    share_a, share_b = 0.5, 0.5
    take_a = take_b = np.zeros(m, dtype=bool)
    iterations, converged = 0, False
    for _ in range(sim.MAX_FIXED_POINT_ITER):
        iterations += 1
        if scenario is Scenario.SAME_CHAIN:
            network_a = network_b = p.n1 + share_a + share_b
            edge = 0.0
        else:
            network_a = p.n1 + share_a
            base = p.n2 if scenario is Scenario.COMPATIBLE else p.n3
            network_b = base + share_b
            edge = p.d
        uA = p.alpha * network_a - pA - dist_a + p.k
        uB = p.alpha * network_b + edge - pB - dist_b + p.k
        if locks is not None:
            uA = np.where(locks[1], -np.inf, uA)
            uB = np.where(locks[0], -np.inf, uB)
        pick_b = uB >= uA
        take_b = pick_b & (uB >= 0.0)
        take_a = ~pick_b & (uA >= 0.0)
        new_a = np.count_nonzero(take_a) / m
        new_b = np.count_nonzero(take_b) / m
        repeated = new_a == share_a and new_b == share_b
        share_a, share_b = new_a, new_b
        if repeated:
            converged = True
            break
    adopters_a = np.flatnonzero(take_a)
    cutoff = (int(adopters_a[-1]) + 1) / m if adopters_a.size else 0.0
    out = SimOutcome(share_a=share_a, share_b=share_b, cutoff=cutoff,
                     revenue_a=pA * share_a, revenue_b=pB * share_b,
                     iterations=iterations, converged=converged)
    return out, (take_a, take_b)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_matches_the_plain_reference_simulator(reference, draws100, scenario):
    # every outcome field and both revenues are bitwise those of the plain
    # fixed point, at the closed-form prices and, on the lock path, at
    # shifted period-2 prices; period 2 of the reference is always solved
    m = 2000
    configs = [reference] + draws100[:30] + _off_gate_draws(seed=2024, count=30)
    for p in configs:
        closed = equilibrium(p, scenario)
        for shift in (0.0, 0.1 * p.s, -0.1 * p.s):
            prices = (closed.pA1, closed.pB1,
                      closed.pA2 + shift, closed.pB2 - shift)
            first, locks = _reference_period(m, p, scenario, *prices[:2])
            if scenario is not Scenario.INCOMPATIBLE:
                locks = None
            second, _ = _reference_period(m, p, scenario, *prices[2:],
                                          locks=locks)
            run = simulate_game(p, scenario, prices, m=m)
            assert run.period1 == first and run.period2 == second
            assert run.revenue_a == first.revenue_a + second.revenue_a
            assert run.revenue_b == first.revenue_b + second.revenue_b


# a narrow taste spread: prices of 1e300 put every analytic boundary far
# outside the types, and prices near the float range's edge put it past
# that range
TINY_S = ModelParams(alpha=1e-4, s=1e-3, k=0.01, n1=1.0, n2=0.5, n3=0.25,
                     d=1e-4)
PROPERTY_CONFIGS = ([ModelParams(**REFERENCE), TINY_S]
                    + _edge_draws(seed=2026, count=40)
                    + _off_gate_draws(seed=2026, count=10))


@st.composite
def _periods(draw):
    """A config, scenario and m, period-1 prices and period-2 prices that
    are independent or period 1's shifted by up to 5 s."""
    p = draw(st.sampled_from(PROPERTY_CONFIGS))
    span = p.k + p.alpha * p.n1 + p.s + p.d
    price = st.one_of(st.floats(-1.5, 1.5).map(lambda f: f * span),
                      st.sampled_from([-1e300, 1e300, -1.7e308, 1.7e308]),
                      st.floats(allow_nan=False, allow_infinity=False))
    first = (draw(price), draw(price))
    shifted = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(
        lambda shift: (first[0] + shift[0] * p.s, first[1] + shift[1] * p.s))
    second = draw(st.one_of(st.tuples(price, price), shifted))
    m = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 2000)))
    return p, draw(st.sampled_from(list(Scenario))), m, first, second


@settings(max_examples=300, deadline=None)
@given(game=_periods())
@example(game=(TINY_S, Scenario.SAME_CHAIN, 2000, (1e300, -1e300), (-1e300, 1e300)))
@example(game=(TINY_S, Scenario.COMPATIBLE, 3, (-1e300, -1e300), (1e300, 1e300)))
@example(game=(TINY_S, Scenario.INCOMPATIBLE, 1999, (0.0, 0.0), (1e300, -1e300)))
@example(game=(TINY_S, Scenario.COMPATIBLE, 1000, (-1.7e308, 1.7e308),
               (-1.7e308, -1.7e308)))
# alpha = 0 makes utilities exact: at a price of k - 1.875 type 0.625 gets
# exactly 0 from A, and type 0.375 exactly 0 from B
@example(game=(ModelParams(**{**REFERENCE, "alpha": 0.0}), Scenario.SAME_CHAIN,
               4, (18.125, 100.0), (100.0, 100.0)))
@example(game=(ModelParams(**{**REFERENCE, "alpha": 0.0}), Scenario.SAME_CHAIN,
               4, (100.0, 18.125), (100.0, 100.0)))
def test_bitwise_equal_to_the_plain_reference_simulator(game):
    # both periods, period 2 locked by period 1, against the plain fixed
    # point: the reference locks by its own period-1 masks, the simulator by
    # its returned segment, and the masks built from each period's
    # boundaries are the reference's. Every search step is counted, so a
    # walk over the types where the analytic start lands far off fails even
    # when it is right.
    p, scenario, m, first_prices, second_prices = game
    want1, want_locks = _reference_period(m, p, scenario, *first_prices)
    want2, want_takes = _reference_period(m, p, scenario, *second_prices,
                                          locks=want_locks)
    with mock.patch.object(sim, "taste_distances",
                           wraps=model.taste_distances) as evaluated:
        got1, locks = _play(m, p, scenario, *first_prices, 0, m)
        got2, bounds = _play(m, p, scenario, *second_prices, *locks)
    assert (got1, got2) == (want1, want2)
    for got, want in zip(_masks(m, got1, locks) + _masks(m, got2, bounds, locks),
                         want_locks + want_takes):
        assert np.array_equal(got, want)
    # three searches per step (the split, A's exit and B's entry), each the
    # clamped guess, its neighbour and a bisection of what they leave open
    per_search = m.bit_length() + 2
    assert evaluated.call_count <= 3 * per_search * (got1.iterations
                                                     + got2.iterations)
