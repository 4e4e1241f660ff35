import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chain_rivalry import (
    ModelParams,
    Scenario,
    equilibrium,
    oracle_equilibrium,
    period2_monopoly_price,
    stage_demand,
    user_utility,
)
from chain_rivalry import oracle
from chain_rivalry.model import Choice, require_valid
from chain_rivalry.verify import ORACLE_ABS_TOL, ORACLE_QUANTITIES, ORACLE_REL_TOL


class TestPriceGrid:
    def test_default_bounds_cover_all_equilibrium_prices(self, reference):
        prices = oracle._price_grid(reference)
        span = reference.k + reference.alpha * reference.n1 + reference.s
        assert prices[0] == -span
        assert prices[-1] == span
        assert prices.size == 4001
        out = equilibrium(reference, Scenario.INCOMPATIBLE)
        assert prices[0] < out.pA1 < prices[-1]
        assert prices[0] < out.pB2 < prices[-1]

    def test_quality_edge_widens_the_default(self, reference):
        prices = oracle._price_grid(reference.with_values(d=1.5))
        assert prices[-1] == reference.k + reference.alpha * reference.n1 + reference.s + 1.5


def _brute_shares(p, scenario, pA, pB, nA, nB, m=200001):
    """Integrate user choices on a fine type grid, taking the returned shares
    as given; an internally consistent demand must reproduce itself."""
    xs = (np.arange(m) + 0.5) / m
    uA = user_utility(p, scenario, xs, 1, Choice.FIRM_A, pA, pB, nA, nB)
    uB = user_utility(p, scenario, xs, 1, Choice.FIRM_B, pA, pB, nA, nB)
    pick_b = uB >= uA
    best = np.where(pick_b, uB, uA)
    participate = best >= 0.0
    share_a = np.count_nonzero(participate & ~pick_b) / m
    share_b = np.count_nonzero(participate & pick_b) / m
    return share_a, share_b


def _participation_excess(p, pA, pB, total):
    """Shared-chain shares at a conjectured total, minus that total."""
    raw = 0.5 + (pB - pA) / (2.0 * p.s)
    reach_a = (p.k + p.alpha * (p.n1 + total) - pA) / p.s
    reach_b = (p.k + p.alpha * (p.n1 + total) - pB) / p.s
    return (min(max(min(raw, reach_a), 0.0), 1.0)
            + min(max(min(1.0 - raw, reach_b), 0.0), 1.0) - total)


def _participation_kinks(p, pA, pB):
    """Totals in [0, 1] where a shared-chain share meets 0, 1 or its side of
    the indifference point; the excess is linear between them."""
    raw = 0.5 + (pB - pA) / (2.0 * p.s)
    kinks = {0.0, 1.0}
    for price in (pA, pB):
        for level in (0.0, 1.0, raw, 1.0 - raw):
            total = (level * p.s - (p.k + p.alpha * p.n1 - price)) / p.alpha
            if 0.0 < total < 1.0:
                kinks.add(total)
    return sorted(kinks)


def _largest_participation(p, pA, pB):
    """Largest self-consistent shared-chain total, by kink enumeration."""
    kinks = _participation_kinks(p, pA, pB)
    excess = [_participation_excess(p, pA, pB, t) for t in kinks]
    if excess[-1] >= 0.0:
        return 1.0
    i = max(j for j, value in enumerate(excess) if value >= 0.0)
    lo, hi = kinks[i], kinks[i + 1]
    return lo + excess[i] * (hi - lo) / (excess[i] - excess[i + 1])


class TestStageDemand:
    def test_shared_chain_equal_prices(self, reference):
        dem = stage_demand(reference, Scenario.SAME_CHAIN, 3.0, 3.0)
        assert dem == (0.5, 0.5, 0.5, True)
        assert dem.neither == 0.0

    def test_compatible_at_equilibrium_prices(self, reference):
        closed = equilibrium(reference, Scenario.COMPATIBLE)
        dem = stage_demand(reference, Scenario.COMPATIBLE, closed.pA1, closed.pB1)
        assert dem.cutoff == pytest.approx(closed.cutoff1, abs=1e-12)
        assert dem.cutoff == pytest.approx(0.528736, abs=1e-6)
        assert dem.full_participation

    def test_prohibitive_prices_empty_the_market(self, reference):
        high = reference.k + reference.alpha * reference.n1 + reference.s + 1.0
        for scenario in Scenario:
            dem = stage_demand(reference, scenario, high, high)
            assert dem.nA == 0.0
            assert dem.nB == 0.0
            assert not dem.full_participation
            assert dem.neither == 1.0

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_self_consistent_with_user_utility(self, reference, scenario):
        closed = equilibrium(reference, scenario)
        price_pairs = [
            (closed.pA1, closed.pB1),
            (reference.s, reference.s),
            (0.0, 0.0),
            (-5.0, 2.0),
            (reference.k + reference.alpha * reference.n1, reference.s),
            (reference.k, reference.k),
        ]
        for pA, pB in price_pairs:
            dem = stage_demand(reference, scenario, pA, pB)
            share_a, share_b = _brute_shares(reference, scenario, pA, pB,
                                             dem.nA, dem.nB)
            assert share_a == pytest.approx(dem.nA, abs=1e-5)
            assert share_b == pytest.approx(dem.nB, abs=1e-5)

    def test_shared_chain_partial_participation(self, reference):
        # pricing at the stand-alone value strands middle users
        pA = pB = reference.k
        dem = stage_demand(reference, Scenario.SAME_CHAIN, pA, pB)
        assert not dem.full_participation
        assert 0.0 < dem.nA < 0.5
        assert dem.nA == dem.nB
        share_a, share_b = _brute_shares(reference, Scenario.SAME_CHAIN,
                                         pA, pB, dem.nA, dem.nB)
        assert share_a == pytest.approx(dem.nA, abs=1e-5)

    def test_conservation_is_exact_across_price_grids(self, reference):
        # Shares never go negative and never sum past the whole market, with
        # no roundoff allowance, and they match a brute-force user count at
        # a few grid points.
        prices = oracle._price_grid(reference)
        for scenario in Scenario:
            closed = equilibrium(reference, scenario)
            for rival in (closed.pB1, reference.s, 0.0):
                nA, nB, _, _ = oracle._demand(reference, scenario, prices, rival)
                assert np.all(nA >= 0.0) and np.all(nB >= 0.0)
                assert np.all(nA + nB <= 1.0)
                for i in range(1600, 2401, 200):
                    share_a, share_b = _brute_shares(
                        reference, scenario, prices[i], rival, nA[i], nB[i])
                    assert share_a == pytest.approx(nA[i], abs=1e-5)
                    assert share_b == pytest.approx(nB[i], abs=1e-5)

    def test_shared_chain_total_is_exact_near_unit_alpha_over_s(self):
        # alpha/s = 0.98: where one firm's participation bound binds, a
        # fixed-point iteration of the total would converge only at rate
        # alpha/s, so meeting 1e-12 here takes an exact solve.
        p = ModelParams(alpha=1.0, s=1.0201, k=12.0, n1=0.01, n2=0.0, n3=0.0)
        require_valid(p)
        prices = np.linspace(10.0, 14.0, 401)
        partial = 0
        for rival in np.linspace(11.0, 14.0, 31):
            nA, nB, _, _ = oracle._demand(p, Scenario.SAME_CHAIN, prices, rival)
            for own, total in zip(prices, nA + nB):
                if total < 1.0:
                    partial += 1
                    assert total == pytest.approx(
                        _largest_participation(p, own, rival), abs=1e-12)
        assert partial > 3000

    @settings(max_examples=300, deadline=None)
    @given(n1=st.floats(0.01, 3.0), s=st.floats(0.5, 5.0),
           alpha_frac=st.floats(0.01, 0.999), k_frac=st.floats(1.01, 2.0),
           surplus=st.floats(-1.5, 2.0), gap=st.floats(-3.0, 3.0),
           tie=st.booleans())
    # alpha = 1, alpha/s = 0.98, A alone on its participation bound.
    @example(n1=0.01, s=1.0201, alpha_frac=1.02 / 1.0201, k_frac=1.5,
             surplus=0.005, gap=1.2, tie=False)
    # s < 2*alpha at equal prices, on both sides of coverage.
    @example(n1=0.2, s=1.5, alpha_frac=1.4 / 1.5, k_frac=1.2,
             surplus=0.3, gap=0.0, tie=True)
    @example(n1=0.2, s=1.5, alpha_frac=1.4 / 1.5, k_frac=1.2,
             surplus=-0.3, gap=0.0, tie=True)
    def test_shared_chain_total_is_the_largest_fixed_point(
            self, n1, s, alpha_frac, k_frac, surplus, gap, tie):
        # Prices sit around the stand-alone reach k + alpha*n1, so covered,
        # partial and empty markets all occur; |gap| > 1 puts the
        # indifference point outside [0, 1], and n1 < 0.5 allows s <= 2*alpha.
        alpha = alpha_frac * s / (2.0 * n1 + 1.0)
        k = k_frac * (4.0 * s + 4.0 * alpha * (1.0 + n1))
        p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=0.0, n3=0.0)
        require_valid(p)
        pA = p.k + p.alpha * p.n1 - surplus * p.s
        pB = pA if tie else pA + gap * p.s

        dem = stage_demand(p, Scenario.SAME_CHAIN, pA, pB)
        total = dem.nA + dem.nB

        assert 0.0 <= dem.nA <= 1.0 and 0.0 <= dem.nB <= 1.0
        assert abs(_participation_excess(p, pA, pB, total)) <= 1e-12
        for t in _participation_kinks(p, pA, pB):
            if t > total + 1e-9:
                assert _participation_excess(p, pA, pB, t) < 0.0


class TestLockinMonopolyScan:
    def test_full_retention_corner_at_reference(self, reference):
        closed = equilibrium(reference, Scenario.INCOMPATIBLE)
        price, retained = period2_monopoly_price(reference, "A", closed.nA1)
        assert price == pytest.approx(19.45, abs=1e-6)
        assert retained == pytest.approx(closed.nA1, abs=1e-6)
        price_b, retained_b = period2_monopoly_price(reference, "B", closed.nB1)
        assert price_b == pytest.approx(19.15, abs=1e-6)
        assert retained_b == pytest.approx(closed.nB1, abs=1e-6)

    def test_full_market_corner(self, reference):
        price, retained = period2_monopoly_price(reference, "A", 1.0)
        expected = reference.k + reference.alpha * reference.n1 \
            + reference.alpha - reference.s
        assert price == pytest.approx(expected, abs=1e-6)
        assert retained == pytest.approx(1.0, abs=1e-9)

    def test_interior_optimum_when_value_is_low(self, reference):
        # k far below the participation bound: the seller prefers shedding
        # part of the locked base at the unconstrained vertex price
        p = reference.with_values(k=2.0)
        price, retained = period2_monopoly_price(p, "A", 1.0)
        k_a = p.k + p.alpha * p.n1
        assert price == pytest.approx(k_a / 2.0, abs=1e-6)
        assert retained == pytest.approx(k_a / (2.0 * (p.s - p.alpha)), abs=1e-6)
        assert retained < 1.0

    def test_entrant_scan_includes_quality_edge(self, reference):
        p = reference.with_values(d=0.6)
        price, _ = period2_monopoly_price(p, "B", 0.5)
        expected = p.k + p.alpha * p.n3 + p.d + (p.alpha - p.s) * 0.5
        assert price == pytest.approx(expected, abs=1e-6)

    def test_rejects_bad_inputs(self, reference):
        with pytest.raises(ValueError, match="n_first"):
            period2_monopoly_price(reference, "A", 0.0)
        with pytest.raises(ValueError, match="firm"):
            period2_monopoly_price(reference, "C", 0.5)

    def test_harvest_is_continuous_and_worthless_without_a_base(self):
        K, u = 10.0, 20.0  # the regimes meet at n = K/(2u) = 0.25
        n = np.array([0.0, 0.25 - 1e-12, 0.25, 0.25 + 1e-12, 0.8])
        price, retained = oracle._lockin_harvest(K, u, n)
        value = price * retained
        assert value[0] == 0.0
        assert value[1:] == pytest.approx(K * K / (4.0 * u), rel=1e-10)
        assert (price[-1], retained[-1]) == (K / 2.0, K / (2.0 * u))
        price, retained = oracle._lockin_harvest(-1.0, u, np.array([0.0, 0.5]))
        assert np.all(retained == 0.0)
        assert np.all(price * retained == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(0.5, 20.0), alpha_frac=st.floats(0.01, 0.99),
           n1=st.floats(1.0, 50.0), n3_frac=st.floats(0.0, 0.99),
           k_frac=st.floats(0.001, 2.0), d=st.floats(0.0, 5.0),
           firm=st.sampled_from("AB"), n_first=st.floats(0.001, 1.0))
    # k far below the participation bound: the vertex regime for both firms.
    @example(s=3.0, alpha_frac=0.5, n1=10.0, n3_frac=0.5, k_frac=0.01, d=0.0,
             firm="A", n_first=1.0)
    @example(s=3.0, alpha_frac=0.5, n1=10.0, n3_frac=0.5, k_frac=0.01, d=0.0,
             firm="B", n_first=0.8)
    def test_attains_the_brute_force_harvest(self, s, alpha_frac, n1, n3_frac,
                                             k_frac, d, firm, n_first):
        # k ranges from far below the participation bound 4s + 4alpha(1 + n1
        # + n3) to twice it, so both the corner and the vertex regime occur.
        alpha = alpha_frac * s / (2.0 * n1 + 1.0)
        n3 = n3_frac * n1
        k = k_frac * (4.0 * s + 4.0 * alpha * (1.0 + n1 + n3))
        p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n3, n3=n3, d=d)
        K = p.k + p.alpha * (p.n1 if firm == "A" else p.n3) \
            + (p.d if firm == "B" else 0.0)
        u = p.s - p.alpha

        price, retained = period2_monopoly_price(p, firm, n_first)

        assert retained <= n_first
        assert retained == pytest.approx(min((K - price) / u, n_first),
                                         rel=1e-12, abs=1e-12 * K / u)
        prices = np.linspace(0.0, K, 20001)
        values = prices * np.minimum((K - prices) / u, n_first)
        step = prices[1] - prices[0]
        best = int(np.argmax(values))
        assert abs(price - prices[best]) <= step
        assert price * retained >= values[best] * (1.0 - 1e-12)


class TestOneStageNash:
    """oracle_equilibrium on the scenarios without lock-in."""

    def test_shared_chain_reference(self, reference):
        res = oracle_equilibrium(reference, Scenario.SAME_CHAIN)
        assert res.converged
        assert res.pA1 == pytest.approx(3.0, abs=1e-8)
        assert res.pB1 == pytest.approx(3.0, abs=1e-8)
        assert res.profitA == pytest.approx(3.0, abs=1e-8)

    def test_compatible_reference(self, reference):
        closed = equilibrium(reference, Scenario.COMPATIBLE)
        res = oracle_equilibrium(reference, Scenario.COMPATIBLE)
        assert res.converged
        assert res.pA1 == pytest.approx(closed.pA1, abs=1e-8)
        assert res.pB1 == pytest.approx(closed.pB1, abs=1e-8)
        assert res.cutoff1 == pytest.approx(closed.cutoff1, abs=1e-8)
        assert res.profitA == pytest.approx(closed.profitA, abs=1e-8)
        assert res.profitB == pytest.approx(closed.profitB, abs=1e-8)

    def test_periods_repeat_the_stage(self, reference):
        for scenario in (Scenario.SAME_CHAIN, Scenario.COMPATIBLE):
            res = oracle_equilibrium(reference, scenario)
            assert res.pA2 == res.pA1
            assert res.pB2 == res.pB1
            assert res.cutoff2 == res.cutoff1
            assert (res.nA2, res.nB2) == (res.nA1, res.nB1)

    @pytest.mark.parametrize("scenario", [Scenario.SAME_CHAIN, Scenario.COMPATIBLE],
                             ids=lambda sc: sc.value)
    def test_symmetric_game_lands_symmetric(self, reference, scenario):
        p = reference.with_values(n2=reference.n1)
        res = oracle_equilibrium(p, scenario)
        assert res.converged
        assert abs(res.pA1 - res.pB1) < 1e-9

    def test_converged_implies_residual_below_step(self, reference, draws25):
        for p in [reference, *draws25[:5]]:
            res = oracle_equilibrium(p, Scenario.COMPATIBLE)
            assert res.converged
            prices = oracle._price_grid(p)
            assert res.residual <= prices[1] - prices[0]

    def test_sweep_exhaustion_reported_not_raised(self, reference, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ROUNDS", 0)
        res = oracle_equilibrium(reference, Scenario.COMPATIBLE)
        assert not res.converged
        assert res.iterations == 0


class TestTwoStageNash:
    """oracle_equilibrium on the lock-in game."""

    def test_reference_against_closed_form(self, reference):
        closed = equilibrium(reference, Scenario.INCOMPATIBLE)
        res = oracle_equilibrium(reference, Scenario.INCOMPATIBLE)
        assert res.converged
        assert res.pA1 == pytest.approx(closed.pA1, abs=1e-6)
        assert res.pB1 == pytest.approx(closed.pB1, abs=1e-6)
        assert res.pA2 == pytest.approx(closed.pA2, abs=1e-6)
        assert res.pB2 == pytest.approx(closed.pB2, abs=1e-6)
        assert res.cutoff1 == pytest.approx(closed.cutoff1, abs=1e-6)
        assert res.profitA == pytest.approx(closed.profitA, abs=1e-6)
        assert res.profitB == pytest.approx(closed.profitB, abs=1e-6)

    def test_reference_point_decimals(self, reference):
        res = oracle_equilibrium(reference, Scenario.INCOMPATIBLE)
        assert res.pA1 == pytest.approx(-14.8, abs=1e-3)
        assert res.pB1 == pytest.approx(-15.1, abs=1e-3)
        assert res.profitA == pytest.approx(2.485345, abs=1e-3)
        assert res.profitB == pytest.approx(1.885345, abs=1e-3)

    def test_stand_alone_value_only_shifts_discounts(self, reference):
        base = oracle_equilibrium(reference, Scenario.INCOMPATIBLE)
        moved = oracle_equilibrium(reference.with_values(k=reference.k + 1.0),
                                   Scenario.INCOMPATIBLE)
        assert moved.pA1 == pytest.approx(base.pA1 - 1.0, abs=1e-3)
        assert moved.pB1 == pytest.approx(base.pB1 - 1.0, abs=1e-3)
        assert moved.profitA == pytest.approx(base.profitA, abs=1e-3)
        assert moved.profitB == pytest.approx(base.profitB, abs=1e-3)

    def test_symmetric_bases_land_symmetric(self, reference):
        p = reference.with_values(n3=reference.n1)
        res = oracle_equilibrium(p, Scenario.INCOMPATIBLE)
        assert abs(res.pA1 - res.pB1) < 1e-6
        assert abs(res.profitA - res.profitB) < 1e-6

    def test_retention_equals_first_period_base(self, reference):
        res = oracle_equilibrium(reference, Scenario.INCOMPATIBLE)
        assert res.nA2 == pytest.approx(res.nA1, abs=1e-6)
        assert res.nB2 == pytest.approx(res.nB1, abs=1e-6)
        # Period 2 is reported by the lock-in monopoly at the period-1 bases.
        assert (res.pA2, res.nA2) == period2_monopoly_price(reference, "A", res.nA1)
        assert (res.pB2, res.nB2) == period2_monopoly_price(reference, "B", res.nB1)


class TestOracleDispatch:
    def test_matches_closed_form_on_a_few_draws(self, draws25):
        for p in draws25[:8]:
            for scenario in Scenario:
                closed = equilibrium(p, scenario)
                found = oracle_equilibrium(p, scenario)
                assert found.converged
                for name in ("pA1", "pB1", "pA2", "pB2", "cutoff1",
                             "profitA", "profitB"):
                    ref = getattr(closed, name)
                    got = getattr(found, name)
                    assert abs(ref - got) <= max(1e-4, 1e-3 * abs(ref)), \
                        f"{scenario.value} {name}: closed {ref} vs oracle {got}"


def _off_gate_draws(seed, count):
    """Draws the verify gate never makes: distinct rival bases n2 and n3, a
    quality edge d in [0, 0.95 x the corner bound) and nonzero subsidies,
    with k above the participation bound for the larger rival base."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        n1 = float(rng.uniform(1.0, 50.0))
        n2, n3 = (float(v) for v in rng.uniform(0.0, n1, size=2))
        s = float(rng.uniform(0.5, 20.0))
        alpha = float(rng.uniform(0.0, s / (2.0 * n1 + 1.0)))
        if alpha == 0.0:
            continue
        bound = 4.0 * s + 4.0 * alpha * (1.0 + n1 + max(n2, n3))
        k = bound * (2.0 - float(rng.uniform(0.0, 1.0)))
        u = s - alpha
        corner = min(3.0 * u + alpha * (n1 - n2), 2.5 * u + alpha * (n1 - n3))
        p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n2, n3=n3,
                        d=float(rng.uniform(0.0, 0.95 * corner)),
                        subsidy_p2=float(rng.uniform(0.01, 2.0)),
                        subsidy_p3=float(rng.uniform(0.01, 2.0)))
        require_valid(p)
        draws.append(p)
    return draws


class TestJointPolish:
    MAX_POLISH = 6

    def _count_demand_calls(self, monkeypatch):
        calls = [0]
        real = oracle._demand

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "_demand", counted)
        return calls

    def test_polish_stops_within_a_few_rounds(self, reference, draws25,
                                              monkeypatch):
        calls = self._count_demand_calls(monkeypatch)
        for p in [reference, *draws25[:8]]:
            for scenario in Scenario:
                calls[0] = 0
                res = oracle_equilibrium(p, scenario)
                assert res.converged
                assert res.iterations == 1
                # Two certificate scans, one 5-point stencil per firm per
                # polish step, one demand evaluation at the solution.
                budget = 2 + 2 * self.MAX_POLISH + 1
                assert calls[0] <= budget, (scenario.value, calls[0], budget)

    PRICES = np.linspace(-100.0, 100.0, 2001)

    @staticmethod
    def _linear_demand_game(a, b, c, e):
        # Profit own * (intercept - own + slope * rival) for both firms.
        return (lambda own, rival: own * (a - own + b * rival),
                lambda own, rival: own * (c - own + e * rival))

    def test_one_step_solves_a_quadratic_game(self):
        a, b, c, e = 3.0, 0.5, 2.0, 0.8
        obj_a, obj_b = self._linear_demand_game(a, b, c, e)
        pA, pB = oracle._polish_step(self.PRICES, obj_a, obj_b, 0.0, 0.0, 0.1)
        assert pA == pytest.approx((2 * a + b * c) / (4 - b * e), abs=1e-10)
        assert pB == pytest.approx((2 * c + e * a) / (4 - b * e), abs=1e-10)

    def test_dominant_cross_terms_fall_back_to_own_vertices(self):
        a, b, c, e = 3.0, 3.0, 2.0, 3.0  # 4 - b*e < 0: no joint maximum
        obj_a, obj_b = self._linear_demand_game(a, b, c, e)
        pA, pB = oracle._polish_step(self.PRICES, obj_a, obj_b, 1.0, 2.0, 0.1)
        assert pA == pytest.approx((a + b * 2.0) / 2, abs=1e-10)
        assert pB == pytest.approx((c + e * 1.0) / 2, abs=1e-10)

    def test_convex_firm_stays_put_and_steps_stay_on_the_grid(self):
        obj_a = lambda own, rival: own * own
        obj_b = lambda own, rival: own * (1e6 - own)
        pA, pB = oracle._polish_step(self.PRICES, obj_a, obj_b, 7.0, 0.0, 0.1)
        assert pA == pytest.approx(7.0, abs=1e-12)
        assert pB == self.PRICES[-1]

    def test_certificate_rejects_a_local_best_response(self, monkeypatch):
        # B's profit has one peak at 1. A's has a local peak at 2, where the
        # polish from the start settles, and a higher one at 60 that only
        # the grid scan sees.
        obj_a = lambda own, rival: np.maximum(-(own - 2.0) ** 2,
                                              10.0 - (own - 60.0) ** 2)
        obj_b = lambda own, rival: -(own - 1.0) ** 2
        assert oracle._polish_step(self.PRICES, obj_a, obj_b, 0.0, 0.0, 0.1) \
            == pytest.approx((2.0, 1.0), abs=1e-12)

        pA, pB, rounds, residual, converged = oracle._solve_game(
            self.PRICES, obj_a, obj_b, (0.0, 0.0))
        assert converged
        assert rounds == 2
        assert pA == pytest.approx(60.0, abs=1e-12)
        assert pB == pytest.approx(1.0, abs=1e-12)
        assert residual <= 1e-13

        monkeypatch.setattr(oracle, "MAX_ROUNDS", 1)
        *_, converged = oracle._solve_game(self.PRICES, obj_a, obj_b, (0.0, 0.0))
        assert not converged

    def test_polish_lands_on_the_grid_free_equilibrium(self, reference):
        # Off-grid closed-form prices are met to roundoff, far below the grid
        # step of about 0.012.
        for scenario in (Scenario.COMPATIBLE, Scenario.INCOMPATIBLE):
            closed = equilibrium(reference, scenario)
            res = oracle_equilibrium(reference, scenario)
            assert res.pA1 == pytest.approx(closed.pA1, abs=1e-9)
            assert res.pB1 == pytest.approx(closed.pB1, abs=1e-9)
            assert res.residual <= 1e-9

    def test_agrees_with_closed_forms_off_the_gate(self):
        for p in _off_gate_draws(seed=2024, count=30):
            for scenario in Scenario:
                closed = equilibrium(p, scenario)
                found = oracle_equilibrium(p, scenario)
                assert found.converged
                for name in ORACLE_QUANTITIES:
                    ref = float(getattr(closed, name))
                    got = float(getattr(found, name))
                    assert abs(ref - got) <= max(ORACLE_ABS_TOL,
                                                 ORACLE_REL_TOL * abs(ref)), \
                        f"{scenario.value} {name}: closed {ref} vs oracle {got} at {p}"


class TestOracleOutcome:
    FILLED = ("profitA1", "profitA2", "profitB1", "profitB2",
              "profitB_with_subsidy")

    def test_per_period_and_subsidy_payoffs_match_closed_forms(self):
        # The family carries nonzero subsidies, so profitB_with_subsidy
        # crosses routes through each scenario's own subsidy term.
        for p in _off_gate_draws(seed=2024, count=30):
            for scenario in Scenario:
                closed = equilibrium(p, scenario)
                found = oracle_equilibrium(p, scenario)
                assert found.scenario is scenario
                for name in self.FILLED:
                    ref = float(getattr(closed, name))
                    got = float(getattr(found, name))
                    assert abs(ref - got) <= max(ORACLE_ABS_TOL,
                                                 ORACLE_REL_TOL * abs(ref)), \
                        f"{scenario.value} {name}: closed {ref} vs oracle {got}"

