import ast
import hashlib
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chain_rivalry import oracle
from chain_rivalry.closed_form import CornerEquilibriumError, equilibrium
from chain_rivalry.model import ModelParams, Scenario, require_valid, validate_params
from chain_rivalry.oracle import GAIN_TOL, oracle_equilibrium, period2_monopoly_price
from chain_rivalry.verify import ORACLE_ABS_TOL, ORACLE_QUANTITIES, ORACLE_REL_TOL
from conftest import (EDGE_GAMES, EXACT_CONFIGS, GATE_GAMES, NUMERIC, REFERENCE_GAME,
                      WIDE_GAMES, brute_shares, draws, exact_oracle, game, games,
                      grid_prices, oracle_outcome, without_equilibrium_lines)


def _demand_pair_by_pair(p, scenario, pA, pB):
    """oracle._demand on each pair of the broadcast prices alone, as
    Python floats, stacked like the batch result."""
    pA, pB = np.broadcast_arrays(pA, pB)
    out = np.empty((3, *pA.shape))
    for i in np.ndindex(pA.shape):
        out[(slice(None), *i)] = oracle._demand(p, scenario, float(pA[i]), float(pB[i]))
    return out


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
        nA, nB, cutoff = oracle._demand(reference, Scenario.SAME_CHAIN, 3.0, 3.0)
        assert (nA, nB, cutoff, nA + nB == 1.0) == (0.5, 0.5, 0.5, True)
        assert 1.0 - (nA + nB) == 0.0

    def test_compatible_at_equilibrium_prices(self, reference):
        closed = equilibrium(reference, Scenario.COMPATIBLE)
        nA, nB, cutoff = oracle._demand(reference, Scenario.COMPATIBLE,
                                        closed.pA1, closed.pB1)
        assert cutoff == pytest.approx(closed.cutoff1, abs=1e-12)
        assert cutoff == pytest.approx(0.528736, abs=1e-6)
        assert nA + nB == 1.0

    def test_prohibitive_prices_empty_the_market(self, reference):
        high = reference.k + reference.alpha * reference.n1 + reference.s + 1.0
        for scenario in Scenario:
            nA, nB, _ = oracle._demand(reference, scenario, high, high)
            assert nA == 0.0
            assert nB == 0.0
            assert not nA + nB == 1.0
            assert 1.0 - (nA + nB) == 1.0

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
            nA, nB, _ = oracle._demand(reference, scenario, pA, pB)
            share_a, share_b = brute_shares(reference, scenario, pA, pB, nA, nB)
            assert share_a == pytest.approx(nA, abs=1e-5)
            assert share_b == pytest.approx(nB, abs=1e-5)

    def test_shared_chain_partial_participation(self, reference):
        # pricing at the stand-alone value strands middle users
        pA = pB = reference.k
        nA, nB, _ = oracle._demand(reference, Scenario.SAME_CHAIN, pA, pB)
        assert not nA + nB == 1.0
        assert 0.0 < nA < 0.5
        assert nA == nB
        share_a, share_b = brute_shares(reference, Scenario.SAME_CHAIN,
                                         pA, pB, nA, nB)
        assert share_a == pytest.approx(nA, abs=1e-5)

    @settings(max_examples=300, deadline=None)
    @given(n1=st.floats(1.0, 50.0), n2_frac=st.floats(0.0, 1.0, exclude_max=True),
           n3_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           s=st.floats(0.5, 20.0), alpha_frac=st.floats(0.01, 0.999),
           k_frac=st.floats(1.0, 1.01, exclude_min=True),
           d_frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_markets_stay_covered_when_n3_exceeds_n2(
            self, n1, n2_frac, n3_frac, s, alpha_frac, k_frac, d_frac):
        # assumption_1_2 bounds k through n2 alone; with k just above that
        # bound and n3 > n2, every interior equilibrium still serves every
        # user at its period-1 prices.
        n2 = n2_frac * n1
        n3 = n2 + n3_frac * (n1 - n2)
        alpha = alpha_frac * s / (2.0 * n1 + 1.0)
        k = k_frac * (4.0 * s + 4.0 * alpha * (1.0 + n1 + n2))
        u = s - alpha
        d = d_frac * max(3.0 * u + alpha * (n1 - n2), 2.5 * u + alpha * (n1 - n3))
        p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n2, n3=n3, d=d)
        assume(n3 > n2 and validate_params(p).ok)
        for scenario in Scenario:
            try:
                out = equilibrium(p, scenario)
            except CornerEquilibriumError:
                continue
            nA, nB, _ = oracle._demand(p, scenario, out.pA1, out.pB1)
            assert nA + nB == 1.0

    def test_conservation_is_exact_across_price_grids(self, reference):
        # Shares never go negative and never sum past the whole market, with
        # no roundoff allowance, and they match a brute-force user count at
        # a few grid points.
        prices = grid_prices(reference)
        for scenario in Scenario:
            closed = equilibrium(reference, scenario)
            for rival in (closed.pB1, reference.s, 0.0):
                nA, nB, _ = oracle._demand(reference, scenario, prices, rival)
                assert np.all(nA >= 0.0) and np.all(nB >= 0.0)
                assert np.all(nA + nB <= 1.0)
                for i in range(1600, 2401, 200):
                    share_a, share_b = brute_shares(
                        reference, scenario, prices[i], rival, nA[i], nB[i])
                    assert share_a == pytest.approx(nA[i], abs=1e-5)
                    assert share_b == pytest.approx(nB[i], abs=1e-5)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_stacked_prices_match_separate_calls(self, reference, scenario):
        # The certificate evaluates every candidate and its deviations in
        # one call, so a batch must give each price pair exactly what it
        # gets alone.
        # The first half sits near the equilibrium, where the market is
        # covered; the second half near the stand-alone reach, where the
        # shared chain is short of coverage and its shares are taken at the
        # short total, not at 1.
        rng = np.random.default_rng(5)
        reach = reference.k + reference.alpha * reference.n1
        pA1, pB1 = rng.uniform(-1.0, 4.0, size=(2, 40))
        pA2, pB2 = reach + rng.uniform(-2.0, 1.0, size=(2, 40))
        first = oracle._demand(reference, scenario, pA1, pB1)
        second = oracle._demand(reference, scenario, pA2, pB2)
        stacked = oracle._demand(reference, scenario, np.concatenate((pA1, pA2)),
                                 np.concatenate((pB1, pB2)))
        for one, two, both in zip(first, second, stacked):
            assert np.array_equal(both, np.concatenate((one, two)))
        if scenario is Scenario.SAME_CHAIN:
            assert not np.any(first[0] + first[1] < 1.0)
            assert np.any(second[0] + second[1] < 1.0)

        # Every shape the certificate and the tests pass: the certificate's
        # (rows, candidates) layout, a row against a column, a scalar
        # against an array in either order, and 0-d prices. Each element
        # must be what the pair gets alone, also where s <= 2*alpha and the
        # both-sell total does not exist.
        for p in (reference, _low_k(reference)[-1]):
            pA, pB = (p.k + p.alpha * p.n1
                      + p.s * rng.uniform(-2.0, 1.0, size=(2, 6, 7)))
            for a, b in ((pA, pB), (pA[:, :1], pB[0]), (float(pA[0, 0]), pB),
                         (pA, float(pB[0, 0])), (pA[1, 1], pB[1, 1]),
                         (np.asarray(pA[2, 2]), np.asarray(pB[2, 2]))):
                alone = _demand_pair_by_pair(p, scenario, a, b)
                for got, want in zip(oracle._demand(p, scenario, a, b), alone):
                    assert np.shape(got) == want.shape
                    assert np.asarray(got).tobytes() == want.tobytes()
                    assert want.shape or isinstance(got, float)  # not a 0-d array
            if scenario is Scenario.SAME_CHAIN:
                nA, nB, _ = oracle._demand(p, scenario, pA, pB)
                assert 0 < np.count_nonzero(nA + nB < 1.0) < nA.size

    def test_shared_chain_total_is_exact_near_unit_alpha_over_s(self):
        # alpha/s = 0.98: where one firm's participation bound binds, a
        # fixed-point iteration of the total would converge only at rate
        # alpha/s, so meeting 1e-12 here takes an exact solve.
        p = ModelParams(alpha=1.0, s=1.0201, k=12.0, n1=0.01, n2=0.0, n3=0.0)
        require_valid(p)
        prices = np.linspace(10.0, 14.0, 401)
        partial = 0
        for rival in np.linspace(11.0, 14.0, 31):
            nA, nB, _ = oracle._demand(p, Scenario.SAME_CHAIN, prices, rival)
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

        nA, nB, _ = oracle._demand(p, Scenario.SAME_CHAIN, pA, pB)
        total = nA + nB

        assert 0.0 <= nA <= 1.0 and 0.0 <= nB <= 1.0
        assert abs(_participation_excess(p, pA, pB, total)) <= 1e-12
        for t in _participation_kinks(p, pA, pB):
            if t > total + 1e-9:
                assert _participation_excess(p, pA, pB, t) < 0.0

    def test_shared_chain_short_of_coverage_every_seller_is_at_its_reach(
            self, reference):
        # The premise that drops the raw lines short of coverage from
        # oracle._lines: the indifferent type values both firms equally, so
        # where nA + nB < 1 no share is held by its side of the indifference
        # point. Every positive share is its reach at the realized total,
        # (k + alpha*(n1 + nA + nB) - price)/s to roundoff, and below 1.
        # Where s <= 2*alpha the both-sell total does not exist.
        rng = np.random.default_rng(17)
        low_k = _low_k(reference)
        configs = [*low_k, *(q.with_values(k=f * q.s) for q in low_k[:3]
                             for f in (0.01, 30.0)),
                   *draws("edge", 5, 40)]
        short_points = 0
        for p in configs:
            if p.s <= 2.0 * p.alpha:
                continue
            R = p.k + p.alpha * p.n1
            own, rival = rng.uniform(-R, 3.0 * R, (200, 1)), rng.uniform(-R, 3.0 * R, 200)
            nA, nB, _ = oracle._demand(p, Scenario.SAME_CHAIN, own, rival)
            short = nA + nB < 1.0
            short_points += int(np.count_nonzero(short))
            for share, price in ((nA, own + 0.0 * rival), (nB, rival + 0.0 * own)):
                sells = short & (share > 0.0)
                total = (nA + nB)[sells]
                reach = (p.k + p.alpha * (p.n1 + total) - price[sells]) / p.s
                terms = (R + p.alpha * total + np.abs(price[sells])) / p.s
                assert np.all(np.abs(share[sells] - reach) <= 1e-15 * terms), p
                assert np.all(share[sells] < 1.0), p
        assert short_points > 100000


class TestLockinMonopolyScan:
    def test_full_retention_corner_at_reference(self, reference):
        closed = equilibrium(reference, Scenario.INCOMPATIBLE)
        (price, price_b), (retained, retained_b) = period2_monopoly_price(
            reference, (closed.nA1, closed.nB1))
        assert price == pytest.approx(19.45, abs=1e-6)
        assert retained == pytest.approx(closed.nA1, abs=1e-6)
        assert price_b == pytest.approx(19.15, abs=1e-6)
        assert retained_b == pytest.approx(closed.nB1, abs=1e-6)

    def test_full_market_corner(self, reference):
        (price, _), (retained, _) = period2_monopoly_price(reference, (1.0, 0.0))
        expected = reference.k + reference.alpha * reference.n1 \
            + reference.alpha - reference.s
        assert price == pytest.approx(expected, abs=1e-6)
        assert retained == pytest.approx(1.0, abs=1e-9)

    def test_interior_optimum_when_value_is_low(self, reference):
        # k far below the participation bound: the seller prefers shedding
        # part of the locked base at the unconstrained vertex price
        p = reference.with_values(k=2.0)
        (price, _), (retained, _) = period2_monopoly_price(p, (1.0, 0.0))
        k_a = p.k + p.alpha * p.n1
        assert price == pytest.approx(k_a / 2.0, abs=1e-6)
        assert retained == pytest.approx(k_a / (2.0 * (p.s - p.alpha)), abs=1e-6)
        assert retained < 1.0

    def test_entrant_scan_includes_quality_edge(self, reference):
        p = reference.with_values(d=0.6)
        (_, price), _ = period2_monopoly_price(p, (0.0, 0.5))
        expected = p.k + p.alpha * p.n3 + p.d + (p.alpha - p.s) * 0.5
        assert price == pytest.approx(expected, abs=1e-6)

    def test_an_empty_base_is_priced_at_zero_for_that_firm_only(self, reference):
        # period 2 of a game in which one firm sold nothing in period 1
        alone = period2_monopoly_price(reference, (0.3, 0.4))
        for firm in (0, 1):
            shares = [0.3, 0.4]
            shares[firm] = 0.0
            price, retained = period2_monopoly_price(reference, shares)
            assert (price[firm], retained[firm]) == (0.0, 0.0)
            assert (price[1 - firm], retained[1 - firm]) == \
                (alone[0][1 - firm], alone[1][1 - firm])
            assert price[1 - firm] > 0.0 and retained[1 - firm] > 0.0

    def test_harvest_is_continuous_and_worthless_without_a_base(self):
        # K = k + alpha*n1 = 10 for A and k + alpha*n3 + d = 10 for B, u = 20
        p = ModelParams(alpha=1.0, s=21.0, k=9.0, n1=1.0, n2=1.0, n3=1.0)
        K, u = 10.0, 20.0  # the regimes meet at n = K/(2u) = 0.25
        n = np.array([0.0, 0.25 - 1e-12, 0.25, 0.25 + 1e-12, 0.8])
        price, retained = period2_monopoly_price(p, (n, n))
        value = price * retained
        assert np.all(value[:, 0] == 0.0)
        assert value[:, 1:] == pytest.approx(K * K / (4.0 * u), rel=1e-10)
        assert np.all(price[:, -1] == K / 2.0)
        assert np.all(retained[:, -1] == K / (2.0 * u))
        # The value is C^1 at the kink: its slope K - 2u*n is 0 there from
        # both sides, so the kink is no breakpoint of a lock-in objective.
        # A one-sided three-point slope is exact on a quadratic piece; below
        # the kink, at n = 0.1, it reads K - 2u*n = 6.
        h = 1e-3
        for at, slope in ((0.25, 0.0), (0.1, 6.0)):
            n = at + h * np.arange(-2.0, 3.0)
            f = np.prod(period2_monopoly_price(p, (n, n)), axis=0)
            left = (3.0 * f[:, 2] - 4.0 * f[:, 1] + f[:, 0]) / (2.0 * h)
            right = (4.0 * f[:, 3] - 3.0 * f[:, 2] - f[:, 4]) / (2.0 * h)
            assert np.all(np.abs(left - slope) <= 1e-10 * K), (at, left)
            assert np.all(np.abs(right - slope) <= 1e-10 * K), (at, right)
        price, retained = period2_monopoly_price(p.with_values(k=-2.0),  # K = -1
                                                 np.array([[0.0, 0.5]] * 2))
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

        harvest = period2_monopoly_price(p, (n_first, n_first))
        price, retained = (float(x["AB".index(firm)]) for x in harvest)

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

    def test_converged_implies_residual_within_tolerance(self, reference, draws25):
        for p in [reference, *draws25[:5]]:
            res = oracle_equilibrium(p, Scenario.COMPATIBLE)
            assert res.converged
            assert res.iterations == 1
            assert 0.0 <= res.residual <= GAIN_TOL

    def test_no_certified_pair_reported_not_raised(self, reference, monkeypatch):
        without_equilibrium_lines(monkeypatch)
        res = oracle_equilibrium(reference, Scenario.COMPATIBLE)
        assert not res.converged
        assert res.iterations == 0
        assert res.residual > GAIN_TOL

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 13: on this valid compatible "
                       "corner the search certifies no pair (residual "
                       "0.17), and the closed form raises "
                       "CornerEquilibriumError")
    def test_a_compatible_corner_converges(self):
        p = ModelParams(alpha=0.2714459423563059, s=6.426401565732801,
                        k=35.33343920986386, n1=4.797400517128224,
                        n2=0.634326807690309, n3=0.8840276883031729,
                        d=29.392374504429934)
        require_valid(p)
        assert oracle_equilibrium(p, Scenario.COMPATIBLE).converged


class TestTwoStageNash:
    """oracle_equilibrium on the lock-in game."""

    def test_reference_against_closed_form(self, reference):
        closed = equilibrium(reference, Scenario.INCOMPATIBLE)
        res = oracle_outcome(REFERENCE_GAME, Scenario.INCOMPATIBLE)
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
        (pA2, pB2), (nA2, nB2) = period2_monopoly_price(reference, (res.nA1, res.nB1))
        assert (res.pA2, res.nA2) == (pA2, nA2)
        assert (res.pB2, res.nB2) == (pB2, nB2)


class TestOracleDispatch:
    @pytest.mark.parametrize("name", [sc.value for sc in Scenario])
    def test_rejects_a_scenario_name(self, reference, name):
        # dispatch is by identity: unchecked, "same" would solve a
        # separate-chain game on n3 (pA1 3.0667, not 3.0)
        with pytest.raises(TypeError, match=f"must be a Scenario, got '{name}'"):
            oracle_equilibrium(reference, name)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_exact_fields_solve_exactly(self, reference, scenario):
        # The number type of p's fields is the only selector: float fields
        # give floats, and Fraction fields give Fractions from the same
        # code, certified with a residual of exactly 0.
        floats = oracle_equilibrium(reference, scenario)
        fractions = exact_oracle("reference", scenario)
        assert all(type(getattr(floats, name)) is float for name in NUMERIC)
        assert all(type(getattr(fractions, name)) is Fraction for name in NUMERIC)
        assert fractions.converged and fractions.iterations == 1
        assert type(fractions.residual) is Fraction and fractions.residual == 0
        for name in NUMERIC:
            assert float(getattr(fractions, name)) == pytest.approx(
                getattr(floats, name), rel=1e-12, abs=1e-12), name

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


class TestExactRoute:
    """On Fraction fields both routes compute exactly, each in its own code,
    and must agree with ==: no tolerance stands between them."""

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("name", list(EXACT_CONFIGS))
    def test_closed_forms_equal_the_oracle(self, name, scenario):
        closed = equilibrium(EXACT_CONFIGS[name], scenario)
        found = exact_oracle(name, scenario)
        assert found.converged and found.residual == 0
        for field in NUMERIC:
            want, got = getattr(closed, field), getattr(found, field)
            assert type(want) is Fraction and type(got) is Fraction, field
            assert got == want, f"{scenario.value} {field}: closed {want} vs oracle {got}"


def _objectives(p, scenario, pA, pB):
    """Both firms' objectives and their terms at prices (broadcast), from
    _demand and the lock-in harvest q*min((K - q)/u, n) at its best q."""
    nA, nB, _ = oracle._demand(p, scenario, pA, pB)
    u = p.s - p.alpha
    out = []
    for price, n, K in ((pA, nA, p.k + p.alpha * p.n1),
                        (pB, nB, p.k + p.alpha * p.n3 + p.d)):
        keep = 0.0
        if scenario is Scenario.INCOMPATIBLE:
            kept = np.clip(np.minimum(K / (2.0 * u), n), 0.0, None)
            keep = (K - u * kept) * kept
        out.append((price * n + keep, np.abs(price * n) + np.abs(keep)))
    return out


def _grid_gain(p, scenario, found):
    """The largest relative gain of either firm from a grid price at the
    rival's certified price."""
    prices = grid_prices(p)
    assert prices[0] < min(found.pA1, found.pB1) <= max(found.pA1, found.pB1) < prices[-1]
    worst = 0.0
    for firm, (pA, pB) in enumerate(((prices, found.pB1), (found.pA1, prices))):
        value, terms = _objectives(p, scenario, found.pA1, found.pB1)[firm]
        grid_value, grid_terms = _objectives(p, scenario, pA, pB)[firm]
        gain = (grid_value - value) / np.maximum(grid_terms, terms)
        worst = max(worst, float(np.max(gain)))
    return worst


# Games the grid-based oracle got wrong: it stalled (k far above u), or
# certified a pair between whose grid points a deviation paid (a grid step
# above u), or could certify nothing with a tolerance of 1e-12*max(1, |f|)
# on an objective of nearly cancelling terms.
REFERENCE_LARGE_K = (dict(k=368.0, d=3.875), dict(k=5520.0, d=0.0))
FALSE_CERTIFICATE = (ModelParams(
    alpha=0.019337136525927844, s=0.02004917821890436, k=7.476370036414617,
    n1=0.018411204628969766, n2=0.018411204526837057, n3=0.018411204255168415,
    d=0.0016658092945236113, subsidy_p2=0.006321611355359189,
    subsidy_p3=0.0003066170886293875), Scenario.COMPATIBLE)
CANCELLING_TERMS = (ModelParams(
    alpha=149512.5054041958, s=371632.4142877395, k=136689159.68906707,
    n1=0.7428130254713854, n2=0.6995617672497213, n3=0.5815516784215168,
    d=543931.020664266), Scenario.INCOMPATIBLE)


def _assert_agrees(p, scenario, found, rel=None, names=ORACLE_QUANTITIES):
    closed = equilibrium(p, scenario)
    for name in names:
        ref = float(getattr(closed, name))
        got = float(getattr(found, name))
        tol = (max(ORACLE_ABS_TOL, ORACLE_REL_TOL * abs(ref)) if rel is None
               else rel * max(1.0, abs(ref)))
        assert abs(ref - got) <= tol, \
            f"{scenario.value} {name}: closed {ref} vs oracle {got} at {p}"


# sha256 over every outcome field but the scenario (floats as float.hex())
# on GATE_GAMES (the reference and draws100) and WIDE_GAMES, in every
# scenario. The oracle uses only correctly rounded elementwise operations,
# min/max and argmax, so the digest is the same on every IEEE-754 platform.
OUTCOME_DIGEST = "3c746c04c50275d905a1998af6e5c9c3b638144370244e68107668d3329029f7"
# The same over EDGE_GAMES, in every scenario.
EDGE_OUTCOME_DIGEST = "a38a4a678afcec4f412351ada7f063694ee800442137f6f12ec1a9b211183590"
# The same over _low_k(reference), in every scenario: best responses on
# share kinks, and on the shared chain 11-47% of the prices each game tries
# short of coverage.
LOW_K_OUTCOME_DIGEST = "54e3e17b385099ceee6f49f4f4c543e756f8bb90cd02836da8f5c56e2b53113b"


def _outcome_digest(outcomes):
    """sha256 of every field but the scenario of each outcome, floats as
    float.hex()."""
    digest = hashlib.sha256()
    for out in outcomes:
        fields = (getattr(out, name) for name in out.__match_args__[1:])
        digest.update(" ".join(v.hex() if isinstance(v, float) else repr(v)
                               for v in fields).encode() + b"\n")
    return digest.hexdigest()


def _low_k(reference):
    """Configs with k far below the participation bound, where share kinks
    and the vertex of a share held by its reach are best responses; the
    last family has s <= 2*alpha."""
    return [q.with_values(k=k * q.s) for k in (0.1, 0.7, 2.0)
            for q in (reference, ModelParams(alpha=1.0, s=2.1, k=1.0, n1=0.02,
                                             n2=0.0, n3=0.0),
                      ModelParams(alpha=1.0, s=1.5, k=1.0, n1=0.2, n2=0.1, n3=0.1))]


def _rival_prices(p, rng):
    """Rival prices from deep discounts to three times the stand-alone reach
    k + alpha*n1, and around it."""
    reach = p.k + p.alpha * p.n1
    return np.concatenate((rng.uniform(-reach, 3.0 * reach, 40),
                           reach + p.s * rng.uniform(-3.0, 1.0, 20)))


def _certify(p, play, pair, moves_a, moves_b):
    """oracle._worst_gain on one candidate pair and the given moves of A
    (at B's price) and of B (at A's), laid out as _solve_game lays them."""
    ra, rb = len(moves_a), len(moves_b)
    prices = np.array([(pair[0], *moves_a, *[pair[0]] * rb),
                       (pair[1], *[pair[1]] * ra, *moves_b)])
    return oracle._worst_gain(p, play, prices[:, :, None], ra)


class TestExactSolve:
    def _count_calls(self, monkeypatch, name):
        calls = [0]
        real = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
        return calls

    def test_one_demand_call_per_game(self, reference, draws100, monkeypatch):
        # One call evaluates every candidate at its probes and at every
        # price on its lines, and gives the reported pair's demand.
        calls = self._count_calls(monkeypatch, "_demand")
        for p in [reference, *draws100]:
            for scenario in Scenario:
                calls[0] = 0
                res = oracle_equilibrium(p, scenario)
                assert res.converged
                assert calls[0] == 1, (scenario.value, calls[0])

    def test_one_harvest_call_per_lock_in_game(self, reference, draws100,
                                               monkeypatch):
        # The same call prices every candidate's lock-in harvest, through
        # the module global; without lock-in there is no harvest to price.
        calls = self._count_calls(monkeypatch, "period2_monopoly_price")
        for p in [reference, *draws100]:
            for scenario in Scenario:
                calls[0] = 0
                oracle_equilibrium(p, scenario)
                expected = 1 if scenario is Scenario.INCOMPATIBLE else 0
                assert calls[0] == expected, (scenario.value, calls[0])

    def test_outcomes_match_their_pinned_bits(self):
        # A refactor of the oracle must leave every outcome bitwise as it was.
        assert _outcome_digest(oracle_outcome(key, scenario) for key in GATE_GAMES + WIDE_GAMES
                               for scenario in Scenario) == OUTCOME_DIGEST

    def test_edge_outcomes_match_their_pinned_bits(self):
        # Near every validity bound too, where a few games certify a second
        # pair and the reported one is picked among them.
        assert _outcome_digest(oracle_outcome(key, scenario) for key in EDGE_GAMES
                               for scenario in Scenario) == EDGE_OUTCOME_DIGEST

    def test_low_k_outcomes_match_their_pinned_bits(self, reference):
        # And far below the participation bound, where the shared chain's
        # total falls short of 1 at many of the prices a game tries.
        outcomes = [oracle_equilibrium(p, scenario)
                    for p in _low_k(reference) for scenario in Scenario]
        assert all(out.converged for out in outcomes)
        assert _outcome_digest(outcomes) == LOW_K_OUTCOME_DIGEST

    def test_certificate_rejects_a_local_best_response(self, reference,
                                                       monkeypatch):
        # B's objective peaks at 1. A's has a local peak at 2, which no
        # probe improves on, and a higher one at 60 on another of its lines.
        lines = (np.array([[2.0, 0.0], [60.0, 0.0]]), np.array([[1.0, 0.0]]))
        monkeypatch.setattr(oracle, "_lines", lambda p, scenario: lines)

        def play(prices):
            pA, pB = prices
            value = np.array((np.maximum(-(pA - 2.0) ** 2, 10.0 - (pA - 60.0) ** 2),
                              -(pB - 1.0) ** 2))
            zeros = np.zeros_like(pA)
            return value, np.ones_like(value), (zeros, zeros, zeros)

        probes, _ = _certify(reference, play, (2.0, 1.0), (2.0 - 1e-3, 2.0 + 1e-3),
                             (1.0 - 1e-3, 1.0 + 1e-3))
        assert probes[0] == 0.0
        gain, _ = _certify(reference, play, (2.0, 1.0), lines[0][:, 0],
                           lines[1][:, 0])
        assert gain[0] == 10.0

        pA, pB, _, pairs, residual = oracle._solve_game(reference, Scenario.COMPATIBLE, play)
        assert (pA, pB, pairs, residual) == (60.0, 1.0, 1, 0.0)

    def test_a_probe_gain_alone_refuses_a_candidate(self, reference, monkeypatch):
        # A's objective |pA - 2| has a local minimum at the one candidate
        # (2, 1), and its lines hold only that price, so only the probes
        # see that either step pays.
        lines = (np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]))
        monkeypatch.setattr(oracle, "_lines", lambda p, scenario: lines)

        def play(prices):
            pA, _ = prices
            value = np.array((np.abs(pA - 2.0), np.zeros_like(pA)))
            zeros = np.zeros_like(pA)
            return value, np.ones_like(value), (zeros, zeros, zeros)

        pA, pB, _, pairs, residual = oracle._solve_game(reference, Scenario.COMPATIBLE, play)
        assert (pA, pB, pairs) == (2.0, 1.0, 0)
        assert residual > GAIN_TOL

    def test_with_none_certified_the_smallest_worst_gain_is_reported(
            self, reference, monkeypatch):
        # X = (2, 1) gains A 0.5 on a probe and nothing on a line; Y = (60, 1)
        # passes its probes and gains A 2.0 on the line through 2. The
        # residual counts probes and line prices alike, so X is reported.
        lines = (np.array([[2.0, 0.0], [60.0, 0.0]]), np.array([[1.0, 0.0]]))
        monkeypatch.setattr(oracle, "_lines", lambda p, scenario: lines)

        def play(prices):
            pA, _ = prices
            a = np.where(pA == 2.0, 0.0, np.where(np.abs(pA - 2.0) < 1.0, 0.5, -2.0))
            value = np.array((a, np.zeros_like(pA)))
            zeros = np.zeros_like(pA)
            return value, np.ones_like(value), (zeros, zeros, zeros)

        pA, pB, _, pairs, residual = oracle._solve_game(reference, Scenario.COMPATIBLE, play)
        assert (pA, pB, pairs, residual) == (2.0, 1.0, 0, 0.5)

    def test_lands_on_the_closed_form_equilibrium(self, reference):
        # Off any grid, the closed-form prices are met to roundoff.
        for scenario in (Scenario.COMPATIBLE, Scenario.INCOMPATIBLE):
            closed = equilibrium(reference, scenario)
            res = oracle_outcome(REFERENCE_GAME, scenario)
            assert res.pA1 == pytest.approx(closed.pA1, abs=1e-9)
            assert res.pB1 == pytest.approx(closed.pB1, abs=1e-9)
            assert res.residual <= GAIN_TOL

    def test_agrees_with_closed_forms_off_the_gate(self):
        for key in games("wide", 2024, 30):
            p = game(key)
            for scenario in Scenario:
                found = oracle_outcome(key, scenario)
                assert found.converged
                _assert_agrees(p, scenario, found)

    @pytest.mark.parametrize("family,rel", [("gate", 1.5e-13), ("wide", 3.1e-13)])
    def test_one_certified_pair_that_no_grid_price_beats(self, family, rel):
        # The shares, which verify does not compare, too: both routes build
        # the payoffs from prices and shares. No route checks the subsidy
        # term yet (ROADMAP item "Carry the headline claims and the subsidy
        # through the routes").
        for key in GATE_GAMES if family == "gate" else WIDE_GAMES:
            p = game(key)
            for scenario in Scenario:
                found = oracle_outcome(key, scenario)
                assert found.scenario is scenario
                assert (found.converged, found.iterations) == (True, 1)
                assert found.residual <= GAIN_TOL
                _assert_agrees(p, scenario, found, rel=rel,
                               names=(*ORACLE_QUANTITIES, "nA1", "nB1", "nA2", "nB2"))
                assert _grid_gain(p, scenario, found) <= GAIN_TOL

    @pytest.mark.parametrize("changes", REFERENCE_LARGE_K, ids=("k368", "k5520"))
    def test_stand_alone_value_far_above_u(self, reference, changes):
        # The grid oracle walked a price war down by about d + 2u per two
        # rounds, k/(d + 2u) rounds in all, and stalled after 50.
        p = reference.with_values(**changes)
        for scenario in Scenario:
            found = oracle_equilibrium(p, scenario)
            assert found.converged
            _assert_agrees(p, scenario, found, rel=1e-12)
            assert _grid_gain(p, scenario, found) <= GAIN_TOL

    @pytest.mark.parametrize("game", [FALSE_CERTIFICATE, CANCELLING_TERMS],
                             ids=("grid_step_above_u", "cancelling_terms"))
    def test_games_the_grid_oracle_got_wrong(self, game):
        p, scenario = game
        found = oracle_equilibrium(p, scenario)
        assert (found.converged, found.iterations) == (True, 1)
        _assert_agrees(p, scenario, found)
        assert _grid_gain(p, scenario, found) <= GAIN_TOL
        if game is FALSE_CERTIFICATE:
            # the grid oracle certified pA1 = pB1 = 3.749e-3 here
            assert found.pA1 == pytest.approx(1.5677192879363e-4, rel=1e-9)
            assert found.pB1 == pytest.approx(1.2673114571594e-3, rel=1e-9)

    def test_edge_draws(self):
        # Near every validity bound, s <= 2*alpha included: no stall, and
        # no grid price beats a certified pair. A few near-corner games
        # certify a second pair that gives one firm almost no share.
        for key in EDGE_GAMES:
            p = game(key)
            for scenario in Scenario:
                found = oracle_outcome(key, scenario)
                assert found.converged and found.iterations >= 1
                _assert_agrees(p, scenario, found)
                assert _grid_gain(p, scenario, found) <= GAIN_TOL

    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda sc: sc.value)
    def test_lines_hold_every_best_response(self, reference, draws25, scenario):
        # At any rival price, no grid price beats the best of a firm's own
        # lines. Rival prices run from deep discounts to three times the
        # stand-alone reach k + alpha*n1, so participation binds, a share
        # switches to its reach and the shared chain's total switches branch.
        # A k far below the participation bound puts those kinks, and the
        # vertex of a share held by its reach, where they are the best
        # response. The valid s <= 2*alpha edge draws are in too. Where
        # s <= 2*alpha and k is far below the participation bound (the last
        # _low_k family, invalid) the shared chain's largest self-consistent
        # total can jump down as a price rises, and a best response just
        # below the jump is a supremum no price attains, so those configs
        # are left out there (test_shared_chain_supremum_below_a_total_jump).
        rng = np.random.default_rng(11)
        configs = [reference, *_low_k(reference), *draws25[:10],
                   *draws("edge", 5, 10),
                   *(q for q in draws("edge", 123, 200)
                     if q.s <= 2.0 * q.alpha)]
        for p in configs:
            if (scenario is Scenario.SAME_CHAIN and p.s <= 2.0 * p.alpha
                    and not validate_params(p).ok):
                continue
            rivals = _rival_prices(p, rng)
            tables = oracle._lines(p, scenario)
            grid = grid_prices(p)
            for firm, table in enumerate(tables):
                for rival in rivals:
                    own = table[:, 0] + table[:, 1] * rival
                    pair = (own, rival) if firm == 0 else (rival, own)
                    grid_pair = (grid, rival) if firm == 0 else (rival, grid)
                    best, terms = (np.max(x) for x in _objectives(p, scenario, *pair)[firm])
                    grid_best, grid_terms = (np.max(x) for x in
                                             _objectives(p, scenario, *grid_pair)[firm])
                    assert grid_best - best <= GAIN_TOL * max(terms, grid_terms), \
                        (firm, rival, p)

    @pytest.mark.xfail(strict=True, reason="the shared chain's best response "
                       "below a drop of the total is a supremum no line holds")
    def test_shared_chain_supremum_below_a_total_jump(self):
        # s <= 2*alpha and k far below the participation bound (not a valid
        # config): with B at 1.0519, a price just below 0.14814 earns A
        # 0.1187, but the total drops there and A's best line earns 0.0613
        # at 0.175. A fix that lets the lines reach the supremum turns this red.
        p = ModelParams(alpha=1.0, s=1.5, k=0.15, n1=0.2, n2=0.1, n3=0.1)
        rival, scenario = 1.0519, Scenario.SAME_CHAIN
        table = oracle._lines(p, scenario)[0]
        own = table[:, 0] + table[:, 1] * rival
        best, terms = (np.max(x) for x in _objectives(p, scenario, own, rival)[0])
        span = p.k + p.alpha * p.n1 + p.s + p.d
        grid = np.linspace(-span, span, 40001)
        grid_best, grid_terms = (np.max(x) for x in
                                 _objectives(p, scenario, grid, rival)[0])
        assert grid_best - best <= GAIN_TOL * max(terms, grid_terms)

    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda sc: sc.value)
    def test_exit_line_leaves_the_firm_no_share(self, reference, draws25, scenario):
        # _lines keeps no line where a share is 0 but the exit line, which
        # must give the firm a share of exactly 0, so an objective of exactly
        # 0, at every rival price.
        rng = np.random.default_rng(13)
        for p in [*_low_k(reference), *draws25]:
            rivals = _rival_prices(p, rng)
            for firm, table in enumerate(oracle._lines(p, scenario)):
                own = table[:, :1] + table[:, 1:] * rivals  # a row per line
                pair = (own, rivals) if firm == 0 else (rivals, own)
                share = oracle._demand(p, scenario, *pair)[firm]
                assert np.any(np.all(share == 0.0, axis=1)), (firm, p)

    def test_route_never_imports_the_closed_forms(self):
        tree = ast.parse(inspect.getsource(oracle))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("closed_form" in name for name in names), ast.dump(node)


class TestOracleOutcome:
    SHARES = ("nA1", "nB1", "nA2", "nB2")

    def test_period_shares_match_closed_forms(self):
        # Both routes turn prices and shares into payoffs with
        # EquilibriumOutcome.from_periods, so the payoffs cross routes only
        # through what they are built from. The shares are not among
        # ORACLE_QUANTITIES, so they are compared here, at the wide family's
        # bound. No route checks the subsidy term yet (ROADMAP item "Carry
        # the headline claims and the subsidy through the routes").
        for key in games("wide", 2024, 30):
            p = game(key)
            for scenario in Scenario:
                closed = equilibrium(p, scenario)
                found = oracle_outcome(key, scenario)
                assert found.scenario is scenario
                for name in self.SHARES:
                    ref = float(getattr(closed, name))
                    got = float(getattr(found, name))
                    assert abs(ref - got) <= 3.1e-13 * max(1.0, abs(ref)), \
                        f"{scenario.value} {name}: closed {ref} vs oracle {got}"
