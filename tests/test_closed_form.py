import dataclasses
import decimal
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chain_rivalry.closed_form import (
    AdoptionDecision,
    CornerEquilibriumError,
    adoption_decision,
    adoption_sensitivity,
    equilibrium,
    subsidy_threshold,
)
from chain_rivalry.model import ModelParams, Scenario, validate_params
from conftest import _off_gate_draws

# Frozen reference-config values, confirmed against the grid best-response
# solver before being pinned here (see test_oracle / test_acceptance).
REF_COMPAT = dict(pA=3.0666666666666664, pB=2.7333333333333334,
                  cutoff=0.5287356321839081,
                  profitA=3.242911877394636, profitB=2.5762452107279694)
REF_INCOMPAT = dict(pA1=-14.8, pB1=-15.1, cutoff=0.5344827586206896,
                    pA2=19.45, pB2=19.15,
                    profitA=2.485344827586207, profitB=1.8853448275862068)
REF_THRESHOLDS = dict(c2=0.4237547892720306, c3=1.1146551724137932)


# Aggregate two-period payoffs, each a single formula in d: the cross-check
# for equilibrium()'s price-times-share profits. B's off-chain payoffs also
# take d as an argument, so the thresholds can be checked against s at
# d = 0 and at their roots.

def profit_a_same(p):
    return p.s


def profit_b_same(p):
    return p.s


def profit_a_compatible(p):
    u = p.s - p.alpha
    num = 3.0 * u - p.d + p.alpha * (p.n1 - p.n2)
    return num * num / (9.0 * u)


def profit_a_incompatible(p):
    u = p.s - p.alpha
    num = -2.0 * p.d + 5.0 * u + 2.0 * p.alpha * (p.n1 - p.n3)
    return 3.0 * num * num / (100.0 * u)


def profit_b_compatible(p, d=None):
    d = p.d if d is None else d
    u = p.s - p.alpha
    num = 3.0 * u + d + p.alpha * (p.n2 - p.n1)
    return num * num / (9.0 * u)


def profit_b_incompatible(p, d=None):
    d = p.d if d is None else d
    u = p.s - p.alpha
    num = 2.0 * d + 5.0 * u + 2.0 * p.alpha * (p.n3 - p.n1)
    return 3.0 * num * num / (100.0 * u)


class TestSameChain:
    def test_reference_values(self, reference):
        out = equilibrium(reference, Scenario.SAME_CHAIN)
        assert (out.pA1, out.pB1, out.pA2, out.pB2) == (3.0, 3.0, 3.0, 3.0)
        assert out.cutoff1 == 0.5
        assert out.cutoff2 == 0.5
        assert out.profitA1 == out.profitB1 == 1.5
        assert out.profitA == out.profitB == 3.0

    def test_cutoff_exactly_half_on_draws(self, draws25):
        for p in draws25:
            out = equilibrium(p, Scenario.SAME_CHAIN)
            assert out.cutoff1 == 0.5
            assert out.nA1 == out.nB1 == 0.5

    def test_no_subsidy_applies_on_the_shared_chain(self, reference):
        out = equilibrium(reference.with_values(subsidy_p2=1.0, subsidy_p3=2.0),
                          Scenario.SAME_CHAIN)
        assert out.profitB_with_subsidy == out.profitB

    def test_invalid_params_rejected(self, reference):
        with pytest.raises(ValueError):
            equilibrium(reference.with_values(alpha=-1.0), Scenario.SAME_CHAIN)


class TestCompatible:
    def test_reference_values(self, reference):
        out = equilibrium(reference, Scenario.COMPATIBLE)
        assert out.pA1 == pytest.approx(REF_COMPAT["pA"], abs=1e-14)
        assert out.pB1 == pytest.approx(REF_COMPAT["pB"], abs=1e-14)
        assert out.cutoff1 == pytest.approx(REF_COMPAT["cutoff"], abs=1e-14)
        assert out.profitA == pytest.approx(REF_COMPAT["profitA"], abs=1e-14)
        assert out.profitB == pytest.approx(REF_COMPAT["profitB"], abs=1e-14)
        # stage repeats: identical periods
        assert out.pA2 == out.pA1
        assert out.cutoff2 == out.cutoff1
        assert out.profitA1 == pytest.approx(out.profitA / 2.0, abs=1e-14)

    def test_reference_decimals(self, reference):
        out = equilibrium(reference, Scenario.COMPATIBLE)
        assert out.pA1 == pytest.approx(3.066667, abs=1e-6)
        assert out.pB1 == pytest.approx(2.733333, abs=1e-6)
        assert out.cutoff1 == pytest.approx(0.528736, abs=1e-6)
        assert out.profitA == pytest.approx(3.242912, abs=1e-6)
        assert out.profitB == pytest.approx(2.576245, abs=1e-6)

    def test_symmetric_chains_reduce_to_plain_duopoly(self, reference):
        # equal bases need the validity override (n1 > n2 is the model's
        # baseline); dispersion collapses to s - alpha
        p = reference.with_values(n2=reference.n1)
        out = equilibrium(p, Scenario.COMPATIBLE, validate=False)
        u = p.s - p.alpha
        assert out.pA1 == pytest.approx(u, abs=1e-12)
        assert out.pB1 == pytest.approx(u, abs=1e-12)
        assert out.cutoff1 == pytest.approx(0.5, abs=1e-12)
        assert out.profitA == pytest.approx(u, abs=1e-12)
        assert out.profitB == pytest.approx(u, abs=1e-12)

    def test_quality_edge_at_root_restores_entrant_payoff(self, reference):
        out = equilibrium(reference.with_values(d=0.648728), Scenario.COMPATIBLE)
        assert out.profitB == pytest.approx(3.0, abs=1e-5)

    def test_subsidy_added_to_entrant_payoff(self, reference):
        out = equilibrium(reference.with_values(subsidy_p2=0.25), Scenario.COMPATIBLE)
        assert out.profitB_with_subsidy == out.profitB + 0.25

    def test_blockaded_cutoff_raises(self, reference):
        p = reference.with_values(k=60.0, d=10.0)
        with pytest.raises(CornerEquilibriumError) as err:
            equilibrium(p, Scenario.COMPATIBLE)
        assert err.value.scenario is Scenario.COMPATIBLE
        assert err.value.cutoff < 0.0


class CountingCutoff(float):
    """A cutoff that counts the calls to its repr."""

    calls = 0

    def __repr__(self):
        type(self).calls += 1
        return float.__repr__(self)


class TestCornerError:
    """The error carries (scenario, cutoff) and formats its message only
    when shown: a sweep catches up to two per point and prints none."""

    @pytest.mark.parametrize("scenario,text", [
        (Scenario.COMPATIBLE,
         "compatible equilibrium cutoff -0.04597701149425292 outside (0, 1)"),
        (Scenario.INCOMPATIBLE,
         "incompatible equilibrium cutoff -0.15517241379310345 outside (0, 1)"),
    ], ids=["compatible", "incompatible"])
    def test_message_and_args(self, reference, scenario, text):
        with pytest.raises(CornerEquilibriumError) as err:
            equilibrium(reference.with_values(d=10.0), scenario)
        assert str(err.value) == text
        assert err.value.args == (scenario, err.value.cutoff)
        assert err.value.scenario is scenario

    def test_pickle_round_trip(self):
        exc = CornerEquilibriumError(Scenario.INCOMPATIBLE, 1.25)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is CornerEquilibriumError
        assert back.args == exc.args and back.scenario is Scenario.INCOMPATIBLE
        assert back.cutoff == 1.25 and str(back) == str(exc)

    def test_construction_formats_nothing(self, monkeypatch):
        monkeypatch.setattr(CountingCutoff, "calls", 0)
        exc = CornerEquilibriumError(Scenario.COMPATIBLE, CountingCutoff(-0.5))
        assert CountingCutoff.calls == 0
        assert str(exc) == "compatible equilibrium cutoff -0.5 outside (0, 1)"
        assert CountingCutoff.calls == 1


class TestIncompatible:
    def test_reference_values(self, reference):
        out = equilibrium(reference, Scenario.INCOMPATIBLE)
        assert out.pA1 == pytest.approx(REF_INCOMPAT["pA1"], abs=1e-14)
        assert out.pB1 == pytest.approx(REF_INCOMPAT["pB1"], abs=1e-14)
        assert out.cutoff1 == pytest.approx(REF_INCOMPAT["cutoff"], abs=1e-14)
        assert out.pA2 == pytest.approx(REF_INCOMPAT["pA2"], abs=1e-14)
        assert out.pB2 == pytest.approx(REF_INCOMPAT["pB2"], abs=1e-14)
        assert out.profitA == pytest.approx(REF_INCOMPAT["profitA"], abs=1e-14)
        assert out.profitB == pytest.approx(REF_INCOMPAT["profitB"], abs=1e-14)

    def test_reference_decimals(self, reference):
        out = equilibrium(reference, Scenario.INCOMPATIBLE)
        assert out.pA1 == pytest.approx(-14.8, abs=1e-6)
        assert out.pB1 == pytest.approx(-15.1, abs=1e-6)
        assert out.cutoff1 == pytest.approx(0.534483, abs=1e-6)
        assert out.pA2 == pytest.approx(19.45, abs=1e-6)
        assert out.pB2 == pytest.approx(19.15, abs=1e-6)

    def test_first_period_prices_negative_on_draws(self, draws25):
        # the stand-alone value floor guarantees aggressive period-1 discounts
        for p in draws25:
            out = equilibrium(p, Scenario.INCOMPATIBLE)
            assert out.pA1 < 0.0
            assert out.pB1 < 0.0

    def test_adoption_carries_over_to_period_two(self, reference):
        out = equilibrium(reference, Scenario.INCOMPATIBLE)
        assert out.nA2 == out.nA1
        assert out.nB2 == out.nB1
        assert out.cutoff2 == out.cutoff1

    def test_aggregate_profits_free_of_k(self, reference):
        base = equilibrium(reference, Scenario.INCOMPATIBLE)
        for dk in (-1.0, 1.0):
            moved = equilibrium(reference.with_values(k=reference.k + dk),
                                Scenario.INCOMPATIBLE)
            assert moved.profitA == pytest.approx(base.profitA, abs=1e-12)
            assert moved.profitB == pytest.approx(base.profitB, abs=1e-12)
            assert moved.pA1 == pytest.approx(base.pA1 - dk, abs=1e-12)
            assert moved.pB1 == pytest.approx(base.pB1 - dk, abs=1e-12)

    def test_period2_price_decomposition(self, reference):
        # the harvest price leaves the marginal period-1 adopter exactly at
        # zero switching margin: k + alpha*base + (alpha - s) * share
        out = equilibrium(reference, Scenario.INCOMPATIBLE)
        expected_a = reference.k + reference.alpha * reference.n1 \
            + (reference.alpha - reference.s) * out.nA1
        expected_b = reference.k + reference.alpha * reference.n3 + reference.d \
            + (reference.alpha - reference.s) * out.nB1
        assert out.pA2 == pytest.approx(expected_a, abs=1e-12)
        assert out.pB2 == pytest.approx(expected_b, abs=1e-12)

    def test_subsidy_added_to_entrant_payoff(self, reference):
        out = equilibrium(reference.with_values(subsidy_p3=0.4), Scenario.INCOMPATIBLE)
        assert out.profitB_with_subsidy == out.profitB + 0.4

    def test_blockaded_cutoff_raises(self, reference):
        p = reference.with_values(k=60.0, d=10.0)
        with pytest.raises(CornerEquilibriumError) as err:
            equilibrium(p, Scenario.INCOMPATIBLE)
        assert err.value.scenario is Scenario.INCOMPATIBLE


class TestEquilibriumDispatch:
    def test_routes_to_each_scenario(self, reference):
        assert equilibrium(reference, Scenario.SAME_CHAIN).pA1 == 3.0
        assert equilibrium(reference, Scenario.COMPATIBLE).scenario is Scenario.COMPATIBLE
        assert equilibrium(reference, Scenario.INCOMPATIBLE).pA1 < 0.0

    @pytest.mark.parametrize("name", [sc.value for sc in Scenario])
    def test_rejects_a_scenario_name(self, reference, name):
        # dispatch is by identity: unchecked, "compatible" would solve the
        # incompatible game (pA1 -14.8, not 3.0667)
        with pytest.raises(TypeError, match=f"must be a Scenario, got '{name}'"):
            equilibrium(reference, name)


class TestFirstOrderConditions:
    """Marginal stage profit in a firm's own price vanishes at every
    closed-form equilibrium (analytic derivatives of the stage objectives)."""

    def _residuals(self, p):
        u = p.s - p.alpha
        out = []
        same = equilibrium(p, Scenario.SAME_CHAIN)
        out.append(0.5 + (same.pB1 - 2.0 * same.pA1) / (2.0 * p.s))
        out.append(0.5 + (same.pA1 - 2.0 * same.pB1) / (2.0 * p.s))
        comp = equilibrium(p, Scenario.COMPATIBLE)
        out.append(comp.cutoff1 - comp.pA1 / (2.0 * u))
        out.append((1.0 - comp.cutoff1) - comp.pB1 / (2.0 * u))
        inc = equilibrium(p, Scenario.INCOMPATIBLE)
        x = inc.cutoff1
        k_a = p.k + p.alpha * p.n1
        k_b = p.k + p.alpha * p.n3 + p.d
        # aggregate objective: p1*x + (K - u*x)*x, derivative via dx/dp = -1/(2u)
        out.append(x - (inc.pA1 + k_a - 2.0 * u * x) / (2.0 * u))
        out.append((1.0 - x) - (inc.pB1 + k_b - 2.0 * u * (1.0 - x)) / (2.0 * u))
        return out

    def test_residuals_vanish_at_reference(self, reference):
        assert max(abs(r) for r in self._residuals(reference)) < 1e-9

    def test_residuals_vanish_on_draws(self, draws25):
        for p in draws25:
            assert max(abs(r) for r in self._residuals(p)) < 1e-9


class TestOrderingProperties:
    def test_entrant_prefers_shared_then_compatible_then_locked(self, draws25):
        for p in draws25:
            b_same = equilibrium(p, Scenario.SAME_CHAIN).profitB
            b_comp = equilibrium(p, Scenario.COMPATIBLE).profitB
            b_inc = equilibrium(p, Scenario.INCOMPATIBLE).profitB
            assert b_same > b_comp > b_inc
            assert (equilibrium(p, Scenario.COMPATIBLE).profitA
                    > equilibrium(p, Scenario.INCOMPATIBLE).profitA)

    def test_incumbent_beats_entrant_on_compatible_chain(self, draws25):
        for p in draws25:
            out = equilibrium(p, Scenario.COMPATIBLE)
            assert out.profitB < out.profitA

    def test_profit_gap_widens_with_network_strength(self, reference):
        lo = equilibrium(reference.with_values(alpha=0.06), Scenario.COMPATIBLE)
        hi = equilibrium(reference.with_values(alpha=0.12), Scenario.COMPATIBLE)
        assert hi.profitA - hi.profitB > lo.profitA - lo.profitB

    def test_entrant_compatible_price_below_shared_price(self, draws25):
        for p in draws25:
            assert equilibrium(p, Scenario.COMPATIBLE).pB1 < p.s

    def test_small_base_gap_keeps_incumbent_below_shared_payoff(self, reference):
        # the payoff clause holds strictly when alpha*(n1-n2) stays below
        # 3*(sqrt(s*u) - u); at the reference that allows gaps up to ~1.487
        for gap in (0.5, 1.0, 1.4):
            # k raised to clear the participation bound at the larger rival
            # base; none of the compared quantities involve k
            p = reference.with_values(k=25.0, n2=reference.n1 - gap,
                                      n3=reference.n1 - gap)
            out = equilibrium(p, Scenario.COMPATIBLE)
            assert out.profitA < equilibrium(p, Scenario.SAME_CHAIN).profitA
            assert out.pA1 < p.s

    def test_base_gap_three_is_the_price_boundary(self, reference):
        """A gap of exactly 3 puts the incumbent's compatible price at s and
        its payoff above the shared-chain payoff, so the payoff clause's
        stated gap bound of 3 is sharp only for prices."""
        p = reference.with_values(n2=7.0, n3=7.0)
        out = equilibrium(p, Scenario.COMPATIBLE)
        assert out.pA1 == pytest.approx(p.s, abs=1e-12)
        assert out.profitA > equilibrium(p, Scenario.SAME_CHAIN).profitA


class TestThresholds:
    def test_reference_subsidy_thresholds(self, reference):
        rep = subsidy_threshold(reference)
        assert rep.c2_star == pytest.approx(REF_THRESHOLDS["c2"], abs=1e-12)
        assert rep.c3_star == pytest.approx(REF_THRESHOLDS["c3"], abs=1e-12)

    def test_subsidy_thresholds_are_payoff_gaps_at_zero_edge(self, reference):
        p = reference.with_values(d=1.0)  # thresholds ignore the point's own d
        rep = subsidy_threshold(p)
        b_same = profit_b_same(p)
        assert rep.c2_star == pytest.approx(
            b_same - profit_b_compatible(p, d=0.0), abs=1e-12)
        assert rep.c3_star == pytest.approx(
            b_same - profit_b_incompatible(p, d=0.0), abs=1e-12)

    def test_thresholds_match_exact_arithmetic(self, reference, draws25):
        # Rational arithmetic on the float inputs for the subsidies, and
        # 250-digit decimals for the square roots of the quality edges: at
        # s = 1e200 their terms cancel over more than 200 digits.
        configs = [reference, *draws25, *_off_gate_draws(seed=31, count=200),
                   TestOverflow.BIG_S]
        with decimal.localcontext(decimal.Context(prec=250)):
            for p in configs:
                rep = subsidy_threshold(p)
                alpha, s = Fraction(p.alpha), Fraction(p.s)
                n1, n2, n3 = Fraction(p.n1), Fraction(p.n2), Fraction(p.n3)
                u = s - alpha
                c2 = s - (3 * u + alpha * (n2 - n1)) ** 2 / (9 * u)
                c3 = s - 3 * (5 * u + 2 * alpha * (n3 - n1)) ** 2 / (100 * u)
                assert abs(Fraction(rep.c2_star) - c2) <= abs(c2) / 10 ** 15, p
                assert abs(Fraction(rep.c3_star) - c3) <= abs(c3) / 10 ** 15, p

                a, sd = decimal.Decimal(p.alpha), decimal.Decimal(p.s)
                n1, n2, n3 = (decimal.Decimal(n) for n in (p.n1, p.n2, p.n3))
                u = sd - a
                d2 = 3 * (u * sd).sqrt() - 3 * u + a * (n1 - n2)
                d3 = 5 * (u * sd / 3).sqrt() - u * 5 / 2 + a * (n1 - n3)
                assert abs(decimal.Decimal(rep.d2_star) - d2) <= abs(d2) / 10 ** 15, p
                assert abs(decimal.Decimal(rep.d3_star) - d3) <= abs(d3) / 10 ** 15, p

    def test_reference_quality_thresholds_match_analytic_roots(self, reference):
        rep = subsidy_threshold(reference)
        u = reference.s - reference.alpha
        gap = reference.alpha * (reference.n1 - reference.n2)
        d2 = 3.0 * math.sqrt(reference.s * u) - 3.0 * u + gap
        d3 = 5.0 * math.sqrt(reference.s * u / 3.0) - 2.5 * u + gap
        assert rep.d2_star == pytest.approx(d2, abs=2e-9)
        assert rep.d3_star == pytest.approx(d3, abs=2e-9)

    def test_quality_roots_satisfy_their_defining_equalities(self, reference):
        rep = subsidy_threshold(reference)
        target = profit_b_same(reference)
        assert profit_b_compatible(reference, d=rep.d2_star) == pytest.approx(
            target, abs=1e-8)
        assert profit_b_incompatible(reference, d=rep.d3_star) == pytest.approx(
            target, abs=1e-8)

    def test_threshold_ordering_on_draws(self, draws25):
        for p in draws25:
            rep = subsidy_threshold(p)
            assert 0.0 < rep.c2_star < rep.c3_star
            assert 0.0 < rep.d2_star < rep.d3_star

    def test_symmetric_base_limit(self, reference):
        # with equal bases the subsidy threshold collapses to the network
        # premium alpha, and a strictly positive edge is still needed
        p = reference.with_values(n2=reference.n1, n3=reference.n1)
        rep = subsidy_threshold(p, validate=False)
        assert rep.c2_star == pytest.approx(reference.alpha, abs=1e-12)
        u = p.s - p.alpha
        assert rep.d2_star == pytest.approx(
            3.0 * math.sqrt(p.s * u) - 3.0 * u, abs=2e-9)
        assert rep.d2_star > 0.0

    def test_both_ops_return_the_full_report(self, reference):
        a = subsidy_threshold(reference)
        b = subsidy_threshold(reference)
        assert a == b


class TestAdoptionDecision:
    def test_reference_picks_shared_chain(self, reference):
        dec = adoption_decision(reference)
        assert dec.chosen == "P1"
        assert dec.payoffs["P1"] == 3.0
        assert dec.payoffs["P2"] == pytest.approx(REF_COMPAT["profitB"], abs=1e-12)
        assert dec.payoffs["P3"] == pytest.approx(REF_INCOMPAT["profitB"], abs=1e-12)

    def test_rationale_sorted_by_payoff(self, reference):
        dec = adoption_decision(reference)
        names = [name for name, _ in dec.rationale]
        values = [v for _, v in dec.rationale]
        assert names == ["P1", "P2", "P3"]
        assert values == sorted(values, reverse=True)

    def test_subsidy_above_threshold_flips_to_compatible(self, reference):
        dec = adoption_decision(reference.with_values(subsidy_p2=0.5))
        assert dec.chosen == "P2"
        assert dec.payoffs["P2"] == pytest.approx(3.076245, abs=1e-6)

    def test_subsidy_above_threshold_flips_to_incompatible(self, reference):
        dec = adoption_decision(reference.with_values(subsidy_p3=1.2))
        assert dec.chosen == "P3"
        assert dec.payoffs["P3"] == pytest.approx(3.085345, abs=1e-6)

    def test_exact_tie_prefers_lower_platform_number(self, reference):
        # subsidy equal to the payoff gap makes the payoffs bitwise equal
        # here (the subtraction is exact for these magnitudes)
        rep = subsidy_threshold(reference)
        dec = adoption_decision(reference.with_values(subsidy_p2=rep.c2_star))
        assert dec.payoffs["P2"] == dec.payoffs["P1"]
        assert dec.chosen == "P1"
        dec = adoption_decision(reference.with_values(subsidy_p3=rep.c3_star))
        assert dec.payoffs["P3"] == dec.payoffs["P1"]
        assert dec.chosen == "P1"

    def test_chosen_attains_maximum_on_draws(self, draws25):
        for p in draws25:
            dec = adoption_decision(p)
            assert dec.payoffs[dec.chosen] == max(dec.payoffs.values())
            assert dec.chosen == dec.rationale[0][0]

    def test_argmax_invariant_to_common_payoff_shift(self, reference):
        dec = adoption_decision(reference.with_values(subsidy_p2=0.5))
        shifted = {name: value + 17.25 for name, value in dec.payoffs.items()}
        best = max(sorted(shifted), key=lambda name: (shifted[name], -ord(name[1])))
        assert best == dec.chosen

    def test_holds_only_the_payoffs(self):
        assert [f.name for f in dataclasses.fields(AdoptionDecision)] == ["payoffs"]

    def test_ties_go_to_the_lower_platform_number(self):
        # dicts built out of platform order, so insertion order cannot decide;
        # chosen does not read rationale, so the two must agree
        for payoffs, best in (({"P3": 2.0, "P2": 2.0, "P1": 1.0}, "P2"),
                              ({"P3": 1.5, "P2": 1.5, "P1": 1.5}, "P1"),
                              ({"P3": 3.0, "P1": 3.0, "P2": 0.0}, "P1")):
            dec = AdoptionDecision(payoffs)
            assert dec.chosen == dec.rationale[0][0] == best

    def test_rationale_breaks_ties_by_name(self):
        dec = AdoptionDecision({"P3": 1.0, "P1": 0.5, "P2": 1.0})
        assert dec.rationale == (("P2", 1.0), ("P3", 1.0), ("P1", 0.5))
        assert dec.chosen == dec.rationale[0][0] == "P2"

    def test_from_outcomes_reads_the_subsidized_payoffs(self, reference):
        p = reference.with_values(subsidy_p2=0.25, subsidy_p3=1.2)
        outcomes = {sc: equilibrium(p, sc) for sc in Scenario}
        dec = AdoptionDecision.from_outcomes(outcomes)
        assert dec.payoffs == {
            name: outcomes[sc].profitB_with_subsidy
            for name, sc in zip(("P1", "P2", "P3"), Scenario)}
        assert dec == adoption_decision(p)
        assert dec.chosen == "P3"


class TestAdoptionSensitivity:
    def test_slopes_match_formulas_bitwise(self, reference, draws25):
        for p in [reference, *draws25]:
            sens = adoption_sensitivity(p)
            u = p.s - p.alpha
            assert sens.compatible == 1.0 / (6.0 * u)
            assert sens.incompatible == 1.0 / (5.0 * u)
            # 6/5 in exact arithmetic; each slope is rounded on its own
            assert sens.ratio == sens.incompatible / sens.compatible
            assert abs(sens.ratio - 1.2) <= 4 * math.ulp(1.2)

    def test_reference_decimals(self, reference):
        sens = adoption_sensitivity(reference)
        assert sens.compatible == pytest.approx(0.057471, abs=1e-6)
        assert sens.incompatible == pytest.approx(0.068966, abs=1e-6)

    def test_central_difference_on_cutoffs(self, reference):
        # the cutoffs are affine in d, so the difference quotient carries no
        # truncation term at any step width; only division rounding remains
        sens = adoption_sensitivity(reference)
        for scenario, slope in ((Scenario.COMPATIBLE, sens.compatible),
                                (Scenario.INCOMPATIBLE, sens.incompatible)):
            for h in (0.5, 0.0625):
                hi = equilibrium(reference.with_values(d=0.625 + h), scenario).cutoff1
                lo = equilibrium(reference.with_values(d=0.625 - h), scenario).cutoff1
                diff = ((1.0 - hi) - (1.0 - lo)) / (2.0 * h)
                assert diff == pytest.approx(slope, rel=1e-12)


class TestAggregatePayoffs:
    def test_price_times_share_matches_the_aggregate_formulas(self, reference,
                                                              draws25):
        formulas = {
            Scenario.SAME_CHAIN: (profit_a_same, profit_b_same),
            Scenario.COMPATIBLE: (profit_a_compatible, profit_b_compatible),
            Scenario.INCOMPATIBLE: (profit_a_incompatible, profit_b_incompatible),
        }
        for p in [reference, *draws25, *_off_gate_draws(seed=2024, count=30)]:
            for scenario, (profit_a, profit_b) in formulas.items():
                out = equilibrium(p, scenario)
                assert out.profitA == pytest.approx(profit_a(p), rel=1e-9, abs=1e-12)
                assert out.profitB == pytest.approx(profit_b(p), rel=1e-9, abs=1e-12)


class TestThresholdCrossCheck:
    def test_entrant_is_indifferent_at_each_threshold(self, reference):
        # Checked on equilibrium()'s price-times-share profits,
        # a route independent of the aggregate profit_* formulas the roots
        # solve. The point's own edge and subsidies give way to the one
        # threshold under test.
        for p in [reference, *_off_gate_draws(seed=2024, count=30)]:
            rep = subsidy_threshold(p)
            bare = p.with_values(d=0.0, subsidy_p2=0.0, subsidy_p3=0.0)
            at_threshold = {
                "d2_star": equilibrium(
                    bare.with_values(d=rep.d2_star), Scenario.COMPATIBLE),
                "d3_star": equilibrium(
                    bare.with_values(d=rep.d3_star), Scenario.INCOMPATIBLE),
                "c2_star": equilibrium(
                    bare.with_values(subsidy_p2=rep.c2_star), Scenario.COMPATIBLE),
                "c3_star": equilibrium(
                    bare.with_values(subsidy_p3=rep.c3_star), Scenario.INCOMPATIBLE),
            }
            target = equilibrium(p, Scenario.SAME_CHAIN).profitB
            for case, out in at_threshold.items():
                assert out.profitB_with_subsidy == pytest.approx(target, rel=1e-9), \
                    (case, p)


class TestOutcomeDiagnostics:
    def test_closed_forms_keep_the_exact_defaults(self, reference):
        for scenario in Scenario:
            out = equilibrium(reference, scenario)
            assert (out.converged, out.iterations, out.residual) == (True, 0, 0.0)


class TestOverflow:
    """Finite configs that pass validation but overflow float arithmetic."""

    BIG_K = ModelParams(alpha=0.1, s=3.0, k=1e308, n1=10.0, n2=5.0, n3=5.0)
    BIG_S = ModelParams(alpha=1e-3, s=1e200, k=5e200, n1=10.0, n2=5.0, n3=5.0)

    def test_equilibrium_names_the_first_non_finite_field(self):
        assert validate_params(self.BIG_K).ok
        with pytest.raises(ValueError) as err:
            equilibrium(self.BIG_K, Scenario.INCOMPATIBLE)
        assert type(err.value) is ValueError  # not a corner
        assert str(err.value) == "incompatible equilibrium: pA1 overflows to -inf"
        with pytest.raises(ValueError, match="pA1 overflows to -inf"):
            adoption_decision(self.BIG_K)
        for scenario in (Scenario.SAME_CHAIN, Scenario.COMPATIBLE):
            equilibrium(self.BIG_K, scenario)

    def test_finite_fields_pass_even_when_their_sum_overflows(self):
        p = ModelParams(alpha=0.1, s=4e307, k=1.7e308, n1=10.0, n2=5.0, n3=5.0)
        out = equilibrium(p, Scenario.SAME_CHAIN)
        assert (out.pA1, out.profitA, out.profitB_with_subsidy) == (4e307, 4e307, 4e307)

    def test_cutoffs_stay_interior_when_their_denominators_would_overflow(self):
        # 6u and 10u overflow at s = 4e307, although every cutoff is near 1/2
        p = ModelParams(alpha=0.1, s=4e307, k=1.7e308, n1=10.0, n2=5.0, n3=5.0)
        assert validate_params(p).ok
        assert equilibrium(p, Scenario.COMPATIBLE).cutoff1 == 0.5
        with pytest.raises(ValueError) as err:
            equilibrium(p, Scenario.INCOMPATIBLE)
        assert type(err.value) is ValueError  # not a corner
        assert str(err.value) == "incompatible equilibrium: pA1 overflows to nan"

    def test_thresholds_stay_finite_where_the_payoffs_overflow(self):
        # num^2 in B's aggregate payoffs overflows here, but the thresholds
        # are written without it.
        assert validate_params(self.BIG_S).ok
        assert not math.isfinite(profit_b_compatible(self.BIG_S))
        rep = subsidy_threshold(self.BIG_S)
        assert rep.c2_star == pytest.approx(0.013 / 3.0, rel=1e-15)
        assert rep.d2_star == pytest.approx(0.0065, rel=1e-15)
        assert rep.c3_star == pytest.approx(2.5e199, rel=1e-15)
        assert math.isfinite(rep.d3_star)

    @settings(max_examples=300, deadline=None)
    @given(log_s=st.floats(-300.0, 307.0), n1=st.floats(1e-3, 1e3),
           alpha_frac=st.floats(1e-6, 1.0, exclude_max=True),
           base_frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_thresholds_are_finite_on_every_valid_config(
            self, log_s, n1, alpha_frac, base_frac):
        s = 10.0 ** log_s
        alpha = alpha_frac * s / (2.0 * n1 + 1.0)
        n2 = base_frac * n1
        p = ModelParams(alpha=alpha, s=s, n1=n1, n2=n2, n3=n2,
                        k=min(1.01 * (4.0 * s + 4.0 * alpha * (1.0 + n1 + n2)),
                              1.7976931348623157e308))
        assume(validate_params(p).ok)
        rep = subsidy_threshold(p)
        assert all(math.isfinite(x) for x in dataclasses.astuple(rep))


def _corner_bound(p, scenario):
    """The quality edge d from which the scenario's cutoff leaves (0, 1),
    in the same float operations as the closed form's cutoff numerator."""
    u = p.s - p.alpha
    if scenario is Scenario.COMPATIBLE:
        return 3.0 * u + p.alpha * (p.n1 - p.n2)
    return 2.5 * u + p.alpha * (p.n1 - p.n3)


@st.composite
def wide_params(draw):
    """Valid configs the verify gate never draws: n3 != n2 and nonzero
    subsidies, with k above the participation bound for the larger base."""
    n1 = draw(st.floats(1.0, 50.0))
    n2 = draw(st.floats(0.0, n1, exclude_max=True))
    n3 = draw(st.floats(0.0, n1, exclude_max=True))
    assume(n3 != n2)
    s = draw(st.floats(0.5, 20.0))
    alpha = s / (2.0 * n1 + 1.0) * draw(st.floats(0.01, 0.999))
    k = (4.0 * s + 4.0 * alpha * (1.0 + n1 + max(n2, n3))) * draw(st.floats(1.01, 2.0))
    p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n2, n3=n3,
                    subsidy_p2=draw(st.floats(0.01, 2.0)),
                    subsidy_p3=draw(st.floats(0.01, 2.0)))
    assert validate_params(p).ok
    return p


OFF_CHAIN = (Scenario.COMPATIBLE, Scenario.INCOMPATIBLE)


class TestEquilibriumProperties:
    @settings(max_examples=200, deadline=None)
    @given(p=wide_params(), lo=st.floats(0.0, 0.45), width=st.floats(0.05, 0.5))
    def test_cutoff_falls_in_d_at_the_adoption_slopes(self, p, lo, width):
        sens = adoption_sensitivity(p)
        for scenario, slope in zip(OFF_CHAIN, (sens.compatible, sens.incompatible)):
            bound = _corner_bound(p, scenario)
            d1, d2 = lo * bound, (lo + width) * bound
            c1 = equilibrium(p.with_values(d=d1), scenario).cutoff1
            c2 = equilibrium(p.with_values(d=d2), scenario).cutoff1
            assert (c1 - c2) / (d2 - d1) == pytest.approx(slope, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(p=wide_params(), frac=st.floats(0.0, 2.0))
    def test_corner_starts_exactly_at_the_bound(self, p, frac):
        for scenario in OFF_CHAIN:
            bound = _corner_bound(p, scenario)
            for d in (frac * bound, bound, math.nextafter(bound, 0.0)):
                point = p.with_values(d=d)
                if d >= bound:
                    with pytest.raises(CornerEquilibriumError):
                        equilibrium(point, scenario)
                else:
                    assert 0.0 < equilibrium(point, scenario).cutoff1 < 1.0

    @settings(max_examples=200, deadline=None)
    @given(p=wide_params(), frac=st.floats(0.0, 0.95))
    def test_subsidies_move_only_the_subsidized_payoff(self, p, frac):
        p = p.with_values(d=frac * min(_corner_bound(p, sc) for sc in OFF_CHAIN))
        bare = p.with_values(subsidy_p2=0.0, subsidy_p3=0.0)
        for scenario in Scenario:
            paid = equilibrium(p, scenario)
            unpaid = equilibrium(bare, scenario)
            assert paid.profitB_with_subsidy == unpaid.profitB + p.subsidy(scenario)
            assert dataclasses.replace(
                paid, profitB_with_subsidy=unpaid.profitB_with_subsidy) == unpaid
