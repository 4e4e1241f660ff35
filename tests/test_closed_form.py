import math

import pytest

from chain_rivalry import (
    CornerEquilibriumError,
    ModelParams,
    Scenario,
    adoption_decision,
    adoption_sensitivity,
    compatible_equilibrium,
    equilibrium,
    incompatible_equilibrium,
    same_chain_equilibrium,
    subsidy_threshold,
)
from chain_rivalry import closed_form
from test_oracle import _off_gate_draws

# Frozen reference-config values, confirmed against the grid best-response
# solver before being pinned here (see test_oracle / test_acceptance).
REF_COMPAT = dict(pA=3.0666666666666664, pB=2.7333333333333334,
                  cutoff=0.5287356321839081,
                  profitA=3.242911877394636, profitB=2.5762452107279694)
REF_INCOMPAT = dict(pA1=-14.8, pB1=-15.1, cutoff=0.5344827586206896,
                    pA2=19.45, pB2=19.15,
                    profitA=2.485344827586207, profitB=1.8853448275862068)
REF_THRESHOLDS = dict(c2=0.4237547892720306, c3=1.1146551724137932)


class TestSameChain:
    def test_reference_values(self, reference):
        out = same_chain_equilibrium(reference)
        assert (out.pA1, out.pB1, out.pA2, out.pB2) == (3.0, 3.0, 3.0, 3.0)
        assert out.cutoff1 == 0.5
        assert out.cutoff2 == 0.5
        assert out.profitA1 == out.profitB1 == 1.5
        assert out.profitA == out.profitB == 3.0

    def test_cutoff_exactly_half_on_draws(self, draws25):
        for p in draws25:
            out = same_chain_equilibrium(p)
            assert out.cutoff1 == 0.5
            assert out.nA1 == out.nB1 == 0.5

    def test_no_subsidy_applies_on_the_shared_chain(self, reference):
        out = same_chain_equilibrium(reference.with_values(subsidy_p2=1.0,
                                                           subsidy_p3=2.0))
        assert out.profitB_with_subsidy == out.profitB

    def test_invalid_params_rejected(self, reference):
        with pytest.raises(ValueError):
            same_chain_equilibrium(reference.with_values(alpha=-1.0))


class TestCompatible:
    def test_reference_values(self, reference):
        out = compatible_equilibrium(reference)
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
        out = compatible_equilibrium(reference)
        assert out.pA1 == pytest.approx(3.066667, abs=1e-6)
        assert out.pB1 == pytest.approx(2.733333, abs=1e-6)
        assert out.cutoff1 == pytest.approx(0.528736, abs=1e-6)
        assert out.profitA == pytest.approx(3.242912, abs=1e-6)
        assert out.profitB == pytest.approx(2.576245, abs=1e-6)

    def test_symmetric_chains_reduce_to_plain_duopoly(self, reference):
        # equal bases need the validity override (n1 > n2 is the model's
        # baseline); dispersion collapses to s - alpha
        p = reference.with_values(n2=reference.n1)
        out = compatible_equilibrium(p, validate=False)
        u = p.s - p.alpha
        assert out.pA1 == pytest.approx(u, abs=1e-12)
        assert out.pB1 == pytest.approx(u, abs=1e-12)
        assert out.cutoff1 == pytest.approx(0.5, abs=1e-12)
        assert out.profitA == pytest.approx(u, abs=1e-12)
        assert out.profitB == pytest.approx(u, abs=1e-12)

    def test_quality_edge_at_root_restores_entrant_payoff(self, reference):
        out = compatible_equilibrium(reference.with_values(d=0.648728))
        assert out.profitB == pytest.approx(3.0, abs=1e-5)

    def test_subsidy_added_to_entrant_payoff(self, reference):
        out = compatible_equilibrium(reference.with_values(subsidy_p2=0.25))
        assert out.profitB_with_subsidy == out.profitB + 0.25

    def test_blockaded_cutoff_raises(self, reference):
        p = reference.with_values(k=60.0, d=10.0)
        with pytest.raises(CornerEquilibriumError) as err:
            compatible_equilibrium(p)
        assert err.value.scenario is Scenario.COMPATIBLE
        assert err.value.cutoff < 0.0


class TestIncompatible:
    def test_reference_values(self, reference):
        out = incompatible_equilibrium(reference)
        assert out.pA1 == pytest.approx(REF_INCOMPAT["pA1"], abs=1e-14)
        assert out.pB1 == pytest.approx(REF_INCOMPAT["pB1"], abs=1e-14)
        assert out.cutoff1 == pytest.approx(REF_INCOMPAT["cutoff"], abs=1e-14)
        assert out.pA2 == pytest.approx(REF_INCOMPAT["pA2"], abs=1e-14)
        assert out.pB2 == pytest.approx(REF_INCOMPAT["pB2"], abs=1e-14)
        assert out.profitA == pytest.approx(REF_INCOMPAT["profitA"], abs=1e-14)
        assert out.profitB == pytest.approx(REF_INCOMPAT["profitB"], abs=1e-14)

    def test_reference_decimals(self, reference):
        out = incompatible_equilibrium(reference)
        assert out.pA1 == pytest.approx(-14.8, abs=1e-6)
        assert out.pB1 == pytest.approx(-15.1, abs=1e-6)
        assert out.cutoff1 == pytest.approx(0.534483, abs=1e-6)
        assert out.pA2 == pytest.approx(19.45, abs=1e-6)
        assert out.pB2 == pytest.approx(19.15, abs=1e-6)

    def test_first_period_prices_negative_on_draws(self, draws25):
        # the stand-alone value floor guarantees aggressive period-1 discounts
        for p in draws25:
            out = incompatible_equilibrium(p)
            assert out.pA1 < 0.0
            assert out.pB1 < 0.0

    def test_adoption_carries_over_to_period_two(self, reference):
        out = incompatible_equilibrium(reference)
        assert out.nA2 == out.nA1
        assert out.nB2 == out.nB1
        assert out.cutoff2 == out.cutoff1

    def test_aggregate_profits_free_of_k(self, reference):
        base = incompatible_equilibrium(reference)
        for dk in (-1.0, 1.0):
            moved = incompatible_equilibrium(reference.with_values(k=reference.k + dk))
            assert moved.profitA == pytest.approx(base.profitA, abs=1e-12)
            assert moved.profitB == pytest.approx(base.profitB, abs=1e-12)
            assert moved.pA1 == pytest.approx(base.pA1 - dk, abs=1e-12)
            assert moved.pB1 == pytest.approx(base.pB1 - dk, abs=1e-12)

    def test_period2_price_decomposition(self, reference):
        # the harvest price leaves the marginal period-1 adopter exactly at
        # zero switching margin: k + alpha*base + (alpha - s) * share
        out = incompatible_equilibrium(reference)
        expected_a = reference.k + reference.alpha * reference.n1 \
            + (reference.alpha - reference.s) * out.nA1
        expected_b = reference.k + reference.alpha * reference.n3 + reference.d \
            + (reference.alpha - reference.s) * out.nB1
        assert out.pA2 == pytest.approx(expected_a, abs=1e-12)
        assert out.pB2 == pytest.approx(expected_b, abs=1e-12)

    def test_subsidy_added_to_entrant_payoff(self, reference):
        out = incompatible_equilibrium(reference.with_values(subsidy_p3=0.4))
        assert out.profitB_with_subsidy == out.profitB + 0.4

    def test_blockaded_cutoff_raises(self, reference):
        p = reference.with_values(k=60.0, d=10.0)
        with pytest.raises(CornerEquilibriumError) as err:
            incompatible_equilibrium(p)
        assert err.value.scenario is Scenario.INCOMPATIBLE


class TestEquilibriumDispatch:
    def test_routes_to_each_scenario(self, reference):
        assert equilibrium(reference, Scenario.SAME_CHAIN).pA1 == 3.0
        assert equilibrium(reference, Scenario.COMPATIBLE).scenario is Scenario.COMPATIBLE
        assert equilibrium(reference, Scenario.INCOMPATIBLE).pA1 < 0.0


class TestFirstOrderConditions:
    """Marginal stage profit in a firm's own price vanishes at every
    closed-form equilibrium (analytic derivatives of the stage objectives)."""

    def _residuals(self, p):
        u = p.s - p.alpha
        out = []
        same = same_chain_equilibrium(p)
        out.append(0.5 + (same.pB1 - 2.0 * same.pA1) / (2.0 * p.s))
        out.append(0.5 + (same.pA1 - 2.0 * same.pB1) / (2.0 * p.s))
        comp = compatible_equilibrium(p)
        out.append(comp.cutoff1 - comp.pA1 / (2.0 * u))
        out.append((1.0 - comp.cutoff1) - comp.pB1 / (2.0 * u))
        inc = incompatible_equilibrium(p)
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
            b_same = same_chain_equilibrium(p).profitB
            b_comp = compatible_equilibrium(p).profitB
            b_inc = incompatible_equilibrium(p).profitB
            assert b_same > b_comp > b_inc
            assert compatible_equilibrium(p).profitA > incompatible_equilibrium(p).profitA

    def test_incumbent_beats_entrant_on_compatible_chain(self, draws25):
        for p in draws25:
            out = compatible_equilibrium(p)
            assert out.profitB < out.profitA

    def test_profit_gap_widens_with_network_strength(self, reference):
        lo = compatible_equilibrium(reference.with_values(alpha=0.06))
        hi = compatible_equilibrium(reference.with_values(alpha=0.12))
        assert hi.profitA - hi.profitB > lo.profitA - lo.profitB

    def test_entrant_compatible_price_below_shared_price(self, draws25):
        for p in draws25:
            assert compatible_equilibrium(p).pB1 < p.s

    def test_small_base_gap_keeps_incumbent_below_shared_payoff(self, reference):
        # the payoff clause holds strictly when alpha*(n1-n2) stays below
        # 3*(sqrt(s*u) - u); at the reference that allows gaps up to ~1.487
        for gap in (0.5, 1.0, 1.4):
            # k raised to clear the participation bound at the larger rival
            # base; none of the compared quantities involve k
            p = reference.with_values(k=25.0, n2=reference.n1 - gap,
                                      n3=reference.n1 - gap)
            out = compatible_equilibrium(p)
            assert out.profitA < same_chain_equilibrium(p).profitA
            assert out.pA1 < p.s

    def test_base_gap_three_is_the_price_boundary(self, reference):
        """A gap of exactly 3 puts the incumbent's compatible price at s and
        its payoff above the shared-chain payoff, so the payoff clause's
        stated gap bound of 3 is sharp only for prices."""
        p = reference.with_values(n2=7.0, n3=7.0)
        out = compatible_equilibrium(p)
        assert out.pA1 == pytest.approx(p.s, abs=1e-12)
        assert out.profitA > same_chain_equilibrium(p).profitA


class TestThresholds:
    def test_reference_subsidy_thresholds(self, reference):
        rep = subsidy_threshold(reference)
        assert rep.c2_star == pytest.approx(REF_THRESHOLDS["c2"], abs=1e-12)
        assert rep.c3_star == pytest.approx(REF_THRESHOLDS["c3"], abs=1e-12)

    def test_subsidy_thresholds_are_payoff_gaps_at_zero_edge(self, reference):
        p = reference.with_values(d=1.0)  # thresholds ignore the point's own d
        rep = subsidy_threshold(p)
        b_same = closed_form.profit_b_same(p)
        assert rep.c2_star == pytest.approx(
            b_same - closed_form.profit_b_compatible(p, d=0.0), abs=1e-12)
        assert rep.c3_star == pytest.approx(
            b_same - closed_form.profit_b_incompatible(p, d=0.0), abs=1e-12)

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
        target = closed_form.profit_b_same(reference)
        assert closed_form.profit_b_compatible(reference, d=rep.d2_star) == \
            pytest.approx(target, abs=1e-8)
        assert closed_form.profit_b_incompatible(reference, d=rep.d3_star) == \
            pytest.approx(target, abs=1e-8)

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

    def test_argmax_invariant_to_common_payoff_shift(self, reference):
        dec = adoption_decision(reference.with_values(subsidy_p2=0.5))
        shifted = {name: value + 17.25 for name, value in dec.payoffs.items()}
        best = max(sorted(shifted), key=lambda name: (shifted[name], -ord(name[1])))
        assert best == dec.chosen


class TestAdoptionSensitivity:
    def test_slopes_match_formulas_bitwise(self, reference, draws25):
        for p in [reference, *draws25]:
            sens = adoption_sensitivity(p)
            u = p.s - p.alpha
            assert sens.compatible == 1.0 / (6.0 * u)
            assert sens.incompatible == 1.0 / (5.0 * u)
            assert sens.ratio == 1.2

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


class TestThresholdCrossCheck:
    def test_entrant_is_indifferent_at_each_threshold(self, reference):
        # Checked on the equilibrium constructors' price-times-share profits,
        # a route independent of the aggregate profit_* formulas the roots
        # solve. The point's own edge and subsidies give way to the one
        # threshold under test.
        for p in [reference, *_off_gate_draws(seed=2024, count=30)]:
            rep = subsidy_threshold(p)
            bare = p.with_values(d=0.0, subsidy_p2=0.0, subsidy_p3=0.0)
            at_threshold = {
                "d2_star": compatible_equilibrium(bare.with_values(d=rep.d2_star)),
                "d3_star": incompatible_equilibrium(bare.with_values(d=rep.d3_star)),
                "c2_star": compatible_equilibrium(
                    bare.with_values(subsidy_p2=rep.c2_star)),
                "c3_star": incompatible_equilibrium(
                    bare.with_values(subsidy_p3=rep.c3_star)),
            }
            target = same_chain_equilibrium(p).profitB
            for case, out in at_threshold.items():
                assert out.profitB_with_subsidy == pytest.approx(target, rel=1e-9), \
                    (case, p)


class TestOutcomeDiagnostics:
    def test_closed_forms_keep_the_exact_defaults(self, reference):
        for scenario in Scenario:
            out = equilibrium(reference, scenario)
            assert (out.converged, out.iterations, out.residual) == (True, 0, 0.0)
