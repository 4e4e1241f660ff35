import ast
import dataclasses
import inspect
import json
import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from chain_rivalry import closed_form, model, oracle, sim, verify
from chain_rivalry.closed_form import equilibrium
from chain_rivalry.model import (
    EquilibriumOutcome,
    InvalidParamsError,
    ModelParams,
    Scenario,
    net_values,
    require_valid,
    user_utility,
    validate_params,
)
from conftest import REFERENCE, game, games, midpoint_types, oracle_outcome


class TestModelParams:
    def test_optional_fields_default_to_zero(self):
        p = ModelParams.from_mapping(REFERENCE)
        assert (p.d, p.subsidy_p2, p.subsidy_p3) == (0.0, 0.0, 0.0)

    def test_from_mapping_accepts_all_nine_fields(self):
        p = ModelParams.from_mapping({**REFERENCE, "d": 1.5, "subsidy_p2": 0.2,
                                      "subsidy_p3": 0.3})
        assert p.d == 1.5
        assert p.subsidy_p2 == 0.2
        assert p.subsidy_p3 == 0.3

    def test_integer_values_become_floats(self):
        for k, n1 in [(20, 10), (Fraction(20), np.int64(10))]:
            p = ModelParams.from_mapping({**REFERENCE, "k": k, "n1": n1})
            assert type(p.k) is float and p.k == 20.0
            assert type(p.n1) is float and p.n1 == 10.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: beta"):
            ModelParams.from_mapping({**REFERENCE, "beta": 1.0})

    def test_missing_key_rejected(self):
        data = dict(REFERENCE)
        del data["k"]
        with pytest.raises(ValueError, match="missing config keys: k"):
            ModelParams.from_mapping(data)

    @pytest.mark.parametrize("bad", [True, "3", None, [3]])
    def test_non_numeric_value_rejected(self, bad):
        with pytest.raises(ValueError, match="must be a number"):
            ModelParams.from_mapping({**REFERENCE, "s": bad})

    @pytest.mark.parametrize("first, second", [("s", "k"), ("k", "s")])
    def test_the_first_bad_value_in_mapping_order_is_named(self, first,
                                                          second):
        # not the first in a set's hash order, which varies between runs
        data = {first: "x", second: "y"} | {
            name: value for name, value in REFERENCE.items()
            if name not in (first, second)}
        with pytest.raises(ValueError, match=f"^config key {first!r} must be"):
            ModelParams.from_mapping(data)

    @pytest.mark.parametrize("field", ["k", "d"])
    @pytest.mark.parametrize("bad,shown", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
        (10 ** 400, "inf"),
        # pytest cannot name a value past Python's int-to-str digit limit
        pytest.param(10 ** 5000, "inf", id="10**5000-inf"),
    ])
    def test_non_finite_value_rejected(self, field, bad, shown):
        message = f"^config key {field!r} must be finite, got {shown}$"
        with pytest.raises(ValueError, match=message):
            ModelParams.from_mapping({**REFERENCE, field: bad})

    def test_json_infinity_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**REFERENCE, "k": float("inf")}))
        assert "Infinity" in path.read_text()
        with pytest.raises(ValueError,
                           match="^config key 'k' must be finite, got inf$"):
            ModelParams.from_json_file(str(path))

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(REFERENCE))
        assert ModelParams.from_json_file(str(path)) == ModelParams(**REFERENCE)

    def test_from_json_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            ModelParams.from_json_file(str(path))

    def test_with_values_returns_updated_copy(self, reference):
        q = reference.with_values(d=2.0)
        assert q.d == 2.0
        assert reference.d == 0.0
        assert q.s == reference.s
        assert q == ModelParams(**REFERENCE, d=2.0)
        assert hash(q) == hash(ModelParams(**REFERENCE, d=2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.d = 1.0

    def test_with_values_rejects_an_unknown_field(self, reference):
        with pytest.raises(TypeError, match="zeta"):
            reference.with_values(d=1.0, zeta=2.0)


class TestSubsidy:
    def test_each_scenario_gets_its_own_chains_transfer(self):
        p = ModelParams(**REFERENCE, subsidy_p2=0.2, subsidy_p3=0.3)
        assert p.subsidy(Scenario.SAME_CHAIN) == 0.0
        assert p.subsidy(Scenario.COMPATIBLE) == 0.2
        assert p.subsidy(Scenario.INCOMPATIBLE) == 0.3

    @pytest.mark.parametrize("name", [sc.value for sc in Scenario])
    def test_rejects_a_scenario_name(self, name):
        # unchecked, "compatible" would get the shared chain's 0.0
        p = ModelParams(**REFERENCE, subsidy_p2=0.2, subsidy_p3=0.3)
        with pytest.raises(TypeError, match=f"must be a Scenario, got '{name}'"):
            p.subsidy(name)


class TestOutcomeFromPeriods:
    # pA1, pB1, cutoff1, nA1, nB1: the oracle's cutoff can differ from A's
    # share short of coverage, so the two are distinct here
    PERIOD1 = (1.5, 2.5, 0.45, 0.375, 0.5)
    HARVEST = (7.0, 5.0, 0.25, 0.125)  # pA2, pB2, nA2, nB2
    REPEATED = (("pA1", "pA2"), ("pB1", "pB2"), ("cutoff1", "cutoff2"),
                ("nA1", "nA2"), ("nB1", "nB2"), ("profitA1", "profitA2"),
                ("profitB1", "profitB2"))

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_without_a_harvest_period_2_repeats_period_1(self, reference,
                                                         scenario):
        out = EquilibriumOutcome.from_periods(reference, scenario,
                                              *self.PERIOD1)
        assert out.scenario is scenario
        for first, second in self.REPEATED:
            assert getattr(out, second) == getattr(out, first), second
        assert (out.profitA1, out.profitB1) == (1.5 * 0.375, 2.5 * 0.5)
        assert (out.converged, out.iterations, out.residual) == (True, 0, 0.0)

    def test_a_harvest_is_period_2_and_its_cutoff_is_a_retained_base(
            self, reference):
        out = EquilibriumOutcome.from_periods(
            reference, Scenario.INCOMPATIBLE, *self.PERIOD1, self.HARVEST,
            False, 3, 0.5)
        assert (out.pA1, out.pB1, out.cutoff1, out.nA1, out.nB1) == self.PERIOD1
        assert (out.pA2, out.pB2, out.nA2, out.nB2) == self.HARVEST
        assert out.cutoff2 == out.nA2 == 0.25
        assert (out.profitA2, out.profitB2) == (7.0 * 0.25, 5.0 * 0.125)
        assert (out.converged, out.iterations, out.residual) == (False, 3, 0.5)

    @pytest.mark.parametrize("scenario, paid", [
        (Scenario.SAME_CHAIN, 0.0), (Scenario.COMPATIBLE, 0.25),
        (Scenario.INCOMPATIBLE, 0.5)])
    def test_only_the_subsidized_payoff_carries_its_own_chains_subsidy(
            self, reference, scenario, paid):
        subsidized = reference.with_values(subsidy_p2=0.25, subsidy_p3=0.5)
        harvest = self.HARVEST if scenario is Scenario.INCOMPATIBLE else ()
        bare = EquilibriumOutcome.from_periods(reference, scenario,
                                               *self.PERIOD1, harvest)
        out = EquilibriumOutcome.from_periods(subsidized, scenario,
                                              *self.PERIOD1, harvest)
        assert out.profitB_with_subsidy == bare.profitB + paid
        assert out.with_values(profitB_with_subsidy=bare.profitB_with_subsidy) == bare

    def test_exact_numbers_stay_exact(self):
        p = ModelParams(**{name: Fraction(value) for name, value
                           in REFERENCE.items()}, subsidy_p3=Fraction(1, 3))
        third = Fraction(1, 3)
        out = EquilibriumOutcome.from_periods(
            p, Scenario.INCOMPATIBLE, -third, -third, third, third, 1 - third,
            (Fraction(7, 3), Fraction(5, 3), third, 1 - third))
        assert out.profitA == -third * third + Fraction(7, 3) * third
        assert out.profitB == (-third + Fraction(5, 3)) * (1 - third)
        assert out.profitB_with_subsidy == out.profitB + third
        # every field from pA1 to profitB_with_subsidy
        assert all(type(value) is Fraction
                   for value in list(vars(out).values())[1:18])

    @pytest.mark.parametrize("solve", [lambda key, scenario: equilibrium(game(key), scenario),
                                       oracle_outcome], ids=["closed_form", "oracle"])
    def test_payoffs_are_price_times_share_over_both_periods(self, solve):
        # The accounting written out by hand, apart from from_periods; the
        # draws carry distinct nonzero subsidies on P2 and P3.
        for key in games("wide", 2024, 30):
            p = game(key)
            paid = {Scenario.SAME_CHAIN: 0.0, Scenario.COMPATIBLE: p.subsidy_p2,
                    Scenario.INCOMPATIBLE: p.subsidy_p3}
            for scenario in Scenario:
                out = solve(key, scenario)
                assert out.profitA1 == out.pA1 * out.nA1
                assert out.profitA2 == out.pA2 * out.nA2
                assert out.profitB1 == out.pB1 * out.nB1
                assert out.profitB2 == out.pB2 * out.nB2
                assert out.profitA == out.profitA1 + out.profitA2
                assert out.profitB == out.profitB1 + out.profitB2
                assert out.profitB_with_subsidy == out.profitB + paid[scenario]
                if scenario is Scenario.INCOMPATIBLE:
                    assert out.cutoff2 == out.nA2
                else:
                    assert ((out.pA2, out.pB2, out.cutoff2, out.nA2, out.nB2)
                            == (out.pA1, out.pB1, out.cutoff1, out.nA1,
                                out.nB1))


class TestValidateParams:
    def test_reference_is_valid(self, reference):
        report = validate_params(reference)
        assert report.ok
        assert report.violations == ()

    @pytest.mark.parametrize("field,value,fragment", [
        ("alpha", 0.0, "alpha must be positive"),
        ("alpha", -0.1, "alpha must be positive"),
        ("s", 0.0, "s must be positive"),
        ("k", -1.0, "k must be positive"),
        ("n1", -1.0, "n1 must be nonnegative"),
        ("n2", -0.5, "n2 must be nonnegative"),
        ("n3", -0.5, "n3 must be nonnegative"),
        ("d", -0.1, "d must be nonnegative"),
        ("subsidy_p2", -0.1, "subsidy_p2 must be nonnegative"),
        ("subsidy_p3", -0.1, "subsidy_p3 must be nonnegative"),
        ("n2", 10.0, "n1=10.0 must exceed n2"),
        ("n3", 11.0, "n1=10.0 must exceed n3"),
        ("alpha", 0.2, "assumption_1_1"),
        ("k", 18.0, "assumption_1_2"),
    ])
    def test_each_constraint_is_named(self, reference, field, value, fragment):
        report = validate_params(reference.with_values(**{field: value}))
        assert not report.ok
        assert any(fragment in v for v in report.violations)

    @pytest.mark.parametrize("field", ["alpha", "s", "k", "n1", "n2", "n3", "d",
                                       "subsidy_p2", "subsidy_p3"])
    @pytest.mark.parametrize("value,shown", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
    ])
    def test_non_finite_values_are_named(self, reference, field, value, shown):
        report = validate_params(reference.with_values(**{field: value}))
        assert not report.ok
        assert f"{field} must be finite, got {shown}" in report.violations
        # the sign check does not repeat the complaint
        assert not any(v.startswith(f"{field} must be positive")
                       or v.startswith(f"{field} must be nonnegative")
                       for v in report.violations)

    def test_dispersion_bound_is_strict(self, reference):
        # s must strictly exceed alpha*(2*n1+1) = 2.1 at the reference point
        report = validate_params(reference.with_values(s=2.1))
        assert any("assumption_1_1" in v for v in report.violations)
        report = validate_params(reference.with_values(s=2.2))
        assert all("assumption_1_1" not in v for v in report.violations)

    def test_multiple_violations_all_reported(self):
        p = ModelParams(alpha=-1.0, s=-2.0, k=0.0, n1=1.0, n2=5.0, n3=5.0)
        report = validate_params(p)
        assert len(report.violations) >= 4

    def test_never_raises_on_garbage(self):
        p = ModelParams(alpha=float("nan"), s=-1.0, k=float("inf"),
                        n1=-3.0, n2=0.0, n3=0.0)
        report = validate_params(p)
        assert not report.ok
        # a directly built ModelParams is not type-checked: a field that is
        # not a number is reported, and the checks combining fields skipped
        p = ModelParams(alpha="x", s=3.0, k=20.0, n1=10.0, n2=5.0, n3=None,
                        d=10 ** 400, subsidy_p3=-10 ** 5000)
        assert validate_params(p).violations == (
            "alpha must be a number, got 'x'",
            "n3 must be a number, got None",
            "d must be finite, got inf",
            "subsidy_p3 must be finite, got -inf")

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_reports_a_bool_field(self, reference, flag):
        # a bool is no number, as in from_mapping and require_integer
        assert validate_params(reference.with_values(d=flag)).violations == (
            f"d must be a number, got {flag!r}",)

    def test_exact_and_numpy_numbers_are_numbers(self):
        exact = ModelParams(**{name: Fraction(value) for name, value
                               in REFERENCE.items()}, d=Fraction(1, 3))
        assert validate_params(exact).ok
        assert validate_params(exact.with_values(
            alpha=np.float64(0.1), n2=np.int64(5))).ok
        # a narrower float would carry its own precision through every route
        assert validate_params(exact.with_values(alpha=np.float32(0.1))).violations == (
            "alpha must be a number, got np.float32(0.1)",)

    def test_require_valid_raises_with_report(self, reference):
        bad = reference.with_values(alpha=-1.0)
        with pytest.raises(InvalidParamsError) as err:
            require_valid(bad)
        assert err.value.report.violations
        assert "alpha" in str(err.value)

    def test_require_valid_passes_silently(self, reference):
        require_valid(reference)

    def test_draws_satisfy_all_constraints(self, draws100):
        assert all(validate_params(p).ok for p in draws100)


def sign_grid(value):
    """Values from below 0 past value: 0 itself, the smallest floats on
    either side of it, and value, where positive and nonnegative differ."""
    return [-1.0, -5e-324, -0.0, 0.0, 5e-324, value / 2, value, value + 1.0]


# The reference's participation bound on k: k must exceed it.
K_BOUND = 4.0 * REFERENCE["s"] + 4.0 * REFERENCE["alpha"] * (
    1.0 + REFERENCE["n1"] + REFERENCE["n2"])


class TestValidateColumns:
    """validate_params on Column fields: one report per entry, the report
    of the entry's own params, byte for byte, with every valid entry's
    the one report every valid game gets."""

    @staticmethod
    def per_entry(base, field, values):
        """The column's reports, held to each entry's own; returns them."""
        reports = validate_params(base.with_values(**{field: model.Column(values)}))
        alone = [validate_params(base.with_values(**{field: value}))
                 for value in values]
        assert type(reports) is list
        assert [(report.ok, report.violations) for report in reports] == [
            (report.ok, report.violations) for report in alone]
        valid = validate_params(ModelParams(**REFERENCE))
        assert [report is valid for report in reports] == [
            report.ok for report in alone]
        return alone

    @pytest.mark.parametrize("field", ["alpha", "s", "k", "n1", "n2", "n3",
                                       "d", "subsidy_p2", "subsidy_p3"])
    def test_each_sign_constraint_from_below_zero(self, reference, field):
        base = reference.with_values(k=100.0) if field == "alpha" else reference
        values = sign_grid(max(getattr(base, field), 1.0))
        alone = self.per_entry(base, field, values)
        sign = "positive" if field in ("alpha", "s", "k") else "nonnegative"
        named = [any(v.startswith(f"{field} must be {sign}")
                     for v in report.violations) for report in alone]
        # a negative value breaks every sign, and a zero of either sign
        # only a positive field's
        assert named[:2] == [True, True]
        assert named[2:4] == [sign == "positive"] * 2
        assert not any(named[4:])

    @pytest.mark.parametrize("field", ["n2", "n3"])
    def test_a_base_past_n1(self, reference, field):
        alone = self.per_entry(reference, field, [0.0, 5.0, 9.5, 10.0, 10.5, 30.0])
        named = [any(v.startswith("dominant-chain base") for v in report.violations)
                 for report in alone]
        assert named == [False, False, False, True, True, True]

    def test_alpha_past_assumption_1_1(self, reference):
        # a large k keeps assumption 1.2 out of the way up to alpha = 0.5
        base = reference.with_values(k=100.0)
        bound = base.s / (2.0 * base.n1 + 1.0)
        values = [0.5 * bound, bound, 1.5 * bound, 0.5]
        alone = self.per_entry(base, "alpha", values)
        assert [any(v.startswith("assumption_1_1") for v in report.violations)
                for report in alone] == [False, True, True, True]

    def test_k_below_assumption_1_2(self, reference):
        values = [1.0, K_BOUND / 2, K_BOUND, K_BOUND + 1e-12, 2 * K_BOUND]
        alone = self.per_entry(reference, "k", values)
        assert [report.ok for report in alone] == [False, False, False, True, True]
        assert alone[2].violations == (
            f"assumption_1_2: k={K_BOUND!r} must exceed "
            f"4*s+4*alpha*(1+n1+n2)={K_BOUND!r}",)

    def test_s_with_both_ends_invalid(self, reference):
        values = [1.0 + 3.0 * i / 40 for i in range(41)]
        alone = self.per_entry(reference, "s", values)
        assert not alone[0].ok and not alone[-1].ok
        assert any(report.ok for report in alone)

    @pytest.mark.parametrize("field", ["alpha", "s", "n1", "d"])
    def test_non_finite_entries(self, reference, field):
        value = getattr(reference, field)
        alone = self.per_entry(reference, field, [value, math.inf, math.nan,
                                                  -math.inf, value])
        assert [report.ok for report in alone] == [True, False, False, False, True]

    def test_a_base_that_fails_every_entry(self, reference):
        # a field that is one number and breaks a constraint, or is not
        # finite, is named in every entry's report
        for base in (reference.with_values(k=1.0),
                     reference.with_values(n2=math.nan)):
            alone = self.per_entry(base, "alpha", [-1.0, 0.05, 0.5, math.inf])
            assert not any(report.ok for report in alone)

    def test_entries_that_are_not_floats(self, reference):
        # outside the column contract, each entry is still its own game
        self.per_entry(reference, "alpha", [0.05, Fraction(1, 20), 1, "x",
                                            10 ** 400, np.float32(0.1)])
        self.per_entry(reference.with_values(k=Fraction(20)), "alpha", [0.05, 0.2])

    def test_an_empty_column_has_no_reports(self, reference):
        assert validate_params(reference.with_values(d=model.Column())) == []

    def test_one_game_gets_one_report(self, reference):
        valid = validate_params(reference)
        assert type(valid) is model.ValidationReport
        assert validate_params(reference.with_values(d=1.0)) is valid
        report = validate_params(reference.with_values(k=1.0))
        assert type(report) is model.ValidationReport and not report.ok

    def test_require_valid_names_the_first_invalid_entry(self, reference):
        columns = reference.with_values(alpha=model.Column([0.05, 0.5, -1.0]))
        with pytest.raises(InvalidParamsError) as err:
            require_valid(columns)
        assert err.value.report == validate_params(reference.with_values(alpha=0.5))
        with pytest.raises(InvalidParamsError):
            equilibrium(columns, Scenario.COMPATIBLE)
        valid = reference.with_values(alpha=model.Column([0.05, 0.1]))
        require_valid(valid)
        assert type(equilibrium(valid, Scenario.COMPATIBLE).pA1) is model.Column

    def test_closed_form_shares_the_column(self):
        assert closed_form.Column is model.Column


class TestEnums:
    @pytest.mark.parametrize("name,member", [
        ("same", Scenario.SAME_CHAIN),
        ("compatible", Scenario.COMPATIBLE),
        ("incompatible", Scenario.INCOMPATIBLE),
    ])
    def test_scenario_from_name(self, name, member):
        assert Scenario.from_name(name) is member

    def test_scenario_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            Scenario.from_name("hybrid")

    def test_constants_are_the_members_in_order(self):
        assert model.SCENARIOS == tuple(Scenario)
        assert (model.SAME_CHAIN, model.COMPATIBLE,
                model.INCOMPATIBLE) == tuple(Scenario)

    @pytest.mark.parametrize("function", [
        model.user_utility, ModelParams.subsidy, closed_form.equilibrium,
        sim._step, sim.simulate_game, verify.run_verification,
        oracle._demand, oracle._lines, oracle.oracle_equilibrium,
    ], ids=lambda function: function.__qualname__)
    def test_per_game_paths_name_no_scenario_class(self, function):
        # the paths that run once per game or more compare with the module
        # constants and iterate SCENARIOS: before Python 3.12 each
        # Scenario.<member> costs a pass through EnumType's __getattr__, and
        # each walk over Scenario builds an iterator over its members
        lines, first = inspect.getsourcelines(function)
        definition = ast.parse(textwrap.dedent("".join(lines))).body[0]
        named = [first - 1 + node.lineno for statement in definition.body
                 for node in ast.walk(statement)
                 if isinstance(node, ast.Name) and node.id == "Scenario"]
        assert not named, (f"{function.__qualname__} names Scenario in its "
                           f"body, at lines {named} of "
                           f"{inspect.getsourcefile(function)}")


class TestUserUtility:
    @staticmethod
    def utility(p, scenario, x, **kwargs):
        return user_utility(p, scenario, (p.s * x, p.s * (1.0 - x)), **kwargs)

    def test_shared_chain_midpoint_is_symmetric(self, reference):
        """At equal prices the middle user gets the same utility from both
        firms, and the shared chain counts every adopter for both."""
        uA, uB = self.utility(reference, Scenario.SAME_CHAIN, 0.5, pA=3.0,
                              pB=3.0, nA=0.5, nB=0.5)
        assert uA == pytest.approx(16.6, abs=1e-12)
        assert uB == pytest.approx(16.6, abs=1e-12)

    def test_shared_chain_boundary_user(self, reference):
        # full participation: network is n1 + 1, price s, taste cost 0 at x=0
        u, _ = self.utility(reference, Scenario.SAME_CHAIN, 0.0,
                            pA=reference.s, pB=reference.s, nA=0.5, nB=0.5)
        expected = reference.alpha * (reference.n1 + 1.0) - reference.s + reference.k
        assert u == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("scenario,base", [
        (Scenario.COMPATIBLE, 5.0),
        (Scenario.INCOMPATIBLE, 5.0),
    ])
    def test_entrant_chain_network_and_edge(self, reference, scenario, base):
        p = reference.with_values(d=0.7, n2=5.0, n3=5.0)
        x, nA, nB = 0.8, 0.6, 0.3
        _, uB = self.utility(p, scenario, x, pA=2.0, pB=1.5, nA=nA, nB=nB)
        expected = p.alpha * (base + nB) + p.d - 1.5 - p.s * (1.0 - x) + p.k
        assert uB == pytest.approx(expected, abs=1e-12)

    def test_incumbent_ignores_entrant_adopters_on_separate_chains(self, reference):
        x, nA = 0.2, 0.55
        for nB in (0.0, 0.45):
            uA, _ = self.utility(reference, Scenario.INCOMPATIBLE, x,
                                 pA=2.0, pB=1.5, nA=nA, nB=nB)
            expected = reference.alpha * (reference.n1 + nA) - 2.0 - reference.s * x + reference.k
            assert uA == pytest.approx(expected, abs=1e-12)

    def test_vectorized_matches_scalar(self, reference):
        # the tests' brute-force references evaluate user_utility on arrays
        # of distances; each entry is bitwise the scalar call at its type
        xs, distances = midpoint_types(reference, 11)
        arr, _ = user_utility(reference, Scenario.COMPATIBLE, distances,
                              pA=2.5, pB=2.0, nA=0.5, nB=0.5)
        assert arr.shape == xs.shape
        for x, v in zip(xs.tolist(), arr.tolist()):
            scalar, _ = self.utility(reference, Scenario.COMPATIBLE, x,
                                     pA=2.5, pB=2.0, nA=0.5, nB=0.5)
            assert scalar == v


class TestNetValues:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_utility_is_net_value_less_distance_plus_k(self, reference,
                                                       scenario):
        # user_utility adds a type's distances and k to net_values, in the
        # order the simulator's step repeats per type
        p = reference.with_values(d=0.7, n3=4.0)
        net_a, net_b = net_values(p, scenario, 2.5, 2.0, 0.4, 0.35)
        for x in (0.0, 0.3, 1.0):
            dist_a, dist_b = p.s * x, p.s * (1.0 - x)
            assert user_utility(p, scenario, (dist_a, dist_b), 2.5, 2.0, 0.4,
                                0.35) == ((net_a - dist_a) + p.k,
                                          (net_b - dist_b) + p.k)

    def test_no_taste_enters_the_net_values(self, reference):
        # the shared chain counts both firms' adopters in one network; on
        # separate chains B's carries its own base and the edge d
        p = reference.with_values(d=0.7, n2=5.0, n3=6.0)
        assert net_values(p, Scenario.SAME_CHAIN, 2.0, 1.5, 0.5, 0.25) == (
            p.alpha * (p.n1 + 0.5 + 0.25) - 2.0,
            p.alpha * (p.n1 + 0.5 + 0.25) + 0.0 - 1.5)
        for scenario, base in ((Scenario.COMPATIBLE, 5.0),
                               (Scenario.INCOMPATIBLE, 6.0)):
            assert net_values(p, scenario, 2.0, 1.5, 0.5, 0.25) == (
                p.alpha * (p.n1 + 0.5) - 2.0, p.alpha * (base + 0.25) + 0.7 - 1.5)
