import dataclasses
import hashlib
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from chain_rivalry import cli, closed_form, sim, verify
from chain_rivalry.model import ModelParams, Scenario
from chain_rivalry.verify import draw_params, run_verification
from conftest import astuple, exact, skew_compatible_profit_b, without_equilibrium_lines

REPO_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def _with(out, **changes):
    """A route's result with changes: a record's with_values, or
    dataclasses.replace on sim.SimRun, the route result that stays a
    dataclass."""
    if isinstance(out, sim.SimRun):
        return dataclasses.replace(out, **changes)
    return out.with_values(**changes)


def _uniform_draw(rng):
    """draw_params written with one Generator.uniform call per field: the
    reference its one-call draw must reproduce bit for bit."""
    n1 = float(rng.uniform(1.0, 50.0))
    n_rival = float(rng.uniform(0.0, n1))
    s = float(rng.uniform(0.5, 20.0))
    alpha = float(rng.uniform(0.0, s / (2.0 * n1 + 1.0)))
    while alpha == 0.0:
        alpha = float(rng.uniform(0.0, s / (2.0 * n1 + 1.0)))
    bound = 4.0 * s + 4.0 * alpha * (1.0 + n1 + n_rival)
    k = bound + bound * (1.0 - float(rng.uniform(0.0, 1.0)))
    return ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n_rival, n3=n_rival)


class _AlphaZeroOnce:
    """A generator over a real one's first six random() values with the
    fourth, alpha's draw, set to 0.0. random() and uniform() read the same
    values, as Generator's do, and raise StopIteration past the sixth."""

    def __init__(self, seed):
        values = np.random.default_rng(seed).random(6)
        values[3] = 0.0
        self.values = iter(values.tolist())

    def random(self, size=None):
        if size is None:
            return next(self.values)
        return np.array([next(self.values) for _ in range(size)])

    def uniform(self, low, high):
        return low + (high - low) * next(self.values)


def _bits(p):
    return [value.hex() for value in vars(p).values()]


class TestDrawParams:
    @pytest.mark.parametrize("seed", [0, 9, 42, 123, 2024])
    def test_matches_the_uniform_call_reference_bitwise(self, seed):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            assert _bits(draw_params(fast)) == _bits(_uniform_draw(ref))
        assert fast.random() == ref.random()  # the streams stay in step

    def test_a_zero_alpha_is_drawn_again(self):
        stub = _AlphaZeroOnce(7)
        p = draw_params(stub)
        assert _bits(p) == _bits(_uniform_draw(_AlphaZeroOnce(7)))
        values = np.random.default_rng(7).random(6)
        assert p.alpha == p.s / (2.0 * p.n1 + 1.0) * values[4] > 0.0
        with pytest.raises(StopIteration):  # k took the sixth value
            stub.random()

    def test_draws_stay_inside_every_constraint(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            p = draw_params(rng)  # raises if any constraint is broken
            assert 1.0 <= p.n1 < 50.0
            assert 0.0 <= p.n2 < p.n1
            assert p.n3 == p.n2
            assert 0.5 <= p.s < 20.0
            assert 0.0 < p.alpha < p.s / (2.0 * p.n1 + 1.0)
            bound = 4.0 * p.s + 4.0 * p.alpha * (1.0 + p.n1 + p.n2)
            assert bound < p.k <= 2.0 * bound
            assert p.d == 0.0
            assert p.subsidy_p2 == 0.0 and p.subsidy_p3 == 0.0

    def test_same_seed_same_stream(self):
        a = [draw_params(np.random.default_rng(9)) for _ in range(1)]
        b = [draw_params(np.random.default_rng(9)) for _ in range(1)]
        assert a == b
        rng = np.random.default_rng(9)
        first, second = draw_params(rng), draw_params(rng)
        assert first != second


class TestRunVerification:
    def test_all_routes_agree_on_a_small_run(self, reference):
        report = run_verification(reference, trials=2, seed=0, m=500)
        assert report.ok
        assert report.failures == ()
        assert report.trials == 2 and report.seed == 0 and report.m == 500
        assert report.oracle_used and report.sim_used
        kinds = {c.kind for c in report.checks}
        assert kinds == {"oracle", "sim"}
        # every scenario and quantity gets a worst-deviation cell
        oracle_cells = {(c.scenario, c.quantity) for c in report.checks
                        if c.kind == "oracle"}
        assert len(oracle_cells) == 3 * 8
        sim_cells = {(c.scenario, c.quantity) for c in report.checks
                     if c.kind == "sim"}
        assert len(sim_cells) == 3 * 8
        for check in report.checks:
            assert check.ok
            assert check.max_abs >= 0.0

    def test_oracle_only(self, reference):
        report = run_verification(reference, trials=1, seed=3,
                                  use_sim=False, m=100)
        assert report.ok
        assert not report.sim_used
        assert {c.kind for c in report.checks} == {"oracle"}

    def test_sim_only(self, reference):
        report = run_verification(reference, trials=1, seed=3,
                                  use_oracle=False, m=400)
        assert report.ok
        assert not report.oracle_used
        assert {c.kind for c in report.checks} == {"sim"}

    def test_sim_only_at_a_billion_types(self, reference):
        # a game computes its types on demand, so m = 2^30 costs a few more
        # boundary steps, not an array of 2^30 types
        report = run_verification(reference, trials=2, use_oracle=False,
                                  m=2 ** 30)
        assert report.ok, report.failures
        assert report.m == 2 ** 30

    def test_rejects_a_population_past_sys_maxsize_before_any_game(
            self, reference, monkeypatch):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was played")

        monkeypatch.setattr(verify, "simulate_game", no_game)
        monkeypatch.setattr(verify, "oracle_equilibrium", no_game)
        for m in (2 ** 63, 10 ** 400):
            with pytest.raises(ValueError, match="^population size m must be "
                               f"at most {sys.maxsize}$"):
                run_verification(reference, trials=2, m=m)

    def test_config_alone_when_trials_zero(self, reference):
        report = run_verification(reference, trials=0, seed=1,
                                  use_sim=False)
        assert report.ok
        assert report.trials == 0

    def test_rejects_bad_arguments(self, reference):
        with pytest.raises(ValueError,
                           match="^trials must be at least 0, got -1$"):
            run_verification(reference, trials=-1)
        with pytest.raises(ValueError,
                           match="^seed must be at least 0, got -1$"):
            run_verification(reference, trials=0, seed=-1)
        with pytest.raises(ValueError, match="^population size m must be at "
                                             "least 2, got 1$"):
            run_verification(reference, m=1)
        for trials, seed, bad in [(True, 42, "trials"), (2.5, 42, "trials"),
                                  (0, True, "seed"), (0, 2.5, "seed"),
                                  (0, 1.5, "seed"), ("3", 42, "trials")]:
            value = trials if bad == "trials" else seed
            with pytest.raises(ValueError, match=f"^{bad} must be an integer, "
                                                 f"got {value!r}$"):
                run_verification(reference, trials=trials, seed=seed)
        with pytest.raises(ValueError, match="no route"):
            run_verification(reference, trials=3, use_oracle=False,
                             use_sim=False)

    @pytest.mark.parametrize("m", [1000.5, 1000.0, True, "1000"])
    def test_rejects_a_population_size_that_is_not_an_integer(self, reference,
                                                              m):
        with pytest.raises(ValueError, match="^population size m must be an "
                                             "integer, got "):
            run_verification(reference, trials=0, use_oracle=False, m=m)

    def test_numpy_integer_size_gives_the_int_report(self, reference):
        report = run_verification(reference, trials=1, use_oracle=False,
                                  m=np.int64(1000))
        assert type(report.m) is int
        assert report == run_verification(reference, trials=1,
                                          use_oracle=False, m=1000)

    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("changes, error, message", [
        ({"d": 10.0}, closed_form.CornerEquilibriumError,
         "compatible equilibrium cutoff -0.04597701149425292 outside (0, 1)"),
        ({"d": 8.5}, closed_form.CornerEquilibriumError,
         "incompatible equilibrium cutoff -0.05172413793103448 outside (0, 1)"),
        ({"k": 1e308}, ValueError, "incompatible equilibrium: pA1 overflows to -inf"),
    ], ids=["compatible-corner", "incompatible-corner", "overflow"])
    def test_a_failing_base_raises_its_closed_form_error(
            self, reference, monkeypatch, changes, error, message, trials):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was played")

        monkeypatch.setattr(verify, "simulate_game", no_game)
        monkeypatch.setattr(verify, "oracle_equilibrium", no_game)
        with pytest.raises(error) as err:
            run_verification(reference.with_values(**changes), trials=trials)
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize("trials", [0, 3, 100])
    def test_one_closed_form_solve_per_scenario(self, reference, monkeypatch,
                                                trials):
        real, calls = closed_form.equilibrium, []

        def counted(p, scenario, validate=True):
            calls.append(scenario)
            return real(p, scenario, validate=validate)

        monkeypatch.setattr(closed_form, "equilibrium", counted)
        report = run_verification(reference, trials=trials, use_oracle=False,
                                  m=100)
        assert report.ok, report.failures
        assert calls == list(Scenario)

    def test_results_are_deterministic(self, reference):
        a = run_verification(reference, trials=2, seed=11, use_sim=False)
        b = run_verification(reference, trials=2, seed=11, use_sim=False)
        # an exact base runs as its floats, which here are the reference's
        assert a == b == run_verification(exact(reference), trials=2, seed=11,
                                          use_sim=False)


class TestReportLayout:
    def test_row_order(self, capsys):
        code = cli.main(["verify", "--config", str(REPO_CONFIG), "--trials", "0",
                         "--pop", "100"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        header = lines.index("route   scenario      quantity   max_abs     max_rel     status")
        rows = [line.split()[:3] for line in lines[header + 1:-1]]
        oracle_names = ["cutoff1", "cutoff2", "pA1", "pA2", "pB1", "pB2",
                        "profitA", "profitB"]
        sim_names = ["cutoff1", "cutoff2", "revenue_a", "revenue_b",
                     "share_a1", "share_a2", "share_b1", "share_b2"]
        expected = [[kind, scenario.value, name]
                    for kind, names in (("oracle", oracle_names),
                                        ("sim", sim_names))
                    for scenario in Scenario for name in names]
        assert len(rows) == 48
        assert rows == expected
        assert lines[-1] == "PASS: all checks within tolerance"

    def test_breach_lines_carry_the_note_and_every_parameter(self, monkeypatch):
        skew_compatible_profit_b(monkeypatch)
        p = ModelParams(alpha=0.1, s=3.0, k=20.0, n1=10.0, n2=5.0, n3=4.0,
                        d=0.25, subsidy_p2=0.5, subsidy_p3=0.75)
        params = ("alpha=0.10000000000000001, s=3, k=20, n1=10, n2=5, n3=4, "
                  "d=0.25, subsidy_p2=0.5, subsidy_p3=0.75")
        assert verify._params_line(p) == params
        report = run_verification(p, trials=0, m=1000)
        number = r"\d\.\d{3}e[+-]\d\d"
        for kind, name, note in (("oracle", "profitB", "rel 1e-03 or abs 1e-04"),
                                 ("sim", "revenue_b", "(|pB1|+|pB2|)/m + 1e-06")):
            pattern = (rf"{kind} compatible {name}: \|closed-{kind}\| = "
                       rf"{number} \(rel {number}\) exceeds {re.escape(note)} "
                       rf"at config: {re.escape(params)}")
            assert [line for line in report.failures
                    if re.fullmatch(pattern, line)], kind


class TestToleranceEdges:
    """A deviation of 0.9x its tolerance passes, one of 1.1x fails."""

    @pytest.mark.parametrize("factor, ok", [(0.9, True), (1.1, False)])
    @pytest.mark.parametrize("ref, tol", [(0.05, 1e-4), (-2.0, 2e-3)],
                             ids=["absolute", "relative"])
    def test_oracle(self, reference, monkeypatch, ref, tol, factor, ok):
        # the closed-form pA1 is pinned to ref; the oracle returns the exact
        # closed form with pA1 = ref + factor * tol
        real = closed_form.equilibrium

        def pinned(p, scenario, validate=True):
            return real(p, scenario, validate=validate).with_values(pA1=ref)

        monkeypatch.setattr(closed_form, "equilibrium", pinned)
        monkeypatch.setattr(verify, "oracle_equilibrium", lambda p, scenario:
                            real(p, scenario).with_values(pA1=ref + factor * tol))
        report = run_verification(reference, trials=0, use_sim=False)
        assert report.ok is ok
        bad = {(c.scenario, c.quantity) for c in report.checks if not c.ok}
        assert bad == (set() if ok else {(sc, "pA1") for sc in Scenario})

    @pytest.mark.parametrize("factor, ok", [(0.9, True), (1.1, False)])
    @pytest.mark.parametrize("quantity", ["share_a1", "revenue_a"])
    def test_sim(self, reference, monkeypatch, quantity, factor, ok):
        m = 100
        real = verify.simulate_game

        def shifted(p, scenario, prices, m):
            run = real(p, scenario, prices, m=m)
            closed = closed_form.equilibrium(p, scenario)
            if quantity == "share_a1":
                share = closed.nA1 + factor * (1.0 / m + 1e-6)
                return dataclasses.replace(
                    run, period1=run.period1.with_values(share_a=share))
            tol = (abs(closed.pA1) + abs(closed.pA2)) / m + 1e-6
            return dataclasses.replace(run, revenue_a=closed.profitA + factor * tol)

        monkeypatch.setattr(verify, "simulate_game", shifted)
        report = run_verification(reference, trials=0, use_oracle=False, m=m)
        assert report.ok is ok
        bad = {(c.scenario, c.quantity) for c in report.checks if not c.ok}
        assert bad == (set() if ok else {(sc, quantity) for sc in Scenario})


class TestNanDeviation:
    @pytest.mark.parametrize("game", [0, 1], ids=["then-finite", "after-finite"])
    @pytest.mark.parametrize("kind, attr, quantity",
                             [("oracle", "oracle_equilibrium", "pA1"),
                              ("sim", "simulate_game", "revenue_a")])
    def test_cell_reports_nan(self, reference, monkeypatch, kind, attr,
                              quantity, game):
        real = getattr(verify, attr)
        compatible_games = []

        def poisoned(p, scenario, *args, **kwargs):
            out = real(p, scenario, *args, **kwargs)
            if scenario is Scenario.COMPATIBLE:
                compatible_games.append(p)
                if len(compatible_games) == game + 1:
                    out = _with(out, **{quantity: math.nan})
            return out

        monkeypatch.setattr(verify, attr, poisoned)
        report = run_verification(reference, trials=1, seed=3,
                                  use_oracle=kind == "oracle",
                                  use_sim=kind == "sim", m=1000)
        assert len(compatible_games) == 2
        assert not report.ok
        (cell,) = [c for c in report.checks if not c.ok]
        assert (cell.kind, cell.scenario, cell.quantity) == \
            (kind, Scenario.COMPATIBLE, quantity)
        assert math.isnan(cell.max_abs) and math.isnan(cell.max_rel)
        (line,) = report.failures
        assert f"|closed-{kind}| = nan (rel nan)" in line


class TestFaultDetection:
    def test_shifted_closed_form_is_flagged(self, reference, monkeypatch):
        skew_compatible_profit_b(monkeypatch)
        report = run_verification(reference, trials=0, use_sim=False)
        assert not report.ok
        bad = [c for c in report.checks if not c.ok]
        assert [(c.kind, c.scenario, c.quantity) for c in bad] == \
            [("oracle", Scenario.COMPATIBLE, "profitB")]
        assert len(report.failures) == 1
        message = report.failures[0]
        assert "compatible" in message and "profitB" in message
        assert "config" in message and "alpha=" in message

    def test_untouched_scenarios_still_pass(self, reference, monkeypatch):
        skew_compatible_profit_b(monkeypatch)
        report = run_verification(reference, trials=0, use_sim=False)
        # the skew must land, or this test would pass without checking anything
        assert not report.ok
        for check in report.checks:
            if check.scenario is not Scenario.COMPATIBLE:
                assert check.ok

    def test_sim_route_catches_the_same_fault(self, reference, monkeypatch):
        skew_compatible_profit_b(monkeypatch)
        report = run_verification(reference, trials=0, use_oracle=False,
                                  m=1000)
        assert not report.ok
        bad = {(c.kind, c.quantity) for c in report.checks if not c.ok}
        assert ("sim", "revenue_b") in bad


class TestOracleConvergence:
    def test_non_convergence_fails_the_run(self, reference, monkeypatch):
        without_equilibrium_lines(monkeypatch)
        report = run_verification(reference, trials=0, use_sim=False)
        assert not report.ok
        assert report.oracle_unconverged == 3
        stalled = [line for line in report.failures
                   if "did not converge" in line]
        assert len(stalled) == 3
        for scenario, line in zip(Scenario, stalled):
            assert line.startswith(f"oracle {scenario.value}: ")
            assert "no price pair certified" in line and "at config: alpha=" in line

    def test_converged_runs_report_none(self, reference):
        report = run_verification(reference, trials=1, seed=3, use_sim=False)
        assert report.ok
        assert report.oracle_unconverged == 0


class TestSimConvergence:
    def test_non_convergence_fails_the_run(self, reference, monkeypatch):
        monkeypatch.setattr(sim, "MAX_FIXED_POINT_ITER", 0)
        report = run_verification(reference, trials=0, use_oracle=False, m=100)
        assert not report.ok
        assert report.sim_unconverged == 3
        assert report.oracle_unconverged == 0
        stalled = [line for line in report.failures
                   if "did not converge" in line]
        assert len(stalled) == 3
        for scenario, line in zip(Scenario, stalled):
            assert line.startswith(f"sim {scenario.value}: ")
            assert "period 1 (0 iterations), period 2 (0 iterations)" in line
            assert "at config: alpha=" in line

    def test_one_stalled_period_is_enough(self, reference, monkeypatch):
        real = verify.simulate_game

        def stall_second(*args, **kwargs):
            run = real(*args, **kwargs)
            stalled = run.period2.with_values(converged=False)
            return dataclasses.replace(run, period2=stalled)

        monkeypatch.setattr(verify, "simulate_game", stall_second)
        report = run_verification(reference, trials=0, use_oracle=False, m=100)
        assert not report.ok
        assert report.sim_unconverged == 3
        assert all(c.ok for c in report.checks)

    def test_converged_runs_report_none(self, reference):
        report = run_verification(reference, trials=1, seed=3, use_oracle=False,
                                  m=1000)
        assert report.ok
        assert report.sim_unconverged == 0


def _words(value):
    """A report field as text: floats as float.hex(), scenarios by value,
    tuples and check cells field by field, anything else by repr."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Scenario):
        return value.value
    if isinstance(value, tuple):
        return "(" + " ".join(_words(v) for v in value) + ")"
    if isinstance(value, verify.QuantityCheck):
        return _words(astuple(value))
    return repr(value)


def _report_digest(reports):
    """sha256 over every field of each report, in field order."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(" ".join(f"{name}={_words(getattr(report, name))}"
                               for name in report.__match_args__).encode()
                      + b"\n")
    return digest.hexdigest()


# sha256 of _report_digest over the reports of TestPinnedReports: both
# routes, each route alone, a closed form skewed in two scenarios, a NaN
# deviation in each route, and both routes stalled.
REPORT_DIGEST = "44c0a711ff0f5f89fb7d8c6a286b185b2f27d20c438359bafccac838a094898a"


class TestPinnedReports:
    def test_reports_match_their_pinned_bits(self, reference, monkeypatch):
        # A rewrite of the check accounting must leave every report field,
        # the order and text of failures included, bitwise as it was.
        reports = [run_verification(reference, trials=3, seed=seed, m=1000)
                   for seed in (0, 5)]
        reports.append(run_verification(reference, trials=3, seed=11,
                                        use_sim=False))
        reports += [run_verification(reference, trials=20, seed=seed,
                                     use_oracle=False, m=m)
                    for seed, m in ((12, 999), (13, 10000))]

        real = closed_form.equilibrium

        def skewed(p, scenario, validate=True):
            # breaches in both routes and every game of two scenarios
            out = real(p, scenario, validate=validate)
            if scenario is Scenario.COMPATIBLE:
                return out.with_values(profitB=out.profitB + 0.05)
            if scenario is Scenario.INCOMPATIBLE:
                return out.with_values(cutoff1=out.cutoff1 + 0.01)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(closed_form, "equilibrium", skewed)
            reports.append(run_verification(reference, trials=3, seed=4,
                                            m=1000))

        def poisoned(attr, quantity):
            route, games = getattr(verify, attr), []

            def poison(p, scenario, *args, **kwargs):
                out = route(p, scenario, *args, **kwargs)
                if scenario is Scenario.COMPATIBLE:
                    games.append(p)
                    if len(games) == 2:
                        out = _with(out, **{quantity: math.nan})
                return out
            return poison

        with monkeypatch.context() as patch:
            patch.setattr(verify, "oracle_equilibrium",
                          poisoned("oracle_equilibrium", "pA1"))
            patch.setattr(verify, "simulate_game",
                          poisoned("simulate_game", "revenue_a"))
            reports.append(run_verification(reference, trials=2, seed=6,
                                            m=1000))

        with monkeypatch.context() as patch:
            without_equilibrium_lines(patch)
            patch.setattr(sim, "MAX_FIXED_POINT_ITER", 1)
            reports.append(run_verification(reference, trials=1, seed=7,
                                            m=100))

        assert not any(r.ok for r in reports[5:])
        assert _report_digest(reports) == REPORT_DIGEST
