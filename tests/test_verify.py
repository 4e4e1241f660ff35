import dataclasses

import numpy as np
import pytest

from chain_rivalry import (
    Scenario,
    draw_params,
    run_verification,
)
from chain_rivalry import closed_form, oracle, sim


class TestDrawParams:
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

    def test_config_alone_when_trials_zero(self, reference):
        report = run_verification(reference, trials=0, seed=1,
                                  use_sim=False)
        assert report.ok
        assert report.trials == 0

    def test_rejects_bad_arguments(self, reference):
        with pytest.raises(ValueError, match="trials"):
            run_verification(reference, trials=-1)
        with pytest.raises(ValueError, match="m >= 2"):
            run_verification(reference, m=1)

    def test_results_are_deterministic(self, reference):
        a = run_verification(reference, trials=2, seed=11, use_sim=False)
        b = run_verification(reference, trials=2, seed=11, use_sim=False)
        assert a == b


def skew_compatible_profit_b(monkeypatch) -> None:
    """Shift the closed-form compatible profitB by 0.05; other scenarios keep
    their exact outcomes."""
    real = closed_form.equilibrium

    def skewed(p, scenario, validate=True):
        out = real(p, scenario, validate=validate)
        if scenario is Scenario.COMPATIBLE:
            out = dataclasses.replace(out, profitB=out.profitB + 0.05)
        return out

    monkeypatch.setattr(closed_form, "equilibrium", skewed)


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
        monkeypatch.setattr(oracle, "MAX_ROUNDS", 0)
        report = run_verification(reference, trials=0, use_sim=False)
        assert not report.ok
        assert report.oracle_unconverged == 3
        stalled = [line for line in report.failures
                   if "did not converge" in line]
        assert len(stalled) == 3
        for scenario, line in zip(Scenario, stalled):
            assert line.startswith(f"oracle {scenario.value}: ")
            assert "0 rounds" in line and "at config: alpha=" in line

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
        real = sim.simulate_period

        def stall_second(pop, p, scenario, period, *args, **kwargs):
            out = real(pop, p, scenario, period, *args, **kwargs)
            if period == 2:
                out = dataclasses.replace(out, converged=False)
            return out

        monkeypatch.setattr(sim, "simulate_period", stall_second)
        report = run_verification(reference, trials=0, use_oracle=False, m=100)
        assert not report.ok
        assert report.sim_unconverged == 3
        assert all(c.ok for c in report.checks)

    def test_converged_runs_report_none(self, reference):
        report = run_verification(reference, trials=1, seed=3, use_oracle=False,
                                  m=1000)
        assert report.ok
        assert report.sim_unconverged == 0
