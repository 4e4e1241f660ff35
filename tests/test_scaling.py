"""The model's scaling relation, held bitwise by every route.

Multiplying alpha, s, k, d and both subsidies by a factor c multiplies every
utility by c, so every price and profit scales by c and every share and
cutoff stays the same. A power of two scales each float exactly, so a route
whose arithmetic only combines quantities of one unit reproduces the
relation bit for bit; an absolute constant, such as a tolerance or a step
that does not scale with the prices, breaks it.
"""

import json
import math

import pytest

from chain_rivalry import cli
from chain_rivalry.closed_form import adoption_sensitivity, equilibrium
from chain_rivalry.model import Scenario, validate_params
from chain_rivalry.oracle import oracle_equilibrium
from chain_rivalry.sim import simulate_game
from chain_rivalry.verify import run_verification
from conftest import draws

DRAWS = draws("wide", 7, 40)
FACTORS = (0.25, 8.0)

SCALED = ("pA1", "pB1", "pA2", "pB2", "profitA1", "profitA2", "profitB1",
          "profitB2", "profitA", "profitB", "profitB_with_subsidy")
UNITLESS = ("cutoff1", "cutoff2", "nA1", "nB1", "nA2", "nB2", "converged",
            "iterations", "residual")
PERIOD = ("share_a", "share_b", "cutoff", "iterations", "converged")


def _scaled(p, factor):
    return p.with_values(alpha=p.alpha * factor, s=p.s * factor, k=p.k * factor,
                         d=p.d * factor, subsidy_p2=p.subsidy_p2 * factor,
                         subsidy_p3=p.subsidy_p3 * factor)


def _departures(solve):
    """(draw, factor, scenario) of every game where an outcome departs."""
    out = []
    for i, p in enumerate(DRAWS):
        for factor in FACTORS:
            q = _scaled(p, factor)
            for scenario in Scenario:
                base, moved = solve(p, scenario), solve(q, scenario)
                if not all(getattr(moved, f) == getattr(base, f) * factor for f in SCALED) \
                        or not all(getattr(moved, f) == getattr(base, f) for f in UNITLESS):
                    out.append((i, factor, scenario.value))
    return out


@pytest.mark.parametrize("solve", [equilibrium, oracle_equilibrium],
                         ids=("closed_form", "oracle"))
def test_equilibria_scale_exactly(solve):
    assert _departures(solve) == []


def test_simulated_play_scales_exactly():
    departures = []
    for i, p in enumerate(DRAWS):
        for factor in FACTORS:
            q = _scaled(p, factor)
            for scenario in Scenario:
                runs = []
                for params in (p, q):
                    closed = equilibrium(params, scenario)
                    runs.append(simulate_game(params, scenario, (closed.pA1, closed.pB1,
                                                                 closed.pA2, closed.pB2),
                                              m=2000))
                base, moved = runs
                same = all(getattr(getattr(moved, t), f) == getattr(getattr(base, t), f)
                           for t in ("period1", "period2") for f in PERIOD)
                if not (same and moved.revenue_a == base.revenue_a * factor
                        and moved.revenue_b == base.revenue_b * factor):
                    departures.append((i, factor, scenario.value))
    assert departures == []


@pytest.mark.parametrize("power", [-300, 500])
def test_reference_scales_exactly_far_from_unit_money(reference, tmp_path, power):
    """At 4**-300 the oracle's shared-chain line once divided by u*s, which
    underflowed to 0 and raised ZeroDivisionError; at 4**500 the product
    overflowed. Every route keeps the scaling relation at both, and verify
    passes, in process and from the CLI."""
    factor = 4.0 ** power
    q = _scaled(reference, factor)
    for solve in (equilibrium, oracle_equilibrium):
        for scenario in Scenario:
            base, moved = solve(reference, scenario), solve(q, scenario)
            assert all(getattr(moved, f) == getattr(base, f) * factor for f in SCALED)
            assert all(getattr(moved, f) == getattr(base, f) for f in UNITLESS)
    for scenario in Scenario:
        runs = []
        for params in (reference, q):
            closed = equilibrium(params, scenario)
            runs.append(simulate_game(params, scenario, (closed.pA1, closed.pB1,
                                                         closed.pA2, closed.pB2),
                                      m=2000))
        base, moved = runs
        assert all(getattr(getattr(moved, t), f) == getattr(getattr(base, t), f)
                   for t in ("period1", "period2") for f in PERIOD)
        assert (moved.revenue_a, moved.revenue_b) == (base.revenue_a * factor,
                                                      base.revenue_b * factor)
    report = run_verification(q, trials=0)
    assert report.ok, report.failures
    config = tmp_path / "params.json"
    config.write_text(json.dumps(vars(q)), encoding="utf-8")
    assert cli.main(["verify", "--config", str(config), "--trials", "0"]) == 0


ITEM_16 = "ROADMAP item 16: "


@pytest.mark.parametrize("power", [
    508,
    -512,
    pytest.param(509, marks=pytest.mark.xfail(
        strict=True, raises=ValueError,
        reason=ITEM_16 + "the incompatible closed form's 5.0 * k overflows, "
                         "so pA1 overflows to -inf though its value is finite")),
    pytest.param(-513, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=ITEM_16 + "at a subnormal s the oracle certifies no pair in any "
                         "scenario and reports a NaN residual")),
])
def test_reference_verifies_to_the_ends_of_the_float_range(reference, power):
    """4**508 and 4**-512 are the last powers at which the reference config
    still verifies."""
    report = run_verification(_scaled(reference, 4.0 ** power), trials=0)
    assert report.ok, report.failures


def test_the_ends_of_the_float_range_are_valid_configs(reference):
    for power in (508, 509, -512, -513, -514, -515):
        assert validate_params(_scaled(reference, 4.0 ** power)).ok, power


def test_adoption_slopes_are_finite_at_the_small_end(reference):
    sens = adoption_sensitivity(_scaled(reference, 4.0 ** -512))
    assert math.isfinite(sens.compatible) and math.isfinite(sens.incompatible)


@pytest.mark.parametrize("power, slope", [(-514, "incompatible"), (-515, "compatible")])
def test_an_adoption_slope_that_overflows_is_named(reference, power, slope):
    """1/(5u) overflows from 4**-514 on, and 1/(6u) from 4**-515: each is
    named, as equilibrium names a field, rather than returned as inf and
    a ratio of inf or NaN."""
    with pytest.raises(ValueError, match=f"^adoption sensitivity: {slope} overflows to inf$"):
        adoption_sensitivity(_scaled(reference, 4.0 ** power))
