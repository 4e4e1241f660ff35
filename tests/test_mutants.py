"""Seeded slips in the closed forms, and the route that must catch them.

Each slip is a wrapper around the real closed form that returns what a
one-line mistake in its formula would, not a rewrite of the source. The
oracle route runs on the wide draws of `conftest.DRAWS`, which
vary the quality edge d, the subsidies and n3 apart from n2: inputs the
default `verify` draws hold fixed, so its seed-42 run passes every slip
below. A slip the oracle route does not check yet is a strict xfail, so
the test turns red once it starts catching it. The unread-field relations
of `test_unread` catch the slips that make a form read a field outside its
set, on the default draws as well. The exact slips lie below every float
bound, so only the exact route catches them: on Fraction fields the closed
forms must equal the oracle with ==.
"""

from fractions import Fraction

import pytest

from chain_rivalry import closed_form, verify
from chain_rivalry.closed_form import CornerEquilibriumError
from chain_rivalry.model import ModelParams, Scenario
from conftest import (DRAWS, EXACT_CONFIGS, NUMERIC, REFERENCE, closed_form_departures,
                      exact_oracle, game)

equilibrium = closed_form.equilibrium
subsidy_threshold = closed_form.subsidy_threshold


def compatible_gap_uses_n3(p, scenario, validate=True):
    if scenario is Scenario.COMPATIBLE:
        p = p.with_values(n2=p.n3)
    return equilibrium(p, scenario, validate=validate)


def incompatible_gap_uses_n2(p, scenario, validate=True):
    if scenario is Scenario.INCOMPATIBLE:
        p = p.with_values(n3=p.n2)
    return equilibrium(p, scenario, validate=validate)


def compatible_pa1_flips_d(p, scenario, validate=True):
    out = equilibrium(p, scenario, validate=validate)
    if scenario is Scenario.COMPATIBLE:
        flipped = equilibrium(p.with_values(d=-p.d), scenario, validate=False)
        out = out.with_values(pA1=flipped.pA1)
    return out


def incompatible_pb2_drops_d(p, scenario, validate=True):
    out = equilibrium(p, scenario, validate=validate)
    if scenario is Scenario.INCOMPATIBLE:
        out = out.with_values(pB2=out.pB2 - p.d)
    return out


def subsidies_swapped(p, scenario, validate=True):
    out = equilibrium(p, scenario, validate=validate)
    other = {Scenario.COMPATIBLE: Scenario.INCOMPATIBLE,
             Scenario.INCOMPATIBLE: Scenario.COMPATIBLE}.get(scenario, scenario)
    return out.with_values(profitB_with_subsidy=out.profitB + p.subsidy(other))


def d3_star_uses_n2(p, validate=True):
    out = subsidy_threshold(p, validate=validate)
    slipped = subsidy_threshold(p.with_values(n3=p.n2), validate=False)
    return out.with_values(d3_star=slipped.d3_star)


# 1 + 2**-40: a relative slip of about 9e-13, far below verify's float
# bounds (1e-3 relative or 1e-4 absolute for the oracle, 1/m for the
# simulator), and exact on floats and Fractions alike.
ULP_SLIP = 1 + Fraction(1, 2 ** 40)


def compatible_pa1_slips_an_ulp(p, scenario, validate=True):
    out = equilibrium(p, scenario, validate=validate)
    if scenario is Scenario.COMPATIBLE:
        out = out.with_values(pA1=out.pA1 * ULP_SLIP)
    return out


def incompatible_pb2_slips_an_ulp(p, scenario, validate=True):
    out = equilibrium(p, scenario, validate=validate)
    if scenario is Scenario.INCOMPATIBLE:
        out = out.with_values(pB2=out.pB2 * ULP_SLIP)
    return out


EXACT_SLIPS = {compatible_pa1_slips_an_ulp: Scenario.COMPATIBLE,
               incompatible_pb2_slips_an_ulp: Scenario.INCOMPATIBLE}


def exact_catches(form, scenario):
    """Per exact config, whether form on its Fraction fields differs from
    the exact oracle in any number of the outcome."""
    caught = []
    for name, p in EXACT_CONFIGS.items():
        closed, found = form(p, scenario), exact_oracle(name, scenario)
        caught.append(any(getattr(closed, field) != getattr(found, field)
                          for field in NUMERIC))
    return caught


def oracle_catches():
    """Per wide draw, whether the oracle route flags it: a breach or stall
    line, or a closed form that raises CornerEquilibriumError."""
    caught = []
    for p in map(game, DRAWS["wide"]):
        try:
            report = verify.run_verification(p, trials=0, use_sim=False)
        except CornerEquilibriumError:
            caught.append(True)
        else:
            caught.append(bool(report.failures))
    return caught


def test_unpatched_forms_pass():
    assert not any(oracle_catches())


def test_uncaught_slips_change_their_output():
    # Else their xfails below would hold without a slip to miss.
    for p in map(game, DRAWS["wide"]):
        assert (subsidies_swapped(p, Scenario.COMPATIBLE)
                != equilibrium(p, Scenario.COMPATIBLE))
        assert d3_star_uses_n2(p) != subsidy_threshold(p)


NOT_CHECKED = ("no route checks this until the ROADMAP item \"Carry the "
               "headline claims and the subsidy through the routes\"")


@pytest.mark.parametrize("name, slip", [
    ("equilibrium", compatible_gap_uses_n3),
    ("equilibrium", incompatible_gap_uses_n2),
    ("equilibrium", compatible_pa1_flips_d),
    ("equilibrium", incompatible_pb2_drops_d),
    pytest.param("equilibrium", subsidies_swapped,
                 marks=pytest.mark.xfail(strict=True, reason=NOT_CHECKED)),
    pytest.param("subsidy_threshold", d3_star_uses_n2,
                 marks=pytest.mark.xfail(strict=True, reason=NOT_CHECKED)),
], ids=lambda value: getattr(value, "__name__", None))
def test_oracle_route_catches_the_slip_on_every_wide_draw(monkeypatch, name,
                                                          slip):
    monkeypatch.setattr(closed_form, name, slip)
    assert all(oracle_catches())


@pytest.mark.parametrize("name, slip", [
    ("equilibrium", compatible_gap_uses_n3),
    ("equilibrium", incompatible_gap_uses_n2),
    ("equilibrium", subsidies_swapped),
    ("subsidy_threshold", d3_star_uses_n2),
], ids=lambda value: getattr(value, "__name__", None))
@pytest.mark.parametrize("draws", DRAWS)
def test_unread_relations_catch_the_slip_on_every_draw(monkeypatch, name, slip,
                                                       draws):
    monkeypatch.setattr(closed_form, name, slip)
    caught = {i for i, _, _ in closed_form_departures(DRAWS[draws])}
    assert caught == set(range(len(DRAWS[draws])))


@pytest.mark.parametrize("slip", list(EXACT_SLIPS), ids=lambda slip: slip.__name__)
def test_float_routes_pass_the_exact_slip(monkeypatch, slip):
    monkeypatch.setattr(closed_form, "equilibrium", slip)
    assert not any(oracle_catches())
    assert verify.run_verification(ModelParams(**REFERENCE), trials=100, seed=42).ok


@pytest.mark.parametrize("slip", list(EXACT_SLIPS), ids=lambda slip: slip.__name__)
def test_exact_route_catches_the_slip_on_every_exact_config(slip):
    scenario = EXACT_SLIPS[slip]
    assert not any(exact_catches(equilibrium, scenario))
    assert all(exact_catches(slip, scenario))
