"""Each route ignores the fields it does not read, bit for bit.

Lowering a field that a scenario's formulas never read must leave every
output of that scenario the same, on the closed forms, the oracle and the
simulator at fixed prices, and on each of subsidy_threshold's quantities.
The closed forms' sets are closed_form.EQUILIBRIUM_READS and
THRESHOLD_READS, which sweep.run_sweep relies on to solve a form once per
sweep; the oracle and the simulator state their own below. The relation
needs no draws of its own: it runs on the default verify draws, which hold
n3 = n2, d = 0 and zero subsidies, and on the wide draws, which vary them.
"""

import numpy as np
import pytest

from chain_rivalry import closed_form
from chain_rivalry.closed_form import CornerEquilibriumError
from chain_rivalry.model import (COMPATIBLE, INCOMPATIBLE, SAME_CHAIN, SCENARIOS,
                                 validate_params)
from chain_rivalry.oracle import oracle_equilibrium
from chain_rivalry.sim import simulate_game
from chain_rivalry.sweep import SWEEPABLE
from chain_rivalry.verify import draw_params
from conftest import _off_gate_draws


def _default_draws():
    # the stream of `verify --trials 100 --seed 42`
    rng = np.random.default_rng(42)
    return [draw_params(rng) for _ in range(100)]


DRAWS = {"default": _default_draws(), "wide": _off_gate_draws(2024, 30)}

# Every scenario's utilities read alpha, s, k and n1; a separate chain also
# reads B's base and d, and the oracle's subsidy-inclusive payoff B's
# subsidy there. The simulator reports revenues, which no subsidy enters.
GAME = frozenset({"alpha", "s", "k", "n1"})
ORACLE_READS = {SAME_CHAIN: GAME,
                COMPATIBLE: GAME | {"n2", "d", "subsidy_p2"},
                INCOMPATIBLE: GAME | {"n3", "d", "subsidy_p3"}}
SIM_READS = {SAME_CHAIN: GAME,
             COMPATIBLE: GAME | {"n2", "d"},
             INCOMPATIBLE: GAME | {"n3", "d"}}
# the quantities of P2 read n2 but not n3, those of P3 n3 but not n2
QUANTITY_READS = {"c2_star": closed_form.THRESHOLD_READS - {"n3"},
                  "d2_star": closed_form.THRESHOLD_READS - {"n3"},
                  "c3_star": closed_form.THRESHOLD_READS - {"n2"},
                  "d3_star": closed_form.THRESHOLD_READS - {"n2"}}


def lowered(p, name):
    """p with one field moved the way that keeps a valid config valid: a
    rival base, d or a subsidy halved (0.25 where it is 0), alpha halved, s
    halfway down to alpha*(2*n1 + 1), n1 halfway down to the larger rival
    base, and k doubled, as only a rise keeps k above its bound."""
    value = getattr(p, name)
    if name == "s":
        value = 0.5 * (value + p.alpha * (2.0 * p.n1 + 1.0))
    elif name == "k":
        value = 2.0 * value
    elif name == "n1":
        value = 0.5 * (value + max(p.n2, p.n3))
    elif name == "alpha" or value:
        value = 0.5 * value
    else:
        value = 0.25
    q = p.with_values(**{name: value})
    assert validate_params(q).ok, (p, name)
    return q


def shown(solve, p, scenario, q):
    """solve(p, scenario, q) by its repr, which prints each float exactly
    and tells -0.0 from 0.0, or a corner's message: a slipped form can push
    a draw past the corner bound."""
    try:
        return repr(solve(p, scenario, q))
    except CornerEquilibriumError as corner:
        return str(corner)


def departures(draws, solve, reads):
    """(draw index, scenario, field) of every scenario whose outcome,
    solve(p, scenario, q) at a p and the q with one unread field lowered,
    is not bitwise that at p."""
    out = []
    for i, p in enumerate(draws):
        for scenario in SCENARIOS:
            base = shown(solve, p, scenario, p)
            out += [(i, scenario.value, name) for name in SWEEPABLE
                    if name not in reads[scenario]
                    and shown(solve, p, scenario, lowered(p, name)) != base]
    return out


def closed_form_departures(draws):
    """departures of the closed forms, through the module attributes (so a
    patched form is the one checked), and (draw index, quantity, field) of
    each subsidy_threshold quantity that an unread field moves."""
    out = departures(draws, lambda p, scenario, q: closed_form.equilibrium(q, scenario),
                     closed_form.EQUILIBRIUM_READS)
    for i, p in enumerate(draws):
        base = closed_form.subsidy_threshold(p)
        for name in SWEEPABLE:
            moved = closed_form.subsidy_threshold(lowered(p, name))
            out += [(i, quantity, name) for quantity, reads in QUANTITY_READS.items()
                    if name not in reads
                    and repr(getattr(moved, quantity)) != repr(getattr(base, quantity))]
    return out


def test_every_set_is_a_route_field_set():
    for reads in (closed_form.EQUILIBRIUM_READS, ORACLE_READS, SIM_READS):
        assert set(reads) == set(SCENARIOS)
        assert all(fields <= set(SWEEPABLE) for fields in reads.values())
    # the closed forms read no field the game does not
    assert all(closed_form.EQUILIBRIUM_READS[scenario] <= ORACLE_READS[scenario]
               for scenario in SCENARIOS)


@pytest.mark.parametrize("draws", DRAWS)
def test_closed_forms_ignore_what_they_do_not_read(draws):
    assert closed_form_departures(DRAWS[draws]) == []


@pytest.mark.parametrize("draws", DRAWS)
def test_oracle_ignores_what_it_does_not_read(draws):
    def solve(p, scenario, q):
        return oracle_equilibrium(q, scenario)

    assert departures(DRAWS[draws], solve, ORACLE_READS) == []


@pytest.mark.parametrize("draws", DRAWS)
def test_simulator_ignores_what_it_does_not_read_at_fixed_prices(draws):
    def play(p, scenario, q):
        # both runs play at the closed-form prices of the unmoved config
        closed = closed_form.equilibrium(p, scenario)
        return simulate_game(q, scenario, (closed.pA1, closed.pB1, closed.pA2,
                                           closed.pB2), m=2000)

    assert departures(DRAWS[draws], play, SIM_READS) == []
