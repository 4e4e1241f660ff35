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

import pytest

from chain_rivalry import closed_form
from chain_rivalry.model import COMPATIBLE, INCOMPATIBLE, SAME_CHAIN, SCENARIOS
from chain_rivalry.oracle import oracle_equilibrium
from chain_rivalry.sim import simulate_game
from chain_rivalry.sweep import SWEEPABLE
from conftest import DRAWS, closed_form_departures, departures, oracle_outcome

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

    # the outcome at each draw itself is the session's cached solve
    assert departures(DRAWS[draws], solve, ORACLE_READS, oracle_outcome) == []


@pytest.mark.parametrize("draws", DRAWS)
def test_simulator_ignores_what_it_does_not_read_at_fixed_prices(draws):
    def play(p, scenario, q):
        # both runs play at the closed-form prices of the unmoved config
        closed = closed_form.equilibrium(p, scenario)
        return simulate_game(q, scenario, (closed.pA1, closed.pB1, closed.pA2,
                                           closed.pB2), m=2000)

    assert departures(DRAWS[draws], play, SIM_READS) == []
