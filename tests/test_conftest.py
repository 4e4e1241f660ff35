"""The caches of conftest.py against fresh builds and solves: a family
slice or an oracle outcome that a stale or mis-keyed cache hands out
differs from the fresh one, bit for bit. Also its astuple, which the
pinned digests read."""

from fractions import Fraction

import numpy as np
import pytest

from chain_rivalry.closed_form import AdoptionDecision
from chain_rivalry.model import Scenario
from chain_rivalry.oracle import oracle_equilibrium
from chain_rivalry.verify import QuantityCheck
from conftest import (COUNTS, EDGE_GAMES, FAMILIES, GATE_GAMES, WIDE_GAMES, astuple, built,
                      draws, exact, exact_oracle, game, oracle_outcome)


def _fresh(family, seed):
    return FAMILIES[family](seed, max(COUNTS[family, seed]))


@pytest.mark.parametrize("family, seed", list(COUNTS),
                         ids=[f"{family}-{seed}" for family, seed in COUNTS])
def test_every_slice_equals_a_fresh_build_of_its_count(family, seed):
    # repr prints each float exactly and tells -0.0 from 0.0
    for count in COUNTS[family, seed]:
        assert ([repr(p) for p in draws(family, seed, count)]
                == [repr(p) for p in FAMILIES[family](seed, count)])
    assert len(built(family, seed)) == max(COUNTS[family, seed])


def test_an_undeclared_count_is_refused():
    with pytest.raises(AssertionError, match=r"add 3 to COUNTS\['wide', 2024\]"):
        draws("wide", 2024, 3)


def test_a_seeded_sample_of_cached_outcomes_equals_fresh_solves():
    keys = GATE_GAMES + WIDE_GAMES + EDGE_GAMES
    fresh = {family: _fresh(family, seed) for family, seed in {key[:2] for key in keys}}
    for i in np.random.default_rng(41).choice(len(keys), size=30, replace=False):
        family, _, index = key = keys[i]
        for scenario in Scenario:
            cached = oracle_outcome(key, scenario)
            assert oracle_outcome(key, scenario) is cached
            assert repr(cached) == repr(oracle_equilibrium(fresh[family][index],
                                                           scenario)), key


def test_an_exact_game_gets_its_own_outcome():
    # exact(p) == p with equal hashes, so a cache keyed by the ModelParams
    # would hand the exact game the float outcome
    key, scenario = ("wide", 2024, 0), Scenario.COMPATIBLE
    p = game(key)
    assert exact(p) == p and hash(exact(p)) == hash(p)
    assert type(oracle_outcome(key, scenario).pA1) is float
    cached = exact_oracle("wide0", scenario)
    assert type(cached.pA1) is Fraction
    assert cached == oracle_equilibrium(exact(_fresh("wide", 2024)[0]), scenario)


def test_astuple_flattens_records_inside_tuples_lists_and_dicts():
    check = QuantityCheck("oracle", Scenario.SAME_CHAIN, "pA1", 0.0, 0.0, True)
    flat = ("oracle", Scenario.SAME_CHAIN, "pA1", 0.0, 0.0, True)
    decision = AdoptionDecision({"P1": 1.0, "P2": 0.5, "P3": 0.25})
    assert astuple(check) == flat
    assert astuple(decision) == ({"P1": 1.0, "P2": 0.5, "P3": 0.25},)
    assert astuple(decision)[0] is not decision.payoffs
    nested = AdoptionDecision({"checks": [check, (check,)], "by": {check: check}})
    assert astuple(nested) == ({"checks": [flat, (flat,)], "by": {flat: flat}},)
