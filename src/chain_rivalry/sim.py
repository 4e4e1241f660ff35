"""Discretized user-base simulator.

Replaces the continuum of user types with m midpoint types of mass 1/m each
and lets every user pick the utility-maximizing option, iterating on the
conjectured adoption shares until they repeat exactly. Shares are
multiples of 1/m, so closed-form magnitudes should match to about 1/m. The
reported cutoff is the upper edge of the last A-adopter's cell, so a
contiguous block of A adopters has cutoff equal to its share.

A period computes every type's taste distances once and allocates its
utility and mask buffers once; each fixed-point step is then one
user_utility call that writes both firms' utilities of every type into
those buffers, and mask operations in place that count the shares. A
period returns its final A and B adopter masks. Tie rules: indifferent
between the two firms picks B; indifferent between a firm and staying out
participates. In the lock-in scenario, period 1's masks lock its adopters
in for period 2, where they can only keep their firm or drop out: before
its first step, a locked period sets each adopter's taste distance to the
rival firm to infinity, so the rival's utility is -inf, and locked and
free periods run the same fixed-point step. Without locks, a period 2 at
exactly period 1's prices faces the same deterministic fixed point, so
simulate_game reuses period 1's outcome instead of solving it again.
simulate_game takes its population from a small cache keyed by m;
populations are immutable, with read-only types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (ModelParams, Scenario, require_valid, taste_distances,
                    user_utility)

MAX_FIXED_POINT_ITER = 1000


@dataclass(frozen=True)
class UserPopulation:
    """m user types at midpoints (i + 1/2) / m, held in a read-only array."""

    m: int
    types: np.ndarray

    @classmethod
    def create(cls, m: int) -> "UserPopulation":
        if m < 1:
            raise ValueError(f"population needs at least one type, got m={m}")
        types = (np.arange(m, dtype=float) + 0.5) / m
        types.flags.writeable = False
        return cls(m=m, types=types)


@lru_cache(maxsize=4)  # distinct sizes kept; a verify run uses one
def _population(m: int) -> UserPopulation:
    return UserPopulation.create(m)


@dataclass(frozen=True)
class SimOutcome:
    """One period's converged adoption pattern."""

    share_a: float
    share_b: float
    cutoff: float
    revenue_a: float
    revenue_b: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SimRun:
    period1: SimOutcome
    period2: SimOutcome
    revenue_a: float
    revenue_b: float
    population: UserPopulation


def simulate_period(pop: UserPopulation, p: ModelParams, scenario: Scenario,
                    pA: float, pB: float,
                    locks: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> tuple[SimOutcome, tuple[np.ndarray, np.ndarray]]:
    """Fixed-point adoption split for one period at fixed prices.

    locks, a previous period's adopter masks, locks users in: each adopter
    can only keep its firm or drop out. Returns the outcome and the boolean
    masks (take_a, take_b) of the types adopting A and B. Rejects a
    non-finite price.
    """
    for name, price in (("pA", pA), ("pB", pB)):
        if not math.isfinite(price):
            raise ValueError(f"price {name} must be finite: {name}={price!r}")
    m = pop.m
    distances = dist_a, dist_b = taste_distances(p, pop.types)
    if locks is not None:
        # the distances are this period's own arrays: a locked adopter's
        # rival is infinitely far
        dist_a[locks[1]] = dist_b[locks[0]] = np.inf
    utilities = uA, uB = np.empty(m), np.empty(m)
    pick_b = np.empty(m, dtype=bool)
    take_a = np.zeros(m, dtype=bool)
    take_b = np.zeros(m, dtype=bool)
    share_a, share_b = 0.5, 0.5
    iterations = 0
    converged = False
    for _ in range(MAX_FIXED_POINT_ITER):
        iterations += 1
        user_utility(p, scenario, distances, pA, pB, share_a, share_b,
                     out=utilities)
        np.greater_equal(uB, uA, out=pick_b)
        np.greater_equal(uB, 0.0, out=take_b)
        take_b &= pick_b
        np.greater_equal(uA, 0.0, out=take_a)
        take_a &= np.invert(pick_b, out=pick_b)  # pick_b is spent here
        new_a = np.count_nonzero(take_a) / m
        new_b = np.count_nonzero(take_b) / m
        repeated = new_a == share_a and new_b == share_b
        share_a, share_b = new_a, new_b
        if repeated:
            converged = True
            break

    # the last A adopter is the first True of the reversed mask
    last_a = m - 1 - int(np.argmax(take_a[::-1]))
    cutoff = (last_a + 1) / m if take_a[last_a] else 0.0
    out = SimOutcome(share_a=share_a, share_b=share_b, cutoff=cutoff,
                     revenue_a=pA * share_a, revenue_b=pB * share_b,
                     iterations=iterations, converged=converged)
    return out, (take_a, take_b)


def simulate_game(p: ModelParams, scenario: Scenario,
                  prices: tuple[float, float, float, float],
                  m: int = 10000) -> SimRun:
    """Run both periods at the given prices (pA1, pB1, pA2, pB2); under
    INCOMPATIBLE period 1's adopter masks lock adopters in for period 2.
    Elsewhere, when period 2 repeats period 1's prices exactly, period 2
    reuses period 1's outcome. The returned population is shared with every
    other game of the same m."""
    require_valid(p)
    pA1, pB1, pA2, pB2 = prices
    pop = _population(m)
    first, takes = simulate_period(pop, p, scenario, pA1, pB1)
    locks = takes if scenario is Scenario.INCOMPATIBLE else None
    if locks is None and (pA2, pB2) == (pA1, pB1):
        # same population, params, scenario and prices, and no locks: the
        # fixed point is the one period 1 just found
        second = first
    else:
        second, _ = simulate_period(pop, p, scenario, pA2, pB2, locks=locks)
    return SimRun(period1=first, period2=second,
                  revenue_a=first.revenue_a + second.revenue_a,
                  revenue_b=first.revenue_b + second.revenue_b,
                  population=pop)
