"""Discretized user-base simulator.

Replaces the continuum of user types with m midpoint types of mass 1/m each
and lets every user pick the utility-maximizing option, iterating on the
conjectured adoption shares until they repeat exactly. Shares are
multiples of 1/m, so closed-form magnitudes should match to about 1/m. The
reported cutoff is the upper edge of the last A-adopter's cell, so a
contiguous block of A adopters has cutoff equal to its share.

Tie rules: indifferent between the two firms picks B; indifferent between a
firm and staying out participates. So a type adopts A when uA >= 0 and
uB < uA, and B when uB >= 0 and uB >= uA.

A fixed-point step counts the adopters without visiting every type. The
types (i + 1/2)/m increase with i and IEEE-754 rounding is monotone, so in
floating point uA = ((alpha*network_a - pA) - s*x) + k never rises with i
and uB never falls. "uB >= uA" and "uB >= 0" therefore hold on a suffix of
the types and "uA >= 0" on a prefix: A's adopters are a prefix and B's a
suffix. A step's shares follow from three boundary indices: the first type
that picks B over A, the first type before it with uA < 0, and the first
type after it with uB >= 0. Each is found by a search over the type index
that starts at its analytic position (m*(uA at x = 0)/s for A's exit) and
repairs a miss from rounding or a far-off start by galloping, then
bisection. A step evaluates O(log m) types through user_utility, usually
two per boundary, and the period builds its two adopter masks once from
the final boundaries.

In the lock-in scenario, period 1's masks lock its adopters in for period
2, where they can only keep their firm or drop out. Period 1's A adopters
are a prefix and its B adopters a suffix, so the locks cut the types into
three segments: in the locked A prefix a user keeps A while uA >= 0, in the
locked B suffix a user keeps B where uB >= 0, and the free middle follows
the rules above; that is five boundaries. Without locks, a period 2 at
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


def _first(holds, lo: int, hi: int, guess: float) -> int:
    """The smallest i in [lo, hi) with holds(i), or hi if there is none, for
    a predicate that stays true once true as i rises.

    Starts at guess, clamped into the range (a NaN or infinite guess too),
    gallops away from it in doubling steps until the boundary is bracketed,
    then bisects: a guess within one of the boundary costs two calls, a miss
    by n costs O(log n).
    """
    if lo >= hi:
        return hi
    if not guess > lo:
        i = lo
    elif guess >= hi - 1:
        i = hi - 1
    else:
        i = int(guess)
    step = 1
    if holds(i):
        below, above = lo - 1, i  # below stands in for a false index
        while above - step >= lo:
            if not holds(above - step):
                below = above - step
                break
            above -= step
            step *= 2
    else:
        below, above = i, hi  # above stands in for a true index
        while below + step < hi:
            if holds(below + step):
                above = below + step
                break
            below += step
            step *= 2
    while above - below > 1:
        mid = (below + above) // 2
        if holds(mid):
            above = mid
        else:
            below = mid
    return above


def _step(p: ModelParams, scenario: Scenario, types: np.ndarray,
          pA: float, pB: float, nA: float, nB: float, lo: int, hi: int
          ) -> tuple[int, int, int, int]:
    """One fixed-point step at conjectured shares nA, nB: the boundaries
    (a_locked, a_free, b_free, b_locked) such that A's adopters are the
    types [0, a_locked) and [lo, a_free), and B's are [b_free, hi) and
    [b_locked, m), where [lo, hi) is the free middle between the locks."""
    m = types.size
    s = p.s
    seen = {}  # the searches meet at shared indices: evaluate each type once

    def utilities(i):
        if i not in seen:
            seen[i] = user_utility(p, scenario,
                                   taste_distances(p, types.item(i)),
                                   pA, pB, nA, nB)
        return seen[i]

    def a_out(i):
        return utilities(i)[0] < 0.0

    def b_in(i):
        return utilities(i)[1] >= 0.0

    def picks_b(i):
        uA, uB = utilities(i)
        return uB >= uA

    # the analytic boundaries, from the utilities at zero taste distance:
    # uA < 0 past x = zero_a/s, uB >= 0 from x = 1 - zero_b/s, and B beats
    # A from x = 1/2 + (zero_a - zero_b)/(2s); type x sits at index m*x - 1/2
    zero_a, zero_b = user_utility(p, scenario, (0.0, 0.0), pA, pB, nA, nB)
    a_exit = m * (zero_a / s) - 0.5
    b_entry = m * (1.0 - zero_b / s) - 0.5
    split = _first(picks_b, lo, hi,
                   m * (0.5 + (zero_a - zero_b) / (2.0 * s)) - 0.5)
    return (_first(a_out, 0, lo, a_exit), _first(a_out, lo, split, a_exit),
            _first(b_in, split, hi, b_entry), _first(b_in, hi, m, b_entry))


def _free_segment(m: int, locks: tuple[np.ndarray, np.ndarray] | None
                  ) -> tuple[int, int]:
    """(lo, hi) such that locks hold a locked A prefix [0, lo) and a locked
    B suffix [hi, m); rejects masks of another shape or pattern."""
    if locks is None:
        return 0, m
    lock_a, lock_b = (np.asarray(lock) for lock in locks)
    for lock in (lock_a, lock_b):
        if lock.dtype != bool or lock.shape != (m,):
            raise ValueError(f"locks must be two boolean masks of shape ({m},), "
                             f"got {lock.dtype} of shape {lock.shape}")
    lo = int(np.count_nonzero(lock_a))
    hi = m - int(np.count_nonzero(lock_b))
    if not lock_a[:lo].all():
        raise ValueError("locked A adopters must be a prefix of the types")
    if not lock_b[hi:].all():
        raise ValueError("locked B adopters must be a suffix of the types")
    if lo > hi:
        raise ValueError(f"{lo - hi} types are locked to both firms")
    return lo, hi


def simulate_period(pop: UserPopulation, p: ModelParams, scenario: Scenario,
                    pA: float, pB: float,
                    locks: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> tuple[SimOutcome, tuple[np.ndarray, np.ndarray]]:
    """Fixed-point adoption split for one period at fixed prices.

    locks, a previous period's adopter masks, locks users in: each adopter
    can only keep its firm or drop out. They must be what a period returns,
    A's adopters a prefix of the types and B's a suffix; other masks are
    rejected. Returns the outcome and the boolean masks (take_a, take_b) of
    the types adopting A and B. Rejects a non-finite price.
    """
    for name, price in (("pA", pA), ("pB", pB)):
        if not math.isfinite(price):
            raise ValueError(f"price {name} must be finite: {name}={price!r}")
    m = pop.m
    lo, hi = _free_segment(m, locks)
    bounds = (0, lo, hi, m)  # nobody adopts before the first step
    share_a, share_b = 0.5, 0.5
    iterations = 0
    converged = False
    for _ in range(MAX_FIXED_POINT_ITER):
        iterations += 1
        bounds = a_locked, a_free, b_free, b_locked = _step(
            p, scenario, pop.types, pA, pB, share_a, share_b, lo, hi)
        new_a = (a_locked + a_free - lo) / m
        new_b = (hi - b_free + m - b_locked) / m
        repeated = new_a == share_a and new_b == share_b
        share_a, share_b = new_a, new_b
        if repeated:
            converged = True
            break

    a_locked, a_free, b_free, b_locked = bounds
    take_a = np.zeros(m, dtype=bool)
    take_b = np.zeros(m, dtype=bool)
    take_a[:a_locked] = take_a[lo:a_free] = True
    take_b[b_free:hi] = take_b[b_locked:] = True
    # the last A adopter's cell ends at the end of A's last segment
    cutoff = (a_free if a_free > lo else a_locked) / m
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
