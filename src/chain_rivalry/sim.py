"""Discretized user-base simulator.

Replaces the continuum of user types with m midpoint types x_i = (i + 1/2)/m
of mass 1/m each and lets every user pick the utility-maximizing option,
iterating on the conjectured adoption shares until they repeat exactly, so
closed-form magnitudes should match to about 1/m. The reported cutoff is the
upper edge of the last A-adopter's cell. A type indifferent between the
firms picks B, and one indifferent to staying out participates: it adopts A
when uA >= 0 and uB < uA, and B when uB >= 0 and uB >= uA.

No array of types or choices is built, so a game's time and memory do not
grow with m. The types increase with i and IEEE-754 rounding is monotone,
so in floating point uA = ((alpha*network_a - pA) - s*x) + k never rises
with i and uB never falls: A's adopters are a prefix of the types and B's a
suffix. A fixed-point step finds the first type that picks B over A, the
first before it with uA < 0 and the first after it with uB >= 0, each by a
search that starts at the analytic boundary and repairs a miss by
bisection: it computes x_i for O(log m) types only.

simulate_game is the one public entry: it validates the config, m and the
four prices once per game and plays period 1 on all m types. Under lock-in
it hands period 1's final boundaries (lo, hi) to period 2, whose types
[0, lo) stay locked to A and [hi, m) to B: a locked user keeps its firm
while that utility is nonnegative, else drops out, and the free middle
[lo, hi) follows the rules above, five boundaries in all. Without lock-in,
a period 2 at period 1's prices reuses period 1's outcome.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import InitVar, dataclass

from .model import (ModelParams, Scenario, as_float, record,
                    require_integer, require_scenario, require_valid,
                    taste_distances, user_utility)

MAX_FIXED_POINT_ITER = 1000


@record
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
    # accepted and ignored, only so that the benchmark's
    # dataclasses.replace(run, population=None) (bench/workloads.py:152)
    # keeps running; it goes when ROADMAP item 3 drops that tap, and SimRun
    # then becomes a @record like SimOutcome (record refuses an InitVar)
    population: InitVar[None] = None


def _first(holds, lo: int, hi: int, guess: float) -> int:
    """The smallest i in [lo, hi) with holds(i), or hi if there is none, for
    a predicate that stays true once true as i rises.

    Tries guess, clamped into the range (a NaN or infinite guess too), then
    its neighbour on the side the boundary lies: a guess within one of the
    boundary costs two calls. A miss bisects the side those two calls leave
    open, at most (hi - lo).bit_length() more calls.
    """
    if lo >= hi:
        return hi
    if not guess > lo:
        i = lo
    elif guess >= hi - 1:
        i = hi - 1
    else:
        i = int(guess)
    if holds(i):
        if i == lo or not holds(i - 1):
            return i
        below, above = lo, i - 1  # holds(i - 1): the boundary is <= i - 1
    else:
        if i + 1 == hi or holds(i + 1):
            return i + 1
        below, above = i + 2, hi
    return bisect.bisect_left(range(hi), True, below, above, key=holds)


def _step(p: ModelParams, scenario: Scenario, m: int, pA: float, pB: float,
          nA: float, nB: float, lo: int, hi: int) -> tuple[int, int, int, int]:
    """One fixed-point step at conjectured shares nA, nB: the boundaries
    (a_locked, a_free, b_free, b_locked) such that A's adopters are the
    types [0, a_locked) and [lo, a_free), and B's are [b_free, hi) and
    [b_locked, m), where [lo, hi) is the free middle between the locks."""
    s = p.s
    seen = {}  # the searches meet at shared indices: evaluate each type once

    def utilities(i):
        if i not in seen:
            seen[i] = user_utility(p, scenario, taste_distances(p, (i + 0.5) / m),
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
    if lo == 0 and hi == m:  # no lock: both locked segments are empty
        return (0, _first(a_out, 0, split, a_exit),
                _first(b_in, split, m, b_entry), m)
    return (_first(a_out, 0, lo, a_exit), _first(a_out, lo, split, a_exit),
            _first(b_in, split, hi, b_entry), _first(b_in, hi, m, b_entry))


def _play(m: int, p: ModelParams, scenario: Scenario, pA: float, pB: float,
          lo: int, hi: int) -> tuple[SimOutcome, tuple[int, int]]:
    """Fixed-point adoption split of m types for one period at fixed prices,
    with the types [0, lo) locked to A and [hi, m) to B: each can only keep
    its firm or drop out, and (0, m) locks nobody.

    Returns the outcome and the boundaries (a_free, b_free) such that A's
    adopters in the free middle [lo, hi) are [lo, a_free) and B's
    [b_free, hi). Validates nothing: simulate_game does.
    """
    bounds = (0, lo, hi, m)  # nobody adopts before the first step
    share_a, share_b = 0.5, 0.5
    iterations = 0
    converged = False
    for _ in range(MAX_FIXED_POINT_ITER):
        iterations += 1
        bounds = a_locked, a_free, b_free, b_locked = _step(
            p, scenario, m, pA, pB, share_a, share_b, lo, hi)
        new_a = (a_locked + a_free - lo) / m
        new_b = (hi - b_free + m - b_locked) / m
        repeated = new_a == share_a and new_b == share_b
        share_a, share_b = new_a, new_b
        if repeated:
            converged = True
            break

    a_locked, a_free, b_free, _ = bounds
    # the last A adopter's cell ends at the end of A's last segment
    cutoff = (a_free if a_free > lo else a_locked) / m
    out = SimOutcome(share_a=share_a, share_b=share_b, cutoff=cutoff,
                     revenue_a=pA * share_a, revenue_b=pB * share_b,
                     iterations=iterations, converged=converged)
    return out, (a_free, b_free)


def simulate_game(p: ModelParams, scenario: Scenario,
                  prices: tuple[float, float, float, float],
                  m: int = 10000) -> SimRun:
    """Run m types through both periods at the given prices (pA1, pB1, pA2,
    pB2).

    Under INCOMPATIBLE, period 1's final boundaries lock its adopters in
    for period 2; elsewhere a period 2 at exactly period 1's prices reuses
    its outcome. An invalid p raises InvalidParamsError; an m that is not a
    positive integer (a bool included), prices that are not four, or a
    price that is not a finite number a ValueError naming it; and a
    scenario that is not a Scenario a TypeError.
    """
    require_scenario(scenario)
    require_valid(p)
    m = require_integer(m, "population size m")
    if m < 1:
        raise ValueError(f"population needs at least one type, got m={m}")
    if len(prices) != 4:
        raise ValueError("prices must be four numbers (pA1, pB1, pA2, pB2), "
                         f"got {len(prices)}")
    pA1, pB1, pA2, pB2 = prices
    for name, price in zip(("pA", "pB", "pA", "pB"), prices):
        number = as_float(price)
        if number is None:
            raise ValueError(f"price {name} must be a number, got {price!r}")
        if not math.isfinite(number):
            raise ValueError(f"price {name} must be finite: {name}={number!r}")
    first, (lo, hi) = _play(m, p, scenario, pA1, pB1, 0, m)
    if scenario is Scenario.INCOMPATIBLE:
        second, _ = _play(m, p, scenario, pA2, pB2, lo, hi)
    elif (pA2, pB2) == (pA1, pB1):
        # no locks and the same prices: period 1's fixed point
        second = first
    else:
        second, _ = _play(m, p, scenario, pA2, pB2, 0, m)
    return SimRun(period1=first, period2=second,
                  revenue_a=first.revenue_a + second.revenue_a,
                  revenue_b=first.revenue_b + second.revenue_b)
