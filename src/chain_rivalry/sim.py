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
suffix, in every period, locked or not. A fixed-point step finds the split,
the first type that picks B over A, by a search that starts at the
analytic boundary and repairs a miss by bisection: it computes x_i for
O(log m) types only. A's adopters are then [0, a_exit), where a_exit is
the first type before the split with uA < 0, and B's are [b_entry, m),
where b_entry is the first type from the split on with uB >= 0. The
split's two neighbours settle both exits when it lies inside the free
middle: when the type just below it still has uA >= 0, a_exit is the
split, and when the split itself has uB >= 0, so is b_entry. Only a step
where some type stays out, or whose split sits on a lock, searches for
them the same way; with full participation an unlocked step costs the
split search alone. A step takes both firms' net values, the part of a
utility no taste enters, from model.net_values once, and the utilities at
zero taste distance, which place the searches' guesses, from one
user_utility call. Each type a search or a neighbour check reads is then
plain arithmetic on those, in user_utility's order, so a type costs no
call. The shares are a_exit/m and (m - b_entry)/m, and the cutoff, the
upper edge of A's last cell, is a_exit/m.

simulate_game is the one public entry. It checks its arguments once per
game, by model's rules, and plays period 1 on all m types. Under lock-in
it hands period 1's final boundaries (lo, hi) = (a_exit, b_entry) to
period 2, whose types [0, lo) stay locked to A and [hi, m) to B: a locked
user keeps its firm while that utility is nonnegative, else drops out, and
the free middle [lo, hi) follows the rules above. The locks only bound
where the split can fall, so period 2 too has one prefix and one suffix.
Without lock-in, a period 2 at period 1's prices reuses period 1's
outcome.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

from .model import (INCOMPATIBLE, ModelParams, Scenario, net_values, record,
                    require_count, require_finite, require_number,
                    require_scenario, require_valid, shown, user_utility)

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


@dataclass(frozen=True, init=False)
class SimRun:
    period1: SimOutcome
    period2: SimOutcome
    revenue_a: float
    revenue_b: float

    # fills __dict__ in one update, as a @record does. population is
    # accepted and ignored, only so that the benchmark's
    # dataclasses.replace(run, population=None) (bench/workloads.py:152)
    # keeps running; it goes when ROADMAP item 3 drops that tap, and SimRun
    # then becomes a @record like SimOutcome
    def __init__(self, period1: SimOutcome, period2: SimOutcome,
                 revenue_a: float, revenue_b: float, population=None) -> None:
        self.__dict__.update({"period1": period1, "period2": period2,
                              "revenue_a": revenue_a, "revenue_b": revenue_b})


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
          nA: float, nB: float, lo: int, hi: int) -> tuple[int, int]:
    """One fixed-point step at conjectured shares nA, nB: the boundaries
    (a_exit, b_entry) such that A's adopters are the types [0, a_exit) and
    B's [b_entry, m), where only the free middle [lo, hi) between the
    locks may choose between the firms.

    The split is the first free type that picks B over A, or hi. Before it
    a type adopts A while uA >= 0, and from it on B while uB >= 0, as uA
    never rises with i and uB never falls. Inside the free middle the
    split's neighbours settle a_exit when the type below keeps uA >= 0 and
    b_entry when the split keeps uB >= 0; each is searched for otherwise.

    Type i sits at x = (i + 1/2)/m and is evaluated as uA = (net_a - s*x)
    + k and uB = (net_b - s*(1 - x)) + k, bitwise user_utility at its taste
    distances. picks_b, a_out and b_in are the searches' predicates uB >=
    uA, uA < 0 and uB >= 0; the two neighbour checks repeat a_out's and
    b_in's arithmetic inline, as a call costs more than the arithmetic, and
    a_out and b_in are only made for a search that needs them."""
    s, k = p.s, p.k
    net_a, net_b = net_values(p, scenario, pA, pB, nA, nB)

    def picks_b(i):
        x = (i + 0.5) / m
        return net_b - s * (1.0 - x) + k >= net_a - s * x + k

    # the analytic boundaries, from the utilities at zero taste distance:
    # uA < 0 past x = zero_a/s, uB >= 0 from x = 1 - zero_b/s, and B beats
    # A from x = 1/2 + (zero_a - zero_b)/(2s); type x sits at index m*x - 1/2
    zero_a, zero_b = user_utility(p, scenario, (0.0, 0.0), pA, pB, nA, nB)
    split = _first(picks_b, lo, hi,
                   m * (0.5 + (zero_a - zero_b) / (2.0 * s)) - 0.5)
    if split > lo and not net_a - s * ((split - 1 + 0.5) / m) + k < 0.0:
        a_exit = split
    else:
        def a_out(i):
            return net_a - s * ((i + 0.5) / m) + k < 0.0

        a_exit = _first(a_out, 0, split, m * (zero_a / s) - 0.5)
    if split < hi and net_b - s * (1.0 - (split + 0.5) / m) + k >= 0.0:
        b_entry = split
    else:
        def b_in(i):
            return net_b - s * (1.0 - (i + 0.5) / m) + k >= 0.0

        b_entry = _first(b_in, split, m, m * (1.0 - zero_b / s) - 0.5)
    return a_exit, b_entry


def _play(m: int, p: ModelParams, scenario: Scenario, pA: float, pB: float,
          lo: int, hi: int) -> tuple[SimOutcome, tuple[int, int]]:
    """Fixed-point adoption split of m types for one period at fixed prices,
    with the types [0, lo) locked to A and [hi, m) to B: each can only keep
    its firm or drop out, and (0, m) locks nobody.

    Returns the outcome and the final boundaries (a_exit, b_entry): A's
    adopters are [0, a_exit) and B's [b_entry, m). Validates nothing:
    simulate_game does.
    """
    a_exit, b_entry = 0, m  # nobody adopts before the first step
    share_a, share_b = 0.5, 0.5
    iterations = 0
    converged = False
    for _ in range(MAX_FIXED_POINT_ITER):
        iterations += 1
        a_exit, b_entry = _step(p, scenario, m, pA, pB, share_a, share_b,
                                lo, hi)
        new_a, new_b = a_exit / m, (m - b_entry) / m
        repeated = new_a == share_a and new_b == share_b
        share_a, share_b = new_a, new_b
        if repeated:
            converged = True
            break

    out = SimOutcome(share_a, share_b, a_exit / m, pA * share_a, pB * share_b,
                     iterations, converged)
    return out, (a_exit, b_entry)


def simulate_game(p: ModelParams, scenario: Scenario,
                  prices: tuple[float, float, float, float],
                  m: int = 10000) -> SimRun:
    """Run m types through both periods at the given prices (pA1, pB1, pA2,
    pB2).

    Under INCOMPATIBLE, period 1's final boundaries lock its adopters in
    for period 2; elsewhere a period 2 at exactly period 1's prices reuses
    its outcome. An invalid p raises InvalidParamsError; an m outside [1,
    sys.maxsize] (the most types a range indexes), prices that are not four
    (an iterator or a bare number included) or no finite numbers a
    ValueError; and a scenario that is not a Scenario a TypeError. A
    period's revenue is finite at finite prices, but the two periods' sum
    can leave the float range: a ValueError then names the revenue that
    overflows.
    """
    require_scenario(scenario)
    require_valid(p)
    m = require_count(m, "population size m", 1, sys.maxsize)
    try:
        count = len(prices)
    except TypeError:  # an iterator or a bare number
        count = f"{shown(prices)}, which has no length"
    if count != 4:
        raise ValueError("prices must be four numbers (pA1, pB1, pA2, pB2), "
                         f"got {count}")
    pA1, pB1, pA2, pB2 = map(require_number, prices,
                             ("price pA", "price pB") * 2)
    first, (lo, hi) = _play(m, p, scenario, pA1, pB1, 0, m)
    if scenario is INCOMPATIBLE:
        second, _ = _play(m, p, scenario, pA2, pB2, lo, hi)
    elif (pA2, pB2) == (pA1, pB1):
        # no locks and the same prices: period 1's fixed point
        second = first
    else:
        second, _ = _play(m, p, scenario, pA2, pB2, 0, m)
    run = SimRun(first, second, first.revenue_a + second.revenue_a,
                 first.revenue_b + second.revenue_b)
    if not math.isfinite(run.revenue_a + run.revenue_b):
        require_finite(f"{scenario.value} simulation", run)
    return run
