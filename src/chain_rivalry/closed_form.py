"""Closed-form equilibria, payoffs, thresholds, and the entrant's platform choice.

equilibrium(p, scenario) is the one closed-form equilibrium for all three
scenarios, its payoffs computed by EquilibriumOutcome.from_periods as the
oracle's are; subsidy_threshold and adoption_decision build on it. The
platform choice is a function of B's three subsidy-inclusive payoffs
alone (choose_platform, which AdoptionDecision.chosen calls), so a caller
holding the three solved outcomes decides without solving them again.
Every operation is an explicit formula, parameterized by the quality edge
d and the platform subsidies so the baseline model is the d=0,
zero-subsidy special case.

The column contract, stated here once. On fields that are columns, one
game per entry, the closed forms solve every game by the same arithmetic,
each entry of the outcome bitwise its game's own. A column is a Column (a
tuple of floats with entrywise + - * /) or a numpy array, read only by
ndim and tolist(), so this module imports no numpy; a field that is one
number counts for every entry. evaluate is the one checked solve, of one
game or of columns: the outcome, an interior flag per entry (cutoff in
(0, 1)) and the interior entries whose profitA + profitB_with_subsidy is
not finite. Only those entries can fail, and each raises what its own
values say (failing_entry): a corner CornerEquilibriumError at its
cutoff, and an overflow require_finite's ValueError on its fields, or
nothing where every field is finite. equilibrium raises the first
failing entry's error in entry order, and sweep.run_sweep the first in
grid, then SCENARIOS order.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import repeat
from operator import add, mul, neg, sub, truediv

from .model import (
    COMPATIBLE,
    INCOMPATIBLE,
    SAME_CHAIN,
    SCENARIOS,
    EquilibriumOutcome,
    ModelParams,
    Scenario,
    record,
    require_finite,
    require_scenario,
    require_valid,
)


class CornerEquilibriumError(ValueError):
    """Indifference cutoff left (0,1): the equilibrium is blockaded/cornered.

    args is (scenario, cutoff), so the error pickles; str() formats the
    message on demand, and a caller that catches the error without showing
    it, as a sweep past the corner bound does, formats nothing.
    """

    def __init__(self, scenario: Scenario, cutoff: float):
        super().__init__(scenario, cutoff)
        self.scenario = scenario
        self.cutoff = cutoff

    def __str__(self) -> str:
        return (f"{self.scenario.value} equilibrium cutoff {self.cutoff!r} "
                "outside (0, 1)")


class BracketError(RuntimeError):
    """Root bracket does not straddle a sign change (no longer raised)."""


@record
class ThresholdReport:
    """Minimum subsidy (c) and quality edge (d) flipping B off the shared chain.

    c2_star and c3_star are B's payoff gaps to the shared chain at d = 0;
    d2_star and d3_star are the exact roots in d of B's compatible and
    incompatible two-period payoffs equal to its shared-chain payoff s
    (see subsidy_threshold).
    """

    c2_star: float
    c3_star: float
    d2_star: float
    d3_star: float


# Each platform the entrant can choose and the scenario it plays there.
PLATFORMS = tuple(zip(("P1", "P2", "P3"), SCENARIOS))


def choose_platform(payoff1, payoff2, payoff3) -> str:
    """The platform of the first payoff maximum in P1, P2, P3 order, so a
    tie goes to P1 > P2 > P3; the one tie rule of the platform choice.
    Each payoff is B's with subsidy on that platform. A later payoff wins
    only when strictly greater, as with max()."""
    if payoff2 > payoff1:
        return "P3" if payoff3 > payoff2 else "P2"
    return "P3" if payoff3 > payoff1 else "P1"


@record
class AdoptionDecision:
    """B's subsidy-inclusive payoff per platform, and the choice it implies."""

    payoffs: dict[str, float]   # 'P1' | 'P2' | 'P3' -> B's payoff with subsidy

    # frozen records promise a hash, which the payoffs dict cannot give
    __hash__ = None

    @classmethod
    def from_outcomes(cls, outcomes: Mapping[Scenario, EquilibriumOutcome]
                      ) -> "AdoptionDecision":
        """The decision over solved outcomes, one per scenario."""
        return cls({platform: outcomes[scenario].profitB_with_subsidy
                    for platform, scenario in PLATFORMS})

    @property
    def rationale(self) -> tuple[tuple[str, float], ...]:
        """The payoffs sorted best-first, ties by platform name."""
        return tuple(sorted(self.payoffs.items(),
                            key=lambda item: (-item[1], item[0])))

    @property
    def chosen(self) -> str:
        """The platform choose_platform picks: rationale's first platform,
        without its sort."""
        payoffs = self.payoffs
        return choose_platform(payoffs["P1"], payoffs["P2"], payoffs["P3"])


# The fields each scenario's equilibrium reads: a field outside its set
# leaves the outcome bitwise the same, so a sweep of that field solves the
# scenario once. tests/test_unread.py holds every route to these sets.
EQUILIBRIUM_READS = {
    SAME_CHAIN: frozenset({"s"}),
    COMPATIBLE: frozenset({"alpha", "s", "n1", "n2", "d", "subsidy_p2"}),
    INCOMPATIBLE: frozenset({"alpha", "s", "k", "n1", "n3", "d", "subsidy_p3"}),
}


def equilibrium(p: ModelParams, scenario: Scenario,
                validate: bool = True) -> EquilibriumOutcome:
    """The scenario's equilibrium prices, cutoffs, shares and payoffs.

    SAME_CHAIN: the shared network term cancels from every user's A-vs-B
    comparison, so the game is plain product differentiation with dispersion
    s; each period both firms price at s and split the market at 1/2.

    COMPATIBLE: users switch costlessly, so both periods repeat one Bertrand
    stage game with effective dispersion u = s - alpha and a demand shift
    from the base gap n1 - n2 and the quality edge d.

    INCOMPATIBLE: adopters cannot switch firms in period 2, so each firm then
    charges the highest price its whole period-1 base weakly accepts (the
    full-retention corner). Anticipating that harvest, both firms bid for the
    base with negative period-1 prices.

    Shares are the same in both periods; EquilibriumOutcome.from_periods
    computes the payoffs from the prices and shares. Every field comes back
    in the number type of p's fields: floats give floats, Fractions give
    Fractions, and numpy columns give columns as the module docstring
    states (validate_params checks one game, so columns take
    validate=False). One game is one entry, solved by evaluate; the first
    failing entry raises as failing_entry reads it off its own values:
    CornerEquilibriumError when its cutoff leaves (0, 1), and ValueError
    when one of its fields overflows to a non-finite value. numpy warns of
    a column's overflow as its errstate says. validate=True also checks p
    and raises a TypeError for a scenario that is not a Scenario;
    validate=False trusts both.
    """
    if validate:
        require_scenario(scenario)
        require_valid(p)
    out, interior, overflows = _evaluate(p, scenario)
    corners = [k for k, inside in enumerate(interior) if not inside]
    failed = failing_entry(out, scenario, interior, sorted(corners + overflows))
    if failed:
        raise failed[1]
    return out


def _entrywise(op):
    """Column's operator op, with the column on the left and on the right."""
    def forward(self, other):
        return Column(map(op, self, other if type(other) is Column
                          else repeat(other)))

    def backward(self, other):
        # other is never a column: a column on the left takes forward
        return Column(map(op, repeat(other), self))

    return forward, backward


class Column(tuple):
    """A column of floats, one entry per game, on which + - * / and unary
    minus act entry by entry, with a column or with one number for every
    entry. It has no other arithmetic, and no in-place operator, so no
    tuple concatenation or repetition can stand in for a sum or a
    product."""

    __slots__ = ()
    __add__, __radd__ = _entrywise(add)
    __sub__, __rsub__ = _entrywise(sub)
    __mul__, __rmul__ = _entrywise(mul)
    __truediv__, __rtruediv__ = _entrywise(truediv)

    def __neg__(self):
        return Column(map(neg, self))


def evaluate(p: ModelParams, scenario: Scenario) -> tuple:
    """(outcome, interior, overflows) at p, the one checked solve of the
    module docstring; one game is one entry. It raises nothing: an entry
    that is not interior, or overflows, holds what the formulas give."""
    out = _outcome(p, scenario, *_period1(p, scenario))
    count = _count(p)
    interior = [0.0 < entry < 1.0 for entry in _entries(out.cutoff1, count)]
    totals = _entries(out.profitA + out.profitB_with_subsidy, count)
    # not math.isfinite, which cannot take an exact sum past the float range;
    # a finite sum clears every entry at once, without a loop in Python
    overflows = [] if abs(sum(totals)) < math.inf else [
        k for k, (inside, total) in enumerate(zip(interior, totals))
        if inside and not abs(total) < math.inf]
    return out, interior, overflows


# equilibrium's own name for evaluate, so that a wrapper installed on the
# public name sees the callers' column solves and not every equilibrium
_evaluate = evaluate


def failing_entry(out: EquilibriumOutcome, scenario: Scenario,
                  interior: list[bool], listed: list[int]):
    """The first of out's listed entries, in the given order, that fails
    on its own values, and its error; None where none fails. An entry
    that is not interior fails with CornerEquilibriumError at its cutoff,
    and an interior one with require_finite's ValueError on its fields."""
    if not listed:
        return None
    count = len(interior)
    fields = {name: _entries(value, count) for name, value in vars(out).items()}
    for k in listed:
        entry = out.with_values(**{name: field[k] for name, field in fields.items()})
        if not interior[k]:
            return k, CornerEquilibriumError(scenario, entry.cutoff1)
        try:
            require_finite(f"{scenario.value} equilibrium", entry)
        except ValueError as exc:
            return k, exc
    return None


def _count(p: ModelParams) -> int:
    """How many entries p's fields have: 1 where none is a column."""
    return max(len(value) if type(value) is Column or getattr(value, "ndim", 0)
               else 1 for value in vars(p).values())


def _entries(value, count: int):
    """A field's number per entry, read by iteration: a Column as it is, a
    numpy column through tolist(), and one number repeated count times."""
    if type(value) is Column:
        return value
    return value.tolist() if getattr(value, "ndim", 0) else (value,) * count


def _period1(p: ModelParams, scenario: Scenario):
    """equilibrium's period-1 prices and cutoff (pA1, pB1, cutoff).

    Plain arithmetic with no order check, so it also runs on sympy
    symbols, and on floats gives the bits of the float literals it
    replaces. A constant that multiplies a field is a multiple of one, 1 in
    the number type that dividing by s gives: a float literal would turn
    an exact field into a float, and an integer literal would wrap on a
    field of a fixed-width numpy integer type. Other integer literals stand
    to the right of a float, where float arithmetic takes them directly.
    """
    if scenario is SAME_CHAIN:
        return p.s, p.s, p.s / p.s / 2
    u = p.s - p.alpha
    if scenario is COMPATIBLE:
        gap = p.alpha * (p.n1 - p.n2)
        # Both cutoffs are scaled by an exact power of two, so the
        # denominator cannot overflow on a valid config (s < k/4).
        return (u + (gap - p.d) / 3, u + (-gap + p.d) / 3,
                (u * 3 + gap - p.d) / 2 / (u * 3))
    gap = p.alpha * (p.n1 - p.n3)
    one = p.s / p.s
    four, five = one * 4, one * 5
    return ((-four * p.d + u * 10 - five * p.k - p.alpha * (p.n1 + four * p.n3)) / 5,
            (u * 10 - p.d - five * p.k - p.alpha * (four * p.n1 + p.n3)) / 5,
            (five / 4 * u + gap / 2 - p.d / 2) / (five / 2 * u))


def _outcome(p: ModelParams, scenario: Scenario, pA1, pB1,
             cutoff) -> EquilibriumOutcome:
    """equilibrium's outcome at an interior period-1 solution: the shares,
    the lock-in harvest and the payoffs, in plain arithmetic as _period1."""
    nA, nB = cutoff, 1 - cutoff
    harvest = ()
    if scenario is INCOMPATIBLE:
        # Highest price retaining the whole period-1 base (marginal adopter at 0).
        harvest = (p.k + p.alpha * p.n1 + (p.alpha - p.s) * nA,
                   p.k + p.alpha * p.n3 + p.d + (p.alpha - p.s) * nB, nA, nB)
    return EquilibriumOutcome.from_periods(p, scenario, pA1, pB1, cutoff, nA, nB,
                                           harvest)


# The fields subsidy_threshold reads, as EQUILIBRIUM_READS states them for
# the equilibria: c2_star and d2_star read n2 but not n3, c3_star and
# d3_star n3 but not n2.
THRESHOLD_READS = frozenset({"alpha", "s", "n1", "n2", "n3"})


def subsidy_threshold(p: ModelParams, validate: bool = True) -> ThresholdReport:
    """Subsidies (c2_star, c3_star) and quality edges (d2_star, d3_star)
    at which B's P2 or P3 payoff matches its P1 payoff.

    With u = s - alpha and the base gap g = alpha*(n1 - n2) for P2 or
    alpha*(n1 - n3) for P3, B's two-period payoff is s on P1,
    (3u + d - g)^2/(9u) on P2 and 3*(5u + 2d - 2g)^2/(100u) on P3. The
    subsidies are the payoff gaps at d = 0:
    s - (3u - g)^2/(9u) = alpha + 2g/3 - g^2/(9u) and
    s - 3*(5u - 2g)^2/(100u) = s/4 + 3*alpha/4 + 3g/5 - 3g^2/(25u).
    The quality edges are the positive roots in d of the payoff equalities
    (3u + d - g)^2/(9u) = s and 3*(5u + 2d - 2g)^2/(100u) = s,
    d2 = 3*sqrt(u*s) - 3u + g and d3 = 5*sqrt(u*s/3) - 5u/2 + g, computed
    rationalized: d2 = 3*alpha*sqrt(u)/(sqrt(s) + sqrt(u)) + g, and d3
    likewise. No form subtracts nearly equal terms or squares a number of
    order s; on a valid config g < u/2 and alpha < s, so all four stay
    finite. None of the four depends on p.d or the subsidies. c2_star and
    c3_star come back in the number type of p's fields, with constants
    built as in _period1; d2_star and d3_star, irrational, are floats.
    """
    if validate:
        require_valid(p)
    u = p.s - p.alpha
    gap2 = p.alpha * (p.n1 - p.n2)
    gap3 = p.alpha * (p.n1 - p.n3)
    root_u = math.sqrt(u)
    one = p.s / p.s
    return ThresholdReport(
        # c2_star, c3_star, d2_star, d3_star
        p.alpha + one * 2 / 3 * gap2 - gap2 * (gap2 / (u * 9)),
        one / 4 * p.s + one * 3 / 4 * p.alpha + one * 3 / 5 * gap3
        - one * 3 / 25 * gap3 * (gap3 / u),
        3.0 * p.alpha * (root_u / (math.sqrt(p.s) + root_u)) + gap2,
        (2.5 * (p.s / 3.0 + p.alpha)
         * (root_u / (2.0 * math.sqrt(p.s / 3.0) + root_u)) + gap3),
    )


def adoption_decision(p: ModelParams, validate: bool = True) -> AdoptionDecision:
    """B's platform choice over the three solved scenarios, ties to P1 > P2 > P3."""
    if validate:
        require_valid(p)
    return AdoptionDecision.from_outcomes(
        {scenario: equilibrium(p, scenario, validate=False) for scenario in SCENARIOS})


@record
class AdoptionSensitivity:
    """Slopes of B's adoption share in the quality edge d, per scenario."""

    compatible: float
    incompatible: float

    @property
    def ratio(self) -> float:
        """incompatible / compatible: 6/5 in exact arithmetic, as the
        dispersion factors cancel (the incompatible scenario converts
        quality into adoption faster), and exactly 6/5 on Fraction fields;
        within a few ulps of 1.2 in floats, as each slope is rounded on its
        own."""
        return self.incompatible / self.compatible


def adoption_sensitivity(p: ModelParams) -> AdoptionSensitivity:
    """The slopes, in the number type of p's fields. Raises ValueError
    naming the first slope that overflows, as on a valid config whose
    dispersion is near the smallest normal float."""
    require_valid(p)
    u = p.s - p.alpha
    out = AdoptionSensitivity(compatible=1 / (u * 6), incompatible=1 / (u * 5))
    # not math.isfinite, which cannot take an exact sum past the float range
    if not abs(out.compatible + out.incompatible) < math.inf:
        require_finite("adoption sensitivity", out)
    return out
