"""Closed-form equilibria, payoffs, thresholds, and the entrant's platform choice.

equilibrium(p, scenario) is the one closed-form equilibrium for all three
scenarios, its payoffs computed by EquilibriumOutcome.from_periods as the
oracle's are; subsidy_threshold and adoption_decision build on it. The
platform choice is a function of solved outcomes alone
(AdoptionDecision.from_outcomes), so a caller holding the three outcomes
decides without solving them again. Every operation is an explicit formula,
parameterized by the quality edge d and the platform subsidies so the
baseline model is the d=0, zero-subsidy special case.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Mapping

from .model import (
    COMPATIBLE,
    INCOMPATIBLE,
    SAME_CHAIN,
    SCENARIOS,
    EquilibriumOutcome,
    ModelParams,
    Scenario,
    record,
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
        """The first payoff maximum in P1, P2, P3 order: rationale's first
        platform, without its sort."""
        payoffs = self.payoffs
        return max(sorted(payoffs), key=payoffs.__getitem__)


def _require_finite(what: str, result: EquilibriumOutcome) -> None:
    """Raise a ValueError naming the result's first non-finite field, if it
    has one: the inputs were finite, so float arithmetic overflowed."""
    for field in fields(result):
        value = getattr(result, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{what}: {field.name} overflows to {value!r}")


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
    computes the payoffs from the prices and shares. Raises
    CornerEquilibriumError when the cutoff leaves (0, 1), and ValueError
    when a field overflows to a non-finite value. validate=True also checks
    p and raises a TypeError for a scenario that is not a Scenario;
    validate=False trusts both.
    """
    if validate:
        require_scenario(scenario)
        require_valid(p)
    u = p.s - p.alpha
    if scenario is SAME_CHAIN:
        pA1 = pB1 = p.s
        cutoff = 0.5
    elif scenario is COMPATIBLE:
        gap = p.alpha * (p.n1 - p.n2)
        pA1 = u + (gap - p.d) / 3.0
        pB1 = u + (-gap + p.d) / 3.0
        # Both cutoffs are scaled by an exact power of two, so the
        # denominator cannot overflow on a valid config (s < k/4).
        cutoff = (0.5 * (3.0 * u + gap - p.d)) / (3.0 * u)
    else:
        gap = p.alpha * (p.n1 - p.n3)
        pA1 = (-4.0 * p.d + 10.0 * u - 5.0 * p.k - p.alpha * (p.n1 + 4.0 * p.n3)) / 5.0
        pB1 = (-p.d + 10.0 * u - 5.0 * p.k - p.alpha * (4.0 * p.n1 + p.n3)) / 5.0
        cutoff = (1.25 * u + 0.5 * gap - 0.5 * p.d) / (2.5 * u)
    if not 0.0 < cutoff < 1.0:
        raise CornerEquilibriumError(scenario, cutoff)
    nA, nB = cutoff, 1.0 - cutoff
    harvest = ()
    if scenario is INCOMPATIBLE:
        # Highest price retaining the whole period-1 base (marginal adopter at 0).
        harvest = (p.k + p.alpha * p.n1 + (p.alpha - p.s) * nA,
                   p.k + p.alpha * p.n3 + p.d + (p.alpha - p.s) * nB, nA, nB)
    out = EquilibriumOutcome.from_periods(p, scenario, pA1, pB1, cutoff, nA, nB,
                                          harvest)
    # With both shares positive, a non-finite price or profit makes a total
    # non-finite, so finite totals leave no field to overflow. Their sum may
    # itself overflow, so the scan decides.
    if not math.isfinite(out.profitA + out.profitB_with_subsidy):
        _require_finite(f"{scenario.value} equilibrium", out)
    return out


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
    finite. None of the four depends on p.d or the subsidies.
    """
    if validate:
        require_valid(p)
    u = p.s - p.alpha
    gap2 = p.alpha * (p.n1 - p.n2)
    gap3 = p.alpha * (p.n1 - p.n3)
    root_u = math.sqrt(u)
    return ThresholdReport(
        # c2_star, c3_star, d2_star, d3_star
        p.alpha + (2.0 / 3.0) * gap2 - gap2 * (gap2 / (9.0 * u)),
        0.25 * p.s + 0.75 * p.alpha + 0.6 * gap3 - 0.12 * gap3 * (gap3 / u),
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
        quality into adoption faster); within a few ulps of 1.2 in floats,
        as each slope is rounded on its own."""
        return self.incompatible / self.compatible


def adoption_sensitivity(p: ModelParams) -> AdoptionSensitivity:
    require_valid(p)
    u = p.s - p.alpha
    return AdoptionSensitivity(
        compatible=1.0 / (6.0 * u),
        incompatible=1.0 / (5.0 * u),
    )
