"""Closed-form equilibria, payoffs, thresholds, and the entrant's platform choice.

equilibrium(p, scenario) is the one closed-form equilibrium for all three
scenarios; subsidy_threshold and adoption_decision build on it. Every
operation is an explicit formula, parameterized by the quality edge d and
the platform subsidies so the baseline model is the d=0, zero-subsidy
special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import (
    EquilibriumOutcome,
    ModelParams,
    Scenario,
    require_valid,
)


class CornerEquilibriumError(ValueError):
    """Indifference cutoff left (0,1): the equilibrium is blockaded/cornered."""

    def __init__(self, scenario: Scenario, cutoff: float):
        self.scenario = scenario
        self.cutoff = cutoff
        super().__init__(
            f"{scenario.value} equilibrium cutoff {cutoff!r} outside (0, 1)")


class BracketError(RuntimeError):
    """Root bracket does not straddle a sign change (no longer raised)."""


@dataclass(frozen=True)
class ThresholdReport:
    """Minimum subsidy (c) and quality edge (d) flipping B off the shared chain.

    c2_star and c3_star are B's payoff gaps to the shared chain at d = 0;
    d2_star and d3_star are the exact roots of profit_b_compatible(d) = s
    and profit_b_incompatible(d) = s (see subsidy_threshold).
    """

    c2_star: float
    c3_star: float
    d2_star: float
    d3_star: float


@dataclass(frozen=True)
class AdoptionDecision:
    chosen: str                                # 'P1' | 'P2' | 'P3'
    payoffs: dict[str, float]                  # B's payoff with subsidy, per platform
    rationale: tuple[tuple[str, float], ...]   # payoffs sorted best-first

    def __post_init__(self) -> None:
        best = max(self.payoffs.values())
        if self.payoffs[self.chosen] != best:
            raise ValueError("chosen platform does not attain the payoff maximum")


# B's aggregate two-period payoffs off the shared chain, as functions of d.
# subsidy_threshold takes its payoff gaps from them; they ignore
# participation corners, which equilibrium() checks.

def profit_b_compatible(p: ModelParams, d: float | None = None) -> float:
    d = p.d if d is None else d
    u = p.s - p.alpha
    num = 3.0 * u + d + p.alpha * (p.n2 - p.n1)
    return num * num / (9.0 * u)


def profit_b_incompatible(p: ModelParams, d: float | None = None) -> float:
    d = p.d if d is None else d
    u = p.s - p.alpha
    num = 2.0 * d + 5.0 * u + 2.0 * p.alpha * (p.n3 - p.n1)
    return 3.0 * num * num / (100.0 * u)


def _require_finite(what: str, result: EquilibriumOutcome | ThresholdReport) -> None:
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

    Shares are the same in both periods; profits are price times share, and
    only profitB_with_subsidy adds the scenario's subsidy. Raises
    CornerEquilibriumError when the cutoff leaves (0, 1), and ValueError
    when a field overflows to a non-finite value.
    """
    if validate:
        require_valid(p)
    u = p.s - p.alpha
    if scenario is Scenario.SAME_CHAIN:
        pA1 = pB1 = p.s
        cutoff = 0.5
    elif scenario is Scenario.COMPATIBLE:
        gap = p.alpha * (p.n1 - p.n2)
        pA1 = u + (gap - p.d) / 3.0
        pB1 = u + (-gap + p.d) / 3.0
        cutoff = (3.0 * u + gap - p.d) / (6.0 * u)
    else:
        gap = p.alpha * (p.n1 - p.n3)
        pA1 = (-4.0 * p.d + 10.0 * u - 5.0 * p.k - p.alpha * (p.n1 + 4.0 * p.n3)) / 5.0
        pB1 = (-p.d + 10.0 * u - 5.0 * p.k - p.alpha * (4.0 * p.n1 + p.n3)) / 5.0
        cutoff = (5.0 * u + 2.0 * gap - 2.0 * p.d) / (10.0 * u)
    if not 0.0 < cutoff < 1.0:
        raise CornerEquilibriumError(scenario, cutoff)
    nA, nB = cutoff, 1.0 - cutoff
    if scenario is Scenario.INCOMPATIBLE:
        # Highest price retaining the whole period-1 base (marginal adopter at 0).
        pA2 = p.k + p.alpha * p.n1 + (p.alpha - p.s) * nA
        pB2 = p.k + p.alpha * p.n3 + p.d + (p.alpha - p.s) * nB
    else:
        pA2, pB2 = pA1, pB1
    profitA1, profitA2 = pA1 * nA, pA2 * nA
    profitB1, profitB2 = pB1 * nB, pB2 * nB
    profitA = profitA1 + profitA2
    profitB = profitB1 + profitB2
    paid = profitB + p.subsidy(scenario)
    out = EquilibriumOutcome(
        scenario=scenario,
        pA1=pA1, pB1=pB1, pA2=pA2, pB2=pB2,
        cutoff1=cutoff, cutoff2=cutoff,
        nA1=nA, nB1=nB, nA2=nA, nB2=nB,
        profitA1=profitA1, profitA2=profitA2,
        profitB1=profitB1, profitB2=profitB2,
        profitA=profitA, profitB=profitB, profitB_with_subsidy=paid,
    )
    # A sum is finite only if every term is; finite prices and totals (with
    # the cutoff interior) leave no field to overflow. The sum itself may
    # overflow, so the scan decides.
    if not math.isfinite(pA1 + pB1 + pA2 + pB2 + profitA + paid):
        _require_finite(f"{scenario.value} equilibrium", out)
    return out


def subsidy_threshold(p: ModelParams, validate: bool = True) -> ThresholdReport:
    """Subsidies (c2_star, c3_star) and quality edges (d2_star, d3_star)
    at which B's P2 or P3 payoff matches its P1 payoff.

    The subsidies are payoff gaps at d = 0. Each quality edge solves a
    quadratic equality in d; with u = s - alpha > 0 (assumption 1.1) its
    positive root is d2 = 3*sqrt(u*s) - 3u + alpha*(n1 - n2) and
    d3 = 5*sqrt(u*s/3) - 5u/2 + alpha*(n1 - n3). None of the four depends
    on p.d or the subsidies.
    """
    if validate:
        require_valid(p)
    u = p.s - p.alpha
    rep = ThresholdReport(
        c2_star=p.s - profit_b_compatible(p, d=0.0),
        c3_star=p.s - profit_b_incompatible(p, d=0.0),
        d2_star=3.0 * math.sqrt(u * p.s) - 3.0 * u + p.alpha * (p.n1 - p.n2),
        d3_star=5.0 * math.sqrt(u * p.s / 3.0) - 2.5 * u + p.alpha * (p.n1 - p.n3),
    )
    if not math.isfinite(rep.c2_star + rep.c3_star + rep.d2_star + rep.d3_star):
        _require_finite("subsidy thresholds", rep)
    return rep


_PLATFORMS = tuple(zip(("P1", "P2", "P3"), Scenario))


def adoption_decision(p: ModelParams, validate: bool = True) -> AdoptionDecision:
    """B's platform choice: argmax of subsidy-inclusive payoff, ties to P1 > P2 > P3."""
    if validate:
        require_valid(p)
    payoffs = {
        platform: equilibrium(p, scenario, validate=False).profitB_with_subsidy
        for platform, scenario in _PLATFORMS
    }
    chosen = "P1"
    for platform in ("P2", "P3"):
        if payoffs[platform] > payoffs[chosen]:
            chosen = platform
    order = sorted(payoffs.items(), key=lambda item: (-item[1], item[0]))
    return AdoptionDecision(chosen=chosen, payoffs=payoffs, rationale=tuple(order))


@dataclass(frozen=True)
class AdoptionSensitivity:
    """Slopes of B's adoption share in the quality edge d, per scenario.

    ratio is exactly 6/5: the dispersion factors cancel, so it carries no
    parameter dependence (the incompatible scenario converts quality into
    adoption faster).
    """

    compatible: float
    incompatible: float
    ratio: float = 6.0 / 5.0


def adoption_sensitivity(p: ModelParams, validate: bool = True) -> AdoptionSensitivity:
    if validate:
        require_valid(p)
    u = p.s - p.alpha
    return AdoptionSensitivity(
        compatible=1.0 / (6.0 * u),
        incompatible=1.0 / (5.0 * u),
    )
