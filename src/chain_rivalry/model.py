"""Core types for the two-period platform-rivalry model.

An incumbent firm A lives on chain P1 with an established user base. An
entrant B picks one of three homes: the same chain (shared network), a
compatible chain (separate network, costless switching), or an incompatible
chain (separate network, users locked in after period 1). A continuum of
users indexed by x in [0, 1] trades off price, taste distance, network size,
and a stand-alone value k each period. taste_distances gives one type's
distances to both firms, and user_utility turns them into both firms'
utilities at given prices and adoption shares; the simulator calls both on
one float type at a time.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Mapping

REQUIRED_FIELDS = ("alpha", "s", "k", "n1", "n2", "n3")
OPTIONAL_FIELDS = ("d", "subsidy_p2", "subsidy_p3")
_FIELDS = frozenset(REQUIRED_FIELDS + OPTIONAL_FIELDS)


def record(cls):
    """Class decorator: dataclass(frozen=True), with an __init__ that fills
    the instance __dict__ in one update.

    A frozen dataclass's own __init__ sets each field through
    object.__setattr__, which for a 21-field outcome costs about as much as
    solving the game. The generated __init__ has the same signature and
    defaults; eq, hash, repr, fields, replace and astuple stay dataclass's,
    and assignment still raises FrozenInstanceError. It sets plain fields
    only, so a class with __post_init__, an InitVar or a default_factory is
    refused with a TypeError. init=False spares dataclass's own __init__,
    so a record costs no more to define than a frozen dataclass.
    """
    name = cls.__qualname__
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"record {name} cannot run __post_init__")
    # dataclass fills a missing docstring from the class signature, which
    # here would still be object.__init__'s, parsed at the cost of a regex
    # compile per import; the docstring is filled below instead
    undocumented = not cls.__doc__
    if undocumented:
        cls.__doc__ = name
    cls = dataclass(frozen=True, init=False)(cls)
    plain = fields(cls)
    # dataclass lists an InitVar in __match_args__ but not among the fields
    initvars = set(cls.__match_args__) - {f.name for f in plain}
    if initvars:
        raise TypeError(f"record {name} cannot take InitVar {min(initvars)!r}")
    params, namespace = [], {"__name__": cls.__module__}
    for f in plain:
        if f.default_factory is not MISSING:
            raise TypeError(f"record {name} cannot build field {f.name!r} "
                            "with a default_factory")
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    items = ", ".join(f"{f.name!r}: {f.name}" for f in plain)
    exec(f"def __init__(self, {', '.join(params)}):\n"
         f"    self.__dict__.update({{{items}}})\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{name}.__init__"
    init.__annotations__ = {f.name: f.type for f in plain} | {"return": None}
    cls.__init__ = init
    if undocumented:
        signature = str(inspect.signature(cls)).replace(" -> None", "")
        cls.__doc__ = cls.__name__ + signature
    return cls


class Scenario(Enum):
    """Entrant B's platform choice relative to the incumbent's chain P1."""

    SAME_CHAIN = "same"
    COMPATIBLE = "compatible"
    INCOMPATIBLE = "incompatible"

    # the members are singletons compared by identity, so hash by identity
    # too: Enum hashes the member's name in Python
    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: str) -> "Scenario":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown scenario {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


# The members as module constants, and all three in order as a tuple, for
# the paths that run once per game or more. On Python 3.10 and 3.11,
# Scenario.SAME_CHAIN runs through EnumType's __getattr__ hook, about
# 0.1 us against about 0.01 us for a global (3.12 dropped the hook, and the
# lookup takes about 0.03 us there); iterating Scenario costs about 0.7 us
# against 0.06 us for a tuple on both.
SCENARIOS = SAME_CHAIN, COMPATIBLE, INCOMPATIBLE = tuple(Scenario)


@record
class ModelParams:
    """Exogenous model parameters.

    alpha: network-effect coefficient (utility per user on the chain)
    s: preference-dispersion coefficient (taste transport cost)
    k: stand-alone product value
    n1, n2, n3: existing user bases of chains P1, P2, P3
    d: extra per-user utility of B's alternative chain (0 in the baseline)
    subsidy_p2, subsidy_p3: one-time transfers to B from P2 / P3
    """

    alpha: float
    s: float
    k: float
    n1: float
    n2: float
    n3: float
    d: float = 0.0
    subsidy_p2: float = 0.0
    subsidy_p3: float = 0.0

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ModelParams":
        """Build params from a JSON-style mapping with exactly these field names."""
        unknown = sorted(set(data) - _FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [name for name in REQUIRED_FIELDS if name not in data]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        values = {}
        for name in data:  # all known; the mapping's order names the first bad one
            value = data[name]
            number = as_float(value)
            if number is None:
                raise ValueError(f"config key {name!r} must be a number, got {value!r}")
            if not math.isfinite(number):
                raise ValueError(f"{name} must be finite: {name}={number!r}")
            values[name] = number
        return cls(**values)

    @classmethod
    def from_json_file(cls, path: str) -> "ModelParams":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        return cls.from_mapping(data)

    def with_values(self, **changes: float) -> "ModelParams":
        """A copy with the named fields changed, as dataclasses.replace
        makes it, without replace's walk over the fields."""
        unknown = changes.keys() - _FIELDS
        if unknown:
            raise TypeError(f"ModelParams has no field {min(unknown)!r}")
        return type(self)(**vars(self) | changes)

    def subsidy(self, scenario: Scenario) -> float:
        """One-time transfer B receives for the scenario's chain (none on P1)."""
        if scenario is COMPATIBLE:
            return self.subsidy_p2
        if scenario is INCOMPATIBLE:
            return self.subsidy_p3
        require_scenario(scenario)
        return 0.0


@record
class EquilibriumOutcome:
    """Prices, cutoffs, shares, and payoffs of one scenario's equilibrium.

    cutoff_t is the marginal user type: types below choose firm A, types
    above choose firm B. Aggregate profits exclude subsidies, which enter
    only through profitB_with_subsidy. converged (a price pair is certified:
    no price gains either firm more than roundoff), iterations (the distinct
    certified pairs) and residual (the reported pair's largest relative gain
    from a deviation) describe the oracle's solve. The closed forms and the
    oracle both build theirs with from_periods, which alone states period 2
    and the payoffs; an exact formula keeps the solve's defaults.
    """

    scenario: Scenario
    pA1: float
    pB1: float
    pA2: float
    pB2: float
    cutoff1: float
    cutoff2: float
    nA1: float
    nB1: float
    nA2: float
    nB2: float
    profitA1: float
    profitA2: float
    profitB1: float
    profitB2: float
    profitA: float
    profitB: float
    profitB_with_subsidy: float
    converged: bool = True
    iterations: int = 0
    residual: float = 0.0

    @classmethod
    def from_periods(cls, p: ModelParams, scenario: Scenario, pA1, pB1, cutoff1,
                     nA1, nB1, harvest=(), converged=True, iterations=0,
                     residual=0.0) -> "EquilibriumOutcome":
        """The outcome of period 1 and a lock-in harvest (pA2, pB2, nA2, nB2).

        With no harvest period 2 repeats period 1; with one, A's retained
        base nA2 is the period-2 cutoff. A period's profit is price times
        share, the totals add both periods, and only profitB_with_subsidy
        adds the subsidy. Only + and * are used, so exact numbers stay exact.
        """
        pA2, pB2, nA2, nB2 = harvest or (pA1, pB1, nA1, nB1)
        cutoff2 = nA2 if harvest else cutoff1
        profitA1, profitA2 = pA1 * nA1, pA2 * nA2
        profitB1, profitB2 = pB1 * nB1, pB2 * nB2
        profitB = profitB1 + profitB2
        return cls(scenario, pA1, pB1, pA2, pB2, cutoff1, cutoff2,
                   nA1, nB1, nA2, nB2, profitA1, profitA2, profitB1, profitB2,
                   profitA1 + profitA2, profitB, profitB + p.subsidy(scenario),
                   converged, iterations, residual)


@record
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


_VALID = ValidationReport(ok=True, violations=())


class InvalidParamsError(ValueError):
    """Raised by operations whose precondition is a valid parameter set."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("invalid params: " + "; ".join(report.violations))


# Each field and whether it must be positive (else nonnegative), checked
# in this order after finiteness.
_SIGNS = (("alpha", True), ("s", True), ("k", True), ("n1", False),
          ("n2", False), ("n3", False), ("d", False), ("subsidy_p2", False),
          ("subsidy_p3", False))


def validate_params(p: ModelParams) -> ValidationReport:
    """Check every parameter constraint; report violations, never raise.

    Each violated constraint is named with both sides of the inequality so
    the caller can see how far off the input is. Every valid set gets the
    same report. A field that is not a number (see as_float) or not finite
    is reported, a non-finite one by its float, and the checks that combine
    fields are then skipped. A plain float field skips the as_float call,
    as simulate_game validates once per game.
    """
    violations = []
    finite = True
    for name, positive in _SIGNS:
        value = getattr(p, name)
        number = value if type(value) is float else as_float(value)
        if number is None:
            violations.append(f"{name} must be a number, got {value!r}")
            finite = False
        elif not math.isfinite(number):
            violations.append(f"{name} must be finite: {name}={number!r}")
            finite = False
        elif not (value > 0.0 if positive else value >= 0.0):
            sign = "positive" if positive else "nonnegative"
            violations.append(f"{name} must be {sign}: {name}={value!r}")
    if not finite:
        return ValidationReport(ok=False, violations=tuple(violations))

    if not p.n1 > p.n2:
        violations.append(f"dominant-chain base: n1={p.n1!r} must exceed n2={p.n2!r}")
    if not p.n1 > p.n3:
        violations.append(f"dominant-chain base: n1={p.n1!r} must exceed n3={p.n3!r}")

    bound1 = p.alpha * (2.0 * p.n1 + 1.0)
    if not p.s > bound1:
        violations.append(
            f"assumption_1_1: s={p.s!r} must exceed alpha*(2*n1+1)={bound1!r}")
    bound2 = 4.0 * p.s + 4.0 * p.alpha * (1.0 + p.n1 + p.n2)
    if not p.k > bound2:
        violations.append(
            f"assumption_1_2: k={p.k!r} must exceed 4*s+4*alpha*(1+n1+n2)={bound2!r}")

    if not violations:
        return _VALID
    return ValidationReport(ok=False, violations=tuple(violations))


def require_valid(p: ModelParams) -> None:
    report = validate_params(p)
    if not report.ok:
        raise InvalidParamsError(report)


def require_scenario(scenario) -> None:
    """Raise a TypeError naming a scenario that is not a Scenario member: a
    route dispatches on identity, so any other value, its name included,
    would silently solve another scenario."""
    if not isinstance(scenario, Scenario):
        raise TypeError(f"scenario must be a Scenario, got {scenario!r}")


def as_float(x) -> float | None:
    """x as a double when it is a number the routes compute with: a float
    (numpy.float64 included) or an exact rational that is not a bool (an
    int, a numpy integer, a Fraction; numpy's bool is no number). An
    integer past the float range gives inf or -inf. Anything else gives
    None, numpy.float32, float16 and longdouble included: they would carry
    their own precision through every route. A plain float returns at
    once, before the numbers.Rational check, an ABC lookup that costs many
    times the type test, as validate_params runs once per sweep point."""
    if type(x) is float:
        return x
    if isinstance(x, bool) or not isinstance(x, (float, numbers.Rational)):
        return None
    try:
        return float(x)
    except OverflowError:  # an integer past the float range
        return math.inf if x > 0 else -math.inf


def require_integer(n, what: str) -> int:
    """n as an int; rejects a bool and a value that is not an integer. A
    plain int returns at once, before the numbers.Integral ABC lookup, as
    simulate_game checks its m once per game."""
    if type(n) is int:
        return n
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    return int(n)


def taste_distances(p: ModelParams, x: float) -> tuple[float, float]:
    """Taste distances (s*x, s*(1-x)) of type x to firm A and to firm B;
    rejects any x outside [0, 1], NaN included."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("user type x outside [0, 1]")
    return p.s * x, p.s * (1.0 - x)


def user_utility(p: ModelParams, scenario: Scenario,
                 distances: tuple[float, float], pA: float, pB: float,
                 nA: float, nB: float) -> tuple[float, float]:
    """Per-period utilities (uA, uB) from firm A and firm B of the type
    whose taste distances (to A, to B) are given, as taste_distances
    returns them.

    The network term counts the chain's existing base plus current-period
    adopters reachable there: on a shared chain both firms' adopters count
    for everyone; on separate chains each firm's chain carries its own base
    (n2 or n3 for B) plus its own adopters, and B's chain adds the quality
    edge d. Choosing neither is worth exactly 0 in every period. Each
    utility is evaluated as ((network value - price) - distance) + k, in
    that order. It stays plain arithmetic because the tests' brute-force
    references evaluate it on arrays of distances.
    """
    dist_a, dist_b = distances
    if scenario is SAME_CHAIN:
        network_a = network_b = p.n1 + nA + nB
        edge = 0.0
    else:
        network_a = p.n1 + nA
        base = p.n2 if scenario is COMPATIBLE else p.n3
        network_b = base + nB
        edge = p.d
    net_a = p.alpha * network_a - pA
    net_b = p.alpha * network_b + edge - pB
    return net_a - dist_a + p.k, net_b - dist_b + p.k
