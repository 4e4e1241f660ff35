"""Core types for the two-period platform-rivalry model.

An incumbent firm A lives on chain P1 with an established user base. An
entrant B picks one of three homes: the same chain (shared network), a
compatible chain (separate network, costless switching), or an incompatible
chain (separate network, users locked in after period 1). A continuum of
users indexed by x in [0, 1] trades off price, taste distance, network size,
and a stand-alone value k each period. net_values states the part of
both firms' utilities that no taste enters, and user_utility adds a type's
taste distances and k to it. The simulator takes the net values once per
step and evaluates each type it reads in user_utility's arithmetic.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from enum import Enum

REQUIRED_FIELDS = ("alpha", "s", "k", "n1", "n2", "n3")
OPTIONAL_FIELDS = ("d", "subsidy_p2", "subsidy_p3")
_FIELDS = frozenset(REQUIRED_FIELDS + OPTIONAL_FIELDS)


# The one method record writes for each class: format() fills in the
# class's parameters and fields.
_RECORD_INIT = """\
def __init__(self, {params}):
    self.__dict__.update({{{items}}})
"""


# The methods every record shares, with a frozen dataclass's text and
# semantics; each reads the fields from type(self).__match_args__, and
# dataclasses is imported only to raise FrozenInstanceError.
def _field_values(self):
    return tuple([getattr(self, name) for name in type(self).__match_args__])


def _record_repr(self):
    shown = ", ".join([f"{name}={getattr(self, name)!r}"
                       for name in type(self).__match_args__])
    return f"{type(self).__qualname__}({shown})"


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return _field_values(self) == _field_values(other)
    return NotImplemented


def _record_hash(self):
    return hash(_field_values(self))


def _record_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record_with_values(self, **changes):
    cls = type(self)
    unknown = changes.keys() - set(cls.__match_args__)
    if unknown:
        raise TypeError(f"{cls.__name__} has no field {min(unknown)!r}")
    return cls(**vars(self) | changes)


_RECORD_METHODS = {"__repr__": _record_repr, "__eq__": _record_eq,
                   "__hash__": _record_hash, "__setattr__": _record_setattr,
                   "__delattr__": _record_delattr,
                   "with_values": _record_with_values}


def record(cls):
    """Class decorator: a frozen record of the class's annotated fields, in
    the order the class body lists them.

    Every annotation in the class body is a field, and a class-body value
    is its default. record writes __init__, which fills the instance
    __dict__ in one update: a frozen dataclass's sets each field through
    object.__setattr__, which for a 21-field outcome costs about as much
    as solving the game. The methods in _RECORD_METHODS are shared by
    every record. A method the class body defines stays: __hash__ = None
    keeps a record unhashable, and an own __init__, which fills __dict__
    itself, validates the fields. __post_init__ would never run, so a class
    that defines one is refused with a TypeError.
    """
    name = cls.__qualname__
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"record {name} cannot run __post_init__")
    annotations = cls.__dict__.get("__annotations__", {})
    params, namespace = [], {"__name__": cls.__module__}
    for field in annotations:
        if field in cls.__dict__:
            namespace[f"_default_{field}"] = cls.__dict__[field]
            params.append(f"{field}=_default_{field}")
        else:
            params.append(field)
    if "__init__" not in cls.__dict__:
        exec(_RECORD_INIT.format(
            params=", ".join(params),
            items=", ".join(f"{field!r}: {field}" for field in annotations)),
            namespace)
        init = namespace["__init__"]
        init.__annotations__ = annotations | {"return": None}
        init.__qualname__ = f"{name}.__init__"
        cls.__init__ = init
    for method, function in _RECORD_METHODS.items():
        if method not in cls.__dict__:
            setattr(cls, method, function)
    cls.__match_args__ = tuple(annotations)
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
        raise ValueError(f"unknown scenario {shown(name)}; expected one of "
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
        return cls(**{name: require_number(data[name], f"config key {name!r}")
                      for name in data})

    @classmethod
    def from_json_file(cls, path: str) -> "ModelParams":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        return cls.from_mapping(data)

    def subsidy(self, scenario: Scenario) -> float:
        """One-time transfer B receives for the scenario's chain: none on
        P1, a zero in s's number type, so exact payoffs stay exact."""
        if scenario is COMPATIBLE:
            return self.subsidy_p2
        if scenario is INCOMPATIBLE:
            return self.subsidy_p3
        require_scenario(scenario)
        return self.s - self.s


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
    and the payoffs; an exact formula keeps the solve's defaults. Each
    price, cutoff, share and payoff comes back in the number type of the
    params' fields: floats give floats, and Fractions give Fractions from
    both routes, as does the oracle's residual. From the closed forms,
    column fields give columns, as closed_form's docstring states.
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
    """Whether params are valid, and each violated constraint in words."""

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
    same report. A field that require_number refuses (a finite float skips
    the call, as every game validates) is reported in its words, and the
    checks that combine fields are then skipped.
    """
    violations = []
    finite = True
    for name, positive in _SIGNS:
        value = getattr(p, name)
        if type(value) is not float or not math.isfinite(value):
            try:
                require_number(value, name)
            except ValueError as problem:
                violations.append(str(problem))
                finite = False
                continue
        if not (value > 0.0 if positive else value >= 0.0):
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


def shown(value) -> str:
    """repr(value), or its type where repr fails (an int past 4300 digits)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def require_scenario(scenario) -> None:
    """Raise a TypeError naming a scenario that is not a Scenario member: a
    route dispatches on identity, so any other value, its name included,
    would silently solve another scenario."""
    if not isinstance(scenario, Scenario):
        raise TypeError(f"scenario must be a Scenario, got {shown(scenario)}")


def as_float(x) -> float | None:
    """x as a double when it is a number the routes compute with: a float
    (numpy.float64 included) or an exact rational that is not a bool (an
    int, a numpy integer, a Fraction; numpy's bool is no number). An
    integer past the float range gives inf or -inf. Anything else gives
    None, numpy.float32, float16 and longdouble included: they would carry
    their own precision through every route."""
    if isinstance(x, bool) or not isinstance(x, (float, numbers.Rational)):
        return None
    try:
        return float(x)
    except OverflowError:  # an integer past the float range
        return math.inf if x > 0 else -math.inf


def require_number(value, what: str) -> float:
    """value as a finite double (see as_float), else a ValueError naming
    what. A finite float skips as_float: a game checks four prices."""
    if type(value) is float and math.isfinite(value):
        return value
    number = as_float(value)
    if number is None:
        raise ValueError(f"{what} must be a number, got {shown(value)}")
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {number!r}")
    return number


def require_finite(what: str, result) -> None:
    """Raise a ValueError naming result's first non-finite float field, if
    it has one: the inputs were finite, so float arithmetic overflowed. A
    non-finite field makes the result's totals, and so their sum,
    non-finite, so a caller scans only when that sum is; a sum that
    overflows on its own leaves every field finite and raises nothing."""
    for field in type(result).__match_args__:
        value = getattr(result, field)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{what}: {field} overflows to {value!r}")


# The most draws of run_verification and grid points of a sweep, whose work
# is held in memory: tracemalloc peaks grew 6.0 kB per trial with both
# routes (1000 against 3000 trials) and 0.9 to 1.05 kB per step of run_sweep
# with its CSV, written to a file row by row, and its SVG (10 000 against
# 30 000 steps of d, s and alpha on the reference config), and a trial took
# 0.6 ms, a step 0.02 ms, on one Intel Xeon core: 10**5 stays under 0.6 GB
# and a minute.
MAX_COUNT = 10 ** 5


def require_count(n, what: str, least: int, most=math.inf) -> int:
    """n as an int in [least, most], else a ValueError naming what; a bool
    is no integer. An int skips the ABC lookup: a game checks its m."""
    if type(n) is not int:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"{what} must be an integer, got {shown(n)}")
        n = int(n)
    if least <= n <= most:
        return n
    bound = f"at least {least}" if n < least else f"at most {most}"
    got = f", got {n}" if n.bit_length() < 64 else ""  # not a count's digits
    raise ValueError(f"{what} must be {bound}{got}")


def net_values(p: ModelParams, scenario: Scenario, pA: float, pB: float,
               nA: float, nB: float) -> tuple[float, float]:
    """Network value less price (net_a, net_b) of firm A and of firm B, the
    part of every type's utility that does not depend on its taste.

    The network term counts the chain's existing base plus current-period
    adopters reachable there: on a shared chain both firms' adopters count
    for everyone; on separate chains each firm's chain carries its own base
    (n2 or n3 for B) plus its own adopters, and B's chain adds the quality
    edge d.
    """
    if scenario is SAME_CHAIN:
        network_a = network_b = p.n1 + nA + nB
        edge = 0.0
    else:
        network_a = p.n1 + nA
        base = p.n2 if scenario is COMPATIBLE else p.n3
        network_b = base + nB
        edge = p.d
    return p.alpha * network_a - pA, p.alpha * network_b + edge - pB


def user_utility(p: ModelParams, scenario: Scenario,
                 distances: tuple[float, float], pA: float, pB: float,
                 nA: float, nB: float) -> tuple[float, float]:
    """Per-period utilities (uA, uB) from firm A and firm B of the type
    whose taste distances (s*x, s*(1 - x)) to A and to B are given.

    Choosing neither is worth exactly 0 in every period. Each utility is
    evaluated as (net value - distance) + k, in that order, from
    net_values. It stays plain arithmetic because the tests' brute-force
    references evaluate it on arrays of distances.
    """
    dist_a, dist_b = distances
    net_a, net_b = net_values(p, scenario, pA, pB, nA, nB)
    return net_a - dist_a + p.k, net_b - dist_b + p.k
