"""The one home of what two or more test files share. Each draw family is
built once per session and handed out as prefixes, and each oracle outcome
that tests only read is solved once (test_conftest.py checks both caches);
a test that patches a route, counts its calls or times it solves fresh."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from chain_rivalry import closed_form, oracle
from chain_rivalry.closed_form import CornerEquilibriumError, equilibrium
from chain_rivalry.model import (SCENARIOS, EquilibriumOutcome, ModelParams, Scenario,
                                 require_valid, user_utility, validate_params)
from chain_rivalry.oracle import oracle_equilibrium
from chain_rivalry.sweep import SWEEPABLE
from chain_rivalry.verify import draw_params

REFERENCE = dict(alpha=0.1, s=3.0, k=20.0, n1=10.0, n2=5.0, n3=5.0)
# The largest float: a subsidy just below it overflows B's subsidy-inclusive
# payoff once the scenario's profits pass what it leaves.
MAX_FLOAT = 1.7976931348623157e308


def exact(p: ModelParams) -> ModelParams:
    """p with every field, d and the subsidies included, as the Fraction
    of its float: both routes then compute exactly."""
    return ModelParams(**{name: Fraction(value) for name, value in vars(p).items()})


def _reference(seed, count):
    """The reference config, a family of one game that takes no seed."""
    return [ModelParams(**REFERENCE)] * count


def _gate_draws(seed, count):
    """The draws of `verify --trials count --seed seed`, in order."""
    rng = np.random.default_rng(seed)
    return [draw_params(rng) for _ in range(count)]


def _off_gate_draws(seed, count):
    """Draws the verify gate never makes: distinct rival bases n2 and n3, a
    quality edge d in [0, 0.95 x the corner bound) and nonzero subsidies,
    with k above the participation bound for the larger rival base."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        n1 = float(rng.uniform(1.0, 50.0))
        n2, n3 = (float(v) for v in rng.uniform(0.0, n1, size=2))
        s = float(rng.uniform(0.5, 20.0))
        alpha = float(rng.uniform(0.0, s / (2.0 * n1 + 1.0)))
        if alpha == 0.0:
            continue
        bound = 4.0 * s + 4.0 * alpha * (1.0 + n1 + max(n2, n3))
        k = bound * (2.0 - float(rng.uniform(0.0, 1.0)))
        u = s - alpha
        corner = min(3.0 * u + alpha * (n1 - n2), 2.5 * u + alpha * (n1 - n3))
        p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n2, n3=n3,
                        d=float(rng.uniform(0.0, 0.95 * corner)),
                        subsidy_p2=float(rng.uniform(0.01, 2.0)),
                        subsidy_p3=float(rng.uniform(0.01, 2.0)))
        require_valid(p)
        draws.append(p)
    return draws


def _edge_draws(seed, count):
    """Draws near every validity bound, each valid and interior.

    n1 is uniform on one of [0.01, 1), [1, 50) or [50, 1e4); n2 and n3 are
    each n1*(1 - 10^-U(0,9)) or U(0, n1); s is log-uniform on [1e-3, 1e6];
    alpha is b*(1 - 10^-U(0,9)) or U(0, b) with b = s/(2*n1 + 1); k is
    B*(1 + 10^-U(0,9)) or B*U(1, 100) with B the participation bound for
    the larger rival base; d is 0, U(0, 1) times the corner bound or (1 -
    10^-U(1,6)) times it; the subsidies are U(0, s). Each "or" is a fair
    coin, the choice of d a fair three-way pick. n1 < 1/2 allows s <= 2*alpha.
    """
    rng = np.random.default_rng(seed)

    def near(top):
        return top * (1.0 - 10.0 ** -rng.uniform(0.0, 9.0))

    draws = []
    while len(draws) < count:
        lo, hi = ((0.01, 1.0), (1.0, 50.0), (50.0, 1e4))[rng.integers(3)]
        n1 = float(rng.uniform(lo, hi))
        n2, n3 = (near(n1) if rng.random() < 0.5 else float(rng.uniform(0.0, n1))
                  for _ in range(2))
        s = float(10.0 ** rng.uniform(-3.0, 6.0))
        b = s / (2.0 * n1 + 1.0)
        alpha = near(b) if rng.random() < 0.5 else float(rng.uniform(0.0, b))
        bound = 4.0 * s + 4.0 * alpha * (1.0 + n1 + max(n2, n3))
        k = bound * ((1.0 + 10.0 ** -rng.uniform(0.0, 9.0)) if rng.random() < 0.5
                     else float(rng.uniform(1.0, 100.0)))
        u = s - alpha
        corner = min(3.0 * u + alpha * (n1 - n2), 2.5 * u + alpha * (n1 - n3))
        d = (0.0, float(rng.uniform(0.0, 1.0)) * corner,
             (1.0 - 10.0 ** -rng.uniform(1.0, 6.0)) * corner)[rng.integers(3)]
        p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n2, n3=n3, d=d,
                        subsidy_p2=float(rng.uniform(0.0, s)),
                        subsidy_p3=float(rng.uniform(0.0, s)))
        if validate_params(p).ok:
            draws.append(p)
    return draws


FAMILIES = {"reference": _reference, "gate": _gate_draws, "wide": _off_gate_draws,
            "edge": _edge_draws}
# Every (family, seed) the suite draws from, and each count a test takes of
# it; games() refuses any other. Each generator draws in order, so a build
# at the largest count holds every smaller one as its prefix.
COUNTS = {("reference", None): (1,), ("gate", 42): (100,), ("gate", 7): (25,),
          ("wide", 2024): (1, 2, 30, 100), ("wide", 31): (200,), ("wide", 7): (40,),
          ("wide", 2026): (10,), ("wide", 711): (6,), ("edge", 123): (200, 400),
          ("edge", 5): (10, 40), ("edge", 2026): (40,), ("edge", 712): (6,)}


@functools.cache
def built(family: str, seed) -> tuple[ModelParams, ...]:
    """The session's one build of a family, at its largest count."""
    return tuple(FAMILIES[family](seed, max(COUNTS[family, seed])))


def games(family: str, seed, count: int) -> list[tuple]:
    """The keys (family, seed, index) of a family's first count draws."""
    assert count in COUNTS[family, seed], f"add {count} to COUNTS[{family!r}, {seed!r}]"
    return [(family, seed, index) for index in range(count)]


def game(key: tuple) -> ModelParams:
    family, seed, index = key
    return built(family, seed)[index]


def draws(family: str, seed, count: int) -> list[ModelParams]:
    """A family's first count draws, a prefix of its one build."""
    return [game(key) for key in games(family, seed, count)]


REFERENCE_GAME = ("reference", None, 0)
GATE_GAMES = [REFERENCE_GAME, *games("gate", 42, 100)]
WIDE_GAMES = games("wide", 2024, 100)
EDGE_GAMES = games("edge", 123, 400)


@functools.cache
def _solved(key: tuple, scenario: Scenario, number: type) -> EquilibriumOutcome:
    # never keyed by the ModelParams: exact(p) == p with equal hashes, so a
    # value key would hand an exact game a float outcome
    p = game(key)
    return oracle_equilibrium(p if number is float else exact(p), scenario)


def oracle_outcome(key: tuple, scenario: Scenario) -> EquilibriumOutcome:
    """The oracle's outcome on game(key), solved once per session."""
    return _solved(key, scenario, float)


# The exact route's games: the reference, the first four gate draws of
# `verify --seed 42` and the first four wide draws.
EXACT_GAMES = {"reference": REFERENCE_GAME,
               **{f"gate{i}": ("gate", 42, i) for i in range(4)},
               **{f"wide{i}": ("wide", 2024, i) for i in range(4)}}
EXACT_CONFIGS = {name: exact(game(key)) for name, key in EXACT_GAMES.items()}
# The outcome's numbers, pA1 to profitB_with_subsidy.
NUMERIC = list(EquilibriumOutcome.__match_args__[1:18])


def astuple(value):
    """A record's fields as a tuple, as dataclasses.astuple flattened a
    dataclass: records inside it, and inside its tuples, lists and dicts,
    become tuples too."""
    if hasattr(value, "__match_args__") and not isinstance(value, tuple):
        return tuple(astuple(getattr(value, name)) for name in value.__match_args__)
    if isinstance(value, (tuple, list)):
        return type(value)(astuple(item) for item in value)
    if isinstance(value, dict):
        return type(value)((astuple(key), astuple(item)) for key, item in value.items())
    return value


def exact_oracle(name: str, scenario: Scenario) -> EquilibriumOutcome:
    """The oracle's outcome on EXACT_CONFIGS[name], solved once per session:
    an exact game takes about 20-200 ms."""
    return _solved(EXACT_GAMES[name], scenario, Fraction)


# the keys of test_unread's draws, which test_mutants' slips must move
DRAWS = {"default": games("gate", 42, 100), "wide": games("wide", 2024, 30)}
# the quantities of P2 read n2 but not n3, those of P3 n3 but not n2
QUANTITY_READS = {"c2_star": closed_form.THRESHOLD_READS - {"n3"},
                  "d2_star": closed_form.THRESHOLD_READS - {"n3"},
                  "c3_star": closed_form.THRESHOLD_READS - {"n2"},
                  "d3_star": closed_form.THRESHOLD_READS - {"n2"}}


def lowered(p, name):
    """p with one field moved the way that keeps a valid config valid: a
    rival base, d or a subsidy halved (0.25 where it is 0), alpha halved, s
    halfway down to alpha*(2*n1 + 1), n1 halfway down to the larger rival
    base, and k doubled, as only a rise keeps k above its bound."""
    value = getattr(p, name)
    if name == "s":
        value = 0.5 * (value + p.alpha * (2.0 * p.n1 + 1.0))
    elif name == "k":
        value = 2.0 * value
    elif name == "n1":
        value = 0.5 * (value + max(p.n2, p.n3))
    elif name == "alpha" or value:
        value = 0.5 * value
    else:
        value = 0.25
    q = p.with_values(**{name: value})
    assert validate_params(q).ok, (p, name)
    return q


def _shown(solve, p, scenario, q):
    """solve(p, scenario, q) by its repr, which prints each float exactly
    and tells -0.0 from 0.0, or a corner's message: a slipped form can push
    a draw past the corner bound."""
    try:
        return repr(solve(p, scenario, q))
    except CornerEquilibriumError as corner:
        return str(corner)


def departures(keys, solve, reads, solved=None):
    """(draw index, scenario, field) of every scenario whose outcome,
    solve(p, scenario, q) at p = game(key) and the q with one unread field
    lowered, is not bitwise that at p. solved(key, scenario), if given, is
    the outcome at p, read from a cache; the lowered configs solve fresh."""
    out = []
    for i, key in enumerate(keys):
        p = game(key)
        for scenario in SCENARIOS:
            if solved is None:
                base = _shown(solve, p, scenario, p)
            else:
                base = repr(solved(key, scenario))
            out += [(i, scenario.value, name) for name in SWEEPABLE
                    if name not in reads[scenario]
                    and _shown(solve, p, scenario, lowered(p, name)) != base]
    return out


def closed_form_departures(keys):
    """departures of the closed forms, through the module attributes (so a
    patched form is the one checked), and (draw index, quantity, field) of
    each subsidy_threshold quantity that an unread field moves."""
    out = departures(keys, lambda p, scenario, q: closed_form.equilibrium(q, scenario),
                     closed_form.EQUILIBRIUM_READS)
    for i, p in enumerate(map(game, keys)):
        base = closed_form.subsidy_threshold(p)
        for name in SWEEPABLE:
            moved = closed_form.subsidy_threshold(lowered(p, name))
            out += [(i, quantity, name) for quantity, reads in QUANTITY_READS.items()
                    if name not in reads
                    and repr(getattr(moved, quantity)) != repr(getattr(base, quantity))]
    return out


# Aggregate two-period payoffs, each a single formula in d: the cross-check
# for equilibrium()'s price-times-share profits. B's off-chain payoffs also
# take d as an argument, so the thresholds can be checked against s at
# d = 0 and at their roots.

def profit_a_same(p):
    return p.s


def profit_b_same(p):
    return p.s


def profit_a_compatible(p):
    u = p.s - p.alpha
    num = 3.0 * u - p.d + p.alpha * (p.n1 - p.n2)
    return num * num / (9.0 * u)


def profit_a_incompatible(p):
    u = p.s - p.alpha
    num = -2.0 * p.d + 5.0 * u + 2.0 * p.alpha * (p.n1 - p.n3)
    return 3.0 * num * num / (100.0 * u)


def profit_b_compatible(p, d=None):
    d = p.d if d is None else d
    u = p.s - p.alpha
    num = 3.0 * u + d + p.alpha * (p.n2 - p.n1)
    return num * num / (9.0 * u)


def profit_b_incompatible(p, d=None):
    d = p.d if d is None else d
    u = p.s - p.alpha
    num = 2.0 * d + 5.0 * u + 2.0 * p.alpha * (p.n3 - p.n1)
    return 3.0 * num * num / (100.0 * u)


def midpoint_types(p, m):
    """The m midpoint types x = (i + 1/2)/m as an array, with their taste
    distance pair (s*x, s*(1-x)) in the arithmetic of the simulator's step,
    for the tests' array references of the simulator and the demand."""
    x = (np.arange(m) + 0.5) / m
    return x, (p.s * x, p.s * (1.0 - x))


def brute_shares(p, scenario, pA, pB, nA, nB, m=200001):
    """Integrate user choices on a fine type grid, taking the returned shares
    as given; an internally consistent demand must reproduce itself."""
    _, distances = midpoint_types(p, m)
    uA, uB = user_utility(p, scenario, distances, pA, pB, nA, nB)
    pick_b = uB >= uA
    best = np.where(pick_b, uB, uA)
    participate = best >= 0.0
    share_a = np.count_nonzero(participate & ~pick_b) / m
    share_b = np.count_nonzero(participate & pick_b) / m
    return share_a, share_b


def grid_prices(p):
    """4001 prices on [-span, span], span = k + alpha*n1 + s + d: wide enough
    for every equilibrium price (period-1 discounts reach about -(k +
    alpha*n1), harvest prices about k + alpha*n1 + d)."""
    span = p.k + p.alpha * p.n1 + p.s + p.d
    return np.linspace(-span, span, 4001)


def without_equilibrium_lines(monkeypatch):
    """Patch the oracle's line table to drop every line through the
    closed-form equilibrium, so no candidate lies on it and the solve
    cannot certify a pair."""
    real = oracle._lines

    def lines(p, scenario):
        closed = equilibrium(p, scenario, validate=False)
        kept = []
        for table, own, rival in zip(real(p, scenario), (closed.pA1, closed.pB1),
                                     (closed.pB1, closed.pA1)):
            off = np.abs(table[:, 0] + table[:, 1] * rival - own) > 1e-9 * (p.s + abs(own))
            kept.append(table[off])
        return tuple(kept)

    monkeypatch.setattr(oracle, "_lines", lines)


def skew_compatible_profit_b(monkeypatch) -> None:
    """Shift the closed-form compatible profitB by 0.05; other scenarios keep
    their exact outcomes."""
    real = closed_form.equilibrium

    def skewed(p, scenario, validate=True):
        out = real(p, scenario, validate=validate)
        if scenario is Scenario.COMPATIBLE:
            out = out.with_values(profitB=out.profitB + 0.05)
        return out

    monkeypatch.setattr(closed_form, "equilibrium", skewed)


@pytest.fixture
def reference() -> ModelParams:
    return ModelParams(**REFERENCE)


@pytest.fixture(scope="session")
def draws100() -> list[ModelParams]:
    return draws("gate", 42, 100)


@pytest.fixture(scope="session")
def draws25() -> list[ModelParams]:
    return draws("gate", 7, 25)
