from fractions import Fraction

import numpy as np
import pytest

from chain_rivalry import oracle
from chain_rivalry.closed_form import equilibrium
from chain_rivalry.model import ModelParams, require_valid, validate_params
from chain_rivalry.verify import draw_params

REFERENCE = dict(alpha=0.1, s=3.0, k=20.0, n1=10.0, n2=5.0, n3=5.0)


def exact(p: ModelParams) -> ModelParams:
    """p with every field, d and the subsidies included, as the Fraction
    of its float: both routes then compute exactly."""
    return ModelParams(**{name: Fraction(value) for name, value in vars(p).items()})


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


def midpoint_types(p, m):
    """The m midpoint types x = (i + 1/2)/m as an array, with their taste
    distance pair (s*x, s*(1-x)) in taste_distances' arithmetic, for the
    tests' array references of the simulator and the demand."""
    x = (np.arange(m) + 0.5) / m
    return x, (p.s * x, p.s * (1.0 - x))


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


@pytest.fixture
def reference() -> ModelParams:
    return ModelParams(**REFERENCE)


@pytest.fixture(scope="session")
def draws100() -> list[ModelParams]:
    # Same stream as `verify --trials 100 --seed 42`: default_rng(42), drawn
    # in order.
    rng = np.random.default_rng(42)
    return [draw_params(rng) for _ in range(100)]


@pytest.fixture(scope="session")
def draws25() -> list[ModelParams]:
    rng = np.random.default_rng(7)
    return [draw_params(rng) for _ in range(25)]
