import numpy as np
import pytest

from chain_rivalry.model import ModelParams, require_valid
from chain_rivalry.verify import draw_params

REFERENCE = dict(alpha=0.1, s=3.0, k=20.0, n1=10.0, n2=5.0, n3=5.0)


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
