import numpy as np
import pytest

from chain_rivalry.model import ModelParams
from chain_rivalry.verify import draw_params

REFERENCE = dict(alpha=0.1, s=3.0, k=20.0, n1=10.0, n2=5.0, n3=5.0)


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
