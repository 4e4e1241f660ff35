"""Two-period price competition between a dominant firm and an entrant whose
platform choice (shared chain, compatible chain, or incompatible chain)
shapes network effects and switching costs.

Closed-form equilibria live in closed_form, one equilibrium(p, scenario)
for all three scenarios; oracle and sim provide two independent numerical
routes to the same objects for verification.
"""

from .closed_form import (
    AdoptionDecision,
    AdoptionSensitivity,
    CornerEquilibriumError,
    ThresholdReport,
    adoption_decision,
    adoption_sensitivity,
    equilibrium,
    subsidy_threshold,
)
from .model import (
    Choice,
    EquilibriumOutcome,
    InvalidParamsError,
    ModelParams,
    Scenario,
    ValidationReport,
    require_valid,
    user_utility,
    validate_params,
)
from .oracle import oracle_equilibrium, period2_monopoly_price
from .sim import SimOutcome, SimRun, UserPopulation, simulate_game, simulate_period
from .sweep import SweepRecord, SweepSpec, render_profit_svg, run_sweep, write_sweep_csv
from .verify import QuantityCheck, VerificationReport, draw_params, run_verification

__version__ = "0.1.0"

__all__ = [
    "AdoptionDecision",
    "AdoptionSensitivity",
    "Choice",
    "CornerEquilibriumError",
    "EquilibriumOutcome",
    "InvalidParamsError",
    "ModelParams",
    "QuantityCheck",
    "Scenario",
    "SimOutcome",
    "SimRun",
    "SweepRecord",
    "SweepSpec",
    "ThresholdReport",
    "UserPopulation",
    "ValidationReport",
    "VerificationReport",
    "adoption_decision",
    "adoption_sensitivity",
    "draw_params",
    "equilibrium",
    "oracle_equilibrium",
    "period2_monopoly_price",
    "render_profit_svg",
    "run_sweep",
    "run_verification",
    "simulate_game",
    "simulate_period",
    "subsidy_threshold",
    "user_utility",
    "validate_params",
    "write_sweep_csv",
    "__version__",
]
