"""Two-period price competition between a dominant firm and an entrant whose
platform choice (shared chain, compatible chain, or incompatible chain)
shapes network effects and switching costs.

Import each name from the module that defines it:

- model: ModelParams, Scenario (SCENARIOS holds its members in order),
  validate_params, taste_distances, user_utility;
- closed_form: equilibrium(p, scenario) for all three scenarios,
  adoption_decision, subsidy_threshold, adoption_sensitivity;
- oracle: oracle_equilibrium, the best-response route;
- sim: simulate_game, the discretized-user route;
- verify: run_verification, which checks the two routes against the
  closed forms;
- sweep: run_sweep, write_sweep_csv, render_profit_svg;
- cli: the chain-rivalry command.

The closed-form queries need only model and closed_form, and sweeps add
sweep; none of the three imports numpy.
"""

__version__ = "0.1.0"
