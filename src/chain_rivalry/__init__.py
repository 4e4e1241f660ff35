"""Two-period price competition between a dominant firm and an entrant whose
platform choice (shared chain, compatible chain, or incompatible chain)
shapes network effects and switching costs.

Import each name from the module that defines it:

- model: ModelParams, Scenario (SCENARIOS holds its members in order),
  Column, the plain-Python column, validate_params, which checks one game
  or Column fields entry by entry, net_values, user_utility;
- closed_form: equilibrium(p, scenario) for all three scenarios;
  evaluate(p, scenario), under the column contract its docstring states;
  adoption_decision, subsidy_threshold, adoption_sensitivity;
- oracle: oracle_equilibrium, the best-response route;
- sim: simulate_game, the discretized-user route;
- verify: run_verification, which checks the two routes against the
  closed forms, solved once per scenario on columns;
- sweep: run_sweep, which checks its grid in one validate_params call
  and solves each scenario once per sweep; write_sweep_csv,
  render_profit_svg;
- cli: the chain-rivalry command.

The closed-form queries need only model and closed_form, and sweeps add
sweep; none of the three imports numpy, dataclasses or inspect. Their
types are model.record classes: frozen records whose fields are the
annotations of the class body, each with a written __init__ and six
methods every record shares. sim.SimRun is the one dataclass left,
because the benchmark copies a run with dataclasses.replace.
"""

__version__ = "0.1.0"
