"""Cross-route agreement checks.

Runs the closed forms against the best-response oracle and the user
simulator on a base parameter set plus seeded random draws. The closed
forms solve each scenario once, on every case's fields as columns; a game
whose closed form fails raises as it would alone. The routes play each game
on its own: a route function only runs its route and returns a stall
reason (None when it converged) and its values. run_verification stacks the
route values into columns and checks |closed - route| <= tolerance, and the
worst deviation per (route, scenario, quantity) cell, in one pass; it
writes failure lines only for stalls and breaches, in game order. The draws
lie inside the validity region, so each exercises interior equilibria.
"""

from __future__ import annotations

import sys
from operator import attrgetter

import numpy as np

from . import closed_form
from .model import (MAX_COUNT, SCENARIOS, ModelParams, Scenario, record,
                    require_count, require_number, require_valid)
from .oracle import oracle_equilibrium
from .sim import simulate_game

ORACLE_REL_TOL = 1e-3
ORACLE_ABS_TOL = 1e-4
SIM_ABS_FLOOR = 1e-6  # added to every simulator tolerance

ORACLE_QUANTITIES = ("pA1", "pB1", "pA2", "pB2", "cutoff1", "cutoff2",
                     "profitA", "profitB")
SIM_QUANTITIES = ("cutoff1", "cutoff2", "share_a1", "share_b1", "share_a2",
                  "share_b2", "revenue_a", "revenue_b")
# the closed-form fields the checks read: the oracle's quantities, shares
_CLOSED_FIELDS = ORACLE_QUANTITIES + ("nA1", "nB1", "nA2", "nB2")


def draw_params(rng: np.random.Generator) -> ModelParams:
    """One random parameter set satisfying every validity constraint.

    Sampling order is part of the reproducibility contract: n1, then the
    shared rival base, then s, then alpha below the dispersion bound (drawn
    again while it is 0), then k in (bound, 2*bound] above the
    participation bound. The first four come from one rng.random(4) call:
    Generator.uniform(low, high) returns low + (high - low)*U for the next
    U that random() would return, so scaling each U the same way keeps the
    stream and every bit of the uniform-call draws.
    """
    u_n1, u_rival, u_s, u_alpha = rng.random(4).tolist()
    n1 = 1.0 + 49.0 * u_n1
    n_rival = n1 * u_rival
    s = 0.5 + 19.5 * u_s
    top = s / (2.0 * n1 + 1.0)
    alpha = top * u_alpha
    while alpha == 0.0:
        alpha = top * rng.random()
    bound = 4.0 * s + 4.0 * alpha * (1.0 + n1 + n_rival)
    k = bound + bound * (1.0 - rng.random())
    p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n_rival, n3=n_rival)
    require_valid(p)
    return p


@record
class QuantityCheck:
    """Worst deviation observed for one (route, scenario, quantity) cell;
    a cell that has seen a NaN deviation reports NaN in both columns."""

    kind: str
    scenario: Scenario
    quantity: str
    max_abs: float
    max_rel: float
    ok: bool


@record
class VerificationReport:
    """The outcome of run_verification: every check cell and failure line."""

    ok: bool
    trials: int
    seed: int
    m: int
    oracle_used: bool
    sim_used: bool
    checks: tuple[QuantityCheck, ...]
    failures: tuple[str, ...]
    oracle_unconverged: int = 0
    sim_unconverged: int = 0


def _params_line(p: ModelParams) -> str:
    return ", ".join(f"{name}={getattr(p, name):.17g}" for name in p.__match_args__)


def _oracle_route(p: ModelParams, scenario: Scenario, prices, m: int):
    found = oracle_equilibrium(p, scenario)
    stall = None if found.converged else (
        f"best-response search did not converge (no price pair certified, "
        f"smallest worst relative gain {found.residual:.3e})")
    return stall, attrgetter(*ORACLE_QUANTITIES)(found)


def _oracle_tolerances(closed: dict, m: int):
    """The closed values, tolerances and tolerance notes of the oracle's
    quantities, from the closed-form columns; like max(), fmax keeps the
    absolute floor where the relative term is NaN."""
    ref = np.column_stack([closed[name] for name in ORACLE_QUANTITIES])
    note = f"rel {ORACLE_REL_TOL:.0e} or abs {ORACLE_ABS_TOL:.0e}"
    return (ref, np.fmax(ORACLE_ABS_TOL, ORACLE_REL_TOL * np.abs(ref)),
            (note,) * len(ORACLE_QUANTITIES))


def _sim_route(p: ModelParams, scenario: Scenario, prices, m: int):
    run = simulate_game(p, scenario, prices, m=m)
    first, second = run.period1, run.period2
    stall = None
    if not (first.converged and second.converged):
        stalled = [f"period {t} ({out.iterations} iterations)"
                   for t, out in ((1, first), (2, second)) if not out.converged]
        stall = f"adoption fixed point did not converge in {', '.join(stalled)}"
    return stall, (first.cutoff, second.cutoff, first.share_a, first.share_b,
                   second.share_a, second.share_b, run.revenue_a, run.revenue_b)


def _sim_tolerances(closed: dict, m: int):
    """The closed values, tolerances and tolerance notes of the simulator's
    quantities: a share or cutoff gets 1/m, a firm's revenue the sum of its
    two prices' magnitudes over m, each plus SIM_ABS_FLOOR."""
    ref = np.column_stack([closed[name] for name in (
        "cutoff1", "cutoff2", "nA1", "nB1", "nA2", "nB2", "profitA", "profitB")])
    grains = [np.ones(len(ref))] * 6 + [np.abs(closed[f"p{firm}1"])
                                         + np.abs(closed[f"p{firm}2"])
                                         for firm in "AB"]
    notes = [f"{grain}/m + {SIM_ABS_FLOOR:.0e}"
             for grain in ["1"] * 6 + ["(|pA1|+|pA2|)", "(|pB1|+|pB2|)"]]
    return ref, np.column_stack(grains) / m + SIM_ABS_FLOOR, notes


_ROUTES = {"oracle": (_oracle_route, _oracle_tolerances, ORACLE_QUANTITIES),
           "sim": (_sim_route, _sim_tolerances, SIM_QUANTITIES)}


def run_verification(base: ModelParams, trials: int = 20, seed: int = 42,
                     use_oracle: bool = True, use_sim: bool = True,
                     m: int = 10000) -> VerificationReport:
    """Check the base params plus `trials` seeded draws on every scenario.

    An oracle or simulator game that reports no convergence is a failure
    in its own right, named in `failures` and counted in
    `oracle_unconverged` or `sim_unconverged`. Raises ValueError when
    neither route is used, since a run that checks nothing cannot pass, and
    before any draw when model.require_count refuses trials, seed or m.
    """
    require_valid(base)
    # the routes run in double precision: an exact field runs as its float
    base = ModelParams(**{name: require_number(value, name)
                          for name, value in vars(base).items()})
    trials = require_count(trials, "trials", 0, MAX_COUNT)
    seed = require_count(seed, "seed", 0)
    m = require_count(m, "population size m", 2, sys.maxsize)
    kinds = [kind for kind, used in (("oracle", use_oracle), ("sim", use_sim))
             if used]
    if not kinds:
        raise ValueError("no route to check: use_oracle and use_sim are both False")
    cases = [("config", base)]
    if trials:  # only the draws import numpy.random, a cost on a cold start
        rng = np.random.default_rng(seed)
        cases += [(f"draw {i}", draw_params(rng)) for i in range(1, trials + 1)]

    games = [(label, p, scenario) for label, p in cases for scenario in SCENARIOS]
    # one closed-form solve per scenario, on every case's fields as columns.
    # A failing game raises as it would alone; numpy must not warn first of
    # the overflow that error names
    fields = ModelParams(*np.array([list(vars(p).values()) for _, p in cases]).T)
    with np.errstate(all="ignore"):
        solved = [attrgetter(*_CLOSED_FIELDS)(
                      closed_form.equilibrium(fields, scenario, validate=False))
                  for scenario in SCENARIOS]
    # (scenario, field, case) to one column per field in game order; a
    # scalar field broadcasts, and an exact one casts to float
    closed = dict(zip(_CLOSED_FIELDS, np.array(
        [np.broadcast_arrays(*columns) for columns in solved], dtype=float
    ).transpose(1, 2, 0).reshape(len(_CLOSED_FIELDS), -1)))
    prices = np.column_stack([closed[name] for name in
                              ("pA1", "pB1", "pA2", "pB2")]).tolist()
    checks, unconverged = [], {}
    lines = [[] for _ in games]  # each game's failure lines, route by route
    for kind in kinds:
        route, tolerances, names = _ROUTES[kind]
        stalls, values = zip(*(route(p, scenario, game_prices, m) for
                               (_, p, scenario), game_prices in zip(games, prices)))
        stalled = [stall is not None for stall in stalls]
        unconverged[kind] = sum(stalled)
        ref, tol, notes = tolerances(closed, m)
        with np.errstate(invalid="ignore", over="ignore"):
            abs_err = np.abs(ref - np.array(values, dtype=float))
            rel_err = abs_err / np.maximum(np.abs(ref), 1e-300)
        breach = ~(abs_err <= tol)  # a NaN deviation breaches
        for g in np.flatnonzero(breach.any(axis=1) | stalled).tolist():
            label, p, scenario = games[g]
            where = f"at {label}: {_params_line(p)}"
            if stalled[g]:
                lines[g].append(f"{kind} {scenario.value}: {stalls[g]} {where}")
            lines[g] += [f"{kind} {scenario.value} {names[q]}: |closed-{kind}| = "
                         f"{abs_err[g, q]:.3e} (rel {rel_err[g, q]:.3e}) exceeds "
                         f"{notes[q]} {where}"
                         for q in np.flatnonzero(breach[g]).tolist()]
        # each cell's worst over the cases; np.max keeps a NaN as the worst
        cell = (len(cases), len(SCENARIOS), len(names))
        worst_abs = abs_err.reshape(cell).max(axis=0).tolist()
        worst_rel = rel_err.reshape(cell).max(axis=0).tolist()
        cell_ok = (~breach.reshape(cell).any(axis=0)).tolist()
        for i, scenario in enumerate(SCENARIOS):
            checks += [QuantityCheck(kind, scenario, names[q], worst_abs[i][q],
                                     worst_rel[i][q], cell_ok[i][q])
                       for q in sorted(range(len(names)), key=names.__getitem__)]

    ok = all(c.ok for c in checks) and not any(unconverged.values())
    return VerificationReport(ok=ok, trials=trials, seed=seed, m=m,
                              oracle_used=use_oracle, sim_used=use_sim,
                              checks=tuple(checks),
                              failures=tuple(line for game in lines for line in game),
                              oracle_unconverged=unconverged.get("oracle", 0),
                              sim_unconverged=unconverged.get("sim", 0))
