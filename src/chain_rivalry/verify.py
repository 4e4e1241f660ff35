"""Cross-route agreement checks.

Runs the closed forms against the best-response oracle and the user
simulator on a base parameter set plus seeded random draws. Each route
function only runs its route: it returns a stall reason (None when the
route converged) and one row per quantity, (quantity, closed value, route
value, tolerance, tolerance note). One loop records every row with the
same test, |closed - route| <= tolerance, keeps the worst deviation per
(route, scenario, quantity) cell and names every stall and breach. The draw
recipe samples inside the validity region by construction, so every draw
exercises interior equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import closed_form
from .model import ModelParams, Scenario, require_valid
from .oracle import oracle_equilibrium
from .sim import simulate_game

ORACLE_REL_TOL = 1e-3
ORACLE_ABS_TOL = 1e-4

ORACLE_QUANTITIES = ("pA1", "pB1", "pA2", "pB2", "cutoff1", "cutoff2",
                     "profitA", "profitB")


def draw_params(rng: np.random.Generator) -> ModelParams:
    """One random parameter set satisfying every validity constraint.

    Sampling order is part of the reproducibility contract: n1, then the
    shared rival base, then s, then alpha below the dispersion bound, then k
    in (bound, 2*bound] above the participation bound.
    """
    n1 = float(rng.uniform(1.0, 50.0))
    n_rival = float(rng.uniform(0.0, n1))
    s = float(rng.uniform(0.5, 20.0))
    alpha = float(rng.uniform(0.0, s / (2.0 * n1 + 1.0)))
    while alpha == 0.0:
        alpha = float(rng.uniform(0.0, s / (2.0 * n1 + 1.0)))
    bound = 4.0 * s + 4.0 * alpha * (1.0 + n1 + n_rival)
    k = bound + bound * (1.0 - float(rng.uniform(0.0, 1.0)))
    p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n_rival, n3=n_rival)
    require_valid(p)
    return p


@dataclass(frozen=True)
class QuantityCheck:
    """Worst deviation observed for one (route, scenario, quantity) cell.

    A cell that has seen a NaN deviation reports NaN in both columns.
    """

    kind: str
    scenario: Scenario
    quantity: str
    max_abs: float
    max_rel: float
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
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
    return ", ".join(f"{f.name}={getattr(p, f.name):.17g}" for f in fields(p))


def _oracle_route(p: ModelParams, scenario: Scenario, closed, m: int):
    found = oracle_equilibrium(p, scenario)
    stall = None if found.converged else (
        f"best-response search did not converge (no price pair certified, "
        f"smallest worst relative gain {found.residual:.3e})")
    note = f"rel {ORACLE_REL_TOL:.0e} or abs {ORACLE_ABS_TOL:.0e}"
    rows = []
    for name in ORACLE_QUANTITIES:
        ref = float(getattr(closed, name))
        rows.append((name, ref, float(getattr(found, name)),
                     max(ORACLE_ABS_TOL, ORACLE_REL_TOL * abs(ref)), note))
    return stall, rows


def _sim_route(p: ModelParams, scenario: Scenario, closed, m: int):
    run = simulate_game(p, scenario, (closed.pA1, closed.pB1,
                                      closed.pA2, closed.pB2), m=m)
    stalled = [f"period {t} ({out.iterations} iterations)"
               for t, out in ((1, run.period1), (2, run.period2))
               if not out.converged]
    stall = (f"adoption fixed point did not converge in {', '.join(stalled)}"
             if stalled else None)
    floor = 1e-6
    plus_floor = f" + {floor:.0e}"
    share_tol = 1.0 / m + floor
    shares = (("cutoff1", closed.cutoff1, run.period1.cutoff),
              ("cutoff2", closed.cutoff2, run.period2.cutoff),
              ("share_a1", closed.nA1, run.period1.share_a),
              ("share_b1", closed.nB1, run.period1.share_b),
              ("share_a2", closed.nA2, run.period2.share_a),
              ("share_b2", closed.nB2, run.period2.share_b))
    rows = [(name, float(ref), float(got), share_tol, "1/m" + plus_floor)
            for name, ref, got in shares]
    rows.append(("revenue_a", float(closed.profitA), float(run.revenue_a),
                 (abs(closed.pA1) + abs(closed.pA2)) / m + floor,
                 "(|pA1|+|pA2|)/m" + plus_floor))
    rows.append(("revenue_b", float(closed.profitB), float(run.revenue_b),
                 (abs(closed.pB1) + abs(closed.pB2)) / m + floor,
                 "(|pB1|+|pB2|)/m" + plus_floor))
    return stall, rows


def run_verification(base: ModelParams, trials: int = 20, seed: int = 42,
                     use_oracle: bool = True, use_sim: bool = True,
                     m: int = 10000) -> VerificationReport:
    """Check the base params plus `trials` seeded draws on every scenario.

    An oracle or simulator game that reports no convergence is a failure
    in its own right, named in `failures` and counted in
    `oracle_unconverged` or `sim_unconverged`. Raises ValueError when
    neither route is used, since a run that checks nothing cannot pass.
    """
    require_valid(base)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if m < 2:
        raise ValueError(f"simulated population needs m >= 2, got {m}")
    routes = [("oracle", _oracle_route)] if use_oracle else []
    routes += [("sim", _sim_route)] if use_sim else []
    if not routes:
        raise ValueError("no route to check: use_oracle and use_sim are both False")
    rng = np.random.default_rng(seed)
    cases = [("config", base)]
    cases += [(f"draw {i}", draw_params(rng)) for i in range(1, trials + 1)]

    cells: dict[tuple[str, Scenario, str], list] = {}
    failures: list[str] = []
    stalls = {kind: 0 for kind, _ in routes}
    for label, p in cases:
        for scenario in Scenario:
            closed = closed_form.equilibrium(p, scenario, validate=False)
            for kind, route in routes:
                stall, rows = route(p, scenario, closed, m)
                if stall is not None:
                    stalls[kind] += 1
                    failures.append(f"{kind} {scenario.value}: {stall} at "
                                    f"{label}: {_params_line(p)}")
                for name, ref, got, tol, note in rows:
                    abs_err = abs(ref - got)
                    rel_err = abs_err / max(abs(ref), 1e-300)
                    cell = cells.setdefault((kind, scenario, name),
                                            [0.0, 0.0, True])
                    # a NaN deviation, once seen, stays the cell's worst
                    if abs_err > cell[0] or abs_err != abs_err:
                        cell[0] = abs_err
                    if rel_err > cell[1] or rel_err != rel_err:
                        cell[1] = rel_err
                    if not abs_err <= tol:
                        cell[2] = False
                        failures.append(
                            f"{kind} {scenario.value} {name}: |closed-{kind}| = "
                            f"{abs_err:.3e} (rel {rel_err:.3e}) exceeds {note} "
                            f"at {label}: {_params_line(p)}")

    rank = {sc: i for i, sc in enumerate(Scenario)}
    checks = tuple(QuantityCheck(kind, sc, name, *cells[kind, sc, name])
                   for kind, sc, name in sorted(
                       cells, key=lambda k: (k[0], rank[k[1]], k[2])))
    ok = all(c.ok for c in checks) and not any(stalls.values())
    return VerificationReport(ok=ok, trials=trials, seed=seed, m=m,
                              oracle_used=use_oracle, sim_used=use_sim,
                              checks=checks, failures=tuple(failures),
                              oracle_unconverged=stalls.get("oracle", 0),
                              sim_unconverged=stalls.get("sim", 0))
