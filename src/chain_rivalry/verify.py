"""Cross-route agreement checks.

Runs the closed forms against the brute-force solvers and the user simulator
on a base parameter set plus seeded random draws, tracking the worst
deviation per quantity. The draw recipe samples inside the validity region
by construction, so every draw exercises interior equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Worst deviation observed for one (route, scenario, quantity) cell."""

    kind: str
    scenario: Scenario
    quantity: str
    max_abs: float
    max_rel: float
    tol_note: str
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
    return (f"alpha={p.alpha:.17g}, s={p.s:.17g}, k={p.k:.17g}, "
            f"n1={p.n1:.17g}, n2={p.n2:.17g}, n3={p.n3:.17g}, "
            f"d={p.d:.17g}, subsidy_p2={p.subsidy_p2:.17g}, "
            f"subsidy_p3={p.subsidy_p3:.17g}")


class _Accumulator:
    def __init__(self) -> None:
        self.cells: dict[tuple[str, Scenario, str], dict] = {}
        self.failures: list[str] = []
        self.oracle_unconverged = 0
        self.sim_unconverged = 0

    def record(self, kind: str, scenario: Scenario, quantity: str,
               reference: float, checked: float, ok: bool, tol_note: str,
               label: str, p: ModelParams) -> None:
        abs_err = abs(reference - checked)
        rel_err = abs_err / max(abs(reference), 1e-300)
        cell = self.cells.setdefault((kind, scenario, quantity), {
            "max_abs": 0.0, "max_rel": 0.0, "ok": True, "tol_note": tol_note,
        })
        cell["max_abs"] = max(cell["max_abs"], abs_err)
        cell["max_rel"] = max(cell["max_rel"], rel_err)
        if not ok:
            cell["ok"] = False
            self.failures.append(
                f"{kind} {scenario.value} {quantity}: |closed-{kind}| = "
                f"{abs_err:.3e} (rel {rel_err:.3e}) exceeds {tol_note} "
                f"at {label}: {_params_line(p)}")

    def checks(self) -> tuple[QuantityCheck, ...]:
        scenario_rank = {sc: i for i, sc in enumerate(Scenario)}
        keys = sorted(self.cells,
                      key=lambda k: (k[0], scenario_rank[k[1]], k[2]))
        out = []
        for key in keys:
            cell = self.cells[key]
            out.append(QuantityCheck(kind=key[0], scenario=key[1],
                                     quantity=key[2],
                                     max_abs=cell["max_abs"],
                                     max_rel=cell["max_rel"],
                                     tol_note=cell["tol_note"],
                                     ok=cell["ok"]))
        return tuple(out)


def _check_oracle(acc: _Accumulator, label: str, p: ModelParams,
                  scenario: Scenario, closed) -> None:
    found = oracle_equilibrium(p, scenario)
    if not found.converged:
        acc.oracle_unconverged += 1
        acc.failures.append(
            f"oracle {scenario.value}: best-response search did not converge "
            f"({found.iterations} rounds, residual {found.residual:.3e}) "
            f"at {label}: {_params_line(p)}")
    for name in ORACLE_QUANTITIES:
        ref = float(getattr(closed, name))
        got = float(getattr(found, name))
        abs_err = abs(ref - got)
        ok = abs_err <= ORACLE_ABS_TOL or abs_err <= ORACLE_REL_TOL * abs(ref)
        acc.record("oracle", scenario, name, ref, got, ok,
                   "rel 1e-03 or abs 1e-04", label, p)


def _check_sim(acc: _Accumulator, label: str, p: ModelParams,
               scenario: Scenario, closed, m: int) -> None:
    run = simulate_game(p, scenario, (closed.pA1, closed.pB1,
                                      closed.pA2, closed.pB2), m=m)
    stalled = [f"period {t} ({out.iterations} iterations)"
               for t, out in ((1, run.period1), (2, run.period2))
               if not out.converged]
    if stalled:
        acc.sim_unconverged += 1
        acc.failures.append(
            f"sim {scenario.value}: adoption fixed point did not converge in "
            f"{', '.join(stalled)} at {label}: {_params_line(p)}")
    share_tol = 1.0 / m + 1e-6
    rev_tol_a = (abs(closed.pA1) + abs(closed.pA2)) / m + 1e-6
    rev_tol_b = (abs(closed.pB1) + abs(closed.pB2)) / m + 1e-6
    pairs = (
        ("cutoff1", closed.cutoff1, run.period1.cutoff, share_tol, "1/m + 1e-06"),
        ("cutoff2", closed.cutoff2, run.period2.cutoff, share_tol, "1/m + 1e-06"),
        ("share_a1", closed.nA1, run.period1.share_a, share_tol, "1/m + 1e-06"),
        ("share_b1", closed.nB1, run.period1.share_b, share_tol, "1/m + 1e-06"),
        ("share_a2", closed.nA2, run.period2.share_a, share_tol, "1/m + 1e-06"),
        ("share_b2", closed.nB2, run.period2.share_b, share_tol, "1/m + 1e-06"),
        ("revenue_a", closed.profitA, run.revenue_a, rev_tol_a, "(|pA1|+|pA2|)/m + 1e-06"),
        ("revenue_b", closed.profitB, run.revenue_b, rev_tol_b, "(|pB1|+|pB2|)/m + 1e-06"),
    )
    for name, ref, got, tol, note in pairs:
        ok = abs(ref - got) <= tol
        acc.record("sim", scenario, name, float(ref), float(got), ok, note,
                   label, p)


def run_verification(base: ModelParams, trials: int = 20, seed: int = 42,
                     use_oracle: bool = True, use_sim: bool = True,
                     m: int = 10000) -> VerificationReport:
    """Check the base params plus `trials` seeded draws on every scenario.

    An oracle or simulator game that reports no convergence is a failure
    in its own right, named in `failures` and counted in
    `oracle_unconverged` or `sim_unconverged`.
    """
    require_valid(base)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if m < 2:
        raise ValueError(f"simulated population needs m >= 2, got {m}")
    rng = np.random.default_rng(seed)
    cases = [("config", base)]
    cases += [(f"draw {i}", draw_params(rng)) for i in range(1, trials + 1)]

    acc = _Accumulator()
    for label, p in cases:
        for scenario in Scenario:
            closed = closed_form.equilibrium(p, scenario, validate=False)
            if use_oracle:
                _check_oracle(acc, label, p, scenario, closed)
            if use_sim:
                _check_sim(acc, label, p, scenario, closed, m)

    checks = acc.checks()
    ok = (all(c.ok for c in checks) and not acc.oracle_unconverged
          and not acc.sim_unconverged)
    return VerificationReport(ok=ok, trials=trials, seed=seed, m=m,
                              oracle_used=use_oracle, sim_used=use_sim,
                              checks=checks, failures=tuple(acc.failures),
                              oracle_unconverged=acc.oracle_unconverged,
                              sim_unconverged=acc.sim_unconverged)
