"""Brute-force equilibrium solver used to cross-check every closed form.

Nothing here reuses the closed-form answers: demand is solved exactly from
the user utility comparisons (on the shared chain by cases on which
participation bounds bind), and the two-period lock-in game by backward
induction, each firm's period-1 objective carrying the exact monopoly value
of harvesting its locked base in period 2. One solver, oracle_equilibrium,
serves all three scenarios. One objective callable, play(pA, pB), returns
both firms' objectives from one demand evaluation. Each firm's objective is
piecewise quadratic in both prices jointly, so one Newton step on both
first-order conditions, sampled for both firms in one demand call, lands on
a piece's equilibrium; a full grid scan per firm then certifies that no
price deviation pays more than roundoff.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import EquilibriumOutcome, ModelParams, Scenario

MAX_ROUNDS = 50
POLISH_ROUNDS = 12


def _price_grid(p: ModelParams) -> np.ndarray:
    """Candidate prices for the deviation scans: 4001 points on [-span, span].

    Wide enough for every equilibrium price: period-1 discounts reach about
    -(k + alpha*n1) and period-2 harvest prices about k + alpha*n1 + d, with
    s of slack.
    """
    span = p.k + p.alpha * p.n1 + p.s + p.d
    return np.linspace(-span, span, 4001)


def _unit(x):
    """Clamp to [0, 1]; two ufunc calls cost half of np.clip's wrapper chain."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _demand(p: ModelParams, scenario: Scenario, pA, pB):
    """Vectorized stage demand (nA, nB, cutoff) at a price pair.

    Each firm's share is the indifference point under full coverage, capped
    by its self-consistent participation boundary (utility zero at the
    boundary type, network term included). On the shared chain both
    boundaries count the participation total T, and demand is the largest
    self-consistent T. The indifferent type values both firms equally, so
    coverage binds for both at once: either T = 1, or each firm sells
    max((K + alpha*T)/s, 0) with K = k + alpha*n1 - price, which solves to
    T = (K_A + K_B)/(s - 2*alpha) when both sell and to T = K/(s - alpha)
    when only the larger-K firm does.
    """
    pA = np.asarray(pA, dtype=float)
    pB = np.asarray(pB, dtype=float)
    u = p.s - p.alpha

    if scenario is Scenario.SAME_CHAIN:
        raw = 0.5 + (pB - pA) / (2.0 * p.s)

        def shares(total):
            reach_a = (p.k + p.alpha * (p.n1 + total) - pA) / p.s
            reach_b = (p.k + p.alpha * (p.n1 + total) - pB) / p.s
            return (_unit(np.minimum(raw, reach_a)),
                    _unit(np.minimum(1.0 - raw, reach_b)))

        nA, nB = shares(1.0)
        short = nA + nB < 1.0
        if np.any(short):
            K_a = p.k + p.alpha * p.n1 - pA
            K_b = p.k + p.alpha * p.n1 - pB
            total = _unit(np.maximum(K_a, K_b) / u)
            if p.s > 2.0 * p.alpha:
                both = (K_a + K_b) / (p.s - 2.0 * p.alpha)
                total = np.where(np.minimum(K_a, K_b) + p.alpha * both >= 0.0,
                                 both, total)
            nA, nB = shares(np.where(short, total, 1.0))
    else:
        base_b = p.n2 if scenario is Scenario.COMPATIBLE else p.n3
        raw = (p.alpha * (p.n1 - base_b) + u - pA + pB - p.d) / (2.0 * u)
        reach_a = (p.k + p.alpha * p.n1 - pA) / u
        reach_b = (p.k + p.alpha * base_b + p.d - pB) / u
        nA = _unit(np.minimum(raw, reach_a))
        nB = _unit(np.minimum(1.0 - raw, reach_b))

    return nA, nB, _unit(raw)


def _lockin_harvest(K: float, u: float, n):
    """Lock-in monopoly over a locked base of measure n: (price, retained).

    Demand at price q is min((K - q)/u, n) with u = s - alpha, so the
    optimum is price = max(K - u*n, K/2) and retained = min((K - price)/u,
    n): the seller keeps the whole base at the corner price K - u*n while
    u*n <= K/2, and otherwise sheds part of it at the vertex price K/2.
    Written as retained = min(K/(2u), n) and price = K - u*retained, the
    corner value price*retained is exactly (K - u*n)*n. An empty base or
    K <= 0 retains nothing and is worth 0. Vectorized over n.
    """
    retained = np.maximum(np.minimum(0.5 * K / u, n), 0.0)
    return K - u * retained, retained


def _harvest_base(p: ModelParams, firm: str) -> float:
    if firm == "A":
        return p.k + p.alpha * p.n1
    if firm == "B":
        return p.k + p.alpha * p.n3 + p.d
    raise ValueError(f"firm must be 'A' or 'B', got {firm!r}")


def period2_monopoly_price(p: ModelParams, firm: str, n_first: float) -> tuple[float, float]:
    """One firm's lock-in monopoly price and the share it retains.

    K = k + alpha * (own base) + quality edge for B; see _lockin_harvest.
    """
    if not 0.0 < n_first <= 1.0:
        raise ValueError(f"n_first must lie in (0, 1], got {n_first!r}")
    price, retained = _lockin_harvest(_harvest_base(p, firm), p.s - p.alpha, n_first)
    return float(price), float(retained)


def _stencil(step: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (for pA, for pB) of both firms' polish stencils in one call.

    Each firm's 5-point stencil puts its own price at -h, 0, +h at the
    rival's price and at -h, +h at rival + h, with h the grid step. The
    first five points are A's (own pA, rival pB), the last five B's.
    """
    own = np.array([-step, 0.0, step, -step, step])
    rival = np.array([0.0, 0.0, 0.0, step, step])
    return np.concatenate((own, rival)), np.concatenate((rival, own))


def _fit(f: list[float]) -> tuple[float, float, float]:
    """Own gradient, own curvature and cross term from one 5-point stencil."""
    grad = 0.5 * (f[2] - f[0])
    curv = f[0] - 2.0 * f[1] + f[2]
    cross = 0.5 * ((f[4] - f[3]) - (f[2] - f[0]))
    return grad, curv, cross


def _polish_step(prices: np.ndarray, play: Callable, pA: float, pB: float,
                 step: float, offsets: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[float, float]:
    """One joint Newton step on both firms' first-order conditions.

    One play call evaluates both firms' 5-point stencils (offsets from
    _stencil(step)): A's objective on A's points, B's on B's. Central
    differences give each firm's own gradient and curvature, and the
    forward column gives the cross term; all three are exact on a piece
    where profit is quadratic in both prices. Solving the 2x2 linear system
    of both first-order conditions then lands on that piece's equilibrium.
    Where that system does not describe a joint maximum (a firm's own
    curvature is not negative, or the cross terms outweigh the own ones so
    the determinant is not positive), each firm takes its own parabola
    vertex instead, and a firm without negative curvature stays put. The
    result is clamped to the grid.
    """
    value_a, value_b = play(pA + offsets[0], pB + offsets[1])
    g_a, c_aa, c_ab = _fit(value_a[:5].tolist())
    g_b, c_bb, c_ba = _fit(value_b[5:].tolist())
    det = c_aa * c_bb - c_ab * c_ba
    if c_aa < 0.0 and c_bb < 0.0 and det > 0.0:
        # Offsets in units of h solve [c_aa c_ab; c_ba c_bb] x = -g.
        x_a = (c_ab * g_b - c_bb * g_a) / det
        x_b = (c_ba * g_a - c_aa * g_b) / det
    else:
        x_a = -g_a / c_aa if c_aa < 0.0 else 0.0
        x_b = -g_b / c_bb if c_bb < 0.0 else 0.0
    lo, hi = float(prices[0]), float(prices[-1])
    return (min(max(pA + step * x_a, lo), hi),
            min(max(pB + step * x_b, lo), hi))


def _best_deviation(values: np.ndarray) -> tuple[int, bool]:
    """Grid argmax of a scan whose last entry is the polished price, and
    whether deviating to it gains more than 1e-12 * max(1, |objective|)."""
    best = int(np.argmax(values[:-1]))
    gain = values[best] - values[-1]
    return best, bool(gain > 1e-12 * max(1.0, abs(values[-1])))


def _solve_game(prices: np.ndarray, play: Callable,
                start: tuple[float, float]) -> tuple[float, float, int, float, bool]:
    """Polish, then certify the polished pair against every grid deviation.

    play(pA, pB) returns both firms' full objectives (value_a, value_b) at
    candidate prices (vectorized, broadcast together). Each round repeats
    _polish_step from the current pair until its largest price move is at
    most 1e-13, or is below the grid step and no longer shrinking, or
    POLISH_ROUNDS run out; each step is one play call for both firms. It
    then scans each firm's whole grid at the rival's polished price, one
    play call per firm, with the polished price itself in the scan's last
    slot, so the certificate costs no extra call. The pair is certified
    when neither firm gains more than 1e-12 * max(1, |own objective|) by
    deviating; otherwise both firms restart from their argmax of those same
    scans, for at most MAX_ROUNDS rounds. Returns (pA, pB, rounds, residual,
    converged): converged means certified, and residual is the last polish
    move.
    """
    step = float(prices[1] - prices[0])
    offsets = _stencil(step)
    scan = np.append(prices, 0.0)
    pA, pB = start
    residual = np.inf
    for rounds in range(1, MAX_ROUNDS + 1):
        residual = np.inf
        for _ in range(POLISH_ROUNDS):
            new_pA, new_pB = _polish_step(prices, play, pA, pB, step, offsets)
            delta = max(abs(new_pA - pA), abs(new_pB - pB))
            pA, pB = new_pA, new_pB
            stopped_shrinking = residual <= delta <= step
            residual = delta
            if delta <= 1e-13 or stopped_shrinking:
                break
        # Two 4002-point calls: stacking both scans into one 8004-point call
        # was measured to make a whole game about 1.5x slower.
        scan[-1] = pA
        best_a, pays_a = _best_deviation(play(scan, pB)[0])
        scan[-1] = pB
        best_b, pays_b = _best_deviation(play(pA, scan)[1])
        if not (pays_a or pays_b):
            return pA, pB, rounds, residual, True
        pA, pB = float(prices[best_a]), float(prices[best_b])
    return pA, pB, MAX_ROUNDS, residual, False


def oracle_equilibrium(p: ModelParams, scenario: Scenario) -> EquilibriumOutcome:
    """Best-response equilibrium of the two-period game in one scenario.

    Each firm maximizes its period-1 profit plus a continuation: the lock-in
    harvest of its period-1 base under INCOMPATIBLE (backward induction),
    and 0 otherwise, where the stage game simply repeats. Period 2 then
    either mirrors period 1 or reports each firm's harvest at the converged
    bases.
    """
    lock_in = scenario is Scenario.INCOMPATIBLE
    u = p.s - p.alpha
    K_a = _harvest_base(p, "A")
    K_b = _harvest_base(p, "B")

    def continuation(K: float, n):
        if not lock_in:
            return 0.0
        price, retained = _lockin_harvest(K, u, n)
        return price * retained

    def play(pA, pB):
        nA, nB, _ = _demand(p, scenario, pA, pB)
        return (pA * nA + continuation(K_a, nA),
                pB * nB + continuation(K_b, nB))

    pA1, pB1, rounds, residual, converged = _solve_game(
        _price_grid(p), play, (p.s, p.s))

    nA1, nB1, cutoff1 = _demand(p, scenario, pA1, pB1)
    nA1, nB1, cutoff1 = float(nA1), float(nB1), float(cutoff1)
    if lock_in:
        pA2, nA2 = period2_monopoly_price(p, "A", nA1) if nA1 > 0.0 else (0.0, 0.0)
        pB2, nB2 = period2_monopoly_price(p, "B", nB1) if nB1 > 0.0 else (0.0, 0.0)
        cutoff2 = nA2
    else:
        pA2, pB2, nA2, nB2, cutoff2 = pA1, pB1, nA1, nB1, cutoff1

    profitA1, profitA2 = pA1 * nA1, pA2 * nA2
    profitB1, profitB2 = pB1 * nB1, pB2 * nB2
    profitB = profitB1 + profitB2
    return EquilibriumOutcome(
        scenario=scenario,
        pA1=pA1, pB1=pB1, pA2=pA2, pB2=pB2,
        cutoff1=cutoff1, cutoff2=cutoff2,
        nA1=nA1, nB1=nB1, nA2=nA2, nB2=nB2,
        profitA1=profitA1, profitA2=profitA2,
        profitB1=profitB1, profitB2=profitB2,
        profitA=profitA1 + profitA2, profitB=profitB,
        profitB_with_subsidy=profitB + p.subsidy(scenario),
        converged=converged, iterations=rounds, residual=residual,
    )
