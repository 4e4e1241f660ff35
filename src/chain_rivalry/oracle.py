"""Exact equilibrium solver used to cross-check every closed form.

Nothing here reuses the closed-form answers: demand is solved exactly from
the user utility comparisons (on the shared chain by cases on which
participation bounds bind), and the two-period lock-in game by backward
induction, each firm's period-1 objective carrying the exact monopoly value
of harvesting its locked base in period 2. One solver, oracle_equilibrium,
serves all three scenarios.

Each firm's objective is quadratic in its own price between breakpoints,
and every breakpoint and every piece's vertex is affine in the rival's
price. _lines tabulates, from _demand's own expressions, those that can be
a best response as lines own = a + b * rival (6 per firm on the separate
chains, 8 on the shared chain; its docstring proves why each other one is
dropped), so a firm's exact best response to any rival price is the best
of its lines there (a price where its share is 0 earns 0, as the exit line
does). An equilibrium lies on one of A's lines and one of B's, so every
intersection of an A-line with a B-line is a candidate. A candidate is
certified when neither firm gains, beyond roundoff, by moving to any price
on its own lines or by a small probe step either way: no price pays. One
_demand call evaluates every candidate at all of those moves, and the
reported prices, shares and lock-in harvest are read off the candidate's
own evaluation there; EquilibriumOutcome.from_periods turns them into the
outcome and its payoffs. The moves fill one price array of shape (2, rows,
candidates), A's prices then B's, one column per candidate: row 0 holds the
candidates, the next rows A's moves (its two probes, then its lines) with B
at its candidate price, and the last rows B's moves in the same order with
A at its candidate price.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import (COMPATIBLE, INCOMPATIBLE, SAME_CHAIN, EquilibriumOutcome,
                    ModelParams, Scenario, require_scenario)

# The certificate's bound on a deviation's gain, relative to the objective's
# terms |price*share| + |harvest value|.
GAIN_TOL = 1e-11
# The smallest normal float, the floor under a gain's denominator.
_TINY = np.finfo(float).tiny


def _unit(x):
    """Clamp to [0, 1]; two ufunc calls cost half of np.clip's wrapper chain."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _demand(p: ModelParams, scenario: Scenario, pA, pB):
    """Vectorized stage demand (nA, nB, cutoff) at broadcastable prices.

    Each firm's share is the indifference point under full coverage, capped
    by its self-consistent participation boundary (utility zero at the
    boundary type, network term included). On the shared chain both
    boundaries count the participation total T, and demand is the largest
    self-consistent T, then each firm's capped share at T. The indifferent
    type values both firms equally, so coverage binds for both at once.
    Short of coverage each firm sells max((K + alpha*T)/s, 0) with K = k +
    alpha*n1 - price, which solves to T = (K_A + K_B)/(s - 2*alpha) when
    both sell and to T = K/(s - alpha) when only the larger-K firm does;
    T = 1 wherever the shares at T = 1 sum to at least 1.
    """
    u = p.s - p.alpha

    if scenario is SAME_CHAIN:
        raw = 0.5 + (pB - pA) / (2.0 * p.s)
        K_a = p.k + p.alpha * p.n1 - pA
        K_b = p.k + p.alpha * p.n1 - pB
        short_total = _unit(np.maximum(K_a, K_b) / u)
        if p.s > 2.0 * p.alpha:
            both = (K_a + K_b) / (p.s - 2.0 * p.alpha)
            short_total = np.where(np.minimum(K_a, K_b) + p.alpha * both >= 0.0,
                                   both, short_total)

        def shares(total):
            reach = p.k + p.alpha * (p.n1 + total)
            return (_unit(np.minimum(raw, (reach - pA) / p.s)),
                    _unit(np.minimum(1.0 - raw, (reach - pB) / p.s)))

        nA, nB = shares(1.0)
        nA, nB = shares(np.where(nA + nB < 1.0, short_total, 1.0))
    else:
        base_b = p.n2 if scenario is COMPATIBLE else p.n3
        raw = (p.alpha * (p.n1 - base_b) + u - pA + pB - p.d) / (2.0 * u)
        reach_a = (p.k + p.alpha * p.n1 - pA) / u
        reach_b = (p.k + p.alpha * base_b + p.d - pB) / u
        nA = _unit(np.minimum(raw, reach_a))
        nB = _unit(np.minimum(1.0 - raw, reach_b))

    return nA, nB, _unit(raw)


def period2_monopoly_price(p: ModelParams, shares):
    """Both firms' lock-in harvest (price, retained) of their locked bases.

    shares stacks A's and B's period-1 shares n on its first axis. A firm
    is a monopolist over its base, with demand min((K - q)/u, n) at price
    q, u = s - alpha and K = k + alpha*n1 for A, k + alpha*n3 + d for B.
    The optimum keeps the whole base at the corner price K - u*n while u*n
    <= K/2, and otherwise sheds part of it at the vertex price K/2:
    retained = min(K/(2u), n) and price = K - u*retained, so the corner
    value price*retained is exactly (K - u*n)*n. A firm that retains
    nothing is priced at 0 and its harvest is worth 0: the price is zeroed
    in place, only where a base is empty.
    """
    u = p.s - p.alpha
    K_a, K_b = p.k + p.alpha * p.n1, p.k + p.alpha * p.n3 + p.d
    # both firms' K and K/(2u) from scalars, shaped to broadcast with shares
    K, cap = np.array([K_a, K_b, 0.5 * K_a / u, 0.5 * K_b / u]).reshape(
        (2, 2) + (1,) * (np.ndim(shares) - 1))
    retained = np.maximum(np.minimum(cap, shares), 0.0)
    price = K - u * retained
    np.copyto(price, 0.0, where=~(retained > 0.0))
    return price, retained


def _line(form: tuple, level: float = 0.0) -> tuple[float, float]:
    """(a, b) of the line own = a + b*rival on which an affine form, a
    triple (constant, own coefficient, rival coefficient), equals level."""
    c0, c1, c2 = form
    return (level - c0) / c1, -c2 / c1


def _peak(n: tuple, u: float = 0.0, K: float = 0.0) -> tuple[float, float]:
    """(a, b) of the line where own*n peaks in own price, n an affine share
    form; (u, K) adds the harvest value K*n - u*n^2 below its kink. Solves
    the first-order condition n*m + c1*(own + K) = 0, m = 1 - 2*u*c1."""
    c0, c1, c2 = n
    m = 1.0 - 2.0 * u * c1
    return -(c0 * m + K * c1) / (c1 * (m + 1.0)), -c2 * m / (c1 * (m + 1.0))


def _lines(p: ModelParams, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """A's lines pA = a + b*pB and B's lines pB = a + b*pA, as rows (a, b).

    Each restates one of _demand's expressions as an affine form in (own,
    rival) prices, and together they hold every price that can be a best
    response: each breakpoint of the objective that can be a maximum and
    each piece's vertex that can lie inside its piece. Separate chains: a
    share is clip(min(mine, reach)), the firm's side of the indifference
    point and its participation reach; the lines are the exit line, mine =
    1, reach = 1, mine = reach and the vertices of mine (under lock-in,
    with the harvest) and reach. Shared chain: both firms see the same
    forms, a share being clip(min(raw, reach(T))) at each total T of
    _demand: 1, K_own/u, K_rival/u or both-sell, K = k + alpha*n1 - price.
    The lines are the exit line, raw = 1, reach(1) = 1 (which is also
    reach(K_own/u) = 1), raw = reach(1) (where the shares at T = 1 sum to
    1), K_own = K_rival (pA = pB) and the vertices of raw, reach(K_own/u)
    and reach(K_rival/u); the own both-sell reach is reach(K_rival/u) times
    u/(s - 2*alpha), so it peaks at the same price. Every other breakpoint
    and vertex is dropped, each for a reason:

    (i) Short of coverage, every selling firm is at its reach at the
    realized total T < 1: the indifferent type values both firms equally,
    so a share held by its raw side would leave that type willing to join
    either firm, and the market would be covered. So no share reaches 1 and
    raw never binds: reach(K_rival/u) = 1, the own both-sell reach = 1,
    raw = reach(K_own/u) and raw = reach(K_rival/u) are never breakpoints.
    (ii) At T = 1, reach(1) binds only on its boundary raw = reach(1): a
    share held below its raw side by reach(1) makes nA + nB < 1, so the
    pair is short of coverage. The vertex of reach(1) therefore never lies
    inside its piece.
    (iii) The rival's both-sell reach = 0, where T switches from both-sell
    to K_own/u, is a convex kink. The own share is continuous there, and
    as the own price rises its slope goes from -u/(s*(s - 2*alpha)) to
    -1/u; since u^2 > s*(s - 2*alpha), demand flattens and revenue's slope
    jumps up. Such a kink is never a maximum at a positive price, and at a
    price <= 0 the exit line earns at least as much. This takes the whole
    both-sell case (s > 2*alpha) out of the table.
    (iv) Lock-in adds the harvest K*n - u*n^2 below n = K/(2u) and K^2/(4u)
    above it, K = k + alpha*n1 for A and k + alpha*n3 + d for B. It is C^1
    at the kink, where its slope K - 2u*n is 0, so the kink is no
    breakpoint: the objective's slope is 0 at a maximum there, which is
    then the vertex of the piece below, the one line for mine's vertex.
    The plain vertex of mine above the kink would sit at pA = 2u*n > K,
    where the reach is negative and the share is 0. On reach both vertices
    are the plain vertex K/2.

    pA = pB is never a unique best response either, but it is kept: it
    meets the vertices of raw exactly at the symmetric pair (s, s). Without
    it the reported prices move by some ulps, on 11 of the 101 gate games.

    A share's level-0 lines give way to the exit line, reach = 0 (reach(1)
    = 0 on the shared chain, as no total exceeds 1), written as _demand
    writes the reach so that the firm's share there is exactly 0 at every
    rival price. At a share-zero price a firm sells nothing, so its
    objective is exactly 0: revenue 0 plus the harvest of an empty base.
    The exit line gives the certificate the same 0, and no pair in which
    both firms sell lies on a share-zero line.
    """
    s, alpha, u = p.s, p.alpha, p.s - p.alpha
    if scenario is SAME_CHAIN:
        R = p.k + alpha * p.n1
        raw, reach = (0.5, -0.5 / s, 0.5 / s), ((R + alpha) / s, -1.0 / s, 0.0)  # T = 1
        table = np.array([(p.k + alpha * (p.n1 + 1.0), 0.0),  # the exit line
                          _line(raw, 1.0), _line(reach, 1.0),
                          _line([x - y for x, y in zip(raw, reach)]), (0.0, 1.0),
                          _peak(raw), _peak((R / u, -1.0 / u, 0.0)),  # T = K_own/u
                          _peak((R / u, -1.0 / s, -alpha / (u * s)))])  # T = K_rival/u
        return table, table
    base_b = p.n2 if scenario is COMPATIBLE else p.n3
    raw = (alpha * (p.n1 - base_b) + u - p.d) / (2.0 * u)
    tables = []
    for side, K in ((raw, p.k + alpha * p.n1), (1.0 - raw, p.k + alpha * base_b + p.d)):
        mine, reach = (side, -0.5 / u, 0.5 / u), (K / u, -1.0 / u, 0.0)
        harvest = (u, K) if scenario is INCOMPATIBLE else ()
        tables.append(np.array([(K, 0.0), _line(mine, 1.0), _line(reach, 1.0),
                                _line([x - y for x, y in zip(mine, reach)]),
                                _peak(mine, *harvest), _peak(reach)]))
    return tables[0], tables[1]


def _worst_gain(play: Callable, prices: np.ndarray, ra: int):
    """Each candidate's largest relative gain from a deviation, and the
    outcome play reports at it, from one play call.

    prices is laid out as in _solve_game: row 0 holds the candidates,
    rows 1 to ra A's moves at B's candidate price and the rows after them
    B's moves at A's. A gain counts relative to the larger of the two
    objectives' terms, |price*share| + |harvest value|, so it is
    scale-free; the candidate itself is one of the moves, so the result is
    never negative.
    """
    value, terms, demand = play(prices)
    # |gain| <= the sum of both terms, so the floor only turns 0/0 into 0
    rel = (value - value[:, :1]) / np.maximum(np.maximum(terms, terms[:, :1]), _TINY)
    rel[0, ra + 1:] = rel[1, 1:ra + 1] = 0.0  # a firm gains nothing from its rival's move
    return rel.max(axis=(0, 1)), [d[0] for d in demand]


def _solve_game(p: ModelParams, scenario: Scenario, play: Callable):
    """Enumerate the candidates, certify them, and pick one.

    One play call tries every firm's moves at every candidate: a probe
    step h = 1e-6*(s + |price|) either way, and every price on its own
    lines at the rival's price. A candidate is certified when no move
    improves either firm's objective by more than GAIN_TOL relative. The
    probes can see a gain no line holds, such as the shared chain's
    supremum just below a drop of its total. The certified pair whose
    smaller share is largest is reported; with none, the candidate whose
    worst relative gain over all moves (the residual) is smallest. Returns
    (pA, pB, the outcome play reports there, distinct pairs certified,
    residual).

    Every price is written into one array of shape (2, rows, candidates):
    prices[0] holds A's prices and prices[1] B's, column c for candidate c.
    Row 0 is the candidate pair. Rows 1 to ra = 2 + (A's lines) are A's
    moves with B at its candidate price: the probe down, the probe up, then
    A's price on each of its lines at B's price. The rows after them are
    B's moves in the same order, with A at its candidate price.
    """
    lines_a, lines_b = _lines(p, scenario)
    # A's lines as columns and B's as rows broadcast to every pair
    (a_a, b_a), (a_b, b_b) = lines_a.T[:, :, None], lines_b.T
    det = 1.0 - b_a * b_b
    meet = det != 0.0  # parallel lines never meet
    det = det[meet]
    ra = 2 + len(lines_a)
    prices = np.empty((2, 1 + ra + 2 + len(lines_b), det.size))
    pA, pB = prices[:, 0]
    np.divide((a_a + b_a * a_b)[meet], det, out=pA)
    np.divide((a_b + b_b * a_a)[meet], det, out=pB)
    step = 1e-6 * (p.s + np.abs(prices[:, 0]))
    moves_a, moves_b = prices[0, 1:ra + 1], prices[1, ra + 1:]
    np.subtract(pA, step[0], out=moves_a[0])
    np.add(pA, step[0], out=moves_a[1])
    np.multiply(b_a, pB, out=moves_a[2:])
    moves_a[2:] += a_a
    np.subtract(pB, step[1], out=moves_b[0])
    np.add(pB, step[1], out=moves_b[1])
    np.multiply(b_b[:, None], pA, out=moves_b[2:])
    moves_b[2:] += a_b[:, None]
    prices[1, 1:ra + 1] = pB
    prices[0, ra + 1:] = pA
    worst, demand = _worst_gain(play, prices, ra)
    certified = worst <= GAIN_TOL
    pairs = int(np.count_nonzero(certified))
    best = int(np.where(certified, np.minimum(demand[0], demand[1]), -1.0).argmax()
               if pairs else worst.argmin())
    if pairs > 1:  # a certified pair is distinct unless one before it is within h
        found = np.concatenate((prices[:, 0], step), axis=0)[:, certified].T.tolist()
        pairs = sum(not any(abs(qA - rA) <= hA and abs(qB - rB) <= hB
                            for rA, rB, _, _ in found[:n])
                    for n, (qA, qB, hA, hB) in enumerate(found))
    return (float(pA[best]), float(pB[best]), [float(d[best]) for d in demand],
            pairs, float(worst[best]))


def oracle_equilibrium(p: ModelParams, scenario: Scenario) -> EquilibriumOutcome:
    """Best-response equilibrium of the two-period game in one scenario.

    Each firm maximizes its period-1 profit plus a continuation: the lock-in
    harvest of its period-1 base under INCOMPATIBLE (backward induction),
    and 0 otherwise, where the stage game simply repeats. Under lock-in
    the harvest evaluated at the certified pair is period 2;
    EquilibriumOutcome.from_periods otherwise repeats period 1, and
    computes the payoffs in both cases.

    It is meant for valid configs, and certifies them. It does not
    validate p, because tests solve invalid configs on purpose. Its one
    known gap lies among those: on the shared chain, where s <= 2*alpha
    and k is far below the participation bound, a best response can be a
    supremum that no price attains (the strict xfail
    test_shared_chain_supremum_below_a_total_jump). A scenario that is not
    a Scenario raises a TypeError.

    It takes float fields, as the CLI and run_verification pass them (each
    field a double from model.as_float). An exact field such as a Fraction
    turns its price arrays into object arrays that numpy cannot write back
    as floats, and the solve raises a TypeError (numpy's UFuncTypeError).
    """
    require_scenario(scenario)
    lock_in = scenario is INCOMPATIBLE

    def play(prices):
        """Both firms' objectives and their terms, stacked like the prices
        (pA, pB) they are played at, and the outcome there: the demand (nA,
        nB, cutoff), then under lock-in the harvest (pA2, pB2, nA2, nB2)."""
        demand = _demand(p, scenario, prices[0], prices[1])
        shares = np.array(demand[:2])
        sell = prices * shares
        if not lock_in:
            return sell, np.abs(sell), demand
        price, retained = period2_monopoly_price(p, shares)
        keep = price * retained
        return sell + keep, np.abs(sell) + np.abs(keep), (*demand, *price, *retained)

    pA1, pB1, (nA1, nB1, cutoff1, *harvest), pairs, residual = \
        _solve_game(p, scenario, play)
    return EquilibriumOutcome.from_periods(p, scenario, pA1, pB1, cutoff1, nA1,
                                           nB1, harvest, pairs > 0, pairs,
                                           residual)
