"""End-to-end checks of the library's headline guarantees.

Each test pins one externally stated guarantee at its stated tolerance:
cross-route agreement, the platform-choice orderings, the reference-point
values, threshold flips, sensitivity slopes, simulator fidelity, demand
conservation, and bit-for-bit reproducibility of the CLI outputs.
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest

from chain_rivalry import cli
from chain_rivalry.closed_form import (
    CornerEquilibriumError,
    adoption_decision,
    adoption_sensitivity,
    equilibrium,
    subsidy_threshold,
)
from chain_rivalry.model import Scenario
from chain_rivalry.oracle import _demand
from chain_rivalry.sim import _play, simulate_game
from chain_rivalry.sweep import SweepSpec, run_sweep
from chain_rivalry.verify import run_verification
from conftest import (brute_shares, draws, grid_prices, profit_a_compatible,
                      profit_a_incompatible, profit_a_same, profit_b_compatible,
                      profit_b_incompatible, profit_b_same)



@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"alpha": 0.1, "s": 3.0, "k": 20.0,
                                "n1": 10.0, "n2": 5.0, "n3": 5.0}),
                    encoding="utf-8")
    return str(path)


def test_closed_forms_agree_with_best_response_search(reference):
    # config plus 100 seeded draws, every scenario, every price/cutoff/profit:
    # worst deviation must stay within rel 1e-3 or abs 1e-4
    report = run_verification(reference, trials=100, seed=42, use_sim=False)
    assert report.ok
    assert report.failures == ()
    oracle_cells = [c for c in report.checks if c.kind == "oracle"]
    assert len(oracle_cells) == 3 * 8
    for check in oracle_cells:
        assert check.ok
        assert check.max_abs <= 1e-4 or check.max_rel <= 1e-3


def test_entrant_prefers_the_shared_chain_without_edges(reference, draws100):
    for p in [reference, *draws100]:
        b_same = profit_b_same(p)
        b_compat = profit_b_compatible(p)
        b_incompat = profit_b_incompatible(p)
        assert b_same > b_compat > b_incompat
        assert profit_a_compatible(p) > profit_a_incompatible(p)
        assert adoption_decision(p).chosen == "P1"


def test_reference_point_shared_and_compatible_values(reference):
    same = equilibrium(reference, Scenario.SAME_CHAIN)
    assert same.pA1 == 3.0
    assert same.pB1 == 3.0
    assert same.pA1 == reference.s

    compat = equilibrium(reference, Scenario.COMPATIBLE)
    assert compat.pA1 == pytest.approx(3.066667, abs=1e-6)
    assert compat.pB1 == pytest.approx(2.733333, abs=1e-6)
    assert compat.cutoff1 == pytest.approx(0.528736, abs=1e-6)
    assert compat.profitA == pytest.approx(3.242912, abs=1e-6)
    assert compat.profitB == pytest.approx(2.576245, abs=1e-6)


def test_reference_point_lock_in_values(reference):
    out = equilibrium(reference, Scenario.INCOMPATIBLE)
    assert out.pA1 == pytest.approx(-14.8, abs=1e-6)
    assert out.pB1 == pytest.approx(-15.1, abs=1e-6)
    assert out.pA2 == pytest.approx(19.45, abs=1e-6)
    assert out.pB2 == pytest.approx(19.15, abs=1e-6)
    assert out.cutoff1 == pytest.approx(0.534483, abs=1e-6)
    assert out.profitA == pytest.approx(2.485345, abs=1e-6)
    assert out.profitB == pytest.approx(1.885345, abs=1e-6)
    assert out.pA1 < 0.0 and out.pB1 < 0.0

    # the stand-alone value cancels out of lock-in profits: a higher k only
    # deepens period-1 discounts one for one
    for shift in (1.0, -1.0):
        moved = equilibrium(reference.with_values(k=reference.k + shift),
                            Scenario.INCOMPATIBLE)
        assert moved.profitA == pytest.approx(out.profitA, abs=1e-9)
        assert moved.profitB == pytest.approx(out.profitB, abs=1e-9)
        assert moved.pA1 == pytest.approx(out.pA1 - shift, abs=1e-9)
        assert moved.pB1 == pytest.approx(out.pB1 - shift, abs=1e-9)


def test_network_strength_widens_the_compatible_profit_gap(reference):
    alphas = np.linspace(0.05, 0.13, 9)
    gaps = []
    for alpha in alphas:
        p = reference.with_values(alpha=float(alpha))
        gap = profit_a_compatible(p) - profit_b_compatible(p)
        assert gap > 0.0
        gaps.append(gap)
        # entrant prices below the dispersion level at every grid point
        u = p.s - p.alpha
        assert (3.0 * u - p.alpha * (p.n1 - p.n2)) / 3.0 < p.s
    assert all(b > a for a, b in zip(gaps, gaps[1:]))

    spec = SweepSpec(param="alpha", lo=0.05, hi=0.13, steps=9)
    table = run_sweep(reference, spec)
    valid = [th is not None for th in table.thresholds]
    assert valid == [True] * 8 + [False]
    swept = table.outcomes[Scenario.COMPATIBLE]
    assert len(swept.profitA) == 8
    swept_gaps = [a - b for a, b in zip(swept.profitA, swept.profitB)]
    assert swept_gaps == pytest.approx(gaps[:8], rel=1e-12)
    for pB1, p_point in zip(swept.pB1, (reference.with_values(alpha=float(a))
                                        for a in alphas)):
        assert pB1 < p_point.s

    # with a small lead in installed base the incumbent does worse off the
    # shared chain and prices below dispersion
    for n2 in (9.5, 9.0, 8.6):
        close = reference.with_values(k=25.0, n2=n2, n3=n2)
        compat = equilibrium(close, Scenario.COMPATIBLE)
        assert compat.profitA < profit_a_same(close)
        assert compat.pA1 < close.s


def test_threshold_values_and_adoption_flips(reference, draws100):
    rep = subsidy_threshold(reference)
    assert rep.c2_star == pytest.approx(0.423755, abs=1e-5)
    assert rep.c3_star == pytest.approx(1.114655, abs=1e-5)
    assert rep.d2_star == pytest.approx(0.648728, abs=1e-5)
    assert rep.d3_star == pytest.approx(1.764695, abs=1e-5)

    for p in [reference, *draws100]:
        draws_rep = subsidy_threshold(p)
        assert draws_rep.c3_star > draws_rep.c2_star

    eps = 1e-3
    below = adoption_decision(reference.with_values(subsidy_p2=rep.c2_star - eps))
    above = adoption_decision(reference.with_values(subsidy_p2=rep.c2_star + eps))
    assert below.chosen == "P1" and above.chosen == "P2"

    below = adoption_decision(reference.with_values(subsidy_p3=rep.c3_star - eps))
    above = adoption_decision(reference.with_values(subsidy_p3=rep.c3_star + eps))
    assert below.chosen == "P1" and above.chosen == "P3"

    below = adoption_decision(reference.with_values(d=rep.d2_star - eps))
    above = adoption_decision(reference.with_values(d=rep.d2_star + eps))
    assert below.chosen == "P1" and above.chosen == "P2"

    # by d3_star the compatible payoff is already far ahead, so the flip is
    # pairwise: the lock-in payoff overtakes the shared-chain payoff there
    below = adoption_decision(reference.with_values(d=rep.d3_star - eps))
    above = adoption_decision(reference.with_values(d=rep.d3_star + eps))
    assert below.payoffs["P3"] < below.payoffs["P1"]
    assert above.payoffs["P3"] > above.payoffs["P1"]
    assert below.chosen == "P2" and above.chosen == "P2"


def test_quality_sensitivity_slopes_are_exact(reference, draws25):
    for p in [reference, *draws25]:
        sens = adoption_sensitivity(p)
        assert sens.compatible == 1.0 / (6.0 * (p.s - p.alpha))
        assert sens.incompatible == 1.0 / (5.0 * (p.s - p.alpha))
        assert sens.ratio == sens.incompatible / sens.compatible
        assert abs(sens.ratio - 1.2) <= 4 * math.ulp(1.2)
        assert sens.incompatible / sens.compatible == pytest.approx(1.2, abs=5e-16)

    # the entrant share is linear in d, so central differences are
    # step-size-free: two widely separated steps give the same slope
    sens = adoption_sensitivity(reference)
    d0 = 0.625
    estimates = {}
    for h in (0.5, 0.0625):
        for scenario, slope in ((Scenario.COMPATIBLE, sens.compatible),
                                (Scenario.INCOMPATIBLE, sens.incompatible)):
            hi = equilibrium(reference.with_values(d=d0 + h), scenario)
            lo = equilibrium(reference.with_values(d=d0 - h), scenario)
            diff = (hi.nB1 - lo.nB1) / (2.0 * h)
            assert diff == pytest.approx(slope, rel=1e-12)
            estimates.setdefault(scenario, []).append(diff)
    for pair in estimates.values():
        assert pair[0] == pytest.approx(pair[1], rel=1e-12)


def test_simulated_users_reproduce_the_analytics(reference):
    m = 10000
    for scenario in Scenario:
        closed = equilibrium(reference, scenario)
        run = simulate_game(reference, scenario,
                            (closed.pA1, closed.pB1, closed.pA2, closed.pB2),
                            m=m)
        assert run.period1.cutoff == pytest.approx(closed.cutoff1, abs=1e-4)
        assert run.period2.cutoff == pytest.approx(closed.cutoff2, abs=1e-4)
        rev_tol = 0.01
        assert run.revenue_a == pytest.approx(closed.profitA, abs=rev_tol)
        assert run.revenue_b == pytest.approx(closed.profitB, abs=rev_tol)

        if scenario is Scenario.INCOMPATIBLE:
            # the same two periods, chained by hand: period 1's A adopters
            # [0, lo) and B adopters [hi, m) lock period 2, and no adopter
            # switches firms: A's period-2 adopters [0, a_exit) stay in
            # [0, hi) and B's [b_entry, m) in [lo, m), disjoint
            first, (lo, hi) = _play(m, reference, scenario,
                                    closed.pA1, closed.pB1, 0, m)
            second, (a_exit, b_entry) = _play(m, reference, scenario,
                                              closed.pA2, closed.pB2, lo, hi)
            assert (first, second) == (run.period1, run.period2)
            assert a_exit <= hi and b_entry >= lo and a_exit <= b_entry
            assert run.period2.share_a == run.period1.share_a
            assert run.period2.share_b == run.period1.share_b


def test_demand_conserves_mass_and_markets_stay_covered(reference, draws100):
    # no share is negative and none is created: nA + nB <= 1 holds exactly
    # on the whole grid, and sampled grid points match a brute-force count
    # of user choices
    prices = grid_prices(reference)
    for scenario in Scenario:
        closed = equilibrium(reference, scenario)
        for rival in (closed.pB1, closed.pB2, reference.s, 0.0, -5.0):
            nA, nB, _ = _demand(reference, scenario, prices, rival)
            assert np.all(nA >= 0.0) and np.all(nB >= 0.0)
            assert np.all(nA + nB <= 1.0)
            for i in range(1700, 2301, 300):
                share_a, share_b = brute_shares(reference, scenario,
                                                 prices[i], rival,
                                                 nA[i], nB[i])
                assert share_a == pytest.approx(nA[i], abs=1e-5)
                assert share_b == pytest.approx(nB[i], abs=1e-5)

    for p in [reference, *draws100]:
        for scenario in Scenario:
            out = equilibrium(p, scenario)
            assert out.nA1 + out.nB1 == 1.0
            nA, nB, _ = _demand(p, scenario, out.pA1, out.pB1)
            assert nA + nB == 1.0
            assert 1.0 - (nA + nB) == 0.0


def test_cli_outputs_are_byte_identical_across_runs(config_file, tmp_path,
                                                    capsys):
    verify_args = ["verify", "--config", config_file,
                   "--trials", "100", "--seed", "42"]
    assert cli.main(verify_args) == 0
    first = capsys.readouterr().out
    assert cli.main(verify_args) == 0
    second = capsys.readouterr().out
    assert "PASS: all checks within tolerance" in first
    assert first == second

    outputs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        code = cli.main(["sweep", "--config", config_file, "--param", "d",
                         "--lo", "0", "--hi", "2", "--steps", "21",
                         "--out", str(csv_path), "--svg", str(svg_path)])
        assert code == 0
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]


# sha256 of the sweep CSV and SVG and of the compare stdout at the reference
# config. These outputs are a byte-for-byte contract, so any byte that moves
# fails here, even where two runs of the same tree still agree.
PINNED_SWEEPS = {
    ("0", "2", "21"): (
        "9bd640db4f12fbadc2082341587421d14ea8f7b43ad5bb1675feb5c95a02c45c",
        "c24123a20090c09843f3c41801629030d94c9f0bd59c24a91b311b5d53e997a0"),
    # invalid below 0, cornered past 7.75 (incompatible) and 9.2 (compatible)
    ("-1", "10", "23"): (
        "72c49b792202577c4f7029cf95fe2f05dd231492d2b5805766f2bf6ef90a1d58",
        "7ce15cdee26384858002539ed31cf06a195996351d9c2b4d178bdcb0f2f95406"),
}
PINNED_COMPARE = "faf13c776bc02483a8ced16f107b1f02de260567c92e3388e21c359e60df2594"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("lo,hi,steps", sorted(PINNED_SWEEPS))
def test_sweep_outputs_match_their_pinned_bytes(config_file, tmp_path, capsys,
                                                lo, hi, steps):
    csv_path, svg_path = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    code = cli.main(["sweep", "--config", config_file, "--param", "d",
                     "--lo", lo, "--hi", hi, "--steps", steps,
                     "--out", str(csv_path), "--svg", str(svg_path)])
    capsys.readouterr()
    assert code == 0
    assert (_sha256(csv_path.read_bytes()), _sha256(svg_path.read_bytes())) \
        == PINNED_SWEEPS[(lo, hi, steps)]


def test_compare_output_matches_its_pinned_bytes(config_file, capsys):
    assert cli.main(["compare", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert out.endswith("ordering: P1 > P2 > P3\nchosen: P1\n")
    assert _sha256(out.encode()) == PINNED_COMPARE


def test_readme_library_snippet_prints_its_stated_output():
    # every snippet of the section, run in order in one namespace
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippets = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace, printed = {}, []
    for snippet in snippets:
        stated = [line.split("# ", 1)[1] for line in snippet.splitlines()
                  if line.startswith("print(")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(snippet, namespace)
        assert buf.getvalue().splitlines() == stated
        printed += stated
    assert printed == ["-14.8 19.45 2.4853448275862062", "P1",
                       "Fraction(46, 15)", "Fraction(46, 15)"]


def test_readme_findings_table_states_the_counts_the_code_gives():
    # the README's findings table, each row's quantity cell to its three
    # count cells, against the counts recomputed on the same draws
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## The paper's findings in the coded model", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in section.splitlines() if line.startswith("| ")]
    stated = {row[1]: row[-3:] for row in rows[2:]}

    def interior(p, report):
        # no corner at either quality threshold
        try:
            equilibrium(p.with_values(d=report.d2_star), Scenario.COMPATIBLE)
            equilibrium(p.with_values(d=report.d3_star), Scenario.INCOMPATIBLE)
        except CornerEquilibriumError:
            return False
        return True

    counted = {}
    for family, seed, count in (("gate", 42, 100), ("wide", 31, 200),
                                ("edge", 123, 400)):
        games = draws(family, seed, count)
        reports = [subsidy_threshold(p) for p in games]
        edge_order = {True: [], False: []}
        for p, report in zip(games, reports):
            edge_order[interior(p, report)].append(report.d2_star < report.d3_star)
        cells = {
            '`adoption_decision(p).chosen == "P1"`, with `d` and both subsidies 0':
                sum(adoption_decision(p.with_values(
                    d=0.0, subsidy_p2=0.0, subsidy_p3=0.0)).chosen == "P1"
                    for p in games),
            "`c2_star < c3_star`":
                sum(report.c2_star < report.c3_star for report in reports),
            "`d2_star < d3_star`, both thresholds interior":
                f"{sum(edge_order[True])} of {len(edge_order[True])}",
            "`d2_star < d3_star`, a threshold past its scenario's corner bound":
                f"{sum(edge_order[False])} of {len(edge_order[False])}",
            "`adoption_sensitivity(p).ratio` within 4 ulps of 1.2":
                sum(abs(adoption_sensitivity(p).ratio - 1.2) <= 4 * math.ulp(1.2)
                    for p in games)}
        for quantity, cell in cells.items():
            counted.setdefault(quantity, []).append(str(cell))
    assert stated == counted
