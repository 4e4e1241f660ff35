"""Sweep wiring: each scenario is solved once per sweep, on a column of
the valid points where its closed form reads the swept field and at the
first valid point where it does not; every column entry is the scalar
solve of its point, and the chosen column is the entrant's platform choice
over that point's solved outcomes."""

import csv
import hashlib
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chain_rivalry import closed_form, sweep
from chain_rivalry.closed_form import (AdoptionDecision, CornerEquilibriumError,
                                       adoption_decision, choose_platform,
                                       subsidy_threshold)
from chain_rivalry.model import (SCENARIOS, EquilibriumOutcome, ModelParams,
                                 Scenario, validate_params)
from chain_rivalry.sweep import (CSV_HEADER, SWEEPABLE, SweepSpec, SweepTable,
                                 render_profit_svg, run_sweep, write_sweep_csv)
from conftest import MAX_FLOAT, draws, exact


def corner_d(p):
    """The smallest d at which the compatible or incompatible cutoff leaves (0, 1)."""
    u = p.s - p.alpha
    return min(3.0 * u + p.alpha * (p.n1 - p.n2), 2.5 * u + p.alpha * (p.n1 - p.n3))


def alpha_bound(p):
    """The largest alpha that assumption 1.1 and the participation bound allow."""
    return min(p.s / (2.0 * p.n1 + 1.0),
               (p.k - 4.0 * p.s) / (4.0 * (1.0 + p.n1 + p.n2)))


def past_the_bounds(p, steps=41):
    """A d sweep past the corner bound and an alpha sweep past validity."""
    return [SweepSpec("d", 0.0, 1.25 * corner_d(p), steps),
            SweepSpec("alpha", 0.0, 1.5 * alpha_bound(p), steps)]


def across_the_thresholds(p, steps=41):
    """Sweeps of d across d2*/d3* and of the subsidies across c2*/c3*."""
    rep = subsidy_threshold(p)
    return [SweepSpec("d", 0.0, 2.0 * rep.d3_star, steps),
            SweepSpec("subsidy_p2", 0.0, 2.0 * rep.c2_star, steps),
            SweepSpec("subsidy_p3", 0.0, 2.0 * rep.c3_star, steps)]


def point_outcome(table, scenario, j):
    """The scenario's outcome at grid point j of a table, with one number
    per field, or None where its equilibrium is not interior."""
    i = SCENARIOS.index(scenario)
    if not table.interior[j][i]:
        return None
    k = sum(flags[i] for flags in table.interior[:j])
    out = table.outcomes[scenario]
    return out.with_values(**{name: value[k] for name, value in vars(out).items()
                              if isinstance(value, tuple)})


@pytest.mark.parametrize("base", ["reference", "off_gate"])
def test_each_valid_point_is_solved_once(base, reference, monkeypatch):
    """Every field swept: the grid is checked in one validate_params call,
    on the sweep's params with the swept field the Column of every grid
    value. A scenario whose field set in closed_form (EQUILIBRIUM_READS)
    holds the swept field is solved in one closed_form.evaluate call on a
    column of the valid points' values, and any other in one equilibrium
    call at the first valid point. The threshold report is solved at every
    valid point when THRESHOLD_READS holds the swept field, else at the
    first. So s, which every closed form reads, makes three column calls,
    d and alpha two, k one."""
    p = reference if base == "reference" else draws("wide", 2024, 1)[0]
    columns, calls, reports, checks = [], [], [], []
    real_evaluate = closed_form.evaluate
    real, real_threshold = closed_form.equilibrium, closed_form.subsidy_threshold
    real_validate = sweep.validate_params

    def counting_evaluate(point, scenario):
        # equilibrium solves one game through evaluate too; a column
        # solve is one whose params hold a Column
        if closed_form.Column in map(type, vars(point).values()):
            columns.append((scenario, point))
        return real_evaluate(point, scenario)

    def counting(point, scenario, validate=True):
        calls.append(scenario)
        return real(point, scenario, validate=validate)

    def counting_threshold(point, validate=True):
        reports.append(point)
        return real_threshold(point, validate=validate)

    def counting_validate(point):
        checks.append(point)
        return real_validate(point)

    monkeypatch.setattr(closed_form, "evaluate", counting_evaluate)
    monkeypatch.setattr(closed_form, "equilibrium", counting)
    monkeypatch.setattr(closed_form, "subsidy_threshold", counting_threshold)
    monkeypatch.setattr(sweep, "validate_params", counting_validate)
    bounded = past_the_bounds(p)
    swept = set()
    for spec in bounded + crossing_grids(p) + [
            SweepSpec("s", 0.5 * p.s, 1.5 * p.s, 41)]:
        columns.clear()
        calls.clear()
        reports.clear()
        checks.clear()
        table = run_sweep(p, spec)
        # one check of the whole grid, on the Column of its values and
        # every other field one float
        assert len(checks) == 1, spec
        fields = dict(vars(checks[0]))
        grid = fields.pop(spec.param)
        assert type(grid) is closed_form.Column and list(grid) == spec.values()
        assert {type(value) for value in fields.values()} == {float}, spec
        valid = [value for value, th in zip(table.values, table.thresholds)
                 if th is not None]
        if spec in bounded:
            interior = sum(chosen != "" for chosen in table.chosen)
            if spec.param == "d":
                assert 0 < interior < len(valid) == spec.steps
            else:
                assert 0 < interior == len(valid) < spec.steps
        assert len(valid) > 1, spec
        solved = [scenario for scenario, _ in columns]
        for scenario in Scenario:
            reads = spec.param in closed_form.EQUILIBRIUM_READS[scenario]
            assert solved.count(scenario) == reads, (spec, scenario)
            assert calls.count(scenario) == (not reads), (spec, scenario)
        for _, point in columns:
            # the swept field is the column of the valid points' values,
            # and every other field one float
            fields = dict(vars(point))
            assert list(fields.pop(spec.param)) == valid, spec
            assert {type(value) for value in fields.values()} == {float}, spec
        reads = spec.param in closed_form.THRESHOLD_READS
        assert len(reports) == (len(valid) if reads else 1), spec
        if spec.param in ("d", "alpha", "n1"):
            assert len(columns) == 2
        elif spec.param == "s":
            assert len(columns) == 3
        else:
            assert len(columns) == 1
        if spec.param == "k":
            assert len(reports) == 1
        swept.add(spec.param)
    assert swept == set(SWEEPABLE)


@pytest.mark.parametrize("base", ["reference", "off_gate"])
def test_chosen_column_is_the_adoption_decision(base, reference):
    p = reference if base == "reference" else draws("wide", 2024, 1)[0]
    for spec in across_the_thresholds(p) + past_the_bounds(p):
        table = run_sweep(p, spec)
        buf = io.StringIO()
        write_sweep_csv(table, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        assert len(rows) == 3 * len(table.values) == 3 * spec.steps
        seen = set()
        for j, value in enumerate(table.values):
            column = {row[9] for row in rows[3 * j:3 * j + 3]}
            chosen, note = table.chosen[j], table.notes[j]
            if (table.thresholds[j] is None
                    or table.interior[j] != (True, True, True)):
                assert column == {""} and chosen == ""
                assert note.startswith(("invalid: ", "corner: "))
            else:
                point = p.with_values(**{spec.param: value})
                expected = adoption_decision(point).chosen
                assert column == {expected} and chosen == expected
                assert note == ""
                seen.add(expected)
        if spec.param != "alpha":
            # each threshold sweep crosses a flip of the entrant's choice
            assert len(seen) > 1, spec



@pytest.mark.parametrize("field, star, platform", [
    ("subsidy_p2", "c2_star", Scenario.COMPATIBLE),
    ("subsidy_p3", "c3_star", Scenario.INCOMPATIBLE)])
def test_a_payoff_tie_goes_to_the_shared_chain(reference, field, star, platform):
    """On the reference, a subsidy sweep from its threshold starts at a
    bitwise tie of B's payoffs on P1 and the subsidized platform; the tie
    goes to P1, and the subsidy above the threshold flips the choice."""
    c_star = getattr(subsidy_threshold(reference), star)
    table = run_sweep(reference, SweepSpec(field, c_star, 2.0 * c_star, 3))
    tied = [point_outcome(table, scenario, 0).profitB_with_subsidy
            for scenario in (Scenario.SAME_CHAIN, platform)]
    assert tied[0] == tied[1]
    assert table.chosen[0] == "P1"
    assert table.chosen[-1] == ("P2" if platform is Scenario.COMPATIBLE else "P3")


def test_the_choice_is_the_exact_choice_outside_a_rounding_band():
    """Each across_the_thresholds sweep of six wide and six edge bases,
    re-solved on the Fraction fields of every point where all three
    scenarios are interior. Each float payoff lies within 4 ulp(K) of its
    exact value, K = k + alpha*n1 + d, so where the exact top two payoffs
    lie more than the band 8 ulp(K) apart, the float choice must be the
    exact one. Inside the band it need not be: edge 712 draw 3's
    subsidy_p3 sweep lands on c3_star at point 20, where the float payoffs
    pick P3 and the exact P3 lies just below P1."""
    chosen, inside, worst = {"P1": 0, "P2": 0, "P3": 0}, {}, 0
    for family, seed in (("wide", 711), ("edge", 712)):
        for i, p in enumerate(draws(family, seed, 6)):
            for spec in across_the_thresholds(p):
                table = run_sweep(p, spec)
                for j, value in enumerate(table.values):
                    if table.interior[j] != (True, True, True):
                        continue
                    point = p.with_values(**{spec.param: value})
                    floats = [point_outcome(table, scenario, j).profitB_with_subsidy
                              for scenario in SCENARIOS]
                    exacts = [closed_form.equilibrium(exact(point), scenario)
                              .profitB_with_subsidy for scenario in SCENARIOS]
                    ulp = Fraction(math.ulp(point.k + point.alpha * point.n1 + point.d))
                    worst = max(worst, *(abs(Fraction(got) - want) / ulp
                                         for got, want in zip(floats, exacts)))
                    want = choose_platform(*exacts)
                    chosen[want] += 1
                    second, top = sorted(exacts)[1:]
                    where = (family, seed, i, spec.param, j)
                    if top - second <= 8 * ulp:
                        inside[where] = (table.chosen[j], want)
                    else:
                        assert table.chosen[j] == want, where
    assert worst <= 4
    assert chosen == {"P1": 58, "P2": 1074, "P3": 344}
    # two points lie inside the band: a P1/P2 near-tie that the floats
    # decide as exact arithmetic does, and the one whose float choice is not
    assert inside == {("edge", 712, 1, "subsidy_p2", 20): ("P1", "P1"),
                      ("edge", 712, 3, "subsidy_p3", 20): ("P3", "P1")}
    # that grid's midpoint is c3_star itself, where the float P3 payoff
    # tops P1's and the exact one falls short of it
    p = draws("edge", 712, 6)[3]
    point = p.with_values(subsidy_p3=subsidy_threshold(p).c3_star)
    assert across_the_thresholds(p)[2].values()[20] == point.subsidy_p3
    floats, exacts = ([closed_form.equilibrium(q, scenario).profitB_with_subsidy
                       for scenario in SCENARIOS] for q in (point, exact(point)))
    assert floats[2] > floats[0] and exacts[2] < exacts[0]


def pinned_sweeps(p, steps=41):
    """Every kind of row: d past the corner bound, alpha past validity, d and
    the subsidies across their thresholds, and d from a negative lo."""
    return (past_the_bounds(p, steps) + across_the_thresholds(p, steps)
            + [SweepSpec("d", -0.5 * corner_d(p), 1.1 * corner_d(p), steps)])


def sweep_bytes(p, spec):
    table = run_sweep(p, spec)
    buf = io.StringIO()
    write_sweep_csv(table, buf)
    return buf.getvalue(), render_profit_svg(table, spec.param)


# sha256 over the CSV and SVG text of pinned_sweeps on the reference and two
# off-gate bases, in that order. The sweep's output is a byte-for-byte
# contract, so a rewrite of its writers must reproduce this.
PINNED_SWEEP_DIGEST = (
    "54cedaa079d7c47dbc0c8c027f4994bf04b5d40b41de3828dffb0334f964a4c4")


def test_sweep_bytes_match_their_pin(reference):
    digest = hashlib.sha256()
    for p in [reference, *draws("wide", 2024, 2)]:
        for spec in pinned_sweeps(p):
            for text in sweep_bytes(p, spec):
                digest.update(text.encode())
    assert digest.hexdigest() == PINNED_SWEEP_DIGEST


# the outcome fields a table holds as columns
NUMERIC = [name for name in EquilibriumOutcome.__match_args__
           if name not in ("scenario", "converged", "iterations", "residual")]


def solved_point_by_point(base, spec):
    """The sweep with every scenario and the thresholds solved afresh at
    every valid point, through the public entries, and each scenario's
    interior outcomes stacked into columns: the reference that run_sweep's
    column solves and reuse must reproduce."""
    values = spec.values()
    solved = {scenario: [] for scenario in Scenario}
    interior, chosen, thresholds, notes = [], [], [], []
    for value in values:
        point = base.with_values(**{spec.param: value})
        report = validate_params(point)
        if not report.ok:
            interior.append((False, False, False))
            chosen.append("")
            thresholds.append(None)
            notes.append("invalid: " + "; ".join(report.violations))
            continue
        outcomes, corners = {}, []
        for scenario in Scenario:
            try:
                outcomes[scenario] = closed_form.equilibrium(point, scenario)
            except CornerEquilibriumError:
                corners.append("corner: " + scenario.value)
            else:
                solved[scenario].append(outcomes[scenario])
        interior.append(tuple(scenario in outcomes for scenario in Scenario))
        chosen.append("" if corners else AdoptionDecision.from_outcomes(outcomes).chosen)
        thresholds.append(subsidy_threshold(point))
        notes.append("; ".join(corners))
    stacked = {scenario: outs[0].with_values(**{
        name: tuple(getattr(out, name) for out in outs) for name in NUMERIC})
        if outs else None for scenario, outs in solved.items()}
    return SweepTable(tuple(values), stacked, tuple(interior), tuple(chosen),
                      tuple(thresholds), tuple(notes))


def csv_row_by_row(table):
    """The CSV text with every number formatted at its own row."""
    lines = [CSV_HEADER]
    for j, value in enumerate(table.values):
        th = table.thresholds[j]
        tail = table.chosen[j] + ("," + ",".join(
            f"{x:.9g}" for x in (th.c2_star, th.c3_star, th.d2_star, th.d3_star))
            if th is not None else ",,,,")
        for scenario in Scenario:
            out = point_outcome(table, scenario, j)
            if out is None:
                lines.append(f"{value:.9g},{scenario.value},,,,,,,,{tail},"
                             f"{table.notes[j]}")
            else:
                numbers = ",".join(f"{x:.9g}" for x in (
                    out.pA1, out.pB1, out.pA2, out.pB2, out.cutoff1,
                    out.profitA, out.profitB))
                lines.append(f"{value:.9g},{scenario.value},{numbers},{tail},ok")
    return "\n".join(lines) + "\n"


def crossing_grids(p, steps=41):
    """One grid per sweepable field from below zero to past the field's
    upper validity bound where it has one (alpha, s, n2, n3), past the
    corner bound for d, and to twice the base's k, n1 or 2*s."""
    top = {"alpha": 1.5 * alpha_bound(p), "s": 0.3 * p.k, "k": 2.0 * p.k,
           "n1": 2.0 * p.n1, "n2": 1.25 * p.n1, "n3": 1.25 * p.n1,
           "d": 1.25 * corner_d(p), "subsidy_p2": 2.0 * p.s,
           "subsidy_p3": 2.0 * p.s}
    return [SweepSpec(name, -0.25 * top[name], top[name], steps)
            for name in SWEEPABLE]


def test_reuse_matches_solving_every_point(reference):
    """Every field swept on the reference and on wide and edge bases: the
    CSV and SVG are byte for byte those of a sweep that solves each valid
    point afresh, so no closed form's field set in closed_form omits a
    field it reads on these grids."""
    notes, shared = set(), 0
    for p in [reference, *draws("wide", 711, 6), *draws("edge", 712, 6)]:
        for spec in crossing_grids(p):
            table = run_sweep(p, spec)
            expected = solved_point_by_point(p, spec)
            buf = io.StringIO()
            write_sweep_csv(table, buf)
            assert buf.getvalue() == csv_row_by_row(expected), (p, spec)
            svgs = [render_profit_svg(result, spec.param) if any(
                result.thresholds) else None for result in (table, expected)]
            assert svgs[0] == svgs[1], (p, spec)
            notes.update(note.partition(":")[0] for note in table.notes)
            valid = [th for th in table.thresholds if th is not None]
            shared += sum(a is b for a, b in zip(valid, valid[1:]))
    assert notes == {"", "invalid", "corner"} and shared > 0


@pytest.mark.parametrize("family", ["reference", "wide", "edge"])
def test_column_entries_are_the_scalar_solves_bitwise(family, reference):
    """Every field swept, the subsidies included, on the reference and on
    wide and edge bases: each column entry of every numeric outcome field
    is closed_form.equilibrium at its grid point, bit for bit, and the
    valid points a scenario has no entry for are exactly those where that
    call raises CornerEquilibriumError."""
    bases = {"reference": [reference], "wide": draws("wide", 711, 6),
             "edge": draws("edge", 712, 6)}[family]
    corners = entries = 0
    for p in bases:
        for spec in crossing_grids(p):
            table = run_sweep(p, spec)
            for i, scenario in enumerate(SCENARIOS):
                out, k = table.outcomes[scenario], 0
                for j, value in enumerate(table.values):
                    if table.thresholds[j] is None:
                        assert not table.interior[j][i]
                        continue
                    try:
                        alone = closed_form.equilibrium(
                            p.with_values(**{spec.param: value}), scenario)
                    except CornerEquilibriumError:
                        assert not table.interior[j][i], (spec, j, scenario)
                        corners += 1
                        continue
                    assert table.interior[j][i], (spec, j, scenario)
                    assert out.scenario is scenario
                    for name in NUMERIC:
                        field = getattr(out, name)
                        got = field[k] if isinstance(field, tuple) else field
                        assert got.hex() == getattr(alone, name).hex(), (
                            spec, j, scenario, name)
                    k += 1
                entries += k
                lengths = {len(field) for field in (vars(out) if out else {}).values()
                           if isinstance(field, tuple)}
                assert lengths <= {k} and (out is None) == (k == 0), (spec, scenario)
            if spec.param == "subsidy_p2":
                # only B's subsidy-inclusive payoff reads the subsidy
                out = table.outcomes[Scenario.COMPATIBLE]
                assert [name for name in NUMERIC if isinstance(
                    getattr(out, name), tuple)] == ["profitB_with_subsidy"]
    assert corners and entries


@pytest.mark.parametrize("room2, room3, failing", [
    (2.5e300, 1.2e300, Scenario.INCOMPATIBLE),
    (1.2e300, 2.5e300, Scenario.COMPATIBLE)])
def test_the_earliest_overflowing_point_is_named(room2, room3, failing):
    """Two scenarios overflow at different points of one d sweep: the
    error is the one the earlier point raises alone, whichever scenario
    comes first in SCENARIOS. Before either point, a scenario's payoff sum
    already overflows while each of its fields is finite, which
    closed_form.equilibrium accepts, so those points raise nothing."""
    base = ModelParams(alpha=0.1, s=1e300, k=1e301, n1=10.0, n2=5.0, n3=5.0,
                       subsidy_p2=MAX_FLOAT - room2, subsidy_p3=MAX_FLOAT - room3)
    spec = SweepSpec("d", 0.0, 2.4e300, 13)
    first = {}
    for value in spec.values():
        point = base.with_values(d=value)
        for scenario in SCENARIOS[1:]:
            try:
                closed_form.equilibrium(point, scenario)
            except CornerEquilibriumError:
                pass
            except ValueError as exc:
                first.setdefault(scenario, (value, str(exc)))
    assert len(first) == 2 and first[failing][0] < min(
        value for value, _ in first.values() if value != first[failing][0])
    value, message = first[failing]
    with pytest.raises(ValueError) as err:
        run_sweep(base, spec)
    assert str(err.value) == f"d={value!r}: {message}"


def test_written_lines_need_no_quoting(reference):
    """Each line is written unquoted, so no field may hold a comma, a quote
    or a line break: every line must parse to its plain split."""
    specs = [SweepSpec("alpha", -0.1, 0.2, 16),  # alpha <= 0 and both bounds
             SweepSpec("d", -1.0, 10.0, 23),  # d < 0 and both corners
             SweepSpec("n2", 0.0, 12.0, 7), SweepSpec("n3", 0.0, 12.0, 7),
             SweepSpec("subsidy_p2", -1.0, 1.0, 3)]
    notes = set()
    for spec in specs:
        text, _ = sweep_bytes(reference, spec)
        lines = text.splitlines()
        assert len(lines) == 1 + 3 * spec.steps
        for line in lines:
            fields = line.split(",")
            assert next(csv.reader([line])) == fields
            notes.add(fields[-1])
    for kind in ("alpha must be positive", "d must be nonnegative",
                 "subsidy_p2 must be nonnegative", "must exceed n2=",
                 "must exceed n3=", "assumption_1_1: ", "assumption_1_2: ",
                 "corner: compatible; corner: incompatible"):
        assert any(kind in note for note in notes), kind


def test_the_csv_writer_holds_no_copy_of_its_rows(reference, tmp_path):
    """Each row goes to the stream as soon as it is formatted, so writing
    a 10 000-point sweep (3.8 MB of CSV) to a file adds under 1 MB; a writer
    that held every row and their join added 13 MB."""
    table = run_sweep(reference,
                      SweepSpec("d", 0.0, 1.25 * corner_d(reference), 10_000))
    with open(tmp_path / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_sweep_csv(table, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - before < 1_000_000


@pytest.mark.parametrize("exact", [Fraction, np.int64])
def test_an_exact_base_sweeps_as_its_floats(reference, exact):
    """The grid runs on the base's fields as doubles, so a note names an
    exact field by a float's repr: Fraction(10, 1) would split its row."""
    fields = {name: Fraction(value).limit_denominator()
              for name, value in vars(reference).items()}
    if exact is np.int64:
        fields.update(s=np.int64(3), k=np.int64(20), n1=np.int64(10))
    base = type(reference)(**fields)
    spec = SweepSpec("n2", 0, 15, 5)
    text, svg = sweep_bytes(base, spec)
    assert (text, svg) == sweep_bytes(reference, spec)
    assert "invalid: dominant-chain base: n1=10.0 must exceed" in text
    assert {len(line.split(",")) for line in text.splitlines()} == {15}



def test_a_base_field_that_is_no_number_is_refused_up_front(reference,
                                                             monkeypatch):
    """alpha=(0.1, 0.2) swept over d would write its repr's comma into the
    note, 17 fields under the 15-field header: the sweep refuses the base
    before it solves a point. Swept itself, the field is the grid's."""
    base = reference.with_values(alpha=(0.1, 0.2))
    calls = []
    real = closed_form.equilibrium

    def counting(point, scenario, validate=True):
        calls.append(scenario)
        return real(point, scenario, validate=validate)

    monkeypatch.setattr(closed_form, "equilibrium", counting)
    with pytest.raises(ValueError, match=r"^sweep base: alpha must be a "
                                         r"number, got \(0\.1, 0\.2\)$"):
        run_sweep(base, SweepSpec("d", 0.0, 2.0, 5))
    with pytest.raises(ValueError, match=r"\(0\.1, 0\.2\); n3 must be a "
                                         r"number, got None$"):
        run_sweep(base.with_values(n3=None), SweepSpec("d", 0.0, 2.0, 5))
    assert calls == []
    spec = SweepSpec("alpha", 0.05, 0.2, 4)
    assert sweep_bytes(base, spec) == sweep_bytes(reference, spec)

def grid_specs(seed, count):
    """Random specs: ends of any magnitude and sign, widths down to a few
    subnormal steps (where linspace's step underflows to 0), 2 to 1000 steps."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        kind = rng.integers(3)
        if kind == 0:
            lo = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 300))
            hi = lo + float(10.0 ** rng.uniform(-320, 300))
        elif kind == 1:
            lo = float(rng.uniform(-1.0, 1.0)) * 1e-320
            hi = lo + float(rng.integers(1, 40)) * 5e-324
        else:
            lo = float(rng.uniform(-5.0, 5.0))
            hi = float(np.nextafter(lo, np.inf, dtype=float)) + float(
                rng.uniform(0.0, 10.0)) * (rng.random() < 0.5)
        steps = int(rng.choice([2, 3, int(rng.integers(2, 1001))]))
        if lo < hi and np.isfinite(hi - lo):
            specs.append(SweepSpec("d", lo, hi, steps))
    return specs


class TestGrid:
    def test_grid_is_bitwise_linspace(self):
        specs = grid_specs(22, 3000)
        underflows = sum((s.hi - s.lo) / (s.steps - 1) == 0.0 for s in specs)
        assert underflows > 50 and sum(s.steps == 2 for s in specs) > 50
        for spec in specs:
            got = spec.values()
            assert all(type(v) is float for v in got)
            want = np.linspace(spec.lo, spec.hi, spec.steps)
            assert np.array_equal(np.array(got).view(np.int64),
                                  want.view(np.int64)), spec

    def test_integer_ends_give_floats(self):
        assert SweepSpec("d", 0, 1, 5).values() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(type(v) is float for v in SweepSpec("d", 0, 1, 3).values())
        assert SweepSpec("d", Fraction(0), np.int64(2), 3).values() == [
            0.0, 1.0, 2.0]

    @pytest.mark.parametrize("steps", [2.0, 2.5, True, False, "3", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match=r"^sweep steps must be an "
                                             r"integer, got "):
            SweepSpec("d", 0.0, 1.0, steps)

    def test_numpy_integer_steps_become_an_int(self):
        spec = SweepSpec("d", 0.0, 1.0, np.int64(4))
        assert type(spec.steps) is int and spec == SweepSpec("d", 0.0, 1.0, 4)
        assert all(type(v) is float for v in spec.values())

    @pytest.mark.parametrize("steps", [1, 0, -3])
    def test_needs_two_steps(self, steps):
        with pytest.raises(ValueError, match="^sweep steps must be at least 2, "
                                             f"got {steps}$"):
            SweepSpec("d", 0.0, 1.0, steps)

    @pytest.mark.parametrize("lo,hi,problem", [
        (True, 2.0, "sweep bound lo must be a number, got True"),
        (0.0, np.True_, "sweep bound hi must be a number, got np.True_"),
        ("0", "2", "sweep bound lo must be a number, got '0'"),
        (0.0, None, "sweep bound hi must be a number, got None"),
        (0.0, np.float32(2.0), r"sweep bound hi must be a number, got "
                               r"np.float32\(2.0\)"),
        (0.0, 10 ** 400, "sweep range must be finite"),
        (-10 ** 400, 0, "sweep range must be finite"),
        # pytest cannot name a value past Python's int-to-str digit limit
        pytest.param(0.0, 10 ** 5000, r"sweep range must be finite, and so "
                     r"must its width hi - lo, got \[0.0, inf\]$",
                     id="0.0-10**5000-sweep range must be finite"),
    ])
    def test_bounds_must_be_finite_numbers(self, lo, hi, problem):
        with pytest.raises(ValueError, match=f"^{problem}"):
            SweepSpec("d", lo, hi, 3)

    @pytest.mark.parametrize("lo,hi,shown", [
        (1, 1, r"\[1.0, 1.0\]"),
        (2.0, -1.0, r"\[2.0, -1.0\]"),
        # lo rounds to 1.0: its exact digits pass Python's int-to-str limit
        pytest.param(Fraction(10 ** 5000 + 1, 10 ** 5000), 0.5, r"\[1.0, 0.5\]",
                     id="(10**5000+1)/10**5000-0.5"),
    ])
    def test_an_empty_range_shows_its_bounds_as_floats(self, lo, hi, shown):
        with pytest.raises(ValueError, match=f"^sweep range needs lo < hi, got {shown}$"):
            SweepSpec("d", lo, hi, 5)


def test_a_flat_profit_line_is_padded_by_one_each_way(reference):
    # past both corner bounds only the same-chain line is left, with
    # profitB = s = 3 at every point
    table = run_sweep(reference, SweepSpec("d", 10.0, 12.0, 5))
    assert all(flags[0] for flags in table.interior)
    assert table.outcomes[Scenario.SAME_CHAIN].profitB == 3.0
    svg = render_profit_svg(table, "d")
    assert svg.count("<polyline") == 1
    assert 'text-anchor="end" font-family="sans-serif">2</text>' in svg
    assert 'text-anchor="end" font-family="sans-serif">4</text>' in svg


def test_a_once_per_sweep_corner_leaves_its_scenario_out(reference):
    """The compatible closed form does not read n3, so an n3 sweep solves
    it once, at the first valid point; at d=12.5 that solve is a corner,
    as is the incompatible column at every point. Both scenarios are left
    out of every point, and the sweep raises nothing."""
    table = run_sweep(reference.with_values(d=12.5), SweepSpec("n3", 0.0, 8.0, 3))
    assert table.outcomes[Scenario.COMPATIBLE] is None
    assert table.outcomes[Scenario.INCOMPATIBLE] is None
    assert table.interior == ((True, False, False),) * 3
    assert table.chosen == ("",) * 3
    assert table.notes == ("corner: compatible; corner: incompatible",) * 3
    buf = io.StringIO()
    write_sweep_csv(table, buf)
    rows = [row for row in csv.reader(io.StringIO(buf.getvalue()))
            if row[1] == "compatible"]
    assert len(rows) == 3
    for row in rows:
        # no outcome numbers and no choice, only the thresholds and the note
        assert row[2:10] == [""] * 8
        assert row[-1] == "corner: compatible; corner: incompatible"


def test_an_overflowing_point_names_its_value(reference):
    with pytest.raises(ValueError, match=r"^k=5e\+307: incompatible "
                                         r"equilibrium: pA1 overflows to -inf$"):
        run_sweep(reference, SweepSpec("k", 1e307, 1.7e308, 5))


@pytest.mark.parametrize("spec, value", [
    (SweepSpec("n2", -1.0, 9.0, 6), "n2=1.0"),
    (SweepSpec("subsidy_p2", -2.0, 8.0, 6), "subsidy_p2=0.0")],
    ids=["n2", "subsidy_p2"])
def test_a_once_per_sweep_overflow_names_the_first_valid_point(spec, value):
    """The incompatible closed form reads neither n2 nor subsidy_p2, so
    the sweep solves it once, at the first valid point (the grid's first
    point is invalid), and that solve overflows: the error names that
    point, not the grid's first or last."""
    base = ModelParams(alpha=0.1, s=3.0, k=1e308, n1=10.0, n2=5.0, n3=5.0)
    with pytest.raises(ValueError) as err:
        run_sweep(base, spec)
    assert str(err.value) == (f"{value}: incompatible equilibrium: pA1 "
                              "overflows to -inf")
