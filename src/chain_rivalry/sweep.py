"""Comparative-statics sweeps with CSV and SVG output.

One parameter varies over a uniform grid while the rest stay at the base
values. Every grid point gets three CSV rows (one per scenario) so the file
stays flat and parseable; rows at invalid parameter points keep only the
sweep value, scenario, and the violation note. No field the writer emits
holds a comma, a quote or a line break, so each row is one formatted line:
numbers print as %.9g, scenario and platform names are fixed words, and a
note names each number by a float's repr, because the grid runs on the
base's fields as doubles (an exact field such as Fraction(10, 1) would
otherwise show its comma), and a base field that is no number at all is
refused before the grid runs. The module imports neither numpy nor
dataclasses.

Only the swept field changes from point to point. run_sweep checks each
point with validate_params, then solves each scenario once per sweep: one
whose closed form reads the swept field (closed_form.EQUILIBRIUM_READS)
by closed_form.evaluate on a closed_form.Column of the valid points'
values, and any other at the first valid point, whose outcome is that of
every valid point. The threshold report stays per point where
THRESHOLD_READS holds the swept field (math.sqrt takes one number), and
is solved once where it does not.

run_sweep returns one SweepTable of columns, so a grid point is one entry
in each column and no object of its own; its ModelParams, built
positionally from one row of fields, and its validate_params report are
dropped once its entries are set. The choice at an interior point comes
from the three subsidy-inclusive payoffs by closed_form.choose_platform,
and a corner's note from a table keyed by the three interior flags.
write_sweep_csv writes each row as soon as it is formatted, so a sweep
holds its table and nothing of its CSV.
"""

import math
from collections.abc import Mapping
from io import TextIOBase
from itertools import compress, repeat

from . import closed_form
from .closed_form import (Column, CornerEquilibriumError, ThresholdReport,
                          choose_platform)
from .model import (MAX_COUNT, OPTIONAL_FIELDS, REQUIRED_FIELDS,
                    EquilibriumOutcome, SCENARIOS, ModelParams, Scenario,
                    as_float, record, require_count, require_number, shown,
                    validate_params)

SWEEPABLE = REQUIRED_FIELDS + OPTIONAL_FIELDS
_SCENARIO_NAMES = tuple(scenario.value for scenario in SCENARIOS)

CSV_HEADER = ("param_value,scenario,pA1,pB1,pA2,pB2,cutoff,profitA,profitB,"
              "chosen,c2_star,c3_star,d2_star,d3_star,valid")
# an outcome row's seven numbers: pA1 to profitB of CSV_HEADER
_OUTCOME_NUMBERS = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g"


@record
class SweepSpec:
    """One field swept over steps evenly spaced values from lo to hi."""

    param: str
    lo: float
    hi: float
    steps: int

    # checks the fields and fills __dict__ in one update, with steps as
    # require_count gives it
    def __init__(self, param: str, lo: float, hi: float, steps: int) -> None:
        if param not in SWEEPABLE:
            raise ValueError(
                f"cannot sweep {shown(param)}; choose one of "
                f"{', '.join(SWEEPABLE)}")
        # the range names an infinite end: a finite width implies finite ends
        low, high = as_float(lo), as_float(hi)
        for name, bound, number in (("lo", lo, low), ("hi", hi, high)):
            if number is None:
                raise ValueError(f"sweep bound {name} must be a number, "
                                 f"got {shown(bound)}")
        if not math.isfinite(high - low):
            raise ValueError("sweep range must be finite, and so must its width "
                             f"hi - lo, got [{low}, {high}]")
        if not low < high:
            raise ValueError(f"sweep range needs lo < hi, got [{low}, {high}]")
        self.__dict__.update({
            "param": param, "lo": lo, "hi": hi,
            "steps": require_count(steps, "sweep steps", 2, MAX_COUNT)})

    def values(self) -> list[float]:
        """The grid, bitwise np.linspace(lo, hi, steps): i*step + lo, or
        (i/div)*width + lo where the step underflows to 0, and hi last."""
        lo, hi = float(self.lo), float(self.hi)
        div = self.steps - 1
        width = hi - lo
        step = width / div
        if step == 0.0:
            grid = [(i / div) * width + lo for i in range(div)]
        else:
            grid = [i * step + lo for i in range(div)]
        grid.append(hi)
        return grid


@record
class SweepTable:
    """A sweep's results as columns. values, interior, chosen, thresholds
    and notes have one entry per grid point in grid order. outcomes maps
    each scenario to one EquilibriumOutcome whose numeric fields are
    tuples, one entry per grid point where interior says the scenario's
    equilibrium is interior, in grid order; a field the swept one does not
    change is one number for all of them, and the outcome is None where
    the scenario has no interior point. interior holds three flags per
    point, in SCENARIOS order, all False at an invalid point. An invalid
    point has no choice ("") and no thresholds (None); a point where a
    scenario's equilibrium is blockaded (a corner) has no choice either.
    notes explains any missing pieces, and is "" where none is missing."""

    values: tuple[float, ...]
    outcomes: Mapping[Scenario, EquilibriumOutcome | None]
    interior: tuple[tuple[bool, bool, bool], ...]
    chosen: tuple[str, ...]
    thresholds: tuple[ThresholdReport | None, ...]
    notes: tuple[str, ...]

    # frozen records promise a hash, which the outcomes mapping cannot give
    __hash__ = None


# The note of a valid point, keyed by whether the same-chain, compatible
# and incompatible equilibria are interior; "" at an interior point.
_CORNER_NOTES = {
    flags: "; ".join(f"corner: {name}"
                     for name, inside in zip(_SCENARIO_NAMES, flags) if not inside)
    for flags in [(a, b, c) for a in (False, True) for b in (False, True)
                  for c in (False, True)]}
# each flag triple to the one object of it that a table holds
_FLAGS = {flags: flags for flags in _CORNER_NOTES}
_ALL_INTERIOR, _NONE_INTERIOR = _FLAGS[True, True, True], _FLAGS[False, False, False]


def run_sweep(base: ModelParams, spec: SweepSpec) -> SweepTable:
    """The sweep's table, in grid order. A point whose equilibrium
    overflows raises ValueError naming the swept value.

    The grid runs in double precision: every point is the base's fields as
    model.require_number gives them, with the swept field set to the grid
    value. Every base field other than the swept one that require_number
    refuses is named in one ValueError, before any point is solved. Each
    point is checked by validate_params, and solved as the module
    docstring says; a threshold report solved once is the same object at
    every later valid point."""
    param = spec.param
    # the point's fields in ModelParams order, the swept one set per point
    row, bad = [], []
    for name in ModelParams.__match_args__:
        value = getattr(base, name)
        if name != param:
            try:
                value = require_number(value, name)
            except ValueError as problem:
                bad.append(str(problem))
        row.append(value)
    if bad:
        raise ValueError("sweep base: " + "; ".join(bad))
    at = ModelParams.__match_args__.index(param)
    # The entry points are looked up once per call, not at import, so a
    # wrapper installed on the module attribute still sees every call.
    validate, solve_thresholds = validate_params, closed_form.subsidy_threshold
    resolve_thresholds = param in closed_form.THRESHOLD_READS
    report = first = None
    values = spec.values()
    valid, thresholds, notes = [], [], []
    for value in values:
        row[at] = value
        point = ModelParams(*row)
        validity = validate(point)
        if validity.ok:
            if first is None:
                first = point
            if resolve_thresholds or report is None:
                report = solve_thresholds(point, validate=False)
            valid.append(value)
            thresholds.append(report)
            notes.append(None)
        else:
            thresholds.append(None)
            notes.append("invalid: " + "; ".join(validity.violations))
    outcomes, flags, choices = _solve(param, row, at, first, valid)
    solved = zip(flags, choices)
    interior, chosen = [], []
    for j, note in enumerate(notes):
        if note is None:
            inside, choice = next(solved)
            notes[j] = _CORNER_NOTES[inside]
        else:
            inside, choice = _NONE_INTERIOR, ""
        interior.append(inside)
        chosen.append(choice)
    return SweepTable(tuple(values), outcomes, tuple(interior), tuple(chosen),
                      tuple(thresholds), tuple(notes))


def _solve(param: str, row: list, at: int, first: ModelParams | None,
           valid: list[float]):
    """run_sweep's scenarios over its valid points: each scenario's
    outcome over its interior points (or None), and per valid point the
    interior flags and the choice. A failing entry's ValueError names its
    swept value."""
    if not valid:
        return dict.fromkeys(SCENARIOS), [], []
    row[at] = Column(valid)
    columns = ModelParams(*row)
    outcomes, masks, payoffs, failures = {}, [], [], []
    for order, scenario in enumerate(SCENARIOS):
        if param in closed_form.EQUILIBRIUM_READS[scenario]:
            out, mask, overflows = closed_form.evaluate(columns, scenario)
            failed = closed_form.failing_entry(out, scenario, mask, overflows)
            if failed:
                failures.append((failed[0], order, failed[1]))
        else:
            try:
                out = closed_form.equilibrium(first, scenario, validate=False)
            except CornerEquilibriumError:
                out = None
            except ValueError as exc:
                out = None
                failures.append((0, order, exc))
            mask = [out is not None] * len(valid)
        masks.append(mask)
        if not any(mask):
            out = None
            payoffs.append(repeat(None))
        else:
            # a field the swept one does not change is one number
            payoff = out.profitB_with_subsidy
            payoffs.append(payoff if type(payoff) is Column else repeat(payoff))
            if not all(mask):
                out = _interior(out, mask)
        outcomes[scenario] = out
    if failures:
        k, _, exc = min(failures)
        raise ValueError(f"{param}={valid[k]!r}: {exc}") from exc
    flags = list(map(_FLAGS.__getitem__, zip(*masks)))
    chosen = [choose_platform(p1, p2, p3) if inside is _ALL_INTERIOR else ""
              for inside, p1, p2, p3 in zip(flags, *payoffs)]
    return outcomes, flags, chosen


def _interior(out: EquilibriumOutcome, mask: list[bool]) -> EquilibriumOutcome:
    """out with each column cut to the entries that mask keeps. Fields
    that share a column, as from_periods shares a price or a share between
    the periods, share the cut column too."""
    cut, changes = {}, {}
    for name, field in vars(out).items():
        if type(field) is Column:
            if id(field) not in cut:
                cut[id(field)] = Column(compress(field, mask))
            changes[name] = cut[id(field)]
    return out.with_values(**changes)


def _row_numbers(out: EquilibriumOutcome):
    """The seven CSV numbers of each of out's entries, formatted as the
    entries are read: one text for all of them when none is a column."""
    numbers = (out.pA1, out.pB1, out.pA2, out.pB2, out.cutoff1, out.profitA,
               out.profitB)
    if not any(isinstance(number, tuple) for number in numbers):
        return repeat(_OUTCOME_NUMBERS % numbers)
    return map(_OUTCOME_NUMBERS.__mod__, zip(*[
        number if isinstance(number, tuple) else repeat(number)
        for number in numbers]))


def write_sweep_csv(table: SweepTable, stream: TextIOBase) -> int:
    """Write the long-format table; returns the number of data rows.

    Floats print with 9 significant digits and a missing value as an empty
    field, one formatted line per row, written as soon as it is formatted.
    An outcome field that is one number for every point, or a threshold
    report that consecutive valid points share, as run_sweep's table
    holds them, has its numbers formatted once."""
    write = stream.write
    write(CSV_HEADER + "\n")
    names = _SCENARIO_NAMES
    texts = [_row_numbers(out) if out is not None else None
             for out in (table.outcomes[scenario] for scenario in SCENARIOS)]
    report, report_text = None, ""
    for value, flags, chosen, th, note in zip(
            table.values, table.interior, table.chosen, table.thresholds,
            table.notes):
        value = f"{value:.9g}"
        if th is None:
            tail = f"{chosen},,,,"
        else:
            if th is not report:
                report, report_text = th, (f"{th.c2_star:.9g},{th.c3_star:.9g},"
                                           f"{th.d2_star:.9g},{th.d3_star:.9g}")
            tail = f"{chosen},{report_text}"
        for name, inside, text in zip(names, flags, texts):
            if inside:
                write(f"{value},{name},{next(text)},{tail},ok\n")
            else:
                write(f"{value},{name},,,,,,,,{tail},{note}\n")
    return len(table.values) * len(SCENARIOS)


SVG_COLORS = {
    Scenario.SAME_CHAIN: "#1f77b4",
    Scenario.COMPATIBLE: "#2ca02c",
    Scenario.INCOMPATIBLE: "#d62728",
}


def render_profit_svg(table: SweepTable, param: str) -> str:
    """Minimal line chart of firm B's aggregate profit per scenario."""
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = table.values
    outcomes = [table.outcomes[scenario] for scenario in SCENARIOS]
    ys = [y for out in outcomes if out is not None for y in (
        out.profitB if isinstance(out.profitB, tuple) else (out.profitB,))]
    if not ys:
        raise ValueError("nothing to plot: no valid sweep points")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    # every scenario's line shares the points' x coordinates
    x_text = [f"{left + (x - x_lo) / x_span * plot_w:.2f}," for x in xs]

    def y_text(y):
        return f"{top + (y_hi - y) / y_span * plot_h:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for i, (scenario, out) in enumerate(zip(SCENARIOS, outcomes)):
        if out is None:
            continue
        # a profitB that is one number for every point is formatted once
        ys = (map(y_text, out.profitB) if isinstance(out.profitB, tuple)
              else repeat(y_text(out.profitB)))
        segments: list[list[str]] = [[]]
        for x, flags in zip(x_text, table.interior):
            if flags[i]:
                segments[-1].append(x + next(ys))
            elif segments[-1]:
                segments.append([])
        for seg in segments:
            if len(seg) >= 2:
                parts.append(f'<polyline fill="none" stroke="{SVG_COLORS[scenario]}" '
                             f'stroke-width="2" points="{" ".join(seg)}"/>')
    labels = [
        (f"{x_lo:.6g}", left, height - 28, "middle"),
        (f"{x_hi:.6g}", left + plot_w, height - 28, "middle"),
        (f"{y_lo:.6g}", left - 6, top + plot_h, "end"),
        (f"{y_hi:.6g}", left - 6, top + 10, "end"),
        (param, left + plot_w / 2, height - 10, "middle"),
    ]
    for text, x, y, anchor in labels:
        parts.append(f'<text x="{x:.0f}" y="{y:.0f}" font-size="12" '
                     f'text-anchor="{anchor}" font-family="sans-serif">{text}</text>')
    legend_y = top + 14
    for scenario in SCENARIOS:
        parts.append(f'<rect x="{left + 10}" y="{legend_y - 9}" width="12" height="3" '
                     f'fill="{SVG_COLORS[scenario]}"/>')
        parts.append(f'<text x="{left + 28}" y="{legend_y - 4}" font-size="12" '
                     f'font-family="sans-serif">profitB {scenario.value}</text>')
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
