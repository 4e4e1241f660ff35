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

Only the swept field changes from point to point, and a closed form that
does not read it (closed_form.EQUILIBRIUM_READS, THRESHOLD_READS) gives the
same result at every valid point. So run_sweep solves it at the first valid
point and shares that outcome object with the later ones: the same-chain
outcome reads s alone, and the threshold report neither d nor the
subsidies. The CSV writer formats the numbers of a shared outcome or
threshold report once.

run_sweep returns one SweepTable of columns, so a grid point is one entry
in each column and no object of its own; its ModelParams, built
positionally from one row of fields, and its validate_params report are
dropped once its entries are set. At a valid point it solves the
scenarios that read the swept field (and the thresholds, when they read it
too) and decides the choice from the three subsidy-inclusive payoffs by
closed_form.choose_platform; a corner's note comes from a table keyed by
the three corner flags. write_sweep_csv writes each row to its stream as
soon as the row is formatted, so a sweep holds its table and nothing of
its CSV. The SVG is one string, which formats a shared outcome's y once.
"""

import math
from collections.abc import Mapping
from io import TextIOBase

from . import closed_form
from .closed_form import (CornerEquilibriumError, ThresholdReport,
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
    """A sweep's results as columns, each with one entry per grid point in
    grid order. outcomes maps each scenario to its column of equilibria,
    None where the equilibrium is blockaded (corner) or the point is
    invalid; an invalid point has no choice ("") and no thresholds (None).
    notes explains any missing pieces, and is "" where none is missing."""

    values: tuple[float, ...]
    outcomes: Mapping[Scenario, tuple[EquilibriumOutcome | None, ...]]
    chosen: tuple[str, ...]
    thresholds: tuple[ThresholdReport | None, ...]
    notes: tuple[str, ...]

    # frozen records promise a hash, which the outcomes mapping cannot give
    __hash__ = None


# The note of a valid point, keyed by whether the same-chain, compatible
# and incompatible equilibria are corners; "" at an interior point.
_CORNER_NOTES = {
    flags: "; ".join(f"corner: {name}"
                     for name, corner in zip(_SCENARIO_NAMES, flags) if corner)
    for flags in [(a, b, c) for a in (False, True) for b in (False, True)
                  for c in (False, True)]}


def run_sweep(base: ModelParams, spec: SweepSpec) -> SweepTable:
    """The sweep's table, in grid order. A point whose equilibrium
    overflows raises ValueError naming the swept value.

    The grid runs in double precision: every point is the base's fields as
    model.require_number gives them, with the swept field set to the grid
    value. Every base field other than the swept one that require_number
    refuses is named in one ValueError, before any point is solved.

    A closed form that does not read the swept field is solved at the first
    valid point only, and its outcome (or corner) and threshold report are
    the same objects at every later valid point."""
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
    # wrapper installed on the module attribute still sees every point.
    validate, solve = validate_params, closed_form.equilibrium
    solve_thresholds = closed_form.subsidy_threshold
    same, compatible, incompatible = SCENARIOS
    # the scenarios whose outcome the swept field changes, re-solved at
    # every valid point after the first; the latest outcome per scenario,
    # None at a corner
    resolved = [scenario for scenario in SCENARIOS
                if param in closed_form.EQUILIBRIUM_READS[scenario]]
    latest: dict[Scenario, EquilibriumOutcome | None] = {}
    resolve_thresholds = param in closed_form.THRESHOLD_READS
    report = None
    values = spec.values()
    column1, column2, column3 = [], [], []
    chosen, thresholds, notes = [], [], []
    for value in values:
        row[at] = value
        point = ModelParams(*row)
        validity = validate(point)
        if validity.ok:
            for scenario in resolved if latest else SCENARIOS:
                try:
                    latest[scenario] = solve(point, scenario, validate=False)
                except CornerEquilibriumError:
                    latest[scenario] = None
                except ValueError as exc:
                    raise ValueError(f"{param}={value!r}: {exc}") from exc
            if resolve_thresholds or report is None:
                report = solve_thresholds(point, validate=False)
            out1, out2, out3 = latest[same], latest[compatible], latest[incompatible]
            corners = out1 is None, out2 is None, out3 is None
            choice = "" if any(corners) else choose_platform(
                out1.profitB_with_subsidy, out2.profitB_with_subsidy,
                out3.profitB_with_subsidy)
            point_report, note = report, _CORNER_NOTES[corners]
        else:
            out1 = out2 = out3 = point_report = None
            choice, note = "", "invalid: " + "; ".join(validity.violations)
        column1.append(out1)
        column2.append(out2)
        column3.append(out3)
        chosen.append(choice)
        thresholds.append(point_report)
        notes.append(note)
    return SweepTable(tuple(values),
                      {same: tuple(column1), compatible: tuple(column2),
                       incompatible: tuple(column3)},
                      tuple(chosen), tuple(thresholds), tuple(notes))


def write_sweep_csv(table: SweepTable, stream: TextIOBase) -> int:
    """Write the long-format table; returns the number of data rows.

    Floats print with 9 significant digits and a missing value as an empty
    field, one formatted line per row, written as soon as it is formatted.
    An outcome or a threshold report that consecutive valid points share,
    as run_sweep's table does, has its numbers formatted once."""
    write = stream.write
    write(CSV_HEADER + "\n")
    names = _SCENARIO_NAMES
    # each scenario's latest outcome and that outcome's numbers
    latest, texts = [None, None, None], ["", "", ""]
    report, report_text = None, ""
    for value, outs, chosen, th, note in zip(
            table.values, zip(*[table.outcomes[scenario] for scenario in SCENARIOS]),
            table.chosen, table.thresholds, table.notes):
        value = f"{value:.9g}"
        if th is None:
            tail = f"{chosen},,,,"
        else:
            if th is not report:
                report, report_text = th, (f"{th.c2_star:.9g},{th.c3_star:.9g},"
                                           f"{th.d2_star:.9g},{th.d3_star:.9g}")
            tail = f"{chosen},{report_text}"
        for i, out in enumerate(outs):
            if out is None:
                write(f"{value},{names[i]},,,,,,,,{tail},{note}\n")
                continue
            if out is not latest[i]:
                latest[i] = out
                texts[i] = _OUTCOME_NUMBERS % (out.pA1, out.pB1, out.pA2, out.pB2,
                                               out.cutoff1, out.profitA, out.profitB)
            write(f"{value},{names[i]},{texts[i]},{tail},ok\n")
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
    columns = [table.outcomes[scenario] for scenario in SCENARIOS]
    ys = [out.profitB for column in columns for out in column if out is not None]
    if not ys:
        raise ValueError("nothing to plot: no valid sweep points")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    # every scenario's line shares the points' x coordinates
    x_text = [f"{left + (x - x_lo) / x_span * plot_w:.2f}," for x in xs]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for scenario, column in zip(SCENARIOS, columns):
        segments: list[list[str]] = [[]]
        # an outcome that consecutive points share has its y formatted once
        last, y_text = None, ""
        for x, out in zip(x_text, column):
            if out is None:
                if segments[-1]:
                    segments.append([])
                continue
            if out is not last:
                last = out
                y_text = f"{top + (y_hi - out.profitB) / y_span * plot_h:.2f}"
            segments[-1].append(x + y_text)
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
