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
refused before the grid runs. The module does not import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Mapping, Optional

from . import closed_form
from .closed_form import (AdoptionDecision, CornerEquilibriumError,
                          ThresholdReport)
from .model import (OPTIONAL_FIELDS, REQUIRED_FIELDS, EquilibriumOutcome,
                    SCENARIOS, ModelParams, Scenario, as_float, record,
                    require_integer, validate_params)

SWEEPABLE = REQUIRED_FIELDS + OPTIONAL_FIELDS
_SCENARIO_NAMES = tuple(scenario.value for scenario in SCENARIOS)

CSV_HEADER = ("param_value,scenario,pA1,pB1,pA2,pB2,cutoff,profitA,profitB,"
              "chosen,c2_star,c3_star,d2_star,d3_star,valid")
# one outcome row: the value, the scenario, seven outcome fields, the tail
_OUTCOME_ROW = "%s,%s,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s,ok\n"


@dataclass(frozen=True)
class SweepSpec:
    param: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        if self.param not in SWEEPABLE:
            raise ValueError(
                f"cannot sweep {self.param!r}; choose one of {', '.join(SWEEPABLE)}")
        lo, hi = as_float(self.lo), as_float(self.hi)
        for name, bound, number in (("lo", self.lo, lo), ("hi", self.hi, hi)):
            if number is None:
                raise ValueError(f"sweep bound {name} must be a number, "
                                 f"got {bound!r}")
        # a finite width implies finite ends; the grid needs the width itself
        if not math.isfinite(hi - lo):
            raise ValueError("sweep range must be finite, and so must its width "
                             f"hi - lo, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"sweep range needs lo < hi, got [{self.lo}, {self.hi}]")
        steps = require_integer(self.steps, "sweep steps")
        if steps < 2:
            raise ValueError(f"sweep needs at least 2 steps, got {steps}")
        object.__setattr__(self, "steps", steps)

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
class SweepRecord:
    """All outcomes at one grid point. A scenario maps to None when its
    equilibrium is blockaded (corner); an invalid point has no outcomes, no
    choice and no thresholds. note explains any missing pieces."""

    value: float
    outcomes: Mapping[Scenario, Optional[EquilibriumOutcome]]
    chosen: str
    thresholds: Optional[ThresholdReport]
    note: str

    # frozen records promise a hash, which the outcomes mapping cannot give
    __hash__ = None


def run_sweep(base: ModelParams, spec: SweepSpec) -> list[SweepRecord]:
    """One record per grid point, in grid order. A point whose equilibrium
    overflows raises ValueError naming the swept value.

    The grid runs in double precision: every point is the base's fields as
    model.as_float gives them, with the swept field set to the grid value.
    A base field other than the swept one that as_float rejects raises a
    ValueError naming it before any point is solved."""
    param = spec.param
    fields, bad = {}, []
    for name, value in vars(base).items():
        fields[name] = as_float(value)
        if fields[name] is None and name != param:
            bad.append(f"{name} must be a number, got {value!r}")
    if bad:
        raise ValueError("sweep base: " + "; ".join(bad))
    records = []
    for value in spec.values():
        fields[param] = value
        point = ModelParams(**fields)
        report = validate_params(point)
        if not report.ok:
            records.append(SweepRecord(
                value, {}, "", None, "invalid: " + "; ".join(report.violations)))
            continue
        notes = []
        outcomes: dict[Scenario, Optional[EquilibriumOutcome]] = {}
        for scenario, name in zip(SCENARIOS, _SCENARIO_NAMES):
            try:
                outcomes[scenario] = closed_form.equilibrium(point, scenario,
                                                             validate=False)
            except CornerEquilibriumError:
                outcomes[scenario] = None
                notes.append("corner: " + name)
            except ValueError as exc:
                raise ValueError(f"{param}={value!r}: {exc}") from exc
        thresholds = closed_form.subsidy_threshold(point, validate=False)
        chosen = "" if notes else AdoptionDecision.from_outcomes(outcomes).chosen
        records.append(SweepRecord(value, outcomes, chosen, thresholds,
                                   "; ".join(notes)))
    return records


def write_sweep_csv(records: list[SweepRecord], stream: IO[str]) -> int:
    """Write the long-format table; returns the number of data rows.

    Floats print with 9 significant digits and a missing value as an empty
    field, one formatted line per row."""
    lines = [CSV_HEADER + "\n"]
    for rec in records:
        value = f"{rec.value:.9g}"
        th = rec.thresholds
        if th is None:
            tail = f"{rec.chosen},,,,"
        else:
            tail = (f"{rec.chosen},{th.c2_star:.9g},{th.c3_star:.9g},"
                    f"{th.d2_star:.9g},{th.d3_star:.9g}")
        outcomes = rec.outcomes
        for scenario, name in zip(SCENARIOS, _SCENARIO_NAMES):
            out = outcomes.get(scenario)
            if out is not None:
                lines.append(_OUTCOME_ROW % (
                    value, name, out.pA1, out.pB1, out.pA2, out.pB2,
                    out.cutoff1, out.profitA, out.profitB, tail))
            else:
                lines.append(f"{value},{name},,,,,,,,{tail},{rec.note}\n")
    stream.write("".join(lines))
    return len(records) * len(SCENARIOS)


SVG_COLORS = {
    Scenario.SAME_CHAIN: "#1f77b4",
    Scenario.COMPATIBLE: "#2ca02c",
    Scenario.INCOMPATIBLE: "#d62728",
}


def render_profit_svg(records: list[SweepRecord], param: str) -> str:
    """Minimal line chart of firm B's aggregate profit per scenario."""
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    # one column of B's profits per scenario, NaN where there is no outcome
    nan = float("nan")
    profits = [[nan if out is None else out.profitB
                for out in (rec.outcomes.get(scenario) for rec in records)]
               for scenario in SCENARIOS]
    xs = [rec.value for rec in records]
    ys = [y for column in profits for y in column if y == y]
    if not xs or not ys:
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
    for scenario, column in zip(SCENARIOS, profits):
        segments: list[list[str]] = [[]]
        for x, y in zip(x_text, column):
            if y != y:
                if segments[-1]:
                    segments.append([])
                continue
            segments[-1].append(f"{x}{top + (y_hi - y) / y_span * plot_h:.2f}")
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
