"""Comparative-statics sweeps with CSV and SVG output.

One parameter varies over a uniform grid while the rest stay at the base
values. Every grid point gets three CSV rows (one per scenario) so the file
stays flat and parseable; rows at invalid parameter points keep only the
sweep value, scenario, and the violation note.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Mapping, Optional

import numpy as np

from . import closed_form
from .closed_form import (AdoptionDecision, CornerEquilibriumError,
                          ThresholdReport)
from .model import (OPTIONAL_FIELDS, REQUIRED_FIELDS, EquilibriumOutcome,
                    ModelParams, Scenario, validate_params)

SWEEPABLE = REQUIRED_FIELDS + OPTIONAL_FIELDS

CSV_HEADER = ("param_value,scenario,pA1,pB1,pA2,pB2,cutoff,profitA,profitB,"
              "chosen,c2_star,c3_star,d2_star,d3_star,valid")


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
        # a finite width implies finite ends; linspace needs the width itself
        if not np.isfinite(self.hi - self.lo):
            raise ValueError("sweep range must be finite, and so must its width "
                             f"hi - lo, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"sweep range needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.steps < 2:
            raise ValueError(f"sweep needs at least 2 steps, got {self.steps}")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepRecord:
    """All outcomes at one grid point. A scenario maps to None when its
    equilibrium is blockaded (corner); an invalid point has no outcomes, no
    choice and no thresholds. note explains any missing pieces."""

    value: float
    outcomes: Mapping[Scenario, Optional[EquilibriumOutcome]]
    chosen: str
    thresholds: Optional[ThresholdReport]
    note: str


def run_sweep(base: ModelParams, spec: SweepSpec) -> list[SweepRecord]:
    records = []
    for value in spec.values():
        value = float(value)
        point = base.with_values(**{spec.param: value})
        report = validate_params(point)
        if not report.ok:
            records.append(SweepRecord(value=value, outcomes={}, chosen="",
                                       thresholds=None,
                                       note="invalid: " + "; ".join(report.violations)))
            continue
        notes = []
        outcomes: dict[Scenario, Optional[EquilibriumOutcome]] = {}
        for scenario in Scenario:
            try:
                outcomes[scenario] = closed_form.equilibrium(point, scenario,
                                                             validate=False)
            except CornerEquilibriumError:
                outcomes[scenario] = None
                notes.append(f"corner: {scenario.value}")
        thresholds = closed_form.subsidy_threshold(point, validate=False)
        chosen = "" if notes else AdoptionDecision.from_outcomes(outcomes).chosen
        records.append(SweepRecord(value=value, outcomes=outcomes,
                                   chosen=chosen, thresholds=thresholds,
                                   note="; ".join(notes)))
    return records


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else format(float(x), ".9g")


def write_sweep_csv(records: list[SweepRecord], stream: IO[str]) -> int:
    """Write the long-format table; returns the number of data rows."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for rec in records:
        value = _fmt(rec.value)
        thresholds = rec.thresholds
        if thresholds is not None:
            tail = [rec.chosen, _fmt(thresholds.c2_star), _fmt(thresholds.c3_star),
                    _fmt(thresholds.d2_star), _fmt(thresholds.d3_star)]
        else:
            tail = [rec.chosen] + [""] * 4
        for scenario in Scenario:
            out = rec.outcomes.get(scenario)
            if out is not None:
                writer.writerow([value, scenario.value, _fmt(out.pA1), _fmt(out.pB1),
                                 _fmt(out.pA2), _fmt(out.pB2), _fmt(out.cutoff1),
                                 _fmt(out.profitA), _fmt(out.profitB), *tail, "ok"])
            else:
                writer.writerow([value, scenario.value, *[""] * 7, *tail, rec.note])
    return len(records) * len(Scenario)


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

    series: dict[Scenario, list[tuple[float, float]]] = {sc: [] for sc in Scenario}
    for rec in records:
        for sc in Scenario:
            out = rec.outcomes.get(sc)
            series[sc].append((rec.value, out.profitB if out is not None else float("nan")))

    xs = [rec.value for rec in records]
    ys = [y for pts in series.values() for _, y in pts if y == y]
    if not xs or not ys:
        raise ValueError("nothing to plot: no valid sweep points")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_span = x_hi - x_lo

    def sx(x: float) -> float:
        return left + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for scenario in Scenario:
        pts = series[scenario]
        segments: list[list[str]] = [[]]
        for x, y in pts:
            if y != y:
                if segments[-1]:
                    segments.append([])
                continue
            segments[-1].append(f"{sx(x):.2f},{sy(y):.2f}")
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
    for scenario in Scenario:
        parts.append(f'<rect x="{left + 10}" y="{legend_y - 9}" width="12" height="3" '
                     f'fill="{SVG_COLORS[scenario]}"/>')
        parts.append(f'<text x="{left + 28}" y="{legend_y - 4}" font-size="12" '
                     f'font-family="sans-serif">profitB {scenario.value}</text>')
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
