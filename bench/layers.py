"""The package's layers as the traced run sees them.

SPANS names each layer entry point by the module attribute its caller looks
up, so the traced run can wrap it from outside. `oracle._demand` gets a
counter instead of a span: it runs hundreds of times per game and only its
amount of work (calls and price points) is of interest.
"""

from __future__ import annotations

import functools

import numpy as np

from chain_rivalry import cli, closed_form, model, oracle, sim, sweep, verify
from chain_rivalry.model import Scenario
from tracing import Recorder, patch_attrs, span

SCENARIOS = tuple(sc.value for sc in Scenario)


def _by_scenario(layer: str):
    def name(p, scenario=None, *args, **kwargs):
        return f"{layer}.{scenario.value}"
    return name


SPANS = (
    (verify, "run_verification", "verify.run_verification"),
    (verify, "draw_params", "verify.draw_params"),
    (verify, "oracle_equilibrium", _by_scenario("oracle")),
    (oracle, "period2_monopoly_price", "oracle.period2_scan"),
    (verify, "simulate_game", _by_scenario("sim")),
    (sim, "user_utility", "model.user_utility"),
    (model, "validate_params", "model.validate_params"),
    (sweep, "validate_params", "model.validate_params"),
    (closed_form, "equilibrium", "closed_form.equilibrium"),
    (closed_form, "subsidy_threshold", "closed_form.thresholds"),
    (closed_form, "adoption_decision", "closed_form.adoption_decision"),
    (sweep, "run_sweep", "sweep.run_sweep"),
    (sweep, "write_sweep_csv", "sweep.write_csv"),
    (sweep, "render_profit_svg", "sweep.render_svg"),
    (cli, "main", "cli.main"),
)
DEMAND_HOOK = (oracle, "_demand")


def _count_demand(recorder: Recorder):
    def factory(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not recorder.paused:
                points = max(np.size(args[2]), np.size(args[3]))
                counts = recorder.counts
                counts["oracle.demand_calls"] += 1
                counts["oracle.demand_points"] += points
                if points == 1:
                    counts["oracle.scalar_demand_calls"] += 1
            return fn(*args, **kwargs)
        return counted
    return factory


def missing_hooks() -> list[str]:
    return [f"{mod.__name__}.{attr}" for mod, attr, *_ in SPANS + (DEMAND_HOOK,)
            if not hasattr(mod, attr)]


def traced(recorder: Recorder):
    """Context manager installing every span and counter that still exists."""
    patches = [(mod, attr, lambda fn, name=name: span(recorder, name, fn))
               for mod, attr, name in SPANS if hasattr(mod, attr)]
    if hasattr(*DEMAND_HOOK):
        patches.append((*DEMAND_HOOK, _count_demand(recorder)))
    return patch_attrs(patches)


def current_targets() -> dict[str, object]:
    """The objects every hook currently points at, to confirm that a traced
    run restored them."""
    return {f"{mod.__name__}.{attr}": getattr(mod, attr, None)
            for mod, attr, *_ in SPANS + (DEMAND_HOOK,)}


# Per-layer metric names and units, in report order.
PER_LAYER = {
    "oracle.busy_s": "s",
    **{f"oracle.{sc}.{q}_ms": "ms" for sc in SCENARIOS for q in ("p50", "p90")},
    "oracle.sweeps_per_game": "count/game",
    "oracle.demand_calls_per_game": "count/game",
    "oracle.demand_points_per_game": "count/game",
    "oracle.polish_calls_per_game": "count/game",
    "oracle.period2_scan.busy_s": "s",
    "oracle.converged_ratio": "ratio",
    "oracle.max_err_to_tol": "ratio",
    "sim.busy_s": "s",
    "sim.self_s": "s",
    **{f"sim.{sc}.p50_ms": "ms" for sc in SCENARIOS},
    "sim.fp_iterations_per_period": "count/period",
    "sim.type_evals": "count/game",
    "sim.converged_ratio": "ratio",
    "sim.max_err_to_tol": "ratio",
    "model.user_utility.busy_s": "s",
    "model.validate_params.busy_s": "s",
    "closed_form.equilibrium.busy_s": "s",
    "closed_form.thresholds.busy_s": "s",
    "closed_form.thresholds.p50_us": "us",
    "closed_form.adoption_decision.busy_s": "s",
    "closed_form.corner_ratio": "ratio",
    "sweep.run_sweep.busy_s": "s",
    "sweep.self_s": "s",
    "sweep.write_csv.busy_s": "s",
    "sweep.render_svg.busy_s": "s",
    "sweep.csv_bytes": "bytes/sweep",
    "sweep.svg_bytes": "bytes/sweep",
    "verify.self_s": "s",
    "verify.draw_params.busy_s": "s",
    "verify.checks": "count",
    "cli.interpreter_s": "s",
    "cli.numpy_import_s": "s",
    "cli.import_s": "s",
    "cli.main.p50_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
DEMAND_METRICS = ("oracle.demand_calls_per_game", "oracle.demand_points_per_game",
                  "oracle.polish_calls_per_game")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, counts: dict, tally: dict, extra: dict) -> dict[str, float]:
    """Per-layer values from span statistics, counters and the workload's
    tally of checked games. A layer the workload bypasses reads 0."""

    def busy(*names: str) -> float:
        return sum(stats[n]["busy_s"] for n in names if n in stats)

    def self_time(*names: str) -> float:
        return sum(stats[n]["self_s"] for n in names if n in stats)

    def calls(*names: str) -> int:
        return sum(stats[n]["calls"] for n in names if n in stats)

    def pct(name: str, q: float, scale: float) -> float:
        d = stats[name]["durations"] if name in stats else ()
        return float(np.percentile(d, q)) * scale if len(d) else 0.0

    oracle_spans = [f"oracle.{sc}" for sc in SCENARIOS]
    sim_spans = [f"sim.{sc}" for sc in SCENARIOS]
    games = calls(*oracle_spans)
    out = {
        "oracle.busy_s": busy(*oracle_spans),
        **{f"oracle.{sc}.{q}_ms": pct(f"oracle.{sc}", int(q[1:]), 1e3)
           for sc in SCENARIOS for q in ("p50", "p90")},
        "oracle.sweeps_per_game": _ratio(tally["oracle.sweeps"], tally["oracle.games"]),
        "oracle.demand_calls_per_game": _ratio(counts["oracle.demand_calls"], games),
        "oracle.demand_points_per_game": _ratio(counts["oracle.demand_points"], games),
        "oracle.polish_calls_per_game": _ratio(counts["oracle.scalar_demand_calls"], games),
        "oracle.period2_scan.busy_s": busy("oracle.period2_scan"),
        "oracle.converged_ratio": _ratio(tally["oracle.converged"], tally["oracle.games"]),
        "oracle.max_err_to_tol": tally["oracle.max_err_to_tol"],
        "sim.busy_s": busy(*sim_spans),
        "sim.self_s": self_time(*sim_spans),
        **{f"sim.{sc}.p50_ms": pct(f"sim.{sc}", 50, 1e3) for sc in SCENARIOS},
        "sim.fp_iterations_per_period": _ratio(tally["sim.fp_iterations"],
                                               tally["sim.periods"]),
        "sim.type_evals": _ratio(tally["sim.type_evals"], tally["sim.games"]),
        "sim.converged_ratio": _ratio(tally["sim.converged_periods"], tally["sim.periods"]),
        "sim.max_err_to_tol": tally["sim.max_err_to_tol"],
        "model.user_utility.busy_s": busy("model.user_utility"),
        "model.validate_params.busy_s": busy("model.validate_params"),
        "closed_form.equilibrium.busy_s": busy("closed_form.equilibrium"),
        "closed_form.thresholds.busy_s": busy("closed_form.thresholds"),
        "closed_form.thresholds.p50_us": pct("closed_form.thresholds", 50, 1e6),
        "closed_form.adoption_decision.busy_s": busy("closed_form.adoption_decision"),
        "closed_form.corner_ratio": _ratio(counts["closed_form.equilibrium.raised"],
                                           calls("closed_form.equilibrium")),
        "sweep.run_sweep.busy_s": busy("sweep.run_sweep"),
        "sweep.self_s": self_time("sweep.run_sweep"),
        "sweep.write_csv.busy_s": busy("sweep.write_csv"),
        "sweep.render_svg.busy_s": busy("sweep.render_svg"),
        "sweep.csv_bytes": _ratio(tally["sweep.csv_bytes"], tally["sweep.sweeps"]),
        "sweep.svg_bytes": _ratio(tally["sweep.svg_bytes"], tally["sweep.sweeps"]),
        "verify.self_s": self_time("verify.run_verification"),
        "verify.draw_params.busy_s": busy("verify.draw_params"),
        "verify.checks": tally["verify.checks"],
        **extra,
    }
    if not hasattr(*DEMAND_HOOK):
        for name in DEMAND_METRICS:
            del out[name]
    return out
