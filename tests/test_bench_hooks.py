"""The benchmark's layer hooks still reach the package.

bench/layers.py wraps package entry points by module attribute. A refactor
that renames one, or routes around it, would leave its per-layer metric
reading 0 rather than failing; these tests make that a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402


def test_every_hooked_entry_point_exists():
    assert layers.missing_hooks() == []


def test_traced_verify_sees_the_oracle_layers(capsys):
    code = run.main(["--workload", "verify", "--seed", "3", "--seconds", "0.2",
                     "--trace", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    for name in ("oracle.period2_scan.busy_s", "oracle.sweeps_per_game",
                 "oracle.demand_calls_per_game", "sim.busy_s",
                 "model.user_utility.busy_s", "verify.draw_params.busy_s",
                 "closed_form.equilibrium.busy_s"):
        assert metrics[name]["value"] > 0, name


def test_traced_sweep_sees_the_sweep_layers(capsys):
    code = run.main(["--workload", "sweep", "--seed", "3", "--seconds", "0.2",
                     "--trace", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    for name in ("model.validate_params.busy_s", "closed_form.equilibrium.busy_s",
                 "closed_form.thresholds.busy_s", "sweep.run_sweep.busy_s",
                 "sweep.write_csv.busy_s", "sweep.render_svg.busy_s"):
        assert metrics[name]["value"] > 0, name
