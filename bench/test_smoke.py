"""Smoke test of the benchmark at tiny sizes.

Runs every workload untraced and traced in this process and checks that
every metric BENCHMARK.json names is emitted with its unit, that no traced
busy or self time exceeds the traced wall time, and that the tracing
wrappers are gone afterwards.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(capsys, workload):
    plain = _result(capsys, workload, 0)["metrics"]
    assert {name: m["unit"] for name, m in plain.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain.values())

    from chain_rivalry import cli, closed_form, model, oracle, sim, sweep, verify
    import layers
    targets = layers.current_targets()
    traced = _result(capsys, workload, 1)["metrics"]
    assert layers.current_targets() == targets
    assert verify.oracle_equilibrium is oracle.oracle_equilibrium
    assert verify.simulate_game is sim.simulate_game
    assert sim.user_utility is model.user_utility
    assert sweep.validate_params is model.validate_params
    assert closed_form.equilibrium.__module__ == "chain_rivalry.closed_form"
    assert cli.main.__module__ == "chain_rivalry.cli"
    assert not hasattr(oracle._demand, "__wrapped__")

    assert {name: m["unit"] for name, m in traced.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    wall = traced["trace.wall_s"]["value"]
    assert wall > 0
    for name, m in traced.items():
        if name.endswith(("busy_s", "self_s")):
            assert 0 <= m["value"] <= wall, name
