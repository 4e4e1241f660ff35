import csv
import json
import os
import pathlib
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from chain_rivalry import cli, sim
from chain_rivalry.model import ModelParams
from chain_rivalry.sweep import CSV_HEADER
from conftest import without_equilibrium_lines
from test_closed_form import profit_b_compatible
from test_verify import skew_compatible_profit_b

REPO_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def fresh_python(*args):
    """Run `python *args` in a new interpreter with the source tree on its path."""
    src = REPO_CONFIG.parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def write_config(tmp_path, **overrides):
    payload = {"alpha": 0.1, "s": 3.0, "k": 20.0, "n1": 10.0, "n2": 5.0,
               "n3": 5.0}
    payload.update(overrides)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestEquilibriumCommand:
    def test_compatible_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["equilibrium", "--config", cfg,
                         "--scenario", "compatible"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario: compatible" in out
        assert "pA1 = 3.066667" in out
        assert "pB1 = 2.733333" in out
        assert "period 1 = 0.528736" in out
        assert "total = 3.242912" in out

    def test_same_chain_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["equilibrium", "--config", cfg, "--scenario", "same"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pA1 = 3.000000" in out
        assert "nA = 0.500000   nB = 0.500000" in out

    def test_lock_in_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["equilibrium", "--config", cfg,
                         "--scenario", "incompatible"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pA1 = -14.800000" in out
        assert "pA2 = 19.450000" in out
        assert "total = 2.485345" in out

    def test_ships_with_a_working_reference_config(self, capsys):
        code = cli.main(["equilibrium", "--config", str(REPO_CONFIG),
                         "--scenario", "same"])
        assert code == 0
        assert "pA1 = 3.000000" in capsys.readouterr().out


class TestCompareCommand:
    def test_shared_chain_wins_at_reference(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["compare", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "P1 (same chain)" in out
        assert "3.000000" in out
        assert "ordering: P1 > P2 > P3" in out
        assert "chosen: P1" in out

    def test_quality_edge_flips_to_compatible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=2.0)
        code = cli.main(["compare", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "ordering: P2 > P3 > P1" in out
        assert "chosen: P2" in out

    def test_exact_payoff_tie_renders_equals(self, tmp_path, capsys):
        # a subsidy equal to the gap makes P2 match P1 bitwise
        gap = 3.0 - profit_b_compatible(
            ModelParams(alpha=0.1, s=3.0, k=20.0, n1=10.0, n2=5.0, n3=5.0))
        cfg = write_config(tmp_path, subsidy_p2=gap)
        code = cli.main(["compare", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "P1 = P2" in out.split("ordering: ")[1].splitlines()[0]
        assert "chosen: P1" in out


class TestThresholdsCommand:
    def test_reference_thresholds(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["thresholds", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "c2_star = 0.423755" in out
        assert "c3_star = 1.114655" in out
        assert "d2_star = 0.648729" in out
        assert "d3_star = 1.764693" in out
        assert "c3_star > c2_star: ok" in out

    def test_huge_dispersion_thresholds_stay_finite(self, tmp_path, capsys):
        # B's squared payoff numerators overflow here, but the thresholds
        # are written without them.
        cfg = write_config(tmp_path, alpha=1e-3, s=1e200, k=5e200)
        code = cli.main(["thresholds", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "c2_star = 0.004333" in captured.out
        assert "d2_star = 0.006500" in captured.out
        assert "c3_star > c2_star: ok" in captured.out

    def test_subsidy_ordering_can_fail_and_exits_3(self, tmp_path, capsys):
        # A valid, interior config with n3 far above n2: B earns more on the
        # incompatible chain than on the compatible one, so a smaller subsidy
        # moves it there and the paper's ordering c2* < c3* fails.
        cfg = write_config(tmp_path, n1=14.4, n2=0.0, n3=14.39)
        code = cli.main(["thresholds", "--config", cfg])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VERIFY == 3
        assert captured.err == ""
        assert captured.out == (
            "subsidy thresholds   c2_star = 0.980552   c3_star = 0.825600\n"
            "quality thresholds   d2_star = 1.588729   d3_star = 1.265693\n"
            "c3_star > c2_star: VIOLATED\n")


class TestSweepCommand:
    def test_csv_contract(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--config", cfg, "--param", "d",
                         "--lo", "0", "--hi", "2", "--steps", "21",
                         "--out", str(out_csv)])
        assert code == 0
        assert f"wrote 63 rows (21 grid points) to {out_csv}" \
            in capsys.readouterr().out

        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 1 + 63
        scenarios = [r[1] for r in rows[1:4]]
        assert scenarios == ["same", "compatible", "incompatible"]
        for row in rows[1:]:
            assert row[-1] == "ok"
            for cell in (row[0], *row[2:9], *row[10:14]):
                assert cell == format(float(cell), ".9g")

    def test_entrant_choice_flips_along_the_sweep(self, tmp_path):
        cfg = write_config(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        cli.main(["sweep", "--config", cfg, "--param", "d",
                  "--lo", "0", "--hi", "2", "--steps", "21",
                  "--out", str(out_csv)])
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        chosen_by_value = {float(r[0]): r[9] for r in rows}
        assert chosen_by_value[0.0] == "P1"
        assert chosen_by_value[0.6] == "P1"
        assert chosen_by_value[0.7] == "P2"
        assert chosen_by_value[2.0] == "P2"

    def test_invalid_grid_points_are_annotated(self, tmp_path):
        cfg = write_config(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--config", cfg, "--param", "alpha",
                         "--lo", "0.05", "--hi", "0.13", "--steps", "9",
                         "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        last_rows = [r for r in rows if r[0] == "0.13"]
        assert len(last_rows) == 3
        for row in last_rows:
            assert row[-1].startswith("invalid: ")
            assert "must exceed" in row[-1]
            assert row[2] == "" and row[9] == "" and row[10] == ""
        ok_rows = [r for r in rows if r[-1] == "ok"]
        assert len(ok_rows) == 24

    def test_svg_chart(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "chart.svg"
        code = cli.main(["sweep", "--config", cfg, "--param", "d",
                         "--lo", "0", "--hi", "1", "--steps", "5",
                         "--out", str(out_csv), "--svg", str(out_svg)])
        assert code == 0
        assert f"wrote chart to {out_svg}" in capsys.readouterr().out
        root = ET.fromstring(out_svg.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "d" in texts
        assert any(t.startswith("profitB") for t in texts if t)

    def test_nothing_to_plot_writes_no_file(self, tmp_path, capsys):
        # every alpha in [5, 6] breaks assumption 1.1, so no point is plottable
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "chart.svg"
        code = cli.main(["sweep", "--config", str(REPO_CONFIG), "--param", "alpha",
                         "--lo", "5", "--hi", "6", "--steps", "3",
                         "--out", str(out_csv), "--svg", str(out_svg)])
        captured = capsys.readouterr()
        assert code == 1
        assert "nothing to plot" in captured.err
        assert "wrote" not in captured.out
        assert not out_csv.exists() and not out_svg.exists()


class TestVerifyCommand:
    def test_pass_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["verify", "--config", cfg, "--trials", "1",
                         "--seed", "5", "--pop", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verification: config + 1 draws (seed 5)" in out
        assert "routes: oracle, sim (m=400)" in out
        assert "PASS: all checks within tolerance" in out
        assert "FAIL" not in out

    def test_sim_at_a_billion_types(self, capsys):
        code = cli.main(["verify", "--config", str(REPO_CONFIG), "--sim",
                         "--pop", "1073741824", "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "routes: sim (m=1073741824)" in out
        assert "PASS: all checks within tolerance" in out

    def test_single_route_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["verify", "--config", cfg, "--trials", "0",
                         "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "routes: oracle\n" in out
        assert "sim" not in out.split("routes:")[1].splitlines()[0]

    def test_oracle_converges_with_stand_alone_value_far_above_u(self, tmp_path,
                                                                 capsys):
        # 20 times the participation bound, with half the incompatible corner
        # edge: the grid oracle stalled here after 50 rounds.
        cfg = write_config(tmp_path, k=368.0, d=3.875)
        code = cli.main(["verify", "--config", cfg, "--trials", "0",
                         "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS: all checks within tolerance" in out

    def test_tolerance_breach_exits_3(self, tmp_path, capsys, monkeypatch):
        skew_compatible_profit_b(monkeypatch)
        cfg = write_config(tmp_path)
        code = cli.main(["verify", "--config", cfg, "--trials", "0",
                         "--oracle"])
        out = capsys.readouterr().out
        assert code == 3
        assert "breaches:" in out
        assert "FAIL: 1 check(s) outside tolerance" in out

    def test_oracle_non_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        without_equilibrium_lines(monkeypatch)
        cfg = write_config(tmp_path)
        code = cli.main(["verify", "--config", cfg, "--trials", "0",
                         "--oracle"])
        out = capsys.readouterr().out
        assert code == 3
        assert ("best-response search did not converge (no price pair "
                "certified, smallest worst relative gain ") in out
        assert out.rstrip().endswith(
            "check(s) outside tolerance, 3 oracle game(s) not converged")

    def test_sim_non_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "MAX_FIXED_POINT_ITER", 0)
        cfg = write_config(tmp_path)
        code = cli.main(["verify", "--config", cfg, "--trials", "0", "--sim",
                         "--pop", "100"])
        out = capsys.readouterr().out
        assert code == 3
        assert "adoption fixed point did not converge" in out
        assert out.rstrip().endswith(
            "check(s) outside tolerance, 3 simulator game(s) not converged")


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        code = cli.main(["compare", "--config", path])
        err = capsys.readouterr().err
        assert code == 1
        assert "absent.json" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code = cli.main(["compare", "--config", str(path)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        code = cli.main(["compare", "--config", str(path)])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"alpha": 0.1, "s": 3, "k": 20, "n1": 10,
                                    "n2": 5, "n3": 5, "zeta": 1}),
                        encoding="utf-8")
        code = cli.main(["compare", "--config", str(path)])
        assert code == 1
        assert "unknown config keys: zeta" in capsys.readouterr().err

    def test_invalid_parameters(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=0.13)
        code = cli.main(["compare", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 1
        assert "invalid parameters" in err
        assert "must exceed" in err

    @pytest.mark.parametrize("field", ["k", "d"])
    @pytest.mark.parametrize("bad,shown", [(float("inf"), "inf"),
                                           (float("nan"), "nan")])
    def test_non_finite_config_value(self, tmp_path, capsys, field, bad, shown):
        cfg = write_config(tmp_path, **{field: bad})
        code = cli.main(["equilibrium", "--config", cfg,
                         "--scenario", "incompatible"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{field} must be finite: {field}={shown}" in captured.err

    @pytest.mark.parametrize("command,overrides,reason", [
        (["equilibrium", "--scenario", "incompatible"], dict(k=1e308),
         "incompatible equilibrium: pA1 overflows to -inf"),
        (["compare"], dict(k=1e308),
         "incompatible equilibrium: pA1 overflows to -inf"),
        (["equilibrium", "--scenario", "incompatible"], dict(s=4e307, k=1.7e308),
         "incompatible equilibrium: pA1 overflows to nan"),
    ], ids=["equilibrium", "compare", "huge-dispersion"])
    def test_overflowing_result_exits_1(self, tmp_path, capsys, command,
                                        overrides, reason):
        cfg = write_config(tmp_path, **overrides)
        code = cli.main([command[0], "--config", cfg, *command[1:]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {reason}" in captured.err

    def test_overflowing_sweep_point_is_named(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli.main(["sweep", "--config", write_config(tmp_path),
                         "--param", "k", "--lo", "1e307", "--hi", "1.7e308",
                         "--steps", "5", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: k=5e+307: incompatible equilibrium: "
                                "pA1 overflows to -inf\n")
        assert not out.exists()

    def test_corner_equilibrium(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=10.0)
        code = cli.main(["compare", "--config", cfg])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: blockaded equilibrium: compatible equilibrium cutoff "
            "-0.04597701149425292 outside (0, 1)\n")

    def test_usage_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["equilibrium", "--config", cfg]) == 1
        capsys.readouterr()
        assert cli.main(["equilibrium", "--config", cfg,
                         "--scenario", "bogus"]) == 1
        capsys.readouterr()
        assert cli.main(["bogus-command"]) == 1
        capsys.readouterr()
        assert cli.main(["sweep", "--config", cfg, "--param", "zeta",
                         "--lo", "0", "--hi", "1", "--steps", "3",
                         "--out", "x.csv"]) == 1
        capsys.readouterr()

    def test_negative_seed_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["verify", "--config", cfg, "--trials", "1",
                         "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: seed must be nonnegative, got -1" in captured.err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "equilibrium" in capsys.readouterr().out

    def test_no_command_is_a_usage_error(self, capsys):
        assert cli.main([]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("the following arguments are required: command"
                in captured.err)

    @pytest.mark.parametrize("command", ["equilibrium", "compare",
                                         "thresholds", "sweep", "verify"])
    def test_every_command_takes_a_config(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        assert "--config CONFIG" in capsys.readouterr().out

    def test_sweep_rejects_bad_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["sweep", "--config", cfg, "--param", "d",
                         "--lo", "1", "--hi", "0", "--steps", "3",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "lo < hi" in capsys.readouterr().err

    @pytest.mark.parametrize("lo,hi", [("0", "inf"), ("-inf", "1"), ("nan", "1"),
                                       ("-1e308", "1e308")])
    def test_sweep_rejects_non_finite_range(self, tmp_path, capsys, lo, hi):
        cfg = write_config(tmp_path)
        out = tmp_path / "x.csv"
        code = cli.main(["sweep", "--config", cfg, "--param", "d",
                         f"--lo={lo}", f"--hi={hi}", "--steps", "3",
                         "--out", str(out)])
        assert code == 1
        assert "sweep range must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("chain-rivalry") is None,
                        reason="entry point not on PATH")
    def test_entry_point_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(["chain-rivalry", "compare", "--config", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "chosen: P1" in proc.stdout

    def test_declared_script_target_runs(self, tmp_path):
        # Runs the [project.scripts] target in a fresh interpreter from the
        # source tree, so it needs no install.
        tomllib = pytest.importorskip("tomllib")
        root = REPO_CONFIG.parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["chain-rivalry"]
        module, func = target.split(":")

        def run(*args):
            return fresh_python("-c", f"from {module} import {func}; {func}()", *args)

        proc = run("compare", "--config", write_config(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "chosen: P1" in proc.stdout
        proc = run("compare", "--config", write_config(tmp_path, d=10.0))
        assert proc.returncode == 2
        assert "blockaded equilibrium" in proc.stderr


LEAN_QUERY_SCRIPT = """
import contextlib, io, json, sys
from chain_rivalry import cli

config = sys.argv[1]
results = []
for argv in (["equilibrium", "--scenario", "incompatible"], ["compare"],
             ["thresholds"], ["verify", "--trials", "0"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--config", config])
    results.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(results))
"""


SWEEP_SCRIPT = """
import contextlib, io, sys
from chain_rivalry import cli

config, out, svg = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--config", config, "--param", "d", "--lo", "-1",
                     "--hi", "10", "--steps", "23", "--out", out, "--svg", svg])
print(code, "numpy" in sys.modules)
"""


VERIFY_RANDOM_SCRIPT = """
import contextlib, io, json, sys
from chain_rivalry import cli

results = []
for trials in ("0", "1"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--trials", trials, "--config", sys.argv[1]])
    results.append([trials, code, "numpy" in sys.modules,
                    "numpy.random" in sys.modules])
print(json.dumps(results))
"""


class TestLeanQueryPath:
    def test_sweep_never_imports_numpy(self, tmp_path):
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        proc = fresh_python("-c", SWEEP_SCRIPT, str(REPO_CONFIG), str(out),
                            str(svg))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False\n"
        assert out.stat().st_size > 0 and svg.stat().st_size > 0

    def test_closed_form_queries_never_import_numpy(self):
        # one fresh interpreter runs the queries in order; verify comes last
        # because it is the command that needs numpy
        proc = fresh_python("-c", LEAN_QUERY_SCRIPT, str(REPO_CONFIG))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            ["equilibrium", 0, False], ["compare", 0, False],
            ["thresholds", 0, False], ["verify", 0, True]]

    def test_verify_without_draws_never_imports_numpy_random(self):
        # the draws are the only use of numpy.random; the run with one draw
        # shows that the probe sees the import
        proc = fresh_python("-c", VERIFY_RANDOM_SCRIPT, str(REPO_CONFIG))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [["0", 0, True, False],
                                           ["1", 0, True, True]]
