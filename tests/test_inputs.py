"""The input policy: model.require_count and model.require_number decide
which counts and outside numbers every public entry accepts.

A count past model.MAX_COUNT is refused before any work, and a property
test feeds odd values to every public entry: each call returns finite
values, or raises a ValueError or TypeError from a package line holding
`raise`, and the CLI exits 1 or 2 with one `error:` line.
"""

import ast
import contextlib
import io
import json
import linecache
import math
import pathlib
import tempfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chain_rivalry
from chain_rivalry import cli, sweep, verify
from chain_rivalry.closed_form import (adoption_decision, equilibrium,
                                       subsidy_threshold)
from chain_rivalry.model import (MAX_COUNT, OPTIONAL_FIELDS, REQUIRED_FIELDS,
                                 SAME_CHAIN, SCENARIOS, ModelParams,
                                 validate_params)
from chain_rivalry.oracle import oracle_equilibrium
from chain_rivalry.sim import simulate_game
from chain_rivalry.sweep import SweepSpec, run_sweep
from chain_rivalry.verify import run_verification
from conftest import REFERENCE

PACKAGE = pathlib.Path(chain_rivalry.__file__).resolve().parent
FIELDS = REQUIRED_FIELDS + OPTIONAL_FIELDS
REPO_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "reference.json"

# counts no call may start: each is refused before the first draw or grid value
HUGE_COUNTS = [pytest.param(10 ** 400, id="10**400"),
               pytest.param(np.uint64(2 ** 64 - 1), id="uint64-max")]


def unreachable(*args, **kwargs):
    raise AssertionError("a count past the bound started work")


class TestCountBound:
    @pytest.mark.parametrize("trials", HUGE_COUNTS)
    def test_trials_are_refused_before_any_draw(self, reference, monkeypatch,
                                                trials):
        monkeypatch.setattr(verify, "draw_params", unreachable)
        with pytest.raises(ValueError,
                           match=f"^trials must be at most {MAX_COUNT}$"):
            run_verification(reference, trials=trials)

    @pytest.mark.parametrize("steps", HUGE_COUNTS)
    def test_steps_are_refused_before_any_grid_value(self, monkeypatch, steps):
        monkeypatch.setattr(SweepSpec, "values", unreachable)
        with pytest.raises(ValueError,
                           match=f"^sweep steps must be at most {MAX_COUNT}$"):
            SweepSpec("d", 0, 1, steps)

    def test_one_past_the_bound_is_named(self, reference, monkeypatch):
        monkeypatch.setattr(verify, "draw_params", unreachable)
        monkeypatch.setattr(SweepSpec, "values", unreachable)
        past = MAX_COUNT + 1
        with pytest.raises(ValueError, match=f"^trials must be at most "
                                             f"{MAX_COUNT}, got {past}$"):
            run_verification(reference, trials=past, use_oracle=False)
        with pytest.raises(ValueError, match=f"^sweep steps must be at most "
                                             f"{MAX_COUNT}, got {past}$"):
            SweepSpec("d", 0.0, 1.0, past)

    @pytest.mark.parametrize("command,what", [
        (["verify", "--sim", "--trials"], "trials"),
        (["sweep", "--param", "d", "--lo", "0", "--hi", "1", "--steps"],
         "sweep steps"),
    ], ids=["verify", "sweep"])
    def test_cli_prints_one_error_line(self, tmp_path, capsys, monkeypatch,
                                       command, what):
        monkeypatch.setattr(verify, "draw_params", unreachable)
        monkeypatch.setattr(SweepSpec, "values", unreachable)
        out = tmp_path / "x.csv"
        extra = ["--out", str(out)] if command[0] == "sweep" else []
        code = cli.main([command[0], "--config", str(REPO_CONFIG), *command[1:],
                         str(10 ** 30), *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {what} must be at most {MAX_COUNT}\n"
        assert not out.exists()


def test_a_revenue_past_the_float_range_is_named(reference):
    with pytest.raises(ValueError, match="overflows"):
        simulate_game(reference, SAME_CHAIN, (-1e308,) * 4, m=100)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_modules_share_no_private_name_and_only_model_reads_numbers(path):
    # model alone states which inputs are numbers and counts: no other
    # module imports the numbers ABCs, and none imports a private helper
    # from another package module to check an input its own way
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private, numbers = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.level == 0 else []
            if node.level or node.module.startswith("chain_rivalry"):
                private += [(alias.name, node.lineno) for alias in node.names
                            if alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        numbers += [node.lineno for name in modules
                    if name == "numbers" or name.startswith("numbers.")]
    assert private == [], f"{path.name} imports private names {private}"
    if path.stem != "model":
        assert numbers == [], f"{path.name} imports numbers at lines {numbers}"


# Odd values: numbers of the wrong kind or size, and things that are no
# number at all. Every count among them is at most a few hundred or past
# the bound, so a call that accepts one does little work.
NUMPY_SCALARS = [np.True_, np.False_, np.float16(2.5), np.float32(0.1),
                 np.longdouble(3), np.float64("nan"), np.float64(3.0),
                 np.int8(-3), np.int8(100), np.int64(5), np.uint8(200),
                 np.uint64(2 ** 64 - 1), np.complex128(1 + 1j)]
HUGE_INTS = [10 ** 400, -10 ** 400, 10 ** 5000, -10 ** 5000, 2 ** 63,
             -2 ** 63 - 1, MAX_COUNT + 1]
ODD = st.one_of(
    st.booleans(), st.none(), st.sampled_from(NUMPY_SCALARS),
    st.sampled_from(HUGE_INTS), st.integers(-3, 3), st.floats(),
    st.fractions(), st.decimals(), st.just(Decimal("1e400")),
    st.complex_numbers(), st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=4),
    st.lists(st.floats(0.0, 10.0), max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
    st.lists(st.floats(0.0, 10.0), max_size=5).map(iter),
    st.floats().map(np.array),
    st.floats(0.0, 10.0).map(lambda x: np.array([x])),
)


@st.composite
def configs(draw):
    """The reference config with one field, or none, set to an odd value."""
    data = dict(REFERENCE)
    field = draw(st.sampled_from((None,) + FIELDS))
    if field is not None:
        data[field] = draw(ODD)
    return data


def refused_by_the_package(exc: BaseException) -> bool:
    """A ValueError or TypeError whose traceback ends on a package line
    that holds `raise`, and not the error of printing an int past Python's
    digit limit, which a raise line formatting such a value would give."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = pathlib.Path(tb.tb_frame.f_code.co_filename).resolve()
    line = linecache.getline(str(path), tb.tb_lineno)
    return (isinstance(exc, (ValueError, TypeError)) and path.parent == PACKAGE
            and "raise" in line and "set_int_max_str_digits" not in str(exc))


def assert_finite(value) -> None:
    if isinstance(value, float):
        assert math.isfinite(value), value
    elif hasattr(value, "__match_args__"):  # a record, or sim.SimRun
        for name in value.__match_args__:
            assert_finite(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_finite(item)
    elif isinstance(value, dict):
        for item in value.values():
            assert_finite(item)


def returns_finite_or_refuses(call) -> None:
    try:
        result = call()
    except Exception as exc:
        assert refused_by_the_package(exc), repr(exc)
    else:
        assert_finite(result)


ENTRY = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@ENTRY
@given(configs(), st.sampled_from(SCENARIOS))
def test_config_entries(data, scenario):
    returns_finite_or_refuses(lambda: ModelParams.from_mapping(data))
    p = ModelParams(**data)
    report = validate_params(p)
    assert report.ok == (report.violations == ())
    returns_finite_or_refuses(lambda: equilibrium(p, scenario))
    returns_finite_or_refuses(lambda: subsidy_threshold(p))
    returns_finite_or_refuses(lambda: adoption_decision(p))


@ENTRY
@given(st.one_of(ODD, st.text(max_size=12)))
def test_oracle_refuses_odd_scenarios(scenario):
    p = ModelParams(**REFERENCE)
    returns_finite_or_refuses(lambda: oracle_equilibrium(p, scenario))


@st.composite
def prices(draw):
    """An odd value for all four prices, or four prices with one odd."""
    if draw(st.booleans()):
        return draw(ODD)
    values = [3.0, 3.0, 4.0, 2.0]
    values[draw(st.integers(0, 3))] = draw(ODD)
    return tuple(values)


@ENTRY
@given(configs(), st.sampled_from(SCENARIOS), prices(),
       st.one_of(ODD, st.just(10000)))
def test_simulate_game(data, scenario, prices, m):
    p = ModelParams(**data)
    returns_finite_or_refuses(lambda: simulate_game(p, scenario, prices, m=m))


@ENTRY
@given(configs(), st.one_of(ODD, st.integers(0, 2)), st.one_of(ODD, st.just(1)),
       st.one_of(ODD, st.just(500)))
def test_run_verification(data, trials, seed, m):
    p = ModelParams(**data)
    returns_finite_or_refuses(
        lambda: run_verification(p, trials=trials, seed=seed, m=m))


@ENTRY
@given(configs(), st.one_of(st.sampled_from(FIELDS), ODD),
       st.one_of(ODD, st.just(0.0)), st.one_of(ODD, st.just(2.0)),
       st.one_of(ODD, st.integers(2, 5)))
def test_sweep(data, param, lo, hi, steps):
    p = ModelParams(**data)

    def run():
        table = run_sweep(p, SweepSpec(param, lo, hi, steps))
        text = io.StringIO()
        sweep.write_sweep_csv(table, text)
        return table

    returns_finite_or_refuses(run)


# raw JSON tokens for one config value, and files that hold no config
JSON_TOKENS = ["true", "null", '"3"', "[3]", "{}", "NaN", "Infinity",
               "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
               "1" + "0" * 5000, "-3", "0", "1.5", "3.0", "1e-320"]
NOT_CONFIGS = ["[]", "3", "", "{", "null", '{"alpha": 0.1}',
               json.dumps(dict(REFERENCE, zeta=1))]
# odd tokens for each count or number argument
ARGUMENTS = {
    "--trials": ["0", "1", "-1", "1" + "0" * 30, "x", "1.5"],
    "--seed": ["0", "-1", "7", "1" + "0" * 40],
    "--pop": ["2", "1", "0", "-5", "1000", str(2 ** 63), "x"],
    "--steps": ["2", "3", "1", "0", "-1", "1" + "0" * 30, "x"],
    "--lo": ["0", "-1", "nan", "inf", "-inf", "-1e308", "x"],
    "--hi": ["1", "3", "nan", "inf", "1e308", "x"],
    "--param": list(FIELDS) + ["zeta"],
}
COMMANDS = {
    "equilibrium": ["--scenario"],
    "compare": [],
    "thresholds": [],
    "sweep": ["--param", "--lo", "--hi", "--steps"],
    "verify": ["--trials", "--seed", "--pop"],
}


@st.composite
def command_lines(draw):
    """A config file's text and a command line that reads it."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(NOT_CONFIGS))
    else:
        field = draw(st.sampled_from(FIELDS))
        token = draw(st.one_of(st.sampled_from(JSON_TOKENS),
                               st.floats().map(json.dumps)))
        values = {name: json.dumps(value) for name, value in REFERENCE.items()}
        values[field] = token
        text = "{" + ", ".join(f'"{name}": {value}'
                               for name, value in values.items()) + "}"
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag in COMMANDS[command]:
        if flag == "--scenario":
            argv += [flag, draw(st.sampled_from(["same", "compatible",
                                                 "incompatible", "x"]))]
        else:
            argv += [flag, draw(st.sampled_from(ARGUMENTS[flag]))]
    if command == "verify":
        argv.append(draw(st.sampled_from(["--sim", "--oracle"])))
    return text, argv


@ENTRY
@given(command_lines())
def test_cli_exits_with_one_error_line(line):
    text, argv = line
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "params.json"
        config.write_text(text, encoding="utf-8")
        extra = (["--out", str(pathlib.Path(tmp) / "x.csv")]
                 if argv[0] == "sweep" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "--config", str(config), *argv[1:],
                             *extra])
    errors = err.getvalue()
    assert "Traceback" not in errors
    if code in (1, 2):
        assert sum("error:" in row for row in errors.splitlines()) == 1, errors
    else:
        assert code in (0, 3) and errors == "", (code, errors)
