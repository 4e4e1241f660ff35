"""Sweep wiring: each grid point is solved once, and the chosen column is
the entrant's platform choice over that point's solved outcomes."""

import csv
import hashlib
import io
from fractions import Fraction

import numpy as np
import pytest

from chain_rivalry import closed_form
from chain_rivalry.closed_form import adoption_decision, subsidy_threshold
from chain_rivalry.sweep import (SweepSpec, render_profit_svg, run_sweep,
                                 write_sweep_csv)
from conftest import _off_gate_draws


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


@pytest.mark.parametrize("base", ["reference", "off_gate"])
def test_each_valid_point_is_solved_once(base, reference, monkeypatch):
    p = reference if base == "reference" else _off_gate_draws(2024, 1)[0]
    calls = []
    real = closed_form.equilibrium

    def counting(point, scenario, validate=True):
        calls.append(scenario)
        return real(point, scenario, validate=validate)

    monkeypatch.setattr(closed_form, "equilibrium", counting)
    for spec in past_the_bounds(p):
        calls.clear()
        records = run_sweep(p, spec)
        valid = sum(rec.thresholds is not None for rec in records)
        interior = sum(rec.chosen != "" for rec in records)
        if spec.param == "d":
            assert 0 < interior < valid == spec.steps
        else:
            assert 0 < interior == valid < spec.steps
        assert len(calls) == 3 * valid


@pytest.mark.parametrize("base", ["reference", "off_gate"])
def test_chosen_column_is_the_adoption_decision(base, reference):
    p = reference if base == "reference" else _off_gate_draws(2024, 1)[0]
    for spec in across_the_thresholds(p) + past_the_bounds(p):
        records = run_sweep(p, spec)
        buf = io.StringIO()
        write_sweep_csv(records, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        assert len(rows) == 3 * len(records)
        seen = set()
        for j, rec in enumerate(records):
            column = {row[9] for row in rows[3 * j:3 * j + 3]}
            if rec.thresholds is None or None in rec.outcomes.values():
                assert column == {""} and rec.chosen == ""
                assert rec.note.startswith(("invalid: ", "corner: "))
            else:
                point = p.with_values(**{spec.param: rec.value})
                expected = adoption_decision(point).chosen
                assert column == {expected} and rec.chosen == expected
                seen.add(expected)
        if spec.param != "alpha":
            # each threshold sweep crosses a flip of the entrant's choice
            assert len(seen) > 1, spec


def pinned_sweeps(p, steps=41):
    """Every kind of row: d past the corner bound, alpha past validity, d and
    the subsidies across their thresholds, and d from a negative lo."""
    return (past_the_bounds(p, steps) + across_the_thresholds(p, steps)
            + [SweepSpec("d", -0.5 * corner_d(p), 1.1 * corner_d(p), steps)])


def sweep_bytes(p, spec):
    records = run_sweep(p, spec)
    buf = io.StringIO()
    write_sweep_csv(records, buf)
    return buf.getvalue(), render_profit_svg(records, spec.param)


# sha256 over the CSV and SVG text of pinned_sweeps on the reference and two
# off-gate bases, in that order. The sweep's output is a byte-for-byte
# contract, so a rewrite of its writers must reproduce this.
PINNED_SWEEP_DIGEST = (
    "54cedaa079d7c47dbc0c8c027f4994bf04b5d40b41de3828dffb0334f964a4c4")


def test_sweep_bytes_match_their_pin(reference):
    digest = hashlib.sha256()
    for p in [reference, *_off_gate_draws(2024, 2)]:
        for spec in pinned_sweeps(p):
            for text in sweep_bytes(p, spec):
                digest.update(text.encode())
    assert digest.hexdigest() == PINNED_SWEEP_DIGEST


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
        with pytest.raises(ValueError, match=f"at least 2 steps, got {steps}$"):
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


def test_an_overflowing_point_names_its_value(reference):
    with pytest.raises(ValueError, match=r"^k=5e\+307: incompatible "
                                         r"equilibrium: pA1 overflows to -inf$"):
        run_sweep(reference, SweepSpec("k", 1e307, 1.7e308, 5))
