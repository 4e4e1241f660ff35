"""Sweep wiring: each grid point is solved once, and the chosen column is
the entrant's platform choice over that point's solved outcomes."""

import csv
import io

import pytest

from chain_rivalry import closed_form
from chain_rivalry.closed_form import adoption_decision, subsidy_threshold
from chain_rivalry.sweep import SweepSpec, run_sweep, write_sweep_csv
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
