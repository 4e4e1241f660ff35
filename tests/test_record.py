"""model.record: a frozen dataclass whose __init__ fills __dict__ at once.

Every record class is checked on an instance the package itself builds, so
the checks see real field values (floats, enums, dicts, nested records).
"""

import dataclasses
import inspect
from collections.abc import Hashable
from dataclasses import MISSING, FrozenInstanceError, InitVar, field, fields

import pytest

from chain_rivalry import closed_form, model, sim, sweep, verify
from chain_rivalry.model import ModelParams, Scenario, record

from conftest import REFERENCE


def _reference():
    return ModelParams(**REFERENCE)


SAMPLES = {
    model.ModelParams: _reference,
    model.EquilibriumOutcome: lambda: closed_form.equilibrium(
        _reference(), Scenario.INCOMPATIBLE),
    model.ValidationReport: lambda: model.validate_params(
        _reference().with_values(s=-1.0)),
    closed_form.ThresholdReport: lambda: closed_form.subsidy_threshold(_reference()),
    closed_form.AdoptionDecision: lambda: closed_form.adoption_decision(_reference()),
    closed_form.AdoptionSensitivity: lambda: closed_form.adoption_sensitivity(
        _reference()),
    sim.SimOutcome: lambda: sim.simulate_game(
        _reference(), Scenario.COMPATIBLE, (2.9, 3.1, 2.9, 3.1), m=100).period1,
    sweep.SweepRecord: lambda: sweep.run_sweep(
        _reference(), sweep.SweepSpec("d", 0.0, 0.5, 2))[0],
    verify.QuantityCheck: lambda: verify.run_verification(
        _reference(), trials=0, use_oracle=False, m=100).checks[0],
    verify.VerificationReport: lambda: verify.run_verification(
        _reference(), trials=0, use_oracle=False, m=100),
}
# frozen dataclasses that are not records: SimRun fills __dict__ in one
# update too, but its own __init__ also accepts a population it ignores;
# SweepSpec normalizes steps in __post_init__ and keeps dataclass's __init__
NOT_RECORDS = {sim.SimRun, sweep.SweepSpec}


def _rebuild(obj):
    return type(obj)(**{f.name: getattr(obj, f.name) for f in fields(obj)})


def _has_record_init(cls):
    names = cls.__init__.__code__.co_names
    return "__dict__" in names and "__setattr__" not in names


def test_every_frozen_dataclass_but_two_is_a_sampled_record():
    frozen = {cls for module in (model, closed_form, sim, sweep, verify)
              for cls in vars(module).values()
              if isinstance(cls, type) and cls.__module__ == module.__name__
              and dataclasses.is_dataclass(cls)
              and cls.__dataclass_params__.frozen}
    assert frozen - NOT_RECORDS == set(SAMPLES)
    assert all(_has_record_init(cls) for cls in [*SAMPLES, sim.SimRun])
    assert not _has_record_init(sweep.SweepSpec)
    # SimRun, sampled from simulate_game, passes the record checks that
    # its extra argument leaves meaningful
    run = sim.simulate_game(_reference(), Scenario.INCOMPATIBLE,
                            (2.9, 3.1, 3.2, 2.8), m=100)
    checks = TestRecordClasses()
    checks.test_assignment_and_deletion_raise(run)
    checks.test_eq_and_hash_agree_with_a_field_by_field_rebuild(run)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def sample(request):
    obj = SAMPLES[request.param]()
    assert type(obj) is request.param
    return obj


class TestRecordClasses:
    def test_assignment_and_deletion_raise(self, sample):
        name = fields(sample)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(sample, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(sample, name)
        with pytest.raises(FrozenInstanceError):
            sample.unknown = 1

    def test_eq_and_hash_agree_with_a_field_by_field_rebuild(self, sample):
        rebuilt = _rebuild(sample)
        assert rebuilt == sample and rebuilt is not sample
        values = tuple(getattr(sample, f.name) for f in fields(sample))
        try:
            expected = hash(values)
        except TypeError:  # a field holds a dict, so the record says no hash
            with pytest.raises(TypeError):
                hash(sample)
            assert not isinstance(sample, Hashable)
        else:
            assert hash(sample) == hash(rebuilt) == expected
            assert isinstance(sample, Hashable)
        assert type(sample)(*values) == sample
        assert vars(sample) == dict(zip((f.name for f in fields(sample)), values))

    def test_fields_replace_and_astuple(self, sample):
        names = [f.name for f in fields(sample)]
        assert names == list(inspect.signature(type(sample)).parameters)
        assert dataclasses.replace(sample) == sample
        changed = dataclasses.replace(sample, **{names[-1]: "changed"})
        assert getattr(changed, names[-1]) == "changed"
        assert changed != sample
        assert dataclasses.astuple(sample) == dataclasses.astuple(_rebuild(sample))
        assert len(dataclasses.astuple(sample)) == len(names)

    def test_repr_is_the_dataclass_repr(self, sample):
        body = ", ".join(f"{f.name}={getattr(sample, f.name)!r}"
                         for f in fields(sample))
        assert repr(sample) == f"{type(sample).__qualname__}({body})"

    def test_signature_defaults_apply(self, sample):
        cls = type(sample)
        params = inspect.signature(cls).parameters
        for f in fields(cls):
            default = inspect.Parameter.empty if f.default is MISSING else f.default
            assert params[f.name].default == default
        required = {f.name: getattr(sample, f.name) for f in fields(cls)
                    if f.default is MISSING}
        built = cls(**required)
        for f in fields(cls):
            if f.default is not MISSING:
                assert getattr(built, f.name) == f.default

    def test_missing_or_unknown_keyword_names_it(self, sample):
        cls = type(sample)
        values = {f.name: getattr(sample, f.name) for f in fields(cls)}
        first = fields(cls)[0].name
        del values[first]
        with pytest.raises(TypeError, match=rf"{cls.__name__}.*'{first}'"):
            cls(**values)
        with pytest.raises(TypeError, match="'zeta'"):
            cls(**values, **{first: None}, zeta=1)


def test_repr_pins():
    assert repr(closed_form.AdoptionSensitivity(compatible=0.5, incompatible=0.25)) \
        == "AdoptionSensitivity(compatible=0.5, incompatible=0.25)"
    assert repr(model.ValidationReport(True, ())) == \
        "ValidationReport(ok=True, violations=())"


class TestDecorator:
    def test_post_init(self):
        class Normalized:
            x: int

            def __post_init__(self):
                pass

        with pytest.raises(TypeError, match="Normalized.*__post_init__"):
            record(Normalized)

    def test_initvar(self):
        class Carried:
            x: int
            scratch: InitVar[int] = 0

        with pytest.raises(TypeError, match="Carried.*InitVar 'scratch'"):
            record(Carried)

    def test_default_factory(self):
        class Listed:
            items: list = field(default_factory=list)

        with pytest.raises(TypeError, match="Listed.*'items'.*default_factory"):
            record(Listed)

    def test_plain_fields_and_defaults_are_accepted(self):
        @record
        class Point:
            x: float
            y: float = 0.5

        @dataclasses.dataclass(frozen=True)
        class Twin:
            x: float
            y: float = 0.5

        assert Point(1.0) == Point(x=1.0, y=0.5)
        assert repr(Point(2.0, 3.0)) == repr(Twin(2.0, 3.0)).replace("Twin", "Point")
        # an undocumented class gets dataclass's docstring
        assert Point.__doc__ == Twin.__doc__.replace("Twin", "Point") \
            == "Point(x: float, y: float = 0.5)"
