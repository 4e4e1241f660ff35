"""model.record: a frozen record of a class's annotated fields, with a
frozen dataclass's text and semantics, whose __init__ fills __dict__ at
once. Every annotation is a plain field, a class-body value its default;
only __post_init__ is refused, and a subclass's instances are frozen too.

Every record class is checked on an instance the package itself builds, so
the checks see real field values (floats, enums, dicts, nested records),
and against a frozen dataclass of the same fields.
"""

import dataclasses
import inspect
from collections.abc import Hashable
from dataclasses import FrozenInstanceError

import pytest

from chain_rivalry import closed_form, model, sim, sweep, verify
from chain_rivalry.model import ModelParams, Scenario, record

from conftest import REFERENCE, astuple


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
    sweep.SweepSpec: lambda: sweep.SweepSpec("d", 0.0, 0.5, 2),
    sweep.SweepTable: lambda: sweep.run_sweep(
        _reference(), sweep.SweepSpec("d", 0.0, 0.5, 2)),
    verify.QuantityCheck: lambda: verify.run_verification(
        _reference(), trials=0, use_oracle=False, m=100).checks[0],
    verify.VerificationReport: lambda: verify.run_verification(
        _reference(), trials=0, use_oracle=False, m=100),
}
# the one frozen dataclass left, which is not a record: SimRun fills
# __dict__ in one update too, but its own __init__ also accepts a
# population it ignores
NOT_RECORDS = {sim.SimRun}
# the record methods a class body defines itself, which record leaves as
# they are: SweepSpec's __init__ checks its fields
OWN_METHODS = {(closed_form.AdoptionDecision, "__hash__"),
               (sweep.SweepTable, "__hash__"), (sweep.SweepSpec, "__init__")}
# the value test_fields_replace_and_astuple gives a sample's last field,
# where "changed" would fail the class's own checks
CHANGED = {sweep.SweepSpec: 3}


def _rebuild(obj):
    return type(obj)(**{name: getattr(obj, name) for name in obj.__match_args__})


def _twin(cls):
    """A frozen dataclass of cls's fields and defaults, under its qualname."""
    spec = [(name, kind, *([vars(cls)[name]] if name in vars(cls) else []))
            for name, kind in cls.__annotations__.items()]
    namespace = {"__hash__": None} if cls.__hash__ is None else {}
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True,
                                      namespace=namespace)
    twin.__qualname__ = cls.__qualname__
    return twin


def _has_record_init(cls):
    names = cls.__init__.__code__.co_names
    return "__dict__" in names and "__setattr__" not in names


def test_every_record_is_sampled_and_one_frozen_dataclass_remains():
    # a record or a dataclass sets __match_args__ on the class itself
    matched = {cls for module in (model, closed_form, sim, sweep, verify)
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and "__match_args__" in vars(cls)}
    assert matched - NOT_RECORDS == set(SAMPLES)
    assert {cls for cls in matched if dataclasses.is_dataclass(cls)} == NOT_RECORDS
    assert all(cls.__dataclass_params__.frozen for cls in NOT_RECORDS)
    assert all(_has_record_init(cls) for cls in [*SAMPLES, sim.SimRun])
    # SimRun, sampled from simulate_game, passes the record checks that
    # its extra argument leaves meaningful
    run = sim.simulate_game(_reference(), Scenario.INCOMPATIBLE,
                            (2.9, 3.1, 3.2, 2.8), m=100)
    checks = TestRecordClasses()
    checks.test_assignment_and_deletion_raise(run)
    checks.test_eq_and_hash_agree_with_a_field_by_field_rebuild(run)


def _written(cls):
    """The names of cls's methods compiled from text, not from a file."""
    return {name for name, value in vars(cls).items()
            if getattr(value, "__code__", None)
            and value.__code__.co_filename == "<string>"}


def test_record_writes_one_method_and_shares_the_rest():
    shared = model._RECORD_METHODS
    assert set(shared) == {"__repr__", "__eq__", "__hash__", "__setattr__",
                           "__delattr__", "with_values"}
    assert {function.__code__.co_filename for function in shared.values()} \
        == {model.__file__}
    for cls in SAMPLES:
        for name, function in shared.items():
            if (cls, name) in OWN_METHODS:
                assert vars(cls)[name] is not function, (cls, name)
            else:
                assert vars(cls)[name] is function, (cls, name)
        own_init = (cls, "__init__") in OWN_METHODS
        assert _written(cls) == (set() if own_init else {"__init__"}), cls
        assert (cls.__init__.__code__.co_filename == "<string>") != own_init


def test_record_compiles_one_method_per_class(monkeypatch):
    compiled = []

    def counted(source, namespace):
        compiled.append(source)
        exec(source, namespace)

    # record's module-level name exec shadows the builtin
    monkeypatch.setattr(model, "exec", counted, raising=False)

    @record
    class Point:
        x: float
        y: float = 0.5

    @record
    class Checked:
        """A record whose own __init__ checks its field."""

        x: float

        def __init__(self, x: float) -> None:
            self.__dict__.update({"x": abs(x)})

    assert len(compiled) == 1 and compiled[0].count("def ") == 1
    assert _written(Point) == {"__init__"} and _written(Checked) == set()
    assert Point(1.0).with_values(y=2.0) == Point(1.0, 2.0)
    assert Checked(-1.0) == Checked(1.0)
    assert repr(Checked(-2.0)) == f"{Checked.__qualname__}(x=2.0)"
    with pytest.raises(FrozenInstanceError):
        Checked(1.0).x = 3.0


def test_a_subclass_instance_is_frozen_and_copies_with_values():
    class Extended(model.ValidationReport):
        pass

    obj = Extended(True, ())
    with pytest.raises(FrozenInstanceError):
        obj.note = "refused"
    with pytest.raises(FrozenInstanceError):
        del obj.ok
    changed = obj.with_values(ok=False)
    assert type(changed) is Extended and changed == Extended(False, ())
    assert vars(obj) == {"ok": True, "violations": ()}


def test_sweep_spec_checks_every_copy():
    spec = sweep.SweepSpec("d", 0.0, 0.5, 2)
    assert spec.with_values(hi=1.0).values() == [0.0, 1.0]
    with pytest.raises(ValueError, match="sweep steps must be an integer"):
        spec.with_values(steps="changed")
    with pytest.raises(ValueError, match="sweep range needs lo < hi"):
        spec.with_values(lo=0.5)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def sample(request):
    obj = SAMPLES[request.param]()
    assert type(obj) is request.param
    return obj


class TestRecordClasses:
    def test_assignment_and_deletion_raise(self, sample):
        name = sample.__match_args__[0]
        with pytest.raises(FrozenInstanceError):
            setattr(sample, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(sample, name)
        with pytest.raises(FrozenInstanceError):
            sample.unknown = 1

    def test_eq_and_hash_agree_with_a_field_by_field_rebuild(self, sample):
        rebuilt = _rebuild(sample)
        assert rebuilt == sample and rebuilt is not sample
        values = tuple(getattr(sample, name) for name in sample.__match_args__)
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
        assert vars(sample) == dict(zip(sample.__match_args__, values))

    def test_fields_replace_and_astuple(self, sample):
        names = list(sample.__match_args__)
        assert names == list(inspect.signature(type(sample)).parameters)
        assert sample.with_values() == sample
        value = CHANGED.get(type(sample), "changed")
        changed = sample.with_values(**{names[-1]: value})
        assert getattr(changed, names[-1]) == value
        assert changed != sample
        with pytest.raises(TypeError, match=f"{type(sample).__name__} has no field 'zeta'"):
            sample.with_values(zeta=1)
        assert astuple(sample) == astuple(_rebuild(sample))
        assert len(astuple(sample)) == len(names)

    def test_repr_is_the_dataclass_repr(self, sample):
        body = ", ".join(f"{name}={getattr(sample, name)!r}"
                         for name in sample.__match_args__)
        assert repr(sample) == f"{type(sample).__qualname__}({body})"

    def test_text_and_semantics_match_a_frozen_dataclass(self, sample):
        cls = type(sample)
        twin = _twin(cls)
        values = tuple(getattr(sample, name) for name in cls.__match_args__)
        same = twin(*values)
        assert cls.__match_args__ == twin.__match_args__
        assert str(inspect.signature(cls)) == str(inspect.signature(twin))
        assert repr(sample) == repr(same)
        assert (cls.__hash__ is None) == (twin.__hash__ is None)
        if cls.__hash__ is not None:
            assert hash(sample) == hash(same)
        # a dataclass of another class compares as unequal both ways
        assert sample.__eq__(same) is NotImplemented and sample != same
        name = cls.__match_args__[0]
        for change in (lambda obj: setattr(obj, name, None),
                       lambda obj: delattr(obj, name)):
            with pytest.raises(FrozenInstanceError) as ours:
                change(sample)
            with pytest.raises(FrozenInstanceError) as theirs:
                change(same)
            assert str(ours.value) == str(theirs.value)

    def test_signature_defaults_apply(self, sample):
        cls = type(sample)
        params = inspect.signature(cls).parameters
        # a field's default stays a class attribute, as in a dataclass
        defaults = {name: vars(cls)[name] for name in cls.__match_args__
                    if name in vars(cls)}
        for name in cls.__match_args__:
            assert params[name].default == defaults.get(name, inspect.Parameter.empty)
        required = {name: getattr(sample, name) for name in cls.__match_args__
                    if name not in defaults}
        built = cls(**required)
        for name, default in defaults.items():
            assert getattr(built, name) == default

    def test_missing_or_unknown_keyword_names_it(self, sample):
        cls = type(sample)
        values = {name: getattr(sample, name) for name in cls.__match_args__}
        first = cls.__match_args__[0]
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

    def test_a_method_of_the_class_body_stays(self):
        @record
        class Shown:
            x: float

            def __repr__(self):
                return "shown"

        assert repr(Shown(1.0)) == "shown" and Shown(1.0) == Shown(1.0)

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
