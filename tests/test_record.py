import dataclasses
import importlib
import inspect
import pkgutil
from functools import cached_property

import numpy as np
import pytest

import cosetcq
from cosetcq._record import Record
from cosetcq.linalg import DensityOperator
from cosetcq.regions import Constraint


class Point(Record):
    x: int
    y: int
    label: str = "p"
    weight: float = 1.0


@dataclasses.dataclass(frozen=True)
class PointDc:
    x: int
    y: int
    label: str = "p"
    weight: float = 1.0


class Scaled(Record):
    value: float
    scale: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value * self.scale)

    @cached_property
    def doubled(self) -> float:
        return 2 * self.value


class Point3(Point):
    z: int = 0


class Twin(Point):
    pass


CALLS = [
    ((1, 2), {}),
    ((1, 2, "q"), {}),
    ((1, 2, "q", 3.0), {}),
    ((1,), {"y": 2}),
    ((), {"weight": 5.0, "y": 2, "x": 1}),
    ((1, 2), {"weight": 0.5}),
    ((1, 2, "q"), {"weight": 0.5}),
]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_construction_binds_like_a_frozen_dataclass(args, kwargs):
    rec, ref = Point(*args, **kwargs), PointDc(*args, **kwargs)
    assert (rec.x, rec.y, rec.label, rec.weight) == (ref.x, ref.y, ref.label, ref.weight)
    assert list(vars(rec)) == ["x", "y", "label", "weight"]
    assert repr(rec) == repr(ref).replace("PointDc", "Point")


BAD_CALLS = [
    ((1,), {}, "missing required arguments: 'y'"),
    ((), {"label": "q"}, "missing required arguments: 'x', 'y'"),
    ((1, 2), {"z": 3}, "unexpected keyword argument 'z'"),
    ((1, 2), {"x": 3}, "multiple values for argument 'x'"),
    ((1, 2, "q", 3.0, 4), {}, "takes 4 positional arguments but 5 were given"),
    ((1, 2, "q", 3.0, 4), {"x": 1}, "takes 4 positional arguments but 5 were given"),
]


@pytest.mark.parametrize("args, kwargs, message", BAD_CALLS)
def test_bad_calls_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError):
        PointDc(*args, **kwargs)
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_default_before_non_default_field_is_rejected():
    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        class Bad(Record):
            a: int = 0
            b: int
    with pytest.raises(TypeError, match="non-default argument 'extra'"):
        class BadChild(Point):
            extra: int


def test_subclass_fields_follow_the_base_fields():
    p = Point3(1, 2, z=3)
    assert Point3._fields == ("x", "y", "label", "weight", "z")
    assert (p.x, p.y, p.label, p.weight, p.z) == (1, 2, "p", 1.0, 3)
    assert p != Point(1, 2)


def test_fields_are_frozen():
    p = Point(1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'x'"):
        p.x = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.other = 5
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'y'"):
        del p.y
    assert (p.x, p.y) == (1, 2)
    assert not hasattr(p, "other")


def test_equality_hash_and_repr_go_by_fields():
    assert Point(1, 2) == Point(1, 2, "p", 1.0)
    assert Point(1, 2) != Point(1, 3)
    assert hash(Point(1, 2)) == hash((1, 2, "p", 1.0)) == hash(PointDc(1, 2))
    assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
    # equal only to instances of the same class, as with dataclasses
    assert Point(1, 2) != PointDc(1, 2)
    assert Point(1, 2) != Point3(1, 2)
    assert Point(1, 2) != Twin(1, 2) and Twin(1, 2) == Twin(1, 2)
    assert Point(1, 2) != (1, 2, "p", 1.0)
    assert repr(Point(1, 2)) == "Point(x=1, y=2, label='p', weight=1.0)"
    assert repr(Scaled(1.5)) == "Scaled(value=3.0, scale=2.0)"


def test_post_init_may_rewrite_a_field_and_cached_property_works():
    s = Scaled(1.5, scale=3.0)
    assert s.value == 4.5
    assert s.doubled == 9.0
    assert "doubled" in vars(s)
    assert Scaled(1.0) == Scaled(value=1.0, scale=2.0)


def test_post_init_patched_on_the_class_is_called(monkeypatch):
    calls = []
    orig = DensityOperator.__dict__["__post_init__"]

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(DensityOperator, "__post_init__", counted)
    rho = DensityOperator(np.eye(2) / 2)
    DensityOperator(matrix=np.eye(3) / 3)
    assert len(calls) == 2 and calls[0] is rho and calls[1].dim == 3
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    assert len(calls) == 3


def test_package_records_keep_their_defaults():
    assert Constraint("r1", (1, 0, 0), 0.5).clamped is False
    c = Constraint("r1", (1, 0, 0), 0.0, clamped=True)
    assert c == Constraint("r1", (1, 0, 0), 0.0, True)
    assert repr(c) == "Constraint(name='r1', coeffs=(1, 0, 0), rhs=0.0, clamped=True)"


def test_no_package_class_is_a_dataclass():
    # each dataclass compiles six methods at import; records compile none
    names = [info.name for info in pkgutil.iter_modules(cosetcq.__path__)]
    assert "regions" in names and "_record" in names
    records = []
    for name in names:
        module = importlib.import_module(f"cosetcq.{name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                assert not dataclasses.is_dataclass(cls), f"{module.__name__}.{cls.__name__}"
                records += [cls] if issubclass(cls, Record) else []
    assert len(records) == 21  # Record itself and the 20 value types
