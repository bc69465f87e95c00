"""``Record`` gives emrkit's dataclasses the ``__eq__`` and ``__repr__`` that
``@dataclass`` would generate, and every dataclass in the package takes
them from it, so that importing emrkit compiles only each ``__init__``.

Each behaviour is checked against a twin class that ``@dataclass``
processes with its defaults, where the generated methods are the oracle.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Any

import pytest

import emrkit
from emrkit._record import Record
from emrkit.dsl import parse_emr
from emrkit.dsl.ast import IntLit
from emrkit.dsl.printer import Unit
from emrkit.sut.mockshop import MockShopSession


@dataclass(eq=False, repr=False)
class Pair(Record):
    """Two fields, the second ignored by ``==`` and hidden from ``repr``."""

    shown: Any
    hidden: Any = field(default=None, compare=False, repr=False)


@dataclass
class GeneratedPair:
    shown: Any
    hidden: Any = field(default=None, compare=False, repr=False)


@dataclass(eq=False, repr=False)
class Twin(Record):
    """The same fields as ``Pair``, in another class."""

    shown: Any
    hidden: Any = field(default=None, compare=False, repr=False)


@dataclass(eq=False, repr=False, slots=True)
class Slotted(Record):
    """A record with ``slots=True``."""

    value: int = 0


VALUES = [0, 1, "a", [1, 2], (IntLit(value=3),), float("nan"), None]


def test_equality_is_the_generated_equality():
    for left in VALUES:
        for right in VALUES:
            assert (Pair(left) == Pair(right)) == (GeneratedPair(left) == GeneratedPair(right)), (left, right)
            assert (Pair(left) != Pair(right)) == (GeneratedPair(left) != GeneratedPair(right)), (left, right)


def test_an_object_equals_itself_even_when_a_field_does_not():
    nan = float("nan")
    assert Pair(nan) == Pair(nan) and GeneratedPair(nan) == GeneratedPair(nan)  # identity first, as tuples compare
    assert Pair(float("nan")) != Pair(float("nan"))


def test_a_record_of_another_class_is_unequal():
    assert Pair(1) != Twin(1) and Twin(1) != Pair(1)
    assert Pair(1).__eq__(Twin(1)) is NotImplemented
    assert Pair(1).__eq__((1,)) is NotImplemented
    assert Pair(1) != 1


def test_a_compare_false_field_is_ignored():
    assert Pair(1, "x") == Pair(1, "y")
    assert Pair(1, "x") != Pair(2, "x")
    assert IntLit(value=1, start=0, end=1) == IntLit(value=1, start=5, end=6)
    assert IntLit(value=1, explanation="a") != IntLit(value=1, explanation="b")
    left, right = MockShopSession(), MockShopSession()
    right._matches[("q",)] = ()
    assert left == right
    assert parse_emr("MR {{ IMPLIES(true, true); }}") == parse_emr("MR {{\n  IMPLIES( true,true ) ;\n}}")


def test_a_repr_false_field_is_omitted():
    assert repr(Pair(1, "secret")) == "Pair(shown=1)" == repr(GeneratedPair(1, "secret")).replace("Generated", "")
    assert repr(MockShopSession("ignore-filter")) == "MockShopSession(fault='ignore-filter', _first_search=None)"


def test_the_repr_names_the_qualified_class_and_every_field_in_order():
    @dataclass(eq=False, repr=False)
    class Local(Record):
        """A class whose qualified name is not its name."""

        b: int
        a: str = "x"

    assert repr(Local(1)) == "test_the_repr_names_the_qualified_class_and_every_field_in_order.<locals>.Local(b=1, a='x')"
    assert repr(IntLit(value=7)) == "IntLit(start=0, end=0, explanation=None, value=7)"


def test_a_self_referential_record_prints_dots():
    outer = Pair([])
    outer.shown.append(outer)
    generated = GeneratedPair([])
    generated.shown.append(generated)
    assert repr(outer) == "Pair(shown=[...])" == repr(generated).replace("Generated", "")
    inner = Twin(None)
    outer = Pair(inner)
    inner.shown = outer
    assert repr(outer) == "Pair(shown=Twin(shown=...))"
    assert repr(outer) == repr(outer)  # the guard is released after each call


def test_records_are_unhashable():
    for record in (Pair(1), Slotted(), IntLit(value=1), MockShopSession()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_a_slotted_record_keeps_no_instance_dict():
    for record in (Slotted(), Unit(1, 0, 0, "x")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1


def test_dataclass_helpers_still_work():
    record = Pair(1, "h")
    assert dataclasses.is_dataclass(record)
    assert [f.name for f in dataclasses.fields(record)] == ["shown", "hidden"]
    assert dataclasses.asdict(record) == {"shown": 1, "hidden": "h"}
    assert dataclasses.replace(record, shown=2) == Pair(2)


def _package_dataclasses() -> list[type]:
    classes = []
    for module in pkgutil.walk_packages(emrkit.__path__, "emrkit."):
        namespace = vars(importlib.import_module(module.name))
        classes += [value for value in namespace.values() if isinstance(value, type)
                    and dataclasses.is_dataclass(value) and value.__module__ == module.name]
    return classes


PACKAGE_DATACLASSES = _package_dataclasses()


def test_the_package_has_dataclasses_in_every_layer():
    modules = {cls.__module__ for cls in PACKAGE_DATACLASSES}
    assert {"emrkit.cli", "emrkit.dsl.ast", "emrkit.runtime.values", "emrkit.pipeline.generate",
            "emrkit.sut.mockshop", "emrkit.grading"} <= modules


@pytest.mark.parametrize("cls", PACKAGE_DATACLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def test_every_package_dataclass_takes_eq_and_repr_from_record(cls):
    assert issubclass(cls, Record)
    for name in ("__eq__", "__repr__"):
        method = cls.__dict__.get(name)
        # Only a method written in the class's own module may stand in for Record's.
        assert method is None or inspect.unwrap(method).__code__.co_filename == inspect.getfile(cls), name
    doc = cls.__dict__.get("__doc__")
    assert doc and not doc.startswith(f"{cls.__name__}("), "a docstring of its own, not one built from the signature"
