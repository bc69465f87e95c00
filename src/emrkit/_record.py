"""``Record``: the ``__eq__`` and ``__repr__`` that every emrkit dataclass shares.

``@dataclass`` compiles an ``__eq__`` and a ``__repr__`` from source text for
each class it processes, and gives a class without a docstring one built
through ``inspect.signature``. Over the package's dataclasses that was most
of the time it takes to import emrkit, which every process pays before it
does any work. So each of them is declared ``@dataclass(eq=False,
repr=False)`` with a docstring of its own, gets only its ``__init__``
generated, and takes these two methods from ``Record``. They read the
fields when called and give what the generated methods gave:

- an object compares only with an object of the same class (anything else
  gets ``NotImplemented``), by the values of its ``compare=True`` fields in
  declaration order;
- the repr is ``QualName(field=value, ...)`` over the ``repr=True`` fields,
  with ``...`` for an object that is already being printed on this thread;
- instances are unhashable, as those of a mutable dataclass with
  ``eq=True`` are.
"""

from __future__ import annotations

from dataclasses import fields
from reprlib import recursive_repr
from typing import Any


class Record:
    """Base class of emrkit's dataclasses: field-wise ``__eq__`` and ``__repr__``."""

    __slots__ = ()

    # A class body that defines ``__eq__`` and no ``__hash__`` gets ``__hash__ = None``.
    def __eq__(self, other: object) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in fields(self) if f.compare]  # type: ignore[arg-type]
        return tuple(getattr(self, name) for name in names) == tuple(getattr(other, name) for name in names)

    @recursive_repr()
    def __repr__(self) -> str:
        shown = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr]  # type: ignore[arg-type]
        return f"{self.__class__.__qualname__}({', '.join(shown)})"
