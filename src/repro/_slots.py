"""``__slots__`` for a dataclass, on every Python the package supports.

``dataclass(slots=True)`` needs Python 3.10; :func:`slotted` does the same
on 3.9.  A record a long-lived service keeps per decided instance then
carries no per-object ``__dict__``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Type, TypeVar

T = TypeVar("T")


def slotted(cls: Type[T]) -> Type[T]:
    """Rebuild dataclass *cls* with one slot per field.

    Apply it above ``@dataclass``.  The generated ``__init__``, ``__eq__``,
    ``__repr__`` and the field list are carried over unchanged, so
    equality, ``repr``, ``dataclasses.replace`` and every field name stay
    as they were; only the per-instance ``__dict__`` (and ``__weakref__``)
    is gone.  A method of *cls* must not use zero-argument ``super()``.
    """
    names = tuple(f.name for f in fields(cls))
    namespace = dict(cls.__dict__)
    for name in (*names, "__dict__", "__weakref__"):
        namespace.pop(name, None)
    namespace["__slots__"] = names
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt
