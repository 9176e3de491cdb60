"""Bases for the library's value classes, written out so that importing the
package needs neither `dataclasses` nor any code generated at import time.

A subclass names its public fields in `_fields`, which drive equality,
hashing and repr, and writes its own `__init__`. Private cache slots stay
out of `_fields`. `Frozen` subclasses assign their fields with `setfield`.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Value:
    """Mutable value: equal to another of the same class with equal fields;
    not hashable; repr ``Name(field=value, ...)``."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = attrgetter(*self._fields)
        return key(self) == key(other)

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class Frozen(Value):
    """Immutable value, hashed on its fields; assigning or deleting any
    attribute raises AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(attrgetter(*self._fields)(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
