"""The base of the library's value classes, written out so that importing the
package needs neither `dataclasses` nor any code generated at import time.

A subclass names its public fields in `_fields`, which drive construction,
equality, hashing and repr. Only a class that validates or normalizes its
fields, or holds a private cache slot (kept out of `_fields`), writes its own
`__init__`, assigning with `setfield`. One holding dicts sets `__hash__ = None`.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Frozen:
    """Immutable value: equal to another of the same class with equal fields,
    hashed on its fields, repr ``Name(field=value, ...)``; assigning or
    deleting any attribute raises AttributeError."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs:  # the fields after the positional ones, in field order
            args += tuple(kwargs.pop(name) for name in fields[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(fields):  # unknown, repeated, missing or extra
            raise TypeError(
                f"{self.__class__.__qualname__} takes each of its fields "
                f"({', '.join(fields)}) once, by position or by keyword"
            )
        for name, value in zip(fields, args):
            setfield(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = attrgetter(*self._fields)
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(attrgetter(*self._fields)(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

