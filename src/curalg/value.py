"""The base of the value classes that runs hash or compare."""

from __future__ import annotations


class Value:
    """An immutable value: equal and hashed by its field tuple.

    A subclass sets its fields once, in ``__init__``, through
    ``object.__setattr__``, and returns them in order from ``_fields``.
    Two values are equal when they are of one class and their field tuples
    are equal; a value hashes as its field tuple does, so set and dict
    orders depend on the field values alone.  Assigning an attribute
    raises; ``functools.cached_property`` still works, since it stores
    into the instance ``__dict__`` without assignment.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")
