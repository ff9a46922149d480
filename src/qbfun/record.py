"""Immutable value records: the base of qbfun's value types.

A record lists its fields in ``__slots__`` and sets each of them once in
a straight-line ``__init__``.  Its key, ``_key``, is the tuple of those
fields in slot order, read off the instance; this module is the one
place that builds it.  A class names in its class statement the slots
that hold values derived from its fields (``derived=(...)``); they are
not in the key, and the repr leaves them out.  A subclass that declares
no slots of its own keeps its parent's fields.  Equality and hashing go
through the key, so a record hashes like the tuple of its fields.  Only
a class declared with ``order=True`` compares by ``<`` and friends, and
only with records of its own class.  A record pickles and copies as its
class called on its key.
"""

from __future__ import annotations

from operator import attrgetter

# object.__setattr__ under a module-level name: a record's __init__ sets each
# field with it, past Record.__setattr__.  A plain global is one lookup, where
# object.__setattr__ is two; a LinearForm is built about a fifth faster.
setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, order=False, derived=(), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__dict__.get("__slots__", ()) if name not in derived)
        if fields:
            cls._fields = fields
            if len(fields) == 1:
                get = attrgetter(fields[0])
                cls._key = property(lambda self: (get(self),))
            else:
                cls._key = property(attrgetter(*fields))
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = _lt, _le, _gt, _ge

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key


def _lt(self, other):
    if other.__class__ is self.__class__:
        return self._key < other._key
    return NotImplemented


def _le(self, other):
    if other.__class__ is self.__class__:
        return self._key <= other._key
    return NotImplemented


def _gt(self, other):
    if other.__class__ is self.__class__:
        return self._key > other._key
    return NotImplemented


def _ge(self, other):
    if other.__class__ is self.__class__:
        return self._key >= other._key
    return NotImplemented
